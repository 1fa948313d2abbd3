#include "common/parallel.hpp"

#include <atomic>
#include <cstdlib>
#include <string>

namespace neuropuls::common {

namespace {

// True while the current thread is executing parallel_for iterations —
// either as a pool worker or as a submitter participating in its own
// loop. Nested parallel_for calls check this and run serially.
thread_local bool tl_in_parallel_region = false;

struct RegionGuard {
  bool previous;
  RegionGuard() : previous(tl_in_parallel_region) {
    tl_in_parallel_region = true;
  }
  ~RegionGuard() { tl_in_parallel_region = previous; }
};

}  // namespace

struct ThreadPool::Loop {
  const std::function<void(std::size_t)>* fn = nullptr;
  std::size_t end = 0;
  std::size_t chunk = 1;
  std::atomic<std::size_t> next{0};
  std::atomic<bool> cancelled{false};
  // Completion / error state.
  Mutex m;
  CondVar done_cv;
  std::size_t in_flight NP_GUARDED_BY(m) = 0;
  std::exception_ptr error NP_GUARDED_BY(m);

  bool has_work() const noexcept {
    return next.load(std::memory_order_relaxed) < end &&
           !cancelled.load(std::memory_order_relaxed);
  }
};

std::size_t ThreadPool::default_thread_count() {
  if (const char* env = std::getenv("NEUROPULS_THREADS")) {
    char* tail = nullptr;
    const unsigned long parsed = std::strtoul(env, &tail, 10);
    // strtoul wraps negative input to huge values; cap at a sane width so
    // garbage like "-3" falls through to the hardware default instead of
    // aborting inside thread spawn.
    if (tail != env && *tail == '\0' && parsed > 0 && parsed <= 4096) {
      return static_cast<std::size_t>(parsed);
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;  // thread-safe magic-static initialisation
  return pool;
}

ThreadPool::ThreadPool(std::size_t threads) {
  const std::size_t width = threads == 0 ? default_thread_count() : threads;
  // The submitting thread is execution width 1; spawn the rest.
  workers_.reserve(width > 0 ? width - 1 : 0);
  for (std::size_t i = 0; i + 1 < width; ++i) {
    workers_.emplace_back([this] { worker_main(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::run_loop(Loop& loop) {
  for (;;) {
    if (loop.cancelled.load(std::memory_order_acquire)) return;
    const std::size_t begin =
        loop.next.fetch_add(loop.chunk, std::memory_order_relaxed);
    if (begin >= loop.end) return;
    const std::size_t stop = std::min(begin + loop.chunk, loop.end);
    for (std::size_t i = begin; i < stop; ++i) {
      if (loop.cancelled.load(std::memory_order_relaxed)) return;
      try {
        (*loop.fn)(i);
      } catch (...) {
        {
          MutexLock lock(loop.m);
          if (!loop.error) loop.error = std::current_exception();
        }
        loop.cancelled.store(true, std::memory_order_release);
        return;
      }
    }
  }
}

void ThreadPool::worker_main() {
  RegionGuard in_region;  // everything a worker runs is inside a loop
  MutexLock lock(mutex_);
  for (;;) {
    while (!(stopping_ || (current_ && current_->has_work()))) {
      work_cv_.wait(mutex_);
    }
    if (stopping_) return;
    const std::shared_ptr<Loop> loop = current_;
    {
      MutexLock guard(loop->m);
      ++loop->in_flight;
    }
    lock.unlock();
    run_loop(*loop);
    {
      MutexLock guard(loop->m);
      --loop->in_flight;
    }
    loop->done_cv.notify_all();
    lock.lock();
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (tl_in_parallel_region || workers_.empty() || n == 1) {
    // Serial fallback: nested call, 1-thread pool, or trivially small
    // loop. Exceptions propagate naturally; iterations still count as a
    // parallel region so deeper nesting stays serial too.
    RegionGuard in_region;
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  auto loop = std::make_shared<Loop>();
  loop->fn = &fn;
  loop->end = n;
  // ~4 chunks per thread balances scheduling overhead against tail skew
  // from unequal per-item cost.
  loop->chunk = std::max<std::size_t>(1, n / (thread_count() * 4));

  // One loop at a time: a second external submitter waits its turn.
  MutexLock submit_lock(submit_mutex_);
  {
    MutexLock lock(mutex_);
    current_ = loop;
  }
  work_cv_.notify_all();

  {
    RegionGuard in_region;
    run_loop(*loop);  // the submitter works too — never idle-blocked
  }

  std::exception_ptr error;
  {
    MutexLock done_lock(loop->m);
    while (!(loop->in_flight == 0 &&
             (loop->next.load(std::memory_order_relaxed) >= loop->end ||
              loop->cancelled.load(std::memory_order_relaxed)))) {
      loop->done_cv.wait(loop->m);
    }
    error = loop->error;
  }
  {
    MutexLock lock(mutex_);
    current_.reset();
  }
  if (error) std::rethrow_exception(error);
}

StealDeque::StealDeque(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity), ring_(capacity_, nullptr) {}

bool StealDeque::push(void* item) {
  MutexLock lock(mutex_);
  if (bottom_ - top_ == capacity_) return false;
  ring_[bottom_ % capacity_] = item;
  ++bottom_;
  return true;
}

void* StealDeque::pop() noexcept {
  MutexLock lock(mutex_);
  if (bottom_ == top_) return nullptr;
  --bottom_;
  return ring_[bottom_ % capacity_];
}

void* StealDeque::steal() noexcept {
  MutexLock lock(mutex_);
  if (bottom_ == top_) return nullptr;
  void* item = ring_[top_ % capacity_];
  ++top_;
  return item;
}

std::size_t StealDeque::size() const noexcept {
  MutexLock lock(mutex_);
  return bottom_ - top_;
}

ParkingLot::ParkingLot(std::size_t max_tokens) : max_tokens_(max_tokens) {}

bool ParkingLot::park() {
  MutexLock lock(mutex_);
  if (closed_) return false;
  if (tokens_ > 0) {
    --tokens_;
    return false;
  }
  while (!(tokens_ > 0 || closed_)) cv_.wait(mutex_);
  if (tokens_ > 0) --tokens_;
  return true;
}

void ParkingLot::unpark_one() {
  {
    MutexLock lock(mutex_);
    if (closed_) return;
    if (max_tokens_ == 0 || tokens_ < max_tokens_) ++tokens_;
  }
  cv_.notify_one();
}

void ParkingLot::close() {
  {
    MutexLock lock(mutex_);
    closed_ = true;
  }
  cv_.notify_all();
}

bool ParkingLot::closed() const {
  MutexLock lock(mutex_);
  return closed_;
}

}  // namespace neuropuls::common
