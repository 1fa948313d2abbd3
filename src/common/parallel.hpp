// Dependency-free data-parallel execution for the simulation stack.
//
// Every population-scale experiment the paper implies — intra/inter
// Hamming statistics over device fleets (§II-A), ML-attack CRP dataset
// generation (§IV), thermal sweeps (§II-B) — reduces to thousands of
// *independent* time-domain PUF evaluations. This module provides the
// one primitive they all need: a fixed-size thread pool with a blocking
// `parallel_for(n, fn)` that runs `fn(0) … fn(n-1)` across workers.
//
// Design rules (all load-bearing for determinism and simplicity):
//   * No work stealing, no futures, no task graph: one loop at a time,
//     indices handed out in contiguous chunks from an atomic cursor.
//     Callers that need determinism key all output on the index — the
//     schedule can then never influence results.
//   * The calling thread participates in the loop, so a pool is never
//     idle-blocked on its own submitter and a 1-thread pool degenerates
//     to a plain serial loop.
//   * Nested parallel_for (from inside a worker) runs serially on the
//     calling worker — population-level parallelism already saturates
//     the machine, and serial nesting keeps the pool deadlock-free.
//   * The first exception thrown by any iteration cancels the remaining
//     indices and is rethrown on the submitting thread.
//
// Thread count resolution: explicit constructor argument, else the
// NEUROPULS_THREADS environment variable, else hardware_concurrency.
//
// Reactor primitives: alongside the barrier-style pool, this module
// provides the two building blocks of a work-stealing scheduler —
// `StealDeque` (per-worker run queue, LIFO for the owner, FIFO for
// thieves) and `ParkingLot` (token-counted park/unpark). They carry the
// readiness-driven `core::SessionEngine` reactor, the stack's one session
// scheduler: the pool contributes the threads (via parallel_for over
// worker ids), these structures contribute the scheduling.
//
// Concurrency contracts: every mutex here is an annotated common::Mutex
// and every guarded field carries NP_GUARDED_BY, so a Clang build with
// -Wthread-safety proves the locking discipline at compile time (the
// macros are no-ops elsewhere). Lock order within this module:
// submit_mutex_ > mutex_ > Loop::m; StealDeque and ParkingLot locks are
// leaves.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"

namespace neuropuls::common {

class ThreadPool {
 public:
  /// `threads == 0` resolves via NEUROPULS_THREADS / hardware_concurrency.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total execution width including the calling thread.
  std::size_t thread_count() const noexcept { return workers_.size() + 1; }

  /// Runs fn(0) … fn(n-1) across the pool and the calling thread; blocks
  /// until every index has finished. Rethrows the first exception any
  /// iteration raised (remaining indices are skipped). Safe to call from
  /// inside a running parallel_for — the nested loop executes serially.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t)>& fn);

  /// Process-wide shared pool (NEUROPULS_THREADS wide), built on first use.
  static ThreadPool& global();

  /// NEUROPULS_THREADS env var when set to a positive integer, else
  /// std::thread::hardware_concurrency(), floored at 1.
  static std::size_t default_thread_count();

 private:
  struct Loop;

  void worker_main();
  static void run_loop(Loop& loop);

  std::vector<std::thread> workers_;
  Mutex submit_mutex_;  // serialises concurrent external submitters
  Mutex mutex_;
  CondVar work_cv_;
  /// Loop being executed, if any.
  std::shared_ptr<Loop> current_ NP_GUARDED_BY(mutex_);
  bool stopping_ NP_GUARDED_BY(mutex_) = false;
};

/// parallel_for on the process-global pool.
inline void parallel_for(std::size_t n,
                         const std::function<void(std::size_t)>& fn) {
  ThreadPool::global().parallel_for(n, fn);
}

/// parallel_for on `pool`, or on the process-global pool when `pool` is
/// nullptr — for APIs whose callers may pass their own pool.
inline void parallel_for(ThreadPool* pool, std::size_t n,
                         const std::function<void(std::size_t)>& fn) {
  (pool != nullptr ? *pool : ThreadPool::global()).parallel_for(n, fn);
}

/// Fixed-capacity work-stealing run queue. The owning worker pushes and
/// pops at the bottom (LIFO — the session it just stepped is cache-warm
/// and likely to be stepped again), thieves take from the top (FIFO —
/// the oldest, coldest work is what migrates). One mutex per deque: with
/// per-worker queues the lock is essentially uncontended (a thief only
/// arrives when its own queue is empty), and a mutex keeps the structure
/// trivially TSan-clean. Capacity is fixed at construction so
/// push/pop/steal never allocate — part of the zero-allocation
/// steady-state contract of the session reactor.
class StealDeque {
 public:
  /// Capacity is rounded up to at least 1.
  explicit StealDeque(std::size_t capacity);

  StealDeque(const StealDeque&) = delete;
  StealDeque& operator=(const StealDeque&) = delete;

  /// Bottom push (owner only by convention, but safe from any thread).
  /// Returns false when the deque is full — the caller sized it wrong.
  bool push(void* item);

  /// Bottom pop, LIFO. nullptr when empty.
  void* pop() noexcept;

  /// Top steal, FIFO. nullptr when empty.
  void* steal() noexcept;

  std::size_t size() const noexcept;
  std::size_t capacity() const noexcept { return capacity_; }

 private:
  mutable Mutex mutex_;
  /// Fixed at construction; ring_.size() == capacity_ always. The
  /// elements (and the ring indices) move only under mutex_.
  const std::size_t capacity_;
  std::vector<void*> ring_ NP_GUARDED_BY(mutex_);
  std::size_t top_ NP_GUARDED_BY(mutex_) = 0;     // index of the oldest item
  std::size_t bottom_ NP_GUARDED_BY(mutex_) = 0;  // one past the newest item
};

/// Token-counted park/unpark for scheduler workers. The classic lost
/// wake-up — worker A finds every queue empty, worker B publishes work
/// and unparks, A only then goes to sleep — is made benign by banking
/// unparks as tokens: A's park() consumes the banked token and returns
/// without sleeping. Tokens are capped at `max_tokens` (normally the
/// worker count) so a burst of publishes cannot bank more wake-ups than
/// there are workers to wake. close() releases every sleeper and turns
/// all later park() calls into no-ops (shutdown).
class ParkingLot {
 public:
  explicit ParkingLot(std::size_t max_tokens = 0);  // 0 = uncapped

  ParkingLot(const ParkingLot&) = delete;
  ParkingLot& operator=(const ParkingLot&) = delete;

  /// Blocks until a token arrives (consuming it) or the lot is closed.
  /// Returns true when the call actually slept — the "parks" statistic.
  bool park();

  /// Banks one token and wakes one sleeper, if any.
  void unpark_one();

  /// Permanently releases everyone; later park() calls return instantly.
  void close();

  bool closed() const;

 private:
  mutable Mutex mutex_;
  CondVar cv_;
  std::size_t tokens_ NP_GUARDED_BY(mutex_) = 0;
  const std::size_t max_tokens_;  // fixed at construction
  bool closed_ NP_GUARDED_BY(mutex_) = false;
};

}  // namespace neuropuls::common
