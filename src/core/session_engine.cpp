#include "core/session_engine.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <tuple>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"

namespace neuropuls::core {

namespace {
/// Max step() calls per activation before a session yields back to the
/// run queue (bounds how long one session can monopolise a worker while
/// others are runnable).
constexpr std::size_t kStepsPerSlice = 32;

/// Slots per worker run queue (and in the timer heap). Eviction lets a
/// freshly admitted session coexist briefly with its not-yet-retired
/// victim, so the runnable population can exceed max_in_flight; double
/// the headroom rather than reason about the exact transient.
std::size_t run_queue_capacity(std::size_t max_in_flight) {
  return max_in_flight * 2 + 2;
}
}  // namespace

// Per-session control record, arena-allocated at submit() and destroyed
// en masse when run() finishes. sstate/park_epoch are guarded by the
// reactor's scheduler mutex; evicted/stepping are lock-free flags.
struct SessionEngine::Session {
  explicit Session(std::uint64_t seed)
      : rng(session_driver_seed_bytes(seed)) {}

  crypto::ChaChaDrbg rng;
  /// Deferred construction: held from submit() until the session passes
  /// admission, so a shed session costs a control record and nothing else.
  MachineFactory build;
  std::unique_ptr<SessionMachine> machine;
  std::size_t index = 0;
  std::uint64_t client_id = 0;
  std::size_t cost_bytes = 0;
  /// Set by the admission controller's half-open eviction (possibly from
  /// a worker stepping a different session); the owner observes it at the
  /// next pickup and retires the session as kEvicted instead of stepping,
  /// and try_park() refuses to park it.
  std::atomic<bool> evicted{false};

  enum class SState : std::uint8_t { kRunnable, kParked };
  SState sstate = SState::kRunnable;
  /// Bumped on every park *and* every wake, so a timer entry is live iff
  /// its recorded epoch still matches — a woken session's stale entry
  /// self-invalidates without a heap search.
  std::uint64_t park_epoch = 0;
  /// Exactly-one-worker-steps-me guard.
  std::atomic<bool> stepping{false};
};

// One reactor instantiation per run(): per-worker steal deques, a shared
// timer heap + ready list under one scheduler mutex (park/wake
// transitions are rare next to steps, so a single mutex is both simple
// and TSan-clean), a parking lot for idle workers, and admission state.
struct SessionEngine::Reactor {
  /// Binary min-heap of park deadlines over virtual poll time, keyed on
  /// (deadline, park order) so sessions due together revive in the order
  /// they parked. Guarded externally by sched_mutex. Its storage is
  /// reserved to the run-queue capacity: every live session holds at most
  /// one live entry, and only an eviction wake leaves a stale one behind,
  /// so the steady-state park path is heap-free.
  class TimerHeap {
   public:
    explicit TimerHeap(std::size_t capacity) { entries_.reserve(capacity); }

    void insert(Session* session, std::size_t delay) {
      const std::uint64_t deadline =
          now_ + std::max<std::size_t>(std::size_t{1}, delay);
      entries_.push_back(
          Entry{deadline, parked_++, session, session->park_epoch});
      std::push_heap(entries_.begin(), entries_.end(), later);
    }

    /// Jumps virtual time to the earliest live deadline and moves every
    /// session due at it into `out` (marking them runnable). Returns the
    /// number emitted; 0 when the heap holds no live entry.
    std::size_t advance(std::vector<Session*>& out) {
      std::size_t emitted = 0;
      while (emitted == 0 && !entries_.empty()) {
        now_ = entries_.front().deadline;
        while (!entries_.empty() && entries_.front().deadline == now_) {
          std::pop_heap(entries_.begin(), entries_.end(), later);
          const Entry entry = entries_.back();
          entries_.pop_back();
          // A mismatched epoch means the session was woken (or
          // re-parked) after this entry was written — it is stale.
          if (entry.session->park_epoch == entry.epoch &&
              entry.session->sstate == Session::SState::kParked) {
            entry.session->sstate = Session::SState::kRunnable;
            ++entry.session->park_epoch;
            out.push_back(entry.session);
            ++emitted;
          }
        }
      }
      return emitted;
    }

   private:
    struct Entry {
      std::uint64_t deadline;
      std::uint64_t order;
      Session* session;
      std::uint64_t epoch;
    };

    /// Heap order: true when `a` comes due after `b`.
    static bool later(const Entry& a, const Entry& b) {
      return std::tie(a.deadline, a.order) > std::tie(b.deadline, b.order);
    }

    std::uint64_t now_ = 0;
    std::uint64_t parked_ = 0;
    std::vector<Entry> entries_;
  };

  Reactor(SessionEngine& engine_in, std::vector<Session*>& all_in,
          std::vector<SessionReport>& reports_in, std::size_t width_in)
      : engine(engine_in),
        all(all_in),
        reports(reports_in),
        width(width_in),
        lot(width_in),
        remaining(all_in.size()),
        timers(run_queue_capacity(engine_in.config_.max_in_flight)) {
    queues.reserve(width);
    scratch.resize(width);
    const std::size_t capacity =
        run_queue_capacity(engine.config_.max_in_flight);
    for (std::size_t w = 0; w < width; ++w) {
      queues.push_back(std::make_unique<common::StealDeque>(capacity));
      scratch[w].reserve(engine.config_.max_in_flight);
    }
    ready.reserve(engine.config_.max_in_flight);
  }

  SessionEngine& engine;
  std::vector<Session*>& all;
  std::vector<SessionReport>& reports;
  std::size_t width;

  std::vector<std::unique_ptr<common::StealDeque>> queues;
  std::vector<std::vector<Session*>> scratch;  // per-worker timer-drain buffer
  common::ParkingLot lot;
  std::atomic<std::size_t> remaining;
  std::atomic<bool> failed{false};

  /// Also guards every Session's sstate/park_epoch transition (a
  /// cross-object contract the annotations cannot name — Session fields
  /// cannot reference a Reactor member — so it is documented here and
  /// checked by the TSan flavor instead).
  common::Mutex sched_mutex;
  TimerHeap timers NP_GUARDED_BY(sched_mutex);
  std::vector<Session*> ready NP_GUARDED_BY(sched_mutex);

  common::Mutex admit_mutex;
  std::size_t next_admit NP_GUARDED_BY(admit_mutex) = 0;

  std::atomic<std::uint64_t> steps{0};
  std::atomic<std::uint64_t> steals{0};
  std::atomic<std::uint64_t> parks{0};
  std::atomic<std::uint64_t> wakeups{0};
  std::atomic<std::uint64_t> wheel_ticks{0};
  std::atomic<std::uint64_t> worker_parks{0};
  std::atomic<std::size_t> peak_depth{0};
  std::atomic<std::size_t> completed{0};
  std::atomic<std::size_t> converged{0};
  std::atomic<std::uint64_t> admitted{0};
  std::atomic<std::uint64_t> shed_rate_limited{0};
  std::atomic<std::uint64_t> shed_memory{0};
  std::atomic<std::uint64_t> evicted_half_open{0};
  std::atomic<std::uint64_t> malformed{0};

  void push_runnable(std::size_t w, Session* s) {
    if (!queues[w]->push(s)) {
      throw std::logic_error("SessionEngine: run queue overflow");
    }
    const std::size_t depth = queues[w]->size();
    std::size_t prev = peak_depth.load(std::memory_order_relaxed);
    while (depth > prev && !peak_depth.compare_exchange_weak(
                               prev, depth, std::memory_order_relaxed)) {
    }
    lot.unpark_one();
  }

  /// Re-queues `s` if it is parked. Only eviction calls this: a queued
  /// or running session needs no wake, because its owner checks
  /// `evicted` at the next pickup and in try_park().
  void wake(Session* s) {
    common::MutexLock lock(sched_mutex);
    if (s->sstate != Session::SState::kParked) return;
    s->sstate = Session::SState::kRunnable;
    ++s->park_epoch;  // the timer entry is now stale
    ready.push_back(s);
    wakeups.fetch_add(1, std::memory_order_relaxed);
    lot.unpark_one();
  }

  bool try_park(Session* s, std::size_t hint) {
    common::MutexLock lock(sched_mutex);
    // evict() sets the flag before its wake() takes this lock: either the
    // flag is visible here, or the wake finds the session parked.
    if (s->evicted.load(std::memory_order_acquire)) return false;
    s->sstate = Session::SState::kParked;
    ++s->park_epoch;
    timers.insert(s, hint);
    parks.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  Session* pop_ready() {
    common::MutexLock lock(sched_mutex);
    if (ready.empty()) return nullptr;
    Session* s = ready.back();
    ready.pop_back();
    return s;
  }

  bool advance_timers(std::vector<Session*>& out) {
    out.clear();
    common::MutexLock lock(sched_mutex);
    if (timers.advance(out) == 0) return false;
    wheel_ticks.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  /// Retires a session the controller shed at the gate: no machine was
  /// ever built, the report records only the decision.
  void finish_shed(Session* s, AdmitDecision decision) {
    SessionReport report;
    report.result = SessionResult::kShed;
    reports[s->index] = report;
    completed.fetch_add(1, std::memory_order_relaxed);
    if (decision == AdmitDecision::kShedRateLimited) {
      shed_rate_limited.fetch_add(1, std::memory_order_relaxed);
    } else {
      shed_memory.fetch_add(1, std::memory_order_relaxed);
    }
    if (engine.config_.on_complete) engine.config_.on_complete(s->index);
    if (remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      lot.close();
    }
  }

  /// Marks the half-open victim of an eviction and wakes it so whichever
  /// worker picks it up next retires it instead of stepping it.
  void evict(std::size_t handle) {
    Session* victim = all[handle];
    victim->evicted.store(true, std::memory_order_release);
    evicted_half_open.fetch_add(1, std::memory_order_relaxed);
    wake(victim);
  }

  void admit_one(std::size_t w) {
    // Loops because a shed session frees no capacity: keep consuming the
    // pending queue until one session is actually admitted (or it's empty).
    for (;;) {
      Session* s = nullptr;
      {
        common::MutexLock lock(admit_mutex);
        if (next_admit >= all.size()) return;
        s = all[next_admit++];
      }
      AdmissionController* ctl = engine.config_.admission;
      if (ctl != nullptr) {
        const AdmitResult verdict =
            ctl->try_admit(s->client_id, s->index, s->cost_bytes);
        if (verdict.decision != AdmitDecision::kAdmitted) {
          finish_shed(s, verdict.decision);
          continue;
        }
        admitted.fetch_add(1, std::memory_order_relaxed);
        if (verdict.evicted) evict(verdict.evicted_handle);
      }
      // Reject-before-alloc: the machine (channel buffers, endpoints'
      // working state) is built only after admission charged its cost.
      s->machine = s->build(s->rng);
      push_runnable(w, s);
      return;
    }
  }

  void retire(std::size_t w, Session* s) {
    SessionReport report = s->machine->report();
    if (s->evicted.load(std::memory_order_acquire)) {
      report.result = SessionResult::kEvicted;
    }
    reports[s->index] = report;
    completed.fetch_add(1, std::memory_order_relaxed);
    if (report.result == SessionResult::kConverged) {
      converged.fetch_add(1, std::memory_order_relaxed);
    }
    malformed.fetch_add(report.malformed_frames, std::memory_order_relaxed);
    AdmissionController* ctl = engine.config_.admission;
    if (ctl != nullptr) {
      // complete() is idempotent, so an evicted session (whose slot the
      // controller already released) double-releases nothing.
      ctl->complete(s->index);
      if (report.malformed_frames > 0) {
        ctl->note_malformed(s->client_id, report.malformed_frames);
      }
    }
    if (engine.config_.on_complete) engine.config_.on_complete(s->index);
    admit_one(w);
    if (remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      lot.close();  // last session retired — release every sleeping worker
    }
  }

  void run_burst(std::size_t w, Session* s) {
    if (s->stepping.exchange(true, std::memory_order_acquire)) {
      throw std::logic_error(
          "SessionEngine: session stepped by two workers at once");
    }
    if (s->evicted.load(std::memory_order_acquire)) {
      s->stepping.store(false, std::memory_order_release);
      retire(w, s);  // killed half-open: never stepped again
      return;
    }
    std::uint64_t executed = 0;
    bool done = false;
    std::size_t hint = 0;
    for (std::size_t k = 0; k < kStepsPerSlice; ++k) {
      ++executed;
      if (!s->machine->step()) {
        done = true;
        break;
      }
      hint = s->machine->wait_hint();
      if (hint >= engine.config_.park_threshold) break;
    }
    steps.fetch_add(executed, std::memory_order_relaxed);
    // Publish before the session becomes reachable by other workers.
    s->stepping.store(false, std::memory_order_release);
    if (done) {
      retire(w, s);
      return;
    }
    if (hint >= engine.config_.park_threshold && try_park(s, hint)) return;
    push_runnable(w, s);  // yield: back of nobody's line — our own bottom
  }

  void worker_loop(std::size_t w) {
    std::vector<Session*>& due = scratch[w];
    for (;;) {
      if (failed.load(std::memory_order_relaxed)) return;
      auto* s = static_cast<Session*>(queues[w]->pop());
      if (s == nullptr) s = pop_ready();
      if (s == nullptr) {
        for (std::size_t i = 1; i < width && s == nullptr; ++i) {
          s = static_cast<Session*>(queues[(w + i) % width]->steal());
        }
        if (s != nullptr) steals.fetch_add(1, std::memory_order_relaxed);
      }
      if (s == nullptr && advance_timers(due)) {
        s = due.front();
        for (std::size_t i = 1; i < due.size(); ++i) push_runnable(w, due[i]);
      }
      if (s == nullptr) {
        if (remaining.load(std::memory_order_acquire) == 0) return;
        if (lot.park()) worker_parks.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      run_burst(w, s);
    }
  }
};

SessionEngine::SessionEngine(common::ThreadPool& pool,
                             SessionEngineConfig config)
    : pool_(pool), config_(std::move(config)) {
  config_.max_in_flight = std::max<std::size_t>(1, config_.max_in_flight);
  config_.park_threshold = std::max<std::size_t>(1, config_.park_threshold);
}

SessionEngine::~SessionEngine() = default;

std::size_t SessionEngine::submit(std::uint64_t seed,
                                  const MachineFactory& build,
                                  SubmitOptions options) {
  Session* session = arena_.create<Session>(seed);
  const std::size_t index = submitted_++;
  session->index = index;
  session->build = build;
  session->client_id = options.client_id;
  session->cost_bytes = options.cost_bytes;
  pending_.push_back(session);
  return index;
}

std::vector<SessionReport> SessionEngine::run() {
  std::vector<Session*> queue = std::move(pending_);
  pending_.clear();
  submitted_ = 0;

  // Reports are keyed by submission index: completion order is
  // schedule-dependent, the result must not be.
  std::vector<SessionReport> reports(queue.size());
  if (queue.empty()) return reports;

  const std::size_t width =
      std::max<std::size_t>(1, std::min(pool_.thread_count(), queue.size()));
  Reactor reactor(*this, queue, reports, width);

  // Initial admission, round-robin across workers. Still single-threaded
  // here, but admit_one() takes the admission lock anyway: uncontended
  // locking is cheap, and the alternative (touching next_admit bare) is
  // exactly the unguarded access the capability analysis exists to ban.
  const std::size_t initial = std::min(config_.max_in_flight, queue.size());
  for (std::size_t i = 0; i < initial; ++i) {
    reactor.admit_one(i % width);
  }

  pool_.parallel_for(width, [&reactor](std::size_t w) {
    try {
      reactor.worker_loop(w);
    } catch (...) {
      // Unblock the other workers so parallel_for can join and rethrow.
      reactor.failed.store(true, std::memory_order_relaxed);
      reactor.lot.close();
      throw;
    }
  });

  // The workers are joined (parallel_for returned), so relaxed loads
  // suffice — and match the relaxed increments on the write side; mixing
  // in seq_cst here implied a synchronization role these loads don't
  // have (and tripped ctlint's atomic-misuse pass).
  stats_.completed += reactor.completed.load(std::memory_order_relaxed);
  stats_.converged += reactor.converged.load(std::memory_order_relaxed);
  stats_.steps += reactor.steps.load(std::memory_order_relaxed);
  stats_.steals += reactor.steals.load(std::memory_order_relaxed);
  stats_.parks += reactor.parks.load(std::memory_order_relaxed);
  stats_.wakeups += reactor.wakeups.load(std::memory_order_relaxed);
  stats_.wheel_ticks += reactor.wheel_ticks.load(std::memory_order_relaxed);
  stats_.worker_parks +=
      reactor.worker_parks.load(std::memory_order_relaxed);
  stats_.peak_queue_depth = std::max(
      stats_.peak_queue_depth,
      reactor.peak_depth.load(std::memory_order_relaxed));
  stats_.admitted += reactor.admitted.load(std::memory_order_relaxed);
  stats_.shed_rate_limited +=
      reactor.shed_rate_limited.load(std::memory_order_relaxed);
  stats_.shed_memory += reactor.shed_memory.load(std::memory_order_relaxed);
  stats_.evicted_half_open +=
      reactor.evicted_half_open.load(std::memory_order_relaxed);
  stats_.malformed += reactor.malformed.load(std::memory_order_relaxed);

  arena_.reset();  // every Session record of this run dies together
  return reports;
}

}  // namespace neuropuls::core
