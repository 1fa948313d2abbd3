#include "core/session_engine.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <stdexcept>

namespace neuropuls::core {

namespace {
constexpr std::uint64_t kNoDeadline = std::numeric_limits<std::uint64_t>::max();
/// Max step() calls per activation before a session yields back to the
/// run queue (bounds how long one session can monopolise a worker while
/// others are runnable).
constexpr std::size_t kStepsPerSlice = 32;
}  // namespace

// Per-session control record, arena-allocated at submit() and destroyed
// en masse when run() finishes. sstate/park_epoch are guarded by the
// reactor's scheduler mutex; wake_pending/stepping are lock-free flags.
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
  /// next pickup and retires the session as kEvicted instead of stepping.
  std::atomic<bool> evicted{false};

  enum class SState : std::uint8_t { kRunnable, kParked };
  SState sstate = SState::kRunnable;
  /// Bumped on every park *and* every wake, so a wheel entry is live iff
  /// its recorded epoch still matches — a woken session's stale entry
  /// self-invalidates without a wheel search.
  std::uint64_t park_epoch = 0;
  /// Set by a cross-thread wake that found the session not parked; the
  /// owner consumes it at the next park decision (requeue instead).
  std::atomic<bool> wake_pending{false};
  /// Exactly-one-worker-steps-me guard.
  std::atomic<bool> stepping{false};
};

namespace {

/// The session this thread is currently stepping (type-erased — Session
/// is engine-private) — lets the channel wakeup hook recognise the
/// session's own sends (already visible to its next wait_hint()) and
/// skip the cross-thread wake path entirely.
thread_local void* tl_current_session = nullptr;

}  // namespace

// One reactor instantiation per run(): per-worker steal deques, a shared
// timer wheel + ready list under one scheduler mutex (park/wake
// transitions are rare next to steps, so a single mutex is both simple
// and TSan-clean), a parking lot for idle workers, and admission state.
struct SessionEngine::Reactor {
  /// Two-level hierarchical timer wheel over virtual poll time. Entries
  /// carry absolute deadlines; each bucket caches its minimum so
  /// advance() finds the earliest pending deadline in O(slots), not
  /// O(parked). Guarded externally by sched_mutex. Bucket vectors keep
  /// their capacity across drains, so parking is allocation-free once
  /// the wheel is warm.
  class TimerWheel {
   public:
    static constexpr std::size_t kSlots = 64;
    /// Pre-reserved entries per bucket: parking only allocates once a
    /// single bucket collects more sessions than this (and then keeps
    /// the grown capacity), so the steady-state park path is heap-free.
    static constexpr std::size_t kBucketReserve = 8;

    TimerWheel() {
      for (Bucket& bucket : level0_) bucket.items.reserve(kBucketReserve);
      for (Bucket& bucket : level1_) bucket.items.reserve(kBucketReserve);
      overflow_.items.reserve(kBucketReserve);
    }

    void insert(Session* session, std::size_t delay) {
      const std::uint64_t deadline =
          now_ + std::max<std::size_t>(std::size_t{1}, delay);
      Bucket& bucket = bucket_for(deadline);
      bucket.items.push_back(Entry{session, session->park_epoch, deadline});
      bucket.min_deadline = std::min(bucket.min_deadline, deadline);
      ++entries_;
    }

    /// Jumps virtual time to the earliest live deadline and moves every
    /// session due at it into `out` (marking them runnable). Returns the
    /// number emitted; 0 when the wheel holds no live entry.
    std::size_t advance(std::vector<Session*>& out) {
      while (entries_ > 0) {
        Bucket* best = nullptr;
        for (Bucket& bucket : level0_) {
          if (bucket.min_deadline < (best ? best->min_deadline : kNoDeadline)) {
            best = &bucket;
          }
        }
        for (Bucket& bucket : level1_) {
          if (bucket.min_deadline < (best ? best->min_deadline : kNoDeadline)) {
            best = &bucket;
          }
        }
        if (overflow_.min_deadline < (best ? best->min_deadline : kNoDeadline)) {
          best = &overflow_;
        }
        if (best == nullptr) return 0;  // only stale-cleared buckets remain
        now_ = std::max(now_, best->min_deadline);

        std::size_t emitted = 0;
        std::size_t keep = 0;
        std::uint64_t new_min = kNoDeadline;
        auto& items = best->items;
        for (std::size_t i = 0; i < items.size(); ++i) {
          Entry entry = items[i];
          if (entry.deadline <= now_) {
            --entries_;
            // A mismatched epoch means the session was woken (or
            // re-parked) after this entry was written — it is stale.
            if (entry.session->park_epoch == entry.epoch &&
                entry.session->sstate == Session::SState::kParked) {
              entry.session->sstate = Session::SState::kRunnable;
              ++entry.session->park_epoch;
              out.push_back(entry.session);
              ++emitted;
            }
          } else {
            items[keep++] = entry;
            new_min = std::min(new_min, entry.deadline);
          }
        }
        items.resize(keep);
        best->min_deadline = new_min;
        if (emitted > 0) return emitted;
        // Every due entry was stale; keep scanning for the next deadline.
      }
      return 0;
    }

    std::uint64_t now() const noexcept { return now_; }

   private:
    struct Entry {
      Session* session;
      std::uint64_t epoch;
      std::uint64_t deadline;
    };
    struct Bucket {
      std::vector<Entry> items;
      std::uint64_t min_deadline = kNoDeadline;
    };

    Bucket& bucket_for(std::uint64_t deadline) {
      const std::uint64_t delta = deadline - now_;
      if (delta <= kSlots) return level0_[deadline % kSlots];
      if (delta <= kSlots * kSlots) {
        return level1_[(deadline / kSlots) % kSlots];
      }
      return overflow_;
    }

    std::uint64_t now_ = 0;
    std::size_t entries_ = 0;  // bucket entries, stale included
    Bucket level0_[kSlots];    // deadlines within (now, now+64]
    Bucket level1_[kSlots];    // deadlines within (now+64, now+4096]
    Bucket overflow_;          // beyond the hierarchical horizon
  };

  Reactor(SessionEngine& engine_in, std::vector<Session*>& all_in,
          std::vector<SessionReport>& reports_in, std::size_t width_in)
      : engine(engine_in),
        all(all_in),
        reports(reports_in),
        width(width_in),
        lot(width_in),
        remaining(all_in.size()) {
    queues.reserve(width);
    scratch.resize(width);
    // Eviction lets a freshly admitted session coexist briefly with its
    // not-yet-retired victim, so the runnable population can exceed
    // max_in_flight; double the headroom rather than reason about the
    // exact transient.
    const std::size_t capacity = engine.config_.max_in_flight * 2 + 2;
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
  std::vector<std::vector<Session*>> scratch;  // per-worker wheel-drain buffer
  common::ParkingLot lot;
  std::atomic<std::size_t> remaining;
  std::atomic<bool> failed{false};

  /// Also guards every Session's sstate/park_epoch transition (a
  /// cross-object contract the annotations cannot name — Session fields
  /// cannot reference a Reactor member — so it is documented here and
  /// checked by the TSan flavor instead).
  common::Mutex sched_mutex;
  TimerWheel wheel NP_GUARDED_BY(sched_mutex);
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

  void attach(Session* s) {
    s->machine->channel().set_wakeup_hook(
        [this, s](net::Direction) { wake(s); });
  }

  /// Clears every installed wakeup hook. Normally a no-op (retire clears
  /// each), but after a worker exception it keeps user-owned channels
  /// from holding dangling references into this (stack-local) reactor.
  void detach_all() {
    common::MutexLock lock(admit_mutex);
    for (std::size_t i = 0; i < next_admit; ++i) {
      // Shed sessions never built a machine (reject-before-alloc).
      if (all[i]->machine) all[i]->machine->channel().set_wakeup_hook(nullptr);
    }
  }

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

  /// Channel wakeup: a frame landed for `s`. Self-sends while `s` is
  /// being stepped on this very thread are already visible to its next
  /// wait_hint(), so only genuinely external arrivals take the slow path.
  void wake(Session* s) {
    if (tl_current_session == s) return;
    common::MutexLock lock(sched_mutex);
    if (s->sstate == Session::SState::kParked) {
      s->sstate = Session::SState::kRunnable;
      ++s->park_epoch;  // the wheel entry is now stale
      ready.push_back(s);
      wakeups.fetch_add(1, std::memory_order_relaxed);
      lot.unpark_one();
    } else {
      // Running or queued: make the owner's next park decision a requeue,
      // closing the stepping→park window without a lock on the hot path.
      s->wake_pending.store(true, std::memory_order_relaxed);
    }
  }

  bool try_park(Session* s, std::size_t hint) {
    common::MutexLock lock(sched_mutex);
    if (s->wake_pending.exchange(false, std::memory_order_acq_rel)) {
      return false;  // a wake raced the park — keep the session runnable
    }
    s->sstate = Session::SState::kParked;
    ++s->park_epoch;
    wheel.insert(s, hint);
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

  bool advance_wheel(std::vector<Session*>& out) {
    out.clear();
    common::MutexLock lock(sched_mutex);
    if (wheel.advance(out) == 0) return false;
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
      attach(s);
      push_runnable(w, s);
      return;
    }
  }

  void retire(std::size_t w, Session* s) {
    s->machine->channel().set_wakeup_hook(nullptr);
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
    tl_current_session = s;
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
    tl_current_session = nullptr;
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
    std::vector<Session*>& wheel_out = scratch[w];
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
      if (s == nullptr && advance_wheel(wheel_out)) {
        s = wheel_out.front();
        for (std::size_t i = 1; i < wheel_out.size(); ++i) {
          push_runnable(w, wheel_out[i]);
        }
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

  {
    common::MutexLock lock(notify_mutex_);
    active_ = &reactor;
  }
  try {
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
  } catch (...) {
    {
      common::MutexLock lock(notify_mutex_);
      active_ = nullptr;
    }
    reactor.detach_all();
    throw;
  }
  {
    common::MutexLock lock(notify_mutex_);
    active_ = nullptr;
  }
  reactor.detach_all();

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

void SessionEngine::notify(std::size_t index) {
  common::MutexLock lock(notify_mutex_);
  if (active_ == nullptr || index >= active_->all.size()) return;
  active_->wake(active_->all[index]);
}

}  // namespace neuropuls::core
