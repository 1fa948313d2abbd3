// Verifier session runtime — many handshakes in flight at once.
//
// The paper's verifier is fleet-facing: §III/§IV describe one
// infrastructure endpoint authenticating and key-exchanging with a
// population of PUF devices, so verifier throughput is sessions/sec, not
// single-handshake latency. A thread-per-session design caps concurrency
// at the OS thread budget; the engine instead keeps M sessions in flight
// as resumable core::SessionMachine state machines.
//
// The engine is a readiness-driven work-stealing reactor. Every worker
// owns a run queue (common::StealDeque: LIFO for the owner so the
// cache-warm session runs next, FIFO for thieves so the coldest work
// migrates). A machine whose channel has nothing readable and whose
// wait_hint() says it will only burn poll ticks is parked on a timer
// heap and re-queued when its virtual deadline comes up, instead of
// being busy-polled. Idle workers steal, then advance the heap, then
// park in a common::ParkingLot. Per-session control records live in a
// common::Arena, and the steady-state step path — deque push/pop,
// stepping a waiting machine, parking — performs zero heap allocations
// (pinned by tests/core/test_engine_alloc.cpp).
//
// Threading contract: one owner per session. A session's channel,
// endpoints and DRBG are touched only by the one worker stepping it, and
// every frame a session receives is produced inside its own step()
// (SessionMachine::wait_hint). So nothing outside a session can make it
// runnable: a parked session is revived by its deadline, or by an
// admission eviction that retires it.
//
// Determinism contract (pinned by tests/core/test_session_engine.cpp):
// every session owns its channel, protocol endpoints, and a private
// ChaCha DRBG seeded exactly like core::run_serial with the submitted
// seed (session_driver_seed_bytes). Sessions share no mutable state and
// every channel poll is an explicit machine step, so no schedule — steal
// order, park timing, wake order — can influence any session's
// operation order: per-session transcripts are byte-identical to
// run_serial(seed, build) with the same factory, faulty channels
// included.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/arena.hpp"
#include "common/parallel.hpp"
#include "core/admission_control.hpp"
#include "core/session_driver.hpp"

namespace neuropuls::core {

struct SessionEngineConfig {
  /// Sessions stepped concurrently; admission is in submission order.
  std::size_t max_in_flight = 64;
  /// Smallest wait_hint() worth a park — shorter waits are cheaper to
  /// burn in place than to route through the timer heap.
  std::size_t park_threshold = 4;
  /// Invoked (from whichever worker retires the session) with the
  /// submission index the moment a session completes. Must be
  /// thread-safe; used by bench_server to measure completion-latency
  /// percentiles. May be empty.
  std::function<void(std::size_t)> on_complete;
  /// Optional admission controller consulted *before* a session's machine
  /// is built (reject-before-alloc). Shed sessions retire immediately
  /// with SessionResult::kShed; half-open victims it evicts retire with
  /// kEvicted. Borrowed — must outlive run(). nullptr = admit everything
  /// (the historical behavior, and what every determinism suite uses).
  AdmissionController* admission = nullptr;
};

/// Per-session admission identity, passed at submit(). Defaults model a
/// single well-behaved client with a free session (which the default
/// null controller admits unconditionally).
struct SubmitOptions {
  /// Client the session belongs to (rate bucket + half-open cap key).
  std::uint64_t client_id = 0;
  /// Bytes charged against the memory budgets while half-open.
  std::size_t cost_bytes = 0;
};

struct SessionEngineStats {
  std::size_t completed = 0;
  std::size_t converged = 0;
  /// machine.step() calls executed.
  std::uint64_t steps = 0;
  /// Sessions taken from another worker's run queue.
  std::uint64_t steals = 0;
  /// Sessions parked on the timer heap.
  std::uint64_t parks = 0;
  /// Parked sessions re-queued by an admission eviction before their
  /// deadline.
  std::uint64_t wakeups = 0;
  /// Virtual-time advances of the timer heap.
  std::uint64_t wheel_ticks = 0;
  /// Workers that went to sleep in the parking lot.
  std::uint64_t worker_parks = 0;
  /// Deepest run queue observed (scheduling-pressure signal).
  std::size_t peak_queue_depth = 0;
  /// Admission (zero when no controller is configured): sessions the
  /// controller let in / shed at the gate / killed half-open.
  std::uint64_t admitted = 0;
  std::uint64_t shed_rate_limited = 0;
  std::uint64_t shed_memory = 0;
  std::uint64_t evicted_half_open = 0;
  /// Malformed/oversized frames reported by retired sessions (charged to
  /// their client's bucket when a controller is configured).
  std::uint64_t malformed = 0;
};

/// Runs submitted sessions to completion across a borrowed thread pool.
/// Not itself thread-safe: one thread submits and runs; the parallelism
/// lives inside run().
class SessionEngine {
 public:
  explicit SessionEngine(common::ThreadPool& pool,
                         SessionEngineConfig config = {});
  ~SessionEngine();

  /// Queues one session; returns its submission index (the slot of its
  /// report in run()'s result). The factory runs at *admission* time, not
  /// here — with an AdmissionController configured, a shed session never
  /// builds its machine (reject-before-alloc).
  std::size_t submit(std::uint64_t seed, const MachineFactory& build,
                     SubmitOptions options = {});

  /// Runs every queued session to completion. Reports are returned in
  /// submission order; stats() accumulates across calls.
  std::vector<SessionReport> run();

  std::size_t queued() const noexcept { return pending_.size(); }
  const SessionEngineStats& stats() const noexcept { return stats_; }
  const SessionEngineConfig& config() const noexcept { return config_; }

 private:
  struct Session;
  struct Reactor;

  common::ThreadPool& pool_;
  SessionEngineConfig config_;
  /// Owns every Session control record between submit() and the end of
  /// run(): admission is a bump allocation, retirement is free, and the
  /// whole run's bookkeeping is destroyed together.
  common::Arena arena_;
  std::vector<Session*> pending_;
  SessionEngineStats stats_;
  std::size_t submitted_ = 0;
};

}  // namespace neuropuls::core
