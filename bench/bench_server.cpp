// E14 — Verifier-engine throughput: sessions/sec under multiplexing.
//
// The paper's verifier is one infrastructure endpoint serving a fleet
// (§III/§IV), so the service-level number is authenticated sessions per
// second, not single-handshake latency. This bench drives the
// core::SessionEngine against populations of arbiter-PUF devices and
// reports:
//
//   * sessions/sec over the {threads} × {in-flight} grid, with the serial
//     core::run_serial loop as the 1×1 baseline and a speedup column — on a
//     multi-core host the hw × 1024 cell is the headline; on a single
//     hardware thread the engine's value is bounded-memory multiplexing
//     and the speedup column measures its scheduling overhead instead;
//   * CRP-store ops/sec vs shard count under a fixed 4-thread mixed
//     take/insert/lookup load, with the lock-contention fraction from
//     CrpDatabase::lock_stats().
//
// Timing cases (google-benchmark JSON for scripts/bench_regress.py):
//   * BM_ServerSessionsSerial — the run_serial loop, sessions/sec;
//   * BM_ServerSessionsReactor/{1,64,1024} — the engine at that in-flight
//     width on the default pool width over a 4096-device fleet; manual
//     time is engine.run() alone (fleet, pool and submits untimed);
//   * BM_ServerSessionsSkewedReactor — skewed-latency fleet (1% of
//     devices 100x slower); manual time is time-to-90%-converged, the
//     completion-latency metric where scheduling policy shows up even
//     when total work is fixed;
//   * BM_ServerSessionsHostile/{50,95} — mixed honest/hostile load at
//     that hostile percentage through the admission controller; items/sec
//     counts honest sessions only (goodput under abuse);
//   * BM_CrpStoreMixedOps/{1,4,8} — sharded store ops/sec, 4 threads.
#include <atomic>
#include <chrono>
#include <thread>

#include "bench_util.hpp"
#include "common/parallel.hpp"
#include "core/admission_control.hpp"
#include "core/session_engine.hpp"
#include "crypto/sha256.hpp"
#include "faults/flood_adversary.hpp"
#include "puf/arbiter_puf.hpp"
#include "puf/crp_db.hpp"

namespace {

using namespace neuropuls;

// ------------------------------------------------- session fixtures

// Skewed-latency decorator: a device whose PUF takes `kSlowdown` times
// longer per evaluation (a cold photonic cavity, a device on a congested
// bus — the paper's fleet is heterogeneous). Responses are those of the
// wrapped PUF, only the cost changes, so transcripts stay identical to
// the fast device's and only the schedule feels the skew.
class SlowPuf final : public puf::Puf {
 public:
  static constexpr unsigned kSlowdown = 100;
  explicit SlowPuf(puf::Puf& inner) : inner_(inner) {}
  std::size_t challenge_bytes() const override {
    return inner_.challenge_bytes();
  }
  std::size_t response_bytes() const override {
    return inner_.response_bytes();
  }
  puf::Response evaluate(const puf::Challenge& challenge) override {
    for (unsigned i = 0; i + 1 < kSlowdown; ++i) {
      benchmark::DoNotOptimize(inner_.evaluate_noiseless(challenge));
    }
    return inner_.evaluate(challenge);
  }
  puf::Response evaluate_noiseless(
      const puf::Challenge& challenge) const override {
    return inner_.evaluate_noiseless(challenge);
  }
  std::string name() const override { return inner_.name() + "+slow"; }

 private:
  puf::Puf& inner_;
};

struct AuthFixture {
  std::unique_ptr<puf::ArbiterPuf> puf;
  std::unique_ptr<SlowPuf> slow_puf;  // set only for skewed fleet members
  std::unique_ptr<core::AuthDevice> device;
  std::unique_ptr<core::AuthVerifier> verifier;
  net::DuplexChannel channel;
};

std::unique_ptr<AuthFixture> make_fixture(std::uint64_t device_seed,
                                          bool slow = false) {
  auto f = std::make_unique<AuthFixture>();
  f->puf = std::make_unique<puf::ArbiterPuf>(puf::ArbiterPufConfig{},
                                             device_seed);
  crypto::ChaChaDrbg rng(crypto::bytes_of("bench-server-provision"));
  const auto provisioned = core::provision(*f->puf, rng);
  const crypto::Bytes memory(1024, 0xA5);
  puf::Puf* device_puf = f->puf.get();
  if (slow) {
    f->slow_puf = std::make_unique<SlowPuf>(*f->puf);
    device_puf = f->slow_puf.get();
  }
  f->device = std::make_unique<core::AuthDevice>(*device_puf,
                                                 provisioned.device_crp,
                                                 memory);
  f->verifier = std::make_unique<core::AuthVerifier>(
      provisioned.verifier_secret, crypto::Sha256::hash(memory),
      f->puf->challenge_bytes());
  return f;
}

// `slow_every` > 0 makes every slow_every-th device a SlowPuf (100 ==
// the issue's "1% of sessions 100x slower" skew scenario).
std::vector<std::unique_ptr<AuthFixture>> make_fleet(std::size_t sessions,
                                                     std::size_t slow_every =
                                                         0) {
  std::vector<std::unique_ptr<AuthFixture>> fleet;
  fleet.reserve(sessions);
  for (std::size_t k = 0; k < sessions; ++k) {
    const bool slow = slow_every != 0 && (k + 1) % slow_every == 0;
    fleet.push_back(make_fixture(0x5EED + k, slow));
  }
  return fleet;
}

// The one factory the serial loop and the engine both run for device k.
core::MachineFactory auth_session(AuthFixture& f, std::size_t k) {
  return [&f, k](crypto::ChaChaDrbg& rng) {
    return std::make_unique<core::AuthSessionMachine>(
        f.channel, core::RetryPolicy{}, rng, *f.verifier, *f.device,
        10 * (k + 1));
  };
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Serial baseline: one blocking run_serial call per device.
double run_serial_fleet(std::vector<std::unique_ptr<AuthFixture>>& fleet) {
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t k = 0; k < fleet.size(); ++k) {
    (void)core::run_serial(42 + k, auth_session(*fleet[k], k));
  }
  return seconds_since(start);
}

struct EngineRunResult {
  double elapsed = 0.0;  // engine.run() wall time, seconds
  double t90 = 0.0;      // time until 90% of sessions completed, seconds
  core::SessionEngineStats stats;
};

// Engine run: the same per-session seeds, `threads` pool width, up to
// `in_flight` sessions multiplexed. Only engine.run() is timed — pool
// construction and submits are not. Alongside that wall time this records
// time-to-90%-completed via the engine's on_complete hook: on a
// fixed-work fleet the total is fixed by the work on one core, but
// completion latency is not — the reactor retires fast sessions while a
// slow one is still grinding.
EngineRunResult run_engine_fleet(
    std::vector<std::unique_ptr<AuthFixture>>& fleet, std::size_t threads,
    std::size_t in_flight) {
  common::ThreadPool pool(threads);
  core::SessionEngineConfig config;
  config.max_in_flight = in_flight;
  const std::size_t target = (fleet.size() * 9 + 9) / 10;
  std::atomic<std::size_t> completed{0};
  std::atomic<std::int64_t> t90_ns{0};
  std::chrono::steady_clock::time_point start;
  config.on_complete = [&](std::size_t) {
    if (completed.fetch_add(1, std::memory_order_relaxed) + 1 == target) {
      t90_ns.store(std::chrono::duration_cast<std::chrono::nanoseconds>(
                       std::chrono::steady_clock::now() - start)
                       .count(),
                   std::memory_order_relaxed);
    }
  };
  core::SessionEngine engine(pool, config);
  for (std::size_t k = 0; k < fleet.size(); ++k) {
    engine.submit(42 + k, auth_session(*fleet[k], k));
  }
  start = std::chrono::steady_clock::now();
  (void)engine.run();
  EngineRunResult result;
  result.elapsed = seconds_since(start);
  result.t90 = static_cast<double>(t90_ns.load()) * 1e-9;
  result.stats = engine.stats();
  return result;
}

void print_sessions_table() {
  bench::banner("E14", "Verifier sessions/sec vs concurrency (mutual auth)");
  constexpr std::size_t kSessions = 1024;
  const std::size_t hw = common::ThreadPool::default_thread_count();

  auto serial_fleet = make_fleet(kSessions);
  const double serial_s = run_serial_fleet(serial_fleet);
  const double serial_rate = kSessions / serial_s;
  std::printf("  %-10s %-10s %-14s %-10s\n", "threads", "in-flight",
              "sessions/sec", "speedup");
  std::printf("  %-10s %-10s %-14.0f %-10s\n", "serial", "1", serial_rate,
              "1.00x");

  std::vector<std::size_t> thread_counts{1, 2, 4};
  if (hw != 1 && hw != 2 && hw != 4) thread_counts.push_back(hw);
  for (const std::size_t threads : thread_counts) {
    for (const std::size_t in_flight : {std::size_t{1}, std::size_t{64},
                                        std::size_t{1024}}) {
      auto fleet = make_fleet(kSessions);
      const auto run = run_engine_fleet(fleet, threads, in_flight);
      const double rate = kSessions / run.elapsed;
      std::printf("  %-10zu %-10zu %-14.0f %.2fx%s\n", threads, in_flight,
                  rate, rate / serial_rate,
                  threads == hw && in_flight == 1024 ? "   <- hw x 1024"
                                                     : "");
      if (run.stats.converged != kSessions) {
        std::printf("  WARNING: only %zu/%zu sessions converged\n",
                    run.stats.converged, kSessions);
      }
    }
  }
  bench::note("clean links: every session converges in one attempt; the "
              "speedup column is against the serial run_serial loop on "
              "this host (hardware threads: " + std::to_string(hw) + ").");
}

// Reactor at fleet scale: in-flight widths up to and past the fleet
// size. The scheduling columns come from the engine's own
// counters — at width 64k the timer heap and the steal path are the
// runtime, so their counts belong next to the rate.
void print_high_inflight_table() {
  bench::banner("E14", "Reactor sessions/sec at high in-flight widths");
  constexpr std::size_t kSessions = 16384;
  const std::size_t hw = common::ThreadPool::default_thread_count();
  std::printf("  %-10s %-14s %-10s %-10s %-12s %-10s\n", "in-flight",
              "sessions/sec", "steals", "parks", "wheel-ticks", "peak-q");
  for (const std::size_t in_flight :
       {std::size_t{1024}, std::size_t{16384}, std::size_t{65536}}) {
    auto fleet = make_fleet(kSessions);
    const auto run = run_engine_fleet(fleet, hw, in_flight);
    std::printf("  %-10zu %-14.0f %-10llu %-10llu %-12llu %-10llu\n",
                in_flight, kSessions / run.elapsed,
                static_cast<unsigned long long>(run.stats.steals),
                static_cast<unsigned long long>(run.stats.parks),
                static_cast<unsigned long long>(run.stats.wheel_ticks),
                static_cast<unsigned long long>(run.stats.peak_queue_depth));
    if (run.stats.completed != kSessions) {
      std::printf("  WARNING: only %zu/%zu sessions completed\n",
                  run.stats.completed, kSessions);
    }
  }
  bench::note("fleet of " + std::to_string(kSessions) + " devices; " +
              "in-flight above the fleet size admits everything at once "
              "and measures pure queue/timer overhead.");
}

// Skewed-latency scenario: 1% of devices are 100x slower (SlowPuf). The
// honest single-core metric is time-to-90%-converged — total work is
// fixed, but the reactor retires fast sessions as they finish and steals
// around busy workers on multi-core hosts.
void print_skewed_table() {
  bench::banner("E14", "Skewed fleet (1% of devices 100x slower)");
  constexpr std::size_t kSessions = 512;
  constexpr std::size_t kSlowEvery = 100;
  const std::size_t hw = common::ThreadPool::default_thread_count();
  std::printf("  %-10s %-12s %-12s %-14s\n", "threads", "total (ms)",
              "t90 (ms)", "sessions/sec");
  for (const std::size_t threads : {std::size_t{1}, hw}) {
    auto fleet = make_fleet(kSessions, kSlowEvery);
    const auto run = run_engine_fleet(fleet, threads, /*in_flight=*/64);
    std::printf("  %-10zu %-12.2f %-12.2f %-14.0f\n", threads,
                run.elapsed * 1e3, run.t90 * 1e3, kSessions / run.elapsed);
    if (threads == hw) break;  // hw == 1: one pass is the whole story
  }
  bench::note("t90 = time until 90% of sessions completed; on one "
              "hardware thread total time is fixed by the work, so t90 is "
              "where run-to-completion scheduling shows.");
}

// --------------------------------------------------- hostile load

// Mixed honest/hostile run through the admission controller. Hostile
// sessions are faults::FloodAuthMachine attackers (3:1 malformed-flood
// to half-open squatters) spread over a handful of hot client
// identities, so token buckets, the half-open table, and the malformed
// charge-back all see action. Honest devices are one client each.
struct HostileRunResult {
  double elapsed = 0.0;
  std::size_t honest_converged = 0;
  std::size_t false_accepts = 0;  // hostile sessions that converged: 0 or bug
  core::SessionEngineStats stats;
  core::AdmissionStats admission;
};

HostileRunResult run_hostile_fleet(std::size_t honest, std::size_t hostile) {
  constexpr std::size_t kAttackerIdentities = 16;
  std::vector<std::unique_ptr<AuthFixture>> fleet;
  fleet.reserve(honest + hostile);
  for (std::size_t k = 0; k < honest + hostile; ++k) {
    fleet.push_back(make_fixture(0xF1EE7 + k));
  }

  core::AdmissionConfig admission_config;
  admission_config.bucket_capacity = 8;
  admission_config.half_open_slots = 64;
  admission_config.half_open_per_client = 4;
  core::AdmissionController controller(admission_config);
  common::ThreadPool pool(common::ThreadPool::default_thread_count());
  core::SessionEngineConfig config;
  config.max_in_flight = 64;
  config.admission = &controller;
  core::SessionEngine engine(pool, config);

  for (std::size_t k = 0; k < fleet.size(); ++k) {
    AuthFixture& f = *fleet[k];
    core::SubmitOptions options;
    options.cost_bytes = 512;
    const bool is_hostile = k >= honest;
    options.client_id =
        is_hostile ? 0xBAD0000 + (k % kAttackerIdentities) : 0x600D0000 + k;
    if (is_hostile) {
      const auto mode = (k % 4 == 3) ? faults::FloodMode::kHalfOpen
                                     : faults::FloodMode::kMalformed;
      engine.submit(
          42 + k,
          [&f, mode](crypto::ChaChaDrbg& rng)
              -> std::unique_ptr<core::SessionMachine> {
            return std::make_unique<faults::FloodAuthMachine>(
                f.channel, core::RetryPolicy{}, rng, *f.verifier, mode);
          },
          options);
    } else {
      engine.submit(42 + k, auth_session(f, k), options);
    }
  }
  const auto start = std::chrono::steady_clock::now();
  const auto reports = engine.run();
  HostileRunResult result;
  result.elapsed = seconds_since(start);
  for (std::size_t k = 0; k < reports.size(); ++k) {
    if (reports[k].result != core::SessionResult::kConverged) continue;
    if (k < honest) {
      ++result.honest_converged;
    } else {
      ++result.false_accepts;
    }
  }
  result.stats = engine.stats();
  result.admission = controller.stats();
  return result;
}

void print_hostile_table() {
  bench::banner("E16", "Hostile mixed load through admission control");
  constexpr std::size_t kHonest = 64;
  std::printf("  %-9s %-12s %-9s %-10s %-9s %-9s %-10s %-8s %-11s\n",
              "hostile%", "honest/sec", "admitted", "shed-rate", "shed-mem",
              "evicted", "malformed", "false+", "peak-bytes");
  double baseline_rate = 0.0;
  for (const std::size_t pct : {std::size_t{0}, std::size_t{50},
                                std::size_t{90}, std::size_t{95}}) {
    // kHonest honest sessions at every row; hostile count scales so the
    // hostile fraction of total traffic is pct.
    const std::size_t hostile = kHonest * pct / (100 - pct);
    const auto run = run_hostile_fleet(kHonest, hostile);
    const double rate = run.honest_converged / run.elapsed;
    if (pct == 0) baseline_rate = rate;
    std::printf("  %-9zu %-12.0f %-9llu %-10llu %-9llu %-9llu %-10llu "
                "%-8zu %-11llu\n",
                pct, rate,
                static_cast<unsigned long long>(run.stats.admitted),
                static_cast<unsigned long long>(run.stats.shed_rate_limited),
                static_cast<unsigned long long>(run.stats.shed_memory),
                static_cast<unsigned long long>(run.stats.evicted_half_open),
                static_cast<unsigned long long>(run.stats.malformed),
                run.false_accepts,
                static_cast<unsigned long long>(
                    run.admission.peak_charged_bytes));
    if (run.false_accepts != 0) {
      std::printf("  WARNING: %zu hostile sessions converged (false "
                  "accepts)\n", run.false_accepts);
    }
    if (run.honest_converged != kHonest) {
      std::printf("  WARNING: only %zu/%zu honest sessions converged\n",
                  run.honest_converged, kHonest);
    }
    if (pct == 95 && baseline_rate > 0.0 && rate < 0.5 * baseline_rate) {
      std::printf("  WARNING: honest goodput %.0f/s under 95%% flood is "
                  "below 50%% of the unloaded %.0f/s\n", rate, baseline_rate);
    }
  }
  bench::note("honest/sec counts only honest converged sessions over total "
              "wall time (goodput). false+ is hostile sessions the verifier "
              "accepted — any nonzero value is a security bug. peak-bytes "
              "is the controller's charged-memory high-water mark (budget " +
              std::to_string(8u << 20) + ").");
}

// --------------------------------------------------- CRP store load

puf::Crp make_crp(std::uint32_t i) {
  puf::Crp crp;
  crp.challenge = {static_cast<std::uint8_t>(i),
                   static_cast<std::uint8_t>(i >> 8),
                   static_cast<std::uint8_t>(i >> 16),
                   static_cast<std::uint8_t>(i >> 24),
                   0x42, 0x17, 0x88, 0x2F};
  crp.response = {static_cast<std::uint8_t>(i * 11 + 3)};
  return crp;
}

// Mixed verifier workload per thread: insert one fresh CRP, then run an
// auth round on one preloaded CRP — look it up and take it by key — 3 ops
// per iteration. Thread t's rounds use preloaded CRPs
// [t * iterations, (t + 1) * iterations), so the store must be preloaded
// with threads * iterations CRPs.
void hammer_store(puf::CrpDatabase& db, std::uint32_t thread_id,
                  std::uint32_t iterations) {
  for (std::uint32_t i = 0; i < iterations; ++i) {
    db.insert(make_crp(1u << 24 | thread_id << 20 | i));
    const puf::Challenge enrolled =
        make_crp(thread_id * iterations + i).challenge;
    (void)db.lookup(enrolled);
    (void)db.take(enrolled);
  }
}

void print_crp_store_table() {
  bench::banner("E14", "CRP store ops/sec vs shard count (4-thread load)");
  constexpr std::uint32_t kIterations = 8192;
  constexpr unsigned kThreads = 4;
  constexpr std::uint32_t kPreload = kThreads * kIterations;
  std::printf("  %-10s %-14s %-14s %-11s %-10s\n", "shards", "ops/sec",
              "acquisitions", "contended", "takes");
  for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
    puf::CrpDatabase db(shards);
    for (std::uint32_t i = 0; i < kPreload; ++i) db.insert(make_crp(i));
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
      threads.emplace_back(hammer_store, std::ref(db), t, kIterations);
    }
    for (auto& thread : threads) thread.join();
    const double elapsed = seconds_since(start);
    const auto stats = db.lock_stats();
    std::printf("  %-10zu %-14.0f %-14llu %-11.2f %-10llu\n", shards,
                3.0 * kThreads * kIterations / elapsed,
                static_cast<unsigned long long>(stats.acquisitions),
                stats.acquisitions == 0
                    ? 0.0
                    : 100.0 * static_cast<double>(stats.contended) /
                          static_cast<double>(stats.acquisitions),
                static_cast<unsigned long long>(stats.takes));
  }
  bench::note("contended = shard-mutex acquisitions that found the lock "
              "held (percent of acquisitions); striping drives it toward "
              "zero as shards exceed threads. takes = CRPs consumed by "
              "keyed takes, one per auth round.");
}

void print_tables() {
  print_sessions_table();
  print_high_inflight_table();
  print_skewed_table();
  print_hostile_table();
  print_crp_store_table();
}

// ------------------------------------------------- timing cases

void BM_ServerSessionsSerial(benchmark::State& state) {
  constexpr std::size_t kSessions = 64;
  for (auto _ : state) {
    state.PauseTiming();
    auto fleet = make_fleet(kSessions);
    state.ResumeTiming();
    benchmark::DoNotOptimize(run_serial_fleet(fleet));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kSessions);
}
BENCHMARK(BM_ServerSessionsSerial)->Unit(benchmark::kMillisecond);

// Reactor timing: a fleet much larger than the widest in-flight limit,
// so every Arg is a distinct workload; only engine.run() is timed.
void BM_ServerSessionsReactor(benchmark::State& state) {
  constexpr std::size_t kSessions = 4096;
  const auto in_flight = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    auto fleet = make_fleet(kSessions);
    state.SetIterationTime(
        run_engine_fleet(fleet, common::ThreadPool::default_thread_count(),
                         in_flight)
            .elapsed);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kSessions);
}
BENCHMARK(BM_ServerSessionsReactor)
    ->Arg(1)
    ->Arg(64)
    ->Arg(1024)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

// Skewed-latency case: manual time is time-to-90%-converged on the 1%
// slow / 100x slower fleet — the completion-latency number the reactor
// is built to keep low. (Total time on one core is fixed by the work;
// see the printed table for both numbers.)
void BM_ServerSessionsSkewedReactor(benchmark::State& state) {
  constexpr std::size_t kSessions = 128;
  constexpr std::size_t kSlowEvery = 100;
  for (auto _ : state) {
    auto fleet = make_fleet(kSessions, kSlowEvery);
    const auto run =
        run_engine_fleet(fleet, common::ThreadPool::default_thread_count(),
                         /*in_flight=*/64);
    state.SetIterationTime(run.t90);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kSessions);
}
BENCHMARK(BM_ServerSessionsSkewedReactor)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

// Hostile mixed-load cases: state.range(0) is the hostile percentage of
// total traffic; items/sec counts honest sessions only, so a regression
// here means admission control stopped protecting honest goodput.
void BM_ServerSessionsHostile(benchmark::State& state) {
  constexpr std::size_t kHonest = 32;
  const auto pct = static_cast<std::size_t>(state.range(0));
  const std::size_t hostile = kHonest * pct / (100 - pct);
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_hostile_fleet(kHonest, hostile).elapsed);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kHonest);
}
BENCHMARK(BM_ServerSessionsHostile)
    ->Arg(50)
    ->Arg(95)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_CrpStoreMixedOps(benchmark::State& state) {
  const auto shards = static_cast<std::size_t>(state.range(0));
  constexpr std::uint32_t kIterations = 2048;
  constexpr unsigned kThreads = 4;
  for (auto _ : state) {
    state.PauseTiming();
    puf::CrpDatabase db(shards);
    for (std::uint32_t i = 0; i < kThreads * kIterations; ++i) {
      db.insert(make_crp(i));
    }
    state.ResumeTiming();
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
      threads.emplace_back(hammer_store, std::ref(db), t, kIterations);
    }
    for (auto& thread : threads) thread.join();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 3 *
                          kThreads * kIterations);
}
BENCHMARK(BM_CrpStoreMixedOps)
    ->Arg(1)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

NEUROPULS_BENCH_MAIN(print_tables)
