// E13 — Resilience: what graceful degradation costs and what it buys.
//
// Tables (deterministic, fixed seeds):
//   * session convergence vs symmetric drop rate — attempts, retry ticks,
//     and convergence fraction of serial retried sessions
//     (core::run_serial) over a FaultyChannel;
//   * robust-readout overhead — evaluate() vs the k-of-n majority
//     evaluate_robust() used by KeyManager::derive(record, attempts,
//     readings) and CRP re-enrollment.
//
// Timing cases (google-benchmark JSON for scripts/bench_regress.py):
//   * BM_AuthSessionAtDropPermille/{0,10,50} — full mutual-auth session
//     through the retry driver at 0%, 1%, and 5% frame loss;
//   * BM_PhotonicEvaluate vs BM_PhotonicEvaluateRobust — the raw majority
//     multiplier on the device hot path.
#include "bench_util.hpp"
#include "core/session_driver.hpp"
#include "crypto/sha256.hpp"
#include "faults/faulty_channel.hpp"
#include "puf/photonic_puf.hpp"

namespace {

using namespace neuropuls;

struct SessionFixture {
  std::unique_ptr<puf::PhotonicPuf> puf;
  std::unique_ptr<core::AuthDevice> device;
  std::unique_ptr<core::AuthVerifier> verifier;
};

SessionFixture make_fixture() {
  SessionFixture f;
  f.puf = std::make_unique<puf::PhotonicPuf>(puf::small_photonic_config(),
                                             2024, 0);
  crypto::ChaChaDrbg rng(crypto::bytes_of("bench-resilience"));
  const auto provisioned = core::provision(*f.puf, rng);
  const crypto::Bytes memory(4096, 0xA5);
  f.device = std::make_unique<core::AuthDevice>(*f.puf,
                                                provisioned.device_crp, memory);
  f.verifier = std::make_unique<core::AuthVerifier>(
      provisioned.verifier_secret, crypto::Sha256::hash(memory),
      f.puf->challenge_bytes());
  return f;
}

// One retried mutual-auth session; every session gets its own DRBG seed.
core::SessionReport run_auth(SessionFixture& f, net::DuplexChannel& channel,
                             std::uint64_t seed, std::uint64_t session_base) {
  return core::run_serial(seed, [&](crypto::ChaChaDrbg& rng) {
    return std::make_unique<core::AuthSessionMachine>(
        channel, core::RetryPolicy{}, rng, *f.verifier, *f.device,
        session_base);
  });
}

void print_convergence_table() {
  bench::banner("E13", "Session convergence vs symmetric frame-drop rate");
  std::printf("  %-12s %-12s %-14s %-12s %-14s\n", "drop rate", "converged",
              "mean attempts", "poll ticks", "backoff ticks");
  for (const double drop : {0.0, 0.01, 0.05, 0.20}) {
    SessionFixture f = make_fixture();
    net::DuplexChannel channel;
    faults::FaultyChannel faulty(
        channel, faults::symmetric_faults(faults::symmetric_drop(drop)),
        0xBEEF);
    constexpr unsigned kSessions = 40;
    unsigned converged = 0;
    std::uint64_t attempts = 0, polls = 0, backoff = 0;
    for (unsigned s = 0; s < kSessions; ++s) {
      const auto report = run_auth(f, channel, s + 1, 1000 * (s + 1));
      if (report.result == core::SessionResult::kConverged) ++converged;
      attempts += report.attempts;
      polls += report.poll_ticks;
      backoff += report.backoff_ticks;
    }
    std::printf("  %-12.2f %u/%-10u %-14.2f %-12zu %-14zu\n", drop, converged,
                kSessions, static_cast<double>(attempts) / kSessions,
                static_cast<std::size_t>(polls),
                static_cast<std::size_t>(backoff));
  }
  bench::note("retry driver: 4 attempts, 8-poll receive budget, capped "
              "exponential backoff; convergence at <=1% loss is the "
              "tests/chaos invariant.");
}

void print_robust_overhead_table() {
  bench::banner("E13", "Robust (k-of-n majority) readout overhead");
  puf::PhotonicPuf device(puf::small_photonic_config(), 2024, 3);
  const puf::Challenge challenge(device.challenge_bytes(), 0x5A);
  const auto reference = device.evaluate_noiseless(challenge);
  std::printf("  %-12s %-16s %-18s\n", "readings", "evaluations", "mean BER");
  for (const unsigned readings : {1u, 3u, 5u, 7u}) {
    double err = 0.0;
    constexpr int kTrials = 20;
    for (int t = 0; t < kTrials; ++t) {
      const auto r = readings == 1 ? device.evaluate(challenge)
                                   : device.evaluate_robust(challenge,
                                                            readings);
      err += crypto::fractional_hamming_distance(r, reference);
    }
    std::printf("  %-12u %-16u %-18.4f\n", readings, readings,
                err / kTrials);
  }
  bench::note("evaluate_robust majority-votes n re-measurements; cost is "
              "linear in n, error falls with the binomial tail.");
}

void print_tables() {
  print_convergence_table();
  print_robust_overhead_table();
}

// Session throughput through the retry loop at 0 / 1% / 5% drop. The
// session base (and seed) advances every iteration so session ids never
// collide.
void BM_AuthSessionAtDropPermille(benchmark::State& state) {
  SessionFixture f = make_fixture();
  net::DuplexChannel channel;
  const double drop = static_cast<double>(state.range(0)) / 1000.0;
  faults::FaultyChannel faulty(
      channel, faults::symmetric_faults(faults::symmetric_drop(drop)), 0xD0);
  std::uint64_t base = 0;
  for (auto _ : state) {
    base += 1000;
    benchmark::DoNotOptimize(run_auth(f, channel, base / 1000, base));
  }
}
BENCHMARK(BM_AuthSessionAtDropPermille)
    ->Arg(0)
    ->Arg(10)
    ->Arg(50)
    ->Unit(benchmark::kMicrosecond);

void BM_PhotonicEvaluate(benchmark::State& state) {
  puf::PhotonicPuf device(puf::small_photonic_config(), 2024, 4);
  const puf::Challenge challenge(device.challenge_bytes(), 0xC3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(device.evaluate(challenge));
  }
}
BENCHMARK(BM_PhotonicEvaluate)->Unit(benchmark::kMicrosecond);

void BM_PhotonicEvaluateRobust(benchmark::State& state) {
  puf::PhotonicPuf device(puf::small_photonic_config(), 2024, 4);
  const puf::Challenge challenge(device.challenge_bytes(), 0xC3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(device.evaluate_robust(challenge, 5));
  }
}
BENCHMARK(BM_PhotonicEvaluateRobust)->Unit(benchmark::kMicrosecond);

}  // namespace

NEUROPULS_BENCH_MAIN(print_tables)
