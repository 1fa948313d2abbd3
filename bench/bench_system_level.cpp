// E10 / §V — System-level impact of the security services on accelerator
// operation (the gem5-lite pipeline).
#include "accel/network.hpp"
#include "bench_util.hpp"
#include "common/parallel.hpp"
#include "crypto/chacha20.hpp"
#include "puf/photonic_puf.hpp"
#include "sim/system.hpp"

namespace {

using namespace neuropuls;

void print_phase_breakdown() {
  bench::banner("E10 / §V", "Secure pipeline phase breakdown (simulated)");
  sim::SecureSystem system(sim::SystemConfig{});
  const auto network = accel::make_random_network({16, 32, 10}, 5);
  const std::vector<double> input(16, 0.3);
  const auto report = system.run_secure_pipeline(network, input, 100);

  std::printf("  %-16s %-16s %-18s %-18s\n", "phase", "time (us)",
              "cpu energy (nJ)", "mem energy (nJ)");
  for (const auto& phase : report.phases) {
    std::printf("  %-16s %-16.2f %-18.2f %-18.2f\n", phase.name.c_str(),
                phase.time_ns / 1e3, phase.cpu_energy_nj,
                phase.memory_energy_nj);
  }
  std::printf("  total: %.2f us, %.2f nJ\n", report.total_time_ns / 1e3,
              report.total_energy_nj);
}

void print_overhead_vs_inferences() {
  bench::banner("E10 / §V",
                "Security overhead amortisation vs inference count");
  const auto network = accel::make_random_network({16, 32, 10}, 5);
  const std::vector<double> input(16, 0.3);

  std::printf("  %-14s %-18s %-18s %-12s\n", "inferences", "secure (us)",
              "insecure (us)", "overhead");
  for (std::size_t n : {1ul, 10ul, 100ul, 1000ul, 10000ul}) {
    sim::SecureSystem secure(sim::SystemConfig{});
    const auto s = secure.run_secure_pipeline(network, input, n);
    sim::SecureSystem insecure(sim::SystemConfig{});
    const auto i = insecure.run_insecure_pipeline(network, input, n);
    char overhead[24];
    std::snprintf(overhead, sizeof overhead, "%.2fx",
                  s.total_time_ns / i.total_time_ns);
    std::printf("  %-14zu %-18.1f %-18.1f %-12s\n", n,
                s.total_time_ns / 1e3, i.total_time_ns / 1e3, overhead);
  }
  bench::note("one-time services (boot/auth/attest) dominate at small "
              "inference counts; the marginal per-inference overhead is the "
              "hardware crypto + DMA, a small constant factor.");
}

void print_memory_scaling() {
  bench::banner("E10 / §V", "Attestation phase vs device memory (simulated)");
  const auto network = accel::make_random_network({16, 32, 10}, 5);
  std::printf("  %-16s %-18s\n", "device memory", "attest time (us)");
  for (std::size_t kib : {16ul, 64ul, 256ul, 1024ul}) {
    sim::SystemConfig config;
    config.device_memory_bytes = kib * 1024;
    sim::SecureSystem system(config);
    system.boot_keys();
    const auto phase = system.attest();
    std::printf("  %-16s %-18.1f\n", (std::to_string(kib) + " KiB").c_str(),
                phase.time_ns / 1e3);
  }
}

void print_eke_option() {
  bench::banner("E10 / §V",
                "Optional EKE session-key phase (forward secrecy premium)");
  const auto network = accel::make_random_network({16, 32, 10}, 5);
  const std::vector<double> input(16, 0.3);
  sim::SecureSystem base(sim::SystemConfig{});
  const auto without = base.run_secure_pipeline(network, input, 100, false);
  sim::SecureSystem with_eke(sim::SystemConfig{});
  const auto with = with_eke.run_secure_pipeline(network, input, 100, true);
  std::printf("  %-26s %-18s\n", "pipeline", "total time (us)");
  std::printf("  %-26s %-18.1f\n", "HSC-IoT only", without.total_time_ns / 1e3);
  std::printf("  %-26s %-18.1f\n", "+ EKE session key",
              with.total_time_ns / 1e3);
  const auto* eke_phase = with.phase("session_key");
  if (eke_phase) {
    std::printf("  EKE phase alone: %.1f us (%.0f%% of the secure pipeline)\n",
                eke_phase->time_ns / 1e3,
                100.0 * eke_phase->time_ns / with.total_time_ns);
  }
  bench::note("forward secrecy costs two 2048-bit modexps on the device "
              "core — the paper's 'computationally more expensive' trade, "
              "quantified at system level.");
}

void print_tables() {
  print_phase_breakdown();
  print_overhead_vs_inferences();
  print_memory_scaling();
  print_eke_option();
}

void BM_SecurePipeline100(benchmark::State& state) {
  const auto network = accel::make_random_network({16, 32, 10}, 5);
  const std::vector<double> input(16, 0.3);
  for (auto _ : state) {
    sim::SecureSystem system(sim::SystemConfig{});
    benchmark::DoNotOptimize(
        system.run_secure_pipeline(network, input, 100));
  }
}
BENCHMARK(BM_SecurePipeline100)->Unit(benchmark::kMillisecond);

void BM_InsecurePipeline100(benchmark::State& state) {
  const auto network = accel::make_random_network({16, 32, 10}, 5);
  const std::vector<double> input(16, 0.3);
  for (auto _ : state) {
    sim::SecureSystem system(sim::SystemConfig{});
    benchmark::DoNotOptimize(
        system.run_insecure_pipeline(network, input, 100));
  }
}
BENCHMARK(BM_InsecurePipeline100)->Unit(benchmark::kMillisecond);

// System-level PUF hot path: the verifier re-deriving model responses for
// an attestation/auth sweep — single-thread challenges/sec through
// evaluate_noiseless_batch, the lane-engine guardrail number.
void BM_VerifierModelSweep(benchmark::State& state) {
  puf::PhotonicPufConfig cfg;  // full-size: 64-bit challenge, 8 ports
  puf::PhotonicPuf verifier_model(cfg, 1, 0);
  common::ThreadPool pool(1);
  crypto::ChaChaDrbg rng(crypto::bytes_of("verifier-sweep-bench"));
  std::vector<puf::Challenge> challenges;
  for (int i = 0; i < 64; ++i) challenges.push_back(rng.generate(8));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        verifier_model.evaluate_noiseless_batch(challenges, &pool));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(challenges.size()));
}
BENCHMARK(BM_VerifierModelSweep)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

NEUROPULS_BENCH_MAIN(print_tables)
