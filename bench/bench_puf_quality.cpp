// E4 / §II-A — Photonic PUF statistical quality: intra/inter fractional
// Hamming distance, uniformity, aliasing entropy, min-entropy, and the
// NIST SP 800-22 subset, side by side with the electronic baselines.
//
// Paper claim: "fractional Hamming distance close to 50% intra and
// inter-device and good score for various NIST tests" (ref. [12]).
// "Intra" in that phrasing is the distance between responses to
// *different challenges on the same device* (challenge sensitivity);
// the reliability intra-distance (same challenge re-read) is reported
// separately and must be small.
#include <thread>

#include "bench_util.hpp"
#include "common/parallel.hpp"
#include "crypto/chacha20.hpp"
#include "metrics/identification.hpp"
#include "metrics/nist.hpp"
#include "metrics/population.hpp"
#include "puf/photonic_puf.hpp"
#include "puf/population.hpp"
#include "puf/ro_puf.hpp"
#include "puf/spectral_puf.hpp"
#include "puf/sram_puf.hpp"
#include "puf/trng.hpp"

namespace {

using namespace neuropuls;

constexpr std::size_t kDevices = 16;

struct QualityRow {
  std::string name;
  double uniformity;
  double uniqueness;
  double reliability_intra;  // same-challenge re-read distance
  double challenge_intra;    // different-challenge distance (same device)
  double aliasing_entropy;
  double min_entropy;
};

QualityRow measure_photonic() {
  auto cfg = puf::small_photonic_config();
  cfg.challenge_bits = 32;
  crypto::ChaChaDrbg rng(crypto::bytes_of("e4"));
  const puf::Challenge challenge = rng.generate(cfg.challenge_bits / 8);

  // Batch engine: fabrication + calibration, the reference responses, and
  // the reliability re-read matrix all fan out across the thread pool;
  // index-keyed noise seeding keeps every number identical to the former
  // per-device serial loop.
  puf::PufPopulation population(cfg, 4242, kDevices);
  const std::vector<crypto::Bytes> responses =
      population.evaluate_noiseless_all(challenge);
  const std::vector<std::vector<crypto::Bytes>> rereads =
      population.evaluate_repeats(challenge, 5);

  double challenge_intra = 0.0;
  int ci_count = 0;
  for (std::size_t d = 0; d < 4; ++d) {
    std::vector<puf::Challenge> others;
    for (int t = 0; t < 4; ++t) {
      others.push_back(rng.generate(cfg.challenge_bits / 8));
    }
    for (const auto& r : population.device(d).evaluate_noiseless_batch(others)) {
      challenge_intra +=
          crypto::fractional_hamming_distance(responses[d], r);
      ++ci_count;
    }
  }
  const auto report = metrics::population_report(responses, rereads);
  return {"photonic-puf", report.uniformity_mean, report.uniqueness,
          1.0 - report.reliability_mean, challenge_intra / ci_count,
          report.aliasing_entropy_mean, report.min_entropy};
}

QualityRow measure_spectral() {
  puf::SpectralPufConfig cfg;
  cfg.rings = 16;
  cfg.wavelength_channels = 512;
  std::vector<crypto::Bytes> responses;
  std::vector<std::vector<crypto::Bytes>> rereads;
  for (std::size_t d = 0; d < kDevices; ++d) {
    puf::SpectralMicroringPuf device(cfg, 4242, d);
    responses.push_back(device.evaluate_noiseless({}));
    std::vector<crypto::Bytes> reads;
    for (int r = 0; r < 5; ++r) reads.push_back(device.evaluate({}));
    rereads.push_back(std::move(reads));
  }
  const auto report = metrics::population_report(responses, rereads);
  // Spectral weak PUF: no challenge axis.
  return {"spectral-puf", report.uniformity_mean, report.uniqueness,
          1.0 - report.reliability_mean, 0.0, report.aliasing_entropy_mean,
          report.min_entropy};
}

QualityRow measure_sram() {
  std::vector<crypto::Bytes> responses;
  std::vector<std::vector<crypto::Bytes>> rereads;
  for (std::size_t d = 0; d < kDevices; ++d) {
    puf::SramPuf device(puf::SramPufConfig{}, 100 + d);
    responses.push_back(device.evaluate_noiseless({}));
    std::vector<crypto::Bytes> reads;
    for (int r = 0; r < 5; ++r) reads.push_back(device.evaluate({}));
    rereads.push_back(std::move(reads));
  }
  const auto report = metrics::population_report(responses, rereads);
  // SRAM is a weak PUF: no challenge axis.
  return {"sram-puf", report.uniformity_mean, report.uniqueness,
          1.0 - report.reliability_mean, 0.0, report.aliasing_entropy_mean,
          report.min_entropy};
}

void print_quality_table() {
  bench::banner("E4 / §II-A", "PUF population quality metrics");
  std::printf("  %-14s %-11s %-11s %-12s %-12s %-10s %-10s\n", "puf",
              "uniformity", "uniqueness", "intra(rel.)", "intra(chal)",
              "alias-H", "min-H");
  for (const auto& row :
       {measure_photonic(), measure_spectral(), measure_sram()}) {
    std::printf("  %-14s %-11.3f %-11.3f %-12.3f %-12.3f %-10.3f %-10.3f\n",
                row.name.c_str(), row.uniformity, row.uniqueness,
                row.reliability_intra, row.challenge_intra,
                row.aliasing_entropy, row.min_entropy);
  }
  bench::note("targets: uniformity/uniqueness/intra(chal) ~ 0.5, "
              "intra(rel.) ~ a few %, entropies ~ 1 bit/bit.");
}

void print_nist_table() {
  bench::banner("E4 / §II-A",
                "NIST SP 800-22 subset: response stream vs photonic TRNG");
  auto cfg = puf::small_photonic_config();
  cfg.challenge_bits = 32;
  puf::PhotonicPuf device(cfg, 4242, 3);

  // Stream 1: concatenated noiseless responses to random challenges (the
  // raw PUF-output evaluation). Short-range response correlations and
  // residual calibration bias are expected to fail several tests — raw
  // PUF bits are identification material, not randomness.
  crypto::ChaChaDrbg rng(crypto::bytes_of("e4-nist"));
  std::vector<puf::Challenge> stream_challenges;
  while (stream_challenges.size() * device.response_bytes() < 2048) {
    stream_challenges.push_back(rng.generate(4));
  }
  crypto::Bytes response_stream;
  for (const auto& r : device.evaluate_noiseless_batch(stream_challenges)) {
    response_stream.insert(response_stream.end(), r.begin(), r.end());
  }

  // Streams 2/3: the photonic TRNG service (noise-differential readout).
  puf::PhotonicTrng trng(device, puf::Challenge(4, 0x5A));
  const crypto::Bytes debiased = trng.debiased_bits(2048 * 8);
  const crypto::Bytes conditioned = trng.conditioned_bytes(2048);

  const auto raw_bits = metrics::bits_from_bytes(response_stream);
  const auto deb_bits = metrics::bits_from_bytes(debiased);
  const auto con_bits = metrics::bits_from_bytes(conditioned);
  const auto raw_results = metrics::nist_suite(raw_bits);
  const auto deb_results = metrics::nist_suite(deb_bits);
  const auto con_results = metrics::nist_suite(con_bits);

  std::printf("  %-22s %-16s %-16s %-16s\n", "test", "raw responses",
              "TRNG debiased", "TRNG conditioned");
  for (std::size_t i = 0; i < raw_results.size(); ++i) {
    auto cell = [](const metrics::NistResult& r) {
      char buf[24];
      std::snprintf(buf, sizeof buf, "%.3f %s", r.p_value,
                    r.passed ? "ok" : "FAIL");
      return std::string(buf);
    };
    std::printf("  %-22s %-16s %-16s %-16s\n", raw_results[i].test.c_str(),
                cell(raw_results[i]).c_str(), cell(deb_results[i]).c_str(),
                cell(con_results[i]).c_str());
  }
  std::printf("  pass fraction: raw %.2f, debiased %.2f, conditioned %.2f\n",
              metrics::nist_pass_fraction(raw_bits),
              metrics::nist_pass_fraction(deb_bits),
              metrics::nist_pass_fraction(con_bits));
  bench::note("raw response bits carry device identity, not randomness — "
              "the TRNG path (photodiode noise, von Neumann + SHA "
              "conditioning) is what feeds the NIST-grade key generator.");
}

void print_identification_table() {
  bench::banner("E4 / §V",
                "Identification error rates (FAR / FRR / EER) — photonic PUF");
  auto cfg = puf::small_photonic_config();
  cfg.challenge_bits = 32;
  crypto::ChaChaDrbg rng(crypto::bytes_of("e4-roc"));
  const puf::Challenge challenge = rng.generate(4);
  puf::PufPopulation population(cfg, 4242, kDevices);
  const std::vector<crypto::Bytes> refs =
      population.evaluate_noiseless_all(challenge);
  const std::vector<std::vector<crypto::Bytes>> rereads =
      population.evaluate_repeats(challenge, 8);
  const auto samples = metrics::gather_distance_samples(refs, rereads);
  const auto curve = metrics::roc_curve(samples.intra, samples.inter, 10);
  std::printf("  %-14s %-10s %-10s\n", "threshold", "FAR", "FRR");
  for (const auto& point : curve) {
    std::printf("  %-14.3f %-10.3f %-10.3f\n", point.threshold, point.far,
                point.frr);
  }
  const auto eer = metrics::equal_error_rate(samples.intra, samples.inter);
  const auto window =
      metrics::zero_error_window(samples.intra, samples.inter);
  std::printf("  EER = %.4f at threshold %.3f\n", eer.eer, eer.threshold);
  if (window.exists) {
    std::printf("  zero-error threshold window: [%.3f, %.3f]\n", window.low,
                window.high);
  }
  bench::note("§V: 'error rates, including false positive and false "
              "negative rates, should be analyzed' — the intra/inter "
              "distributions separate cleanly, leaving a wide zero-error "
              "operating window.");
}

void print_aging_table() {
  bench::banner("E4 / §V", "Aging: drift from time-zero enrollment");
  std::printf("  %-16s %-18s %-18s\n", "stress hours", "SRAM drift (HD)",
              "RO bit flips /60");
  puf::SramPuf sram(puf::SramPufConfig{}, 90);
  puf::RoPuf ro(puf::RoPufConfig{}, 90);
  const auto sram_ref = sram.evaluate_noiseless({});
  std::vector<puf::Response> ro_ref;
  for (std::size_t i = 0; i < 60; ++i) {
    ro_ref.push_back(ro.evaluate_noiseless(puf::encode_ro_challenge(i, i + 1)));
  }
  double previous_hours = 0.0;
  for (double hours : {100.0, 1000.0, 10000.0, 50000.0}) {
    sram.age(hours - previous_hours);
    ro.age(hours - previous_hours);
    previous_hours = hours;
    const double sram_drift = crypto::fractional_hamming_distance(
        sram_ref, sram.evaluate_noiseless({}));
    int flips = 0;
    for (std::size_t i = 0; i < 60; ++i) {
      flips += (ro.evaluate_noiseless(puf::encode_ro_challenge(i, i + 1)) !=
                ro_ref[i]);
    }
    std::printf("  %-16.0f %-18.3f %-18d\n", hours, sram_drift, flips);
  }
  bench::note("§V: reliability must be evaluated under 'the effects of "
              "aging' — drift grows ~sqrt(time); helper-data refresh "
              "(re-enrollment) restores reliability, margin filtering "
              "delays the onset.");
}

void print_tables() {
  print_quality_table();
  print_nist_table();
  print_identification_table();
  print_aging_table();
}

void BM_PhotonicEvaluate(benchmark::State& state) {
  puf::PhotonicPufConfig cfg;  // full-size: 64-bit challenge, 8 ports
  puf::PhotonicPuf device(cfg, 1, 0);
  const puf::Challenge c(8, 0x5A);
  for (auto _ : state) {
    benchmark::DoNotOptimize(device.evaluate(c));
  }
}
BENCHMARK(BM_PhotonicEvaluate)->Unit(benchmark::kMicrosecond);

void BM_PhotonicEvaluateNoiseless(benchmark::State& state) {
  puf::PhotonicPufConfig cfg;
  puf::PhotonicPuf device(cfg, 1, 0);
  const puf::Challenge c(8, 0x5A);
  for (auto _ : state) {
    benchmark::DoNotOptimize(device.evaluate_noiseless(c));
  }
}
BENCHMARK(BM_PhotonicEvaluateNoiseless)->Unit(benchmark::kMicrosecond);

int hardware_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

// Thread-scaling cases: items/sec at 1, 2, 4, and hardware_concurrency
// threads over a dedicated pool (Arg = pool width).

void BM_PhotonicEvaluateBatch(benchmark::State& state) {
  puf::PhotonicPufConfig cfg;  // full-size: 64-bit challenge, 8 ports
  puf::PhotonicPuf device(cfg, 1, 0);
  common::ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  crypto::ChaChaDrbg rng(crypto::bytes_of("batch-bench"));
  std::vector<puf::Challenge> challenges;
  for (int i = 0; i < 64; ++i) challenges.push_back(rng.generate(8));
  for (auto _ : state) {
    benchmark::DoNotOptimize(device.evaluate_batch(challenges, &pool));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(challenges.size()));
}
BENCHMARK(BM_PhotonicEvaluateBatch)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(hardware_threads())
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// The batch hot path of the verifier/model side (attestation model
// evaluation, ML-attack dataset generation): noiseless batch throughput in
// challenges/sec. The single-thread case is the lane-engine headline
// number tracked in BENCH_baseline.json.
void BM_PhotonicNoiselessBatch(benchmark::State& state) {
  puf::PhotonicPufConfig cfg;  // full-size: 64-bit challenge, 8 ports
  puf::PhotonicPuf device(cfg, 1, 0);
  common::ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  crypto::ChaChaDrbg rng(crypto::bytes_of("noiseless-batch-bench"));
  std::vector<puf::Challenge> challenges;
  for (int i = 0; i < 64; ++i) challenges.push_back(rng.generate(8));
  for (auto _ : state) {
    benchmark::DoNotOptimize(device.evaluate_noiseless_batch(challenges, &pool));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(challenges.size()));
}
BENCHMARK(BM_PhotonicNoiselessBatch)
    ->Arg(1)
    ->Arg(hardware_threads())
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_PopulationFabrication(benchmark::State& state) {
  auto cfg = puf::small_photonic_config();
  cfg.challenge_bits = 32;
  common::ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  constexpr std::size_t kFleet = 8;
  std::uint64_t wafer = 0;
  for (auto _ : state) {
    puf::PufPopulation population(cfg, ++wafer, kFleet, &pool);
    benchmark::DoNotOptimize(population.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kFleet));
}
BENCHMARK(BM_PopulationFabrication)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(hardware_threads())
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_UniquenessSweep(benchmark::State& state) {
  common::ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  crypto::ChaChaDrbg rng(crypto::bytes_of("uniq-bench"));
  std::vector<crypto::Bytes> responses;
  for (int d = 0; d < 256; ++d) responses.push_back(rng.generate(64));
  const std::int64_t pairs =
      static_cast<std::int64_t>(responses.size()) *
      static_cast<std::int64_t>(responses.size() - 1) / 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(metrics::uniqueness(responses, &pool));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          pairs);
}
BENCHMARK(BM_UniquenessSweep)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(hardware_threads())
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_NistSuite4kBits(benchmark::State& state) {
  crypto::ChaChaDrbg rng(crypto::bytes_of("nist-bench"));
  const auto bits = metrics::bits_from_bytes(rng.generate(512));
  for (auto _ : state) {
    benchmark::DoNotOptimize(metrics::nist_pass_fraction(bits));
  }
}
BENCHMARK(BM_NistSuite4kBits)->Unit(benchmark::kMicrosecond);

}  // namespace

NEUROPULS_BENCH_MAIN(print_tables)
