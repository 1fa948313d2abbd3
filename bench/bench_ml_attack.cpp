// E6 / §IV — Machine-learning modelling attack resistance: prediction
// accuracy vs CRP budget for arbiter, XOR-arbiter, photonic, and
// challenge-encrypted targets.
//
// Expected shape: the plain arbiter PUF collapses (>95% accuracy) within
// a few thousand CRPs; the XOR variant resists longer; the photonic PUF
// and the ref.-[30] challenge-encryption wrapper stay near chance across
// the whole budget sweep.
#include <memory>
#include <thread>

#include "attacks/ml_attack.hpp"
#include "common/parallel.hpp"
#include "crypto/chacha20.hpp"
#include "bench_util.hpp"
#include "puf/arbiter_puf.hpp"
#include "puf/composite.hpp"
#include "puf/photonic_puf.hpp"

namespace {

using namespace neuropuls;

void print_budget_sweep() {
  bench::banner("E6 / §IV", "LR attack accuracy vs training-CRP budget");

  const std::vector<std::size_t> budgets = {100, 500, 2000, 8000, 20000};

  puf::ArbiterPuf arbiter(puf::ArbiterPufConfig{}, 11);
  puf::ArbiterPufConfig xor_cfg;
  xor_cfg.xor_chains = 5;
  puf::ArbiterPuf xor_arbiter(xor_cfg, 11);
  puf::PhotonicPuf photonic(puf::small_photonic_config(), 11, 0);
  auto enc_inner = std::make_unique<puf::ArbiterPuf>(puf::ArbiterPufConfig{}, 11);
  puf::EncryptedChallengePuf encrypted(std::move(enc_inner),
                                       crypto::bytes_of("weak-puf key"));

  const auto parity = attacks::parity_feature_map(arbiter.stages());
  const auto raw = attacks::raw_feature_map();

  std::printf("  %-10s %-12s %-14s %-12s %-16s\n", "CRPs", "arbiter",
              "xor-arbiter", "photonic", "enc-challenge");
  for (std::size_t budget : budgets) {
    attacks::AttackConfig config;
    config.training_crps = budget;
    config.test_crps = 500;
    const double a_arb =
        attacks::model_attack(arbiter, parity, config).test_accuracy;
    const double a_xor =
        attacks::model_attack(xor_arbiter, parity, config).test_accuracy;
    attacks::AttackConfig photonic_config = config;
    photonic_config.test_crps = 300;
    const double a_ph = attacks::mean_attack_accuracy(photonic, raw,
                                                      photonic_config, 4);
    const double a_enc =
        attacks::model_attack(encrypted, parity, config).test_accuracy;
    std::printf("  %-10zu %-12.3f %-14.3f %-12.3f %-16.3f\n", budget, a_arb,
                a_xor, a_ph, a_enc);
  }
  bench::note("0.5 = chance. The arbiter PUF breaks; the photonic PUF and "
              "the challenge-encryption wrapper stay near chance — the "
              "paper's modelling-resistance claim.");
}

void print_tables() { print_budget_sweep(); }

void BM_TrainAttackArbiter2k(benchmark::State& state) {
  puf::ArbiterPuf arbiter(puf::ArbiterPufConfig{}, 3);
  const auto parity = attacks::parity_feature_map(arbiter.stages());
  attacks::AttackConfig config;
  config.training_crps = 2000;
  config.test_crps = 200;
  for (auto _ : state) {
    benchmark::DoNotOptimize(attacks::model_attack(arbiter, parity, config));
  }
}
BENCHMARK(BM_TrainAttackArbiter2k)->Unit(benchmark::kMillisecond);

void BM_CrpCollectionPhotonic(benchmark::State& state) {
  puf::PhotonicPuf photonic(puf::small_photonic_config(), 3, 0);
  crypto::ChaChaDrbg rng(crypto::bytes_of("collect"));
  for (auto _ : state) {
    const auto c = rng.generate(photonic.challenge_bytes());
    benchmark::DoNotOptimize(photonic.evaluate(c));
  }
}
BENCHMARK(BM_CrpCollectionPhotonic)->Unit(benchmark::kMicrosecond);

// CRP dataset collection through the batch engine — the attack's hot
// loop, at 1/2/4/hardware threads (Arg = pool width), items = CRPs.
void BM_CrpCollectionPhotonicBatch(benchmark::State& state) {
  puf::PhotonicPuf photonic(puf::small_photonic_config(), 3, 0);
  common::ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  crypto::ChaChaDrbg rng(crypto::bytes_of("collect"));
  std::vector<puf::Challenge> batch;
  for (int i = 0; i < 256; ++i) {
    batch.push_back(rng.generate(photonic.challenge_bytes()));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(photonic.evaluate_batch(batch, &pool));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch.size()));
}
BENCHMARK(BM_CrpCollectionPhotonicBatch)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(static_cast<int>(common::ThreadPool::default_thread_count()))
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

NEUROPULS_BENCH_MAIN(print_tables)
