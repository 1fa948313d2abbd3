// Identification error-rate tests (FAR/FRR/EER) — hand-computed cases
// plus an end-to-end sweep on a real photonic-PUF population.
#include <gtest/gtest.h>

#include "crypto/chacha20.hpp"
#include "metrics/identification.hpp"
#include "puf/photonic_puf.hpp"

namespace neuropuls::metrics {
namespace {

TEST(Roc, HandComputed) {
  // Genuine distances cluster at 0.05; impostors at 0.45.
  const std::vector<double> intra = {0.04, 0.05, 0.06};
  const std::vector<double> inter = {0.44, 0.45, 0.46};
  const auto curve = roc_curve(intra, inter, 10);
  ASSERT_EQ(curve.size(), 11u);
  // At threshold 0: everything rejected.
  EXPECT_DOUBLE_EQ(curve.front().frr, 1.0);
  EXPECT_DOUBLE_EQ(curve.front().far, 0.0);
  // At threshold 0.5: everything accepted.
  EXPECT_DOUBLE_EQ(curve.back().frr, 0.0);
  EXPECT_DOUBLE_EQ(curve.back().far, 1.0);
  // At threshold 0.25: perfect separation.
  EXPECT_DOUBLE_EQ(curve[5].frr, 0.0);
  EXPECT_DOUBLE_EQ(curve[5].far, 0.0);
}

TEST(Roc, RejectsEmptyInput) {
  EXPECT_THROW(roc_curve({}, {0.4}), std::invalid_argument);
  EXPECT_THROW(roc_curve({0.1}, {}), std::invalid_argument);
  EXPECT_THROW(roc_curve({0.1}, {0.4}, 1), std::invalid_argument);
  EXPECT_THROW(equal_error_rate({}, {}), std::invalid_argument);
  EXPECT_THROW(zero_error_window({}, {0.4}), std::invalid_argument);
}

TEST(Eer, SeparatedDistributionsGiveZero) {
  const std::vector<double> intra = {0.02, 0.03, 0.05};
  const std::vector<double> inter = {0.40, 0.45, 0.50};
  const auto result = equal_error_rate(intra, inter);
  EXPECT_DOUBLE_EQ(result.eer, 0.0);
  EXPECT_GE(result.threshold, 0.05);
  EXPECT_LT(result.threshold, 0.40);
}

TEST(Eer, OverlappingDistributionsGivePositive) {
  const std::vector<double> intra = {0.1, 0.2, 0.3, 0.4};
  const std::vector<double> inter = {0.2, 0.3, 0.4, 0.5};
  EXPECT_GT(equal_error_rate(intra, inter).eer, 0.1);
}

TEST(ZeroErrorWindow, ExistsIffSeparated) {
  const auto good = zero_error_window({0.05}, {0.45});
  EXPECT_TRUE(good.exists);
  EXPECT_DOUBLE_EQ(good.low, 0.05);
  EXPECT_DOUBLE_EQ(good.high, 0.45);
  const auto bad = zero_error_window({0.3}, {0.2});
  EXPECT_FALSE(bad.exists);
}

TEST(GatherSamples, CountsAreRight) {
  const std::vector<crypto::Bytes> refs = {{0x00}, {0xFF}, {0x0F}};
  const std::vector<std::vector<crypto::Bytes>> rereads = {
      {{0x00}, {0x01}}, {{0xFF}}, {{0x0F}, {0x1F}, {0x0E}}};
  const auto samples = gather_distance_samples(refs, rereads);
  EXPECT_EQ(samples.intra.size(), 6u);
  EXPECT_EQ(samples.inter.size(), 3u);
  EXPECT_THROW(gather_distance_samples({}, {}), std::invalid_argument);
}

TEST(Identification, PhotonicPopulationHasZeroErrorWindow) {
  auto cfg = puf::small_photonic_config();
  cfg.challenge_bits = 32;
  crypto::ChaChaDrbg rng(crypto::bytes_of("ident"));
  const puf::Challenge challenge = rng.generate(4);
  std::vector<crypto::Bytes> refs;
  std::vector<std::vector<crypto::Bytes>> rereads;
  for (int d = 0; d < 10; ++d) {
    puf::PhotonicPuf device(cfg, 6060, d);
    refs.push_back(device.evaluate_noiseless(challenge));
    std::vector<crypto::Bytes> reads;
    for (int r = 0; r < 6; ++r) reads.push_back(device.evaluate(challenge));
    rereads.push_back(std::move(reads));
  }
  const auto samples = gather_distance_samples(refs, rereads);
  const auto eer = equal_error_rate(samples.intra, samples.inter);
  EXPECT_LT(eer.eer, 0.02);
  const auto window = zero_error_window(samples.intra, samples.inter);
  EXPECT_TRUE(window.exists);
  EXPECT_GT(window.high - window.low, 0.05);  // comfortable margin
}

}  // namespace
}  // namespace neuropuls::metrics
