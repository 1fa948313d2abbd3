// Tests for the electronic PUF baselines: SRAM, RO, arbiter/XOR-arbiter.
#include <gtest/gtest.h>

#include "puf/arbiter_puf.hpp"
#include "puf/crp_db.hpp"
#include "puf/ro_puf.hpp"
#include "puf/sram_puf.hpp"

namespace neuropuls::puf {
namespace {

// ---- SRAM ------------------------------------------------------------------

TEST(SramPuf, RejectsBadConfig) {
  SramPufConfig cfg;
  cfg.cells = 0;
  EXPECT_THROW(SramPuf(cfg, 1), std::invalid_argument);
  cfg.cells = 12;  // not a multiple of 8
  EXPECT_THROW(SramPuf(cfg, 1), std::invalid_argument);
}

TEST(SramPuf, RejectsNonEmptyChallenge) {
  SramPuf puf(SramPufConfig{}, 1);
  EXPECT_THROW(puf.evaluate(Challenge{0x01}), std::invalid_argument);
}

TEST(SramPuf, HighReliabilityAtReferenceTemperature) {
  SramPuf puf(SramPufConfig{}, 42);
  const Response ref = puf.evaluate_noiseless({});
  const double intra = intra_distance(puf, {}, ref, 10);
  EXPECT_LT(intra, 0.06);  // a few percent flips
  EXPECT_GT(intra, 0.0);   // but not noiseless
}

TEST(SramPuf, InterDeviceNearHalf) {
  SramPuf a(SramPufConfig{}, 1), b(SramPufConfig{}, 2);
  const double inter = crypto::fractional_hamming_distance(
      a.evaluate_noiseless({}), b.evaluate_noiseless({}));
  EXPECT_NEAR(inter, 0.5, 0.05);
}

TEST(SramPuf, UniformityNearHalf) {
  SramPuf puf(SramPufConfig{}, 7);
  const Response r = puf.evaluate_noiseless({});
  const double ones =
      static_cast<double>(crypto::popcount(r)) / (8.0 * r.size());
  EXPECT_NEAR(ones, 0.5, 0.05);
}

TEST(SramPuf, HotterMeansNoisier) {
  SramPuf puf(SramPufConfig{}, 42);
  const Response ref = puf.evaluate_noiseless({});
  const double intra_cold = intra_distance(puf, {}, ref, 20);
  puf.set_temperature(420.0);
  const double intra_hot = intra_distance(puf, {}, ref, 20);
  EXPECT_GT(intra_hot, intra_cold);
}

TEST(SramPuf, MajorityEnrollmentBeatsSingleRead) {
  SramPufConfig cfg;
  cfg.noise_sigma = 0.25;  // deliberately noisy
  SramPuf puf(cfg, 9);
  const Response truth = puf.evaluate_noiseless({});
  const Response enrolled = enroll_majority(puf, {}, 15);
  const Response single = puf.evaluate({});
  EXPECT_LE(crypto::fractional_hamming_distance(enrolled, truth),
            crypto::fractional_hamming_distance(single, truth));
}

TEST(SramPuf, EnrollRejectsEvenReadings) {
  SramPuf puf(SramPufConfig{}, 1);
  EXPECT_THROW(enroll_majority(puf, {}, 4), std::invalid_argument);
}

// ---- RO --------------------------------------------------------------------

TEST(RoPuf, ChallengeCodec) {
  const Challenge c = encode_ro_challenge(300, 7);
  const RoPair p = decode_ro_challenge(c);
  EXPECT_EQ(p.i, 300u);
  EXPECT_EQ(p.j, 7u);
  EXPECT_THROW(decode_ro_challenge(Challenge{1, 2, 3}), std::invalid_argument);
}

TEST(RoPuf, RejectsBadConfig) {
  RoPufConfig cfg;
  cfg.oscillators = 1;
  EXPECT_THROW(RoPuf(cfg, 1), std::invalid_argument);
}

TEST(RoPuf, OutOfRangeOscillatorThrows) {
  RoPuf puf(RoPufConfig{}, 1);
  EXPECT_THROW(puf.measure_count(9999), std::invalid_argument);
}

TEST(RoPuf, ResponseMatchesCountOrdering) {
  RoPuf puf(RoPufConfig{}, 5);
  const auto c = encode_ro_challenge(0, 1);
  const Response r = puf.evaluate_noiseless(c);
  const bool expected =
      puf.expected_count(0) > puf.expected_count(1);
  EXPECT_EQ((r[0] >> 7) & 1, expected ? 1 : 0);
}

TEST(RoPuf, OppositePairGivesOppositeBit) {
  RoPuf puf(RoPufConfig{}, 5);
  const auto r_ij = puf.evaluate_noiseless(encode_ro_challenge(2, 3));
  const auto r_ji = puf.evaluate_noiseless(encode_ro_challenge(3, 2));
  EXPECT_NE(r_ij[0] >> 7, r_ji[0] >> 7);
}

TEST(RoPuf, ClosePairsAreUnreliable) {
  // Find the pair with the smallest and the largest expected |delta|;
  // the former must flip more often under repeated noisy measurement.
  RoPuf puf(RoPufConfig{}, 21);
  std::size_t close_i = 0, close_j = 1, far_i = 0, far_j = 1;
  std::int64_t best_close = INT64_MAX, best_far = -1;
  for (std::size_t i = 0; i < 40; ++i) {
    for (std::size_t j = i + 1; j < 40; ++j) {
      const std::int64_t d =
          std::abs(puf.expected_count(i) - puf.expected_count(j));
      if (d < best_close) { best_close = d; close_i = i; close_j = j; }
      if (d > best_far) { best_far = d; far_i = i; far_j = j; }
    }
  }
  auto flip_rate = [&](std::size_t i, std::size_t j) {
    const auto c = encode_ro_challenge(i, j);
    const auto ref = puf.evaluate_noiseless(c);
    int flips = 0;
    for (int k = 0; k < 60; ++k) flips += (puf.evaluate(c) != ref);
    return flips / 60.0;
  };
  EXPECT_GE(flip_rate(close_i, close_j), flip_rate(far_i, far_j));
  EXPECT_LT(flip_rate(far_i, far_j), 0.05);
}

TEST(RoPuf, LayoutBiasCreatesAliasing) {
  // A pair whose *layout* offsets differ hugely produces the same bit on
  // nearly every device.
  RoPufConfig cfg;
  cfg.layout_sigma_hz = 1.0e6;   // exaggerate layout systematics
  cfg.process_sigma_hz = 1.0e5;
  // Find the most layout-skewed pair using one device's expected counts
  // (layout dominates by construction).
  RoPuf probe(cfg, 0);
  std::size_t bi = 0, bj = 1;
  std::int64_t best = -1;
  for (std::size_t i = 0; i < 30; ++i) {
    for (std::size_t j = i + 1; j < 30; ++j) {
      const std::int64_t d =
          std::abs(probe.expected_count(i) - probe.expected_count(j));
      if (d > best) { best = d; bi = i; bj = j; }
    }
  }
  const auto c = encode_ro_challenge(bi, bj);
  int ones = 0;
  constexpr int kDevices = 40;
  for (int dev = 0; dev < kDevices; ++dev) {
    RoPuf puf(cfg, 1000 + static_cast<std::uint64_t>(dev));
    ones += (puf.evaluate_noiseless(c)[0] >> 7) & 1;
  }
  // Aliased: all (or almost all) devices agree.
  EXPECT_TRUE(ones <= 2 || ones >= kDevices - 2) << "ones=" << ones;
}

TEST(RoPuf, TemperatureShiftsCounts) {
  RoPuf puf(RoPufConfig{}, 3);
  const auto cold = puf.expected_count(0);
  puf.set_temperature(340.0);
  const auto hot = puf.expected_count(0);
  EXPECT_LT(hot, cold);  // negative thermal slope
}

// ---- Arbiter ---------------------------------------------------------------

TEST(ArbiterPuf, RejectsBadConfig) {
  ArbiterPufConfig cfg;
  cfg.stages = 0;
  EXPECT_THROW(ArbiterPuf(cfg, 1), std::invalid_argument);
  ArbiterPufConfig cfg2;
  cfg2.xor_chains = 0;
  EXPECT_THROW(ArbiterPuf(cfg2, 1), std::invalid_argument);
}

TEST(ArbiterPuf, WrongChallengeSizeThrows) {
  ArbiterPuf puf(ArbiterPufConfig{}, 1);
  EXPECT_THROW(puf.evaluate(Challenge(3, 0)), std::invalid_argument);
}

TEST(ArbiterPuf, DeterministicNoiselessResponse) {
  ArbiterPuf puf(ArbiterPufConfig{}, 11);
  const Challenge c(8, 0xA5);
  EXPECT_EQ(puf.evaluate_noiseless(c), puf.evaluate_noiseless(c));
}

TEST(ArbiterPuf, ResponseBalancedOverChallenges) {
  ArbiterPuf puf(ArbiterPufConfig{}, 13);
  crypto::ChaChaDrbg rng(crypto::bytes_of("balance"));
  int ones = 0;
  constexpr int kN = 2000;
  for (int i = 0; i < kN; ++i) {
    ones += (puf.evaluate_noiseless(rng.generate(8))[0] >> 7) & 1;
  }
  EXPECT_NEAR(ones / static_cast<double>(kN), 0.5, 0.06);
}

TEST(ArbiterPuf, DevicesDisagreeOnHalfTheChallenges) {
  ArbiterPuf a(ArbiterPufConfig{}, 1), b(ArbiterPufConfig{}, 2);
  crypto::ChaChaDrbg rng(crypto::bytes_of("inter"));
  int diff = 0;
  constexpr int kN = 2000;
  for (int i = 0; i < kN; ++i) {
    const Challenge c = rng.generate(8);
    diff += (a.evaluate_noiseless(c) != b.evaluate_noiseless(c));
  }
  EXPECT_NEAR(diff / static_cast<double>(kN), 0.5, 0.07);
}

TEST(ArbiterPuf, NoiseFlipsOnlyMarginalChallenges) {
  ArbiterPufConfig cfg;
  cfg.noise_sigma = 0.15;  // |delta| ~ N(0, sqrt(stages)); make flips visible
  ArbiterPuf puf(cfg, 3);
  crypto::ChaChaDrbg rng(crypto::bytes_of("noise"));
  int flips = 0;
  constexpr int kN = 500;
  for (int i = 0; i < kN; ++i) {
    const Challenge c = rng.generate(8);
    const Response ref = puf.evaluate_noiseless(c);
    for (int k = 0; k < 3; ++k) flips += (puf.evaluate(c) != ref);
  }
  const double rate = flips / (3.0 * kN);
  EXPECT_GT(rate, 0.0);
  EXPECT_LT(rate, 0.05);
}

TEST(ArbiterPuf, XorVariantIsNoisier) {
  // XORing chains multiplies the single-chain error rate — the classic
  // reliability cost of the hardening.
  ArbiterPufConfig plain;
  plain.noise_sigma = 0.05;
  ArbiterPufConfig xored = plain;
  xored.xor_chains = 6;
  ArbiterPuf a(plain, 5), b(xored, 5);
  crypto::ChaChaDrbg rng(crypto::bytes_of("xor-noise"));
  int flips_a = 0, flips_b = 0;
  constexpr int kN = 800;
  for (int i = 0; i < kN; ++i) {
    const Challenge c = rng.generate(8);
    flips_a += (a.evaluate(c) != a.evaluate_noiseless(c));
    flips_b += (b.evaluate(c) != b.evaluate_noiseless(c));
  }
  EXPECT_GT(flips_b, flips_a);
}

// ---- CRP database -----------------------------------------------------------

TEST(CrpDatabase, EnrollTakeExhaust) {
  ArbiterPuf puf(ArbiterPufConfig{}, 77);
  CrpDatabase db;
  crypto::ChaChaDrbg rng(crypto::bytes_of("db"));
  const std::vector<Challenge> challenges = db.enroll(puf, 10, rng);
  ASSERT_EQ(challenges.size(), 10u);
  EXPECT_EQ(db.size(), 10u);
  EXPECT_GT(db.storage_bytes(), 0u);
  for (const Challenge& challenge : challenges) {
    const auto crp = db.take(challenge);
    ASSERT_TRUE(crp.has_value());
    // The enrolled response matches the device's stable behaviour.
    EXPECT_EQ(crp->response, puf.evaluate_noiseless(challenge));
    EXPECT_FALSE(db.take(challenge).has_value()) << "one-time use";
  }
  EXPECT_TRUE(db.empty());
}

TEST(CrpDatabase, LookupFindsOnlyEnrolled) {
  ArbiterPuf puf(ArbiterPufConfig{}, 78);
  CrpDatabase db;
  crypto::ChaChaDrbg rng(crypto::bytes_of("db2"));
  db.enroll(puf, 5, rng);
  Crp known{rng.generate(8), Response{1}};
  db.insert(known);
  EXPECT_TRUE(db.lookup(known.challenge).has_value());
  EXPECT_FALSE(db.lookup(rng.generate(8)).has_value());
}

}  // namespace
}  // namespace neuropuls::puf
