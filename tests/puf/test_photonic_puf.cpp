// Tests for the photonic PUF and its compositions — the §II-A statistical
// claims (intra/inter Hamming distance), the §III-B speed claim, and the
// §IV chip-binding / challenge-encryption constructions.
#include <gtest/gtest.h>

#include <memory>

#include "crypto/chacha20.hpp"

#include "puf/composite.hpp"
#include "puf/photonic_puf.hpp"

namespace neuropuls::puf {
namespace {

TEST(PhotonicPuf, RejectsBadConfig) {
  PhotonicPufConfig cfg = small_photonic_config();
  cfg.challenge_bits = 12;  // not a multiple of 8
  EXPECT_THROW(PhotonicPuf(cfg, 1, 0), std::invalid_argument);
  PhotonicPufConfig cfg2 = small_photonic_config();
  cfg2.samples_per_bit = 0;
  EXPECT_THROW(PhotonicPuf(cfg2, 1, 0), std::invalid_argument);
}

TEST(PhotonicPuf, WrongChallengeSizeThrows) {
  PhotonicPuf puf(small_photonic_config(), 1, 0);
  EXPECT_THROW(puf.evaluate(Challenge(1, 0)), std::invalid_argument);
}

TEST(PhotonicPuf, SizesConsistent) {
  PhotonicPuf puf(small_photonic_config(), 1, 0);
  EXPECT_EQ(puf.challenge_bytes(), 2u);   // 16 bits
  EXPECT_EQ(puf.response_bits(), 32u);    // 16 windows x 2 pairs
  EXPECT_EQ(puf.response_bytes(), 4u);
  const Response r = puf.evaluate(Challenge(2, 0xC3));
  EXPECT_EQ(r.size(), 4u);
}

TEST(PhotonicPuf, NoiselessIsDeterministic) {
  PhotonicPuf puf(small_photonic_config(), 3, 1);
  const Challenge c(2, 0x5A);
  EXPECT_EQ(puf.evaluate_noiseless(c), puf.evaluate_noiseless(c));
}

TEST(PhotonicPuf, ReliabilityIntraDistanceSmall) {
  PhotonicPuf puf(small_photonic_config(), 3, 1);
  const Challenge c(2, 0x5A);
  const Response ref = puf.evaluate_noiseless(c);
  const double intra = intra_distance(puf, c, ref, 10);
  EXPECT_LT(intra, 0.12);
}

TEST(PhotonicPuf, InterDeviceNearHalf) {
  // §II-A: "fractional Hamming distance close to 50% ... inter-device".
  const PhotonicPufConfig cfg = small_photonic_config();
  crypto::ChaChaDrbg rng(crypto::bytes_of("inter-phot"));
  double total = 0.0;
  int pairs = 0;
  constexpr int kDevices = 6;
  std::vector<std::unique_ptr<PhotonicPuf>> devices;
  for (int d = 0; d < kDevices; ++d) {
    devices.push_back(std::make_unique<PhotonicPuf>(cfg, 99, d));
  }
  for (int trial = 0; trial < 4; ++trial) {
    const Challenge c = rng.generate(2);
    for (int a = 0; a < kDevices; ++a) {
      for (int b = a + 1; b < kDevices; ++b) {
        total += crypto::fractional_hamming_distance(
            devices[a]->evaluate_noiseless(c),
            devices[b]->evaluate_noiseless(c));
        ++pairs;
      }
    }
  }
  EXPECT_NEAR(total / pairs, 0.5, 0.12);
}

TEST(PhotonicPuf, ChallengeSensitivity) {
  // Flipping one challenge bit must change a macroscopic fraction of
  // response bits (strong-PUF avalanche, helped by the ring memory).
  PhotonicPuf puf(small_photonic_config(), 5, 2);
  Challenge c(2, 0x0F);
  const Response r1 = puf.evaluate_noiseless(c);
  c[0] ^= 0x80;  // flip the first bit (early in time, affects later bits)
  const Response r2 = puf.evaluate_noiseless(c);
  EXPECT_GT(crypto::fractional_hamming_distance(r1, r2), 0.02);
}

TEST(PhotonicPuf, AnalogAndDigitalAgree) {
  PhotonicPuf puf(small_photonic_config(), 5, 2);
  const Challenge c(2, 0x3C);
  const auto analog = puf.evaluate_analog(c, /*noisy=*/false);
  const Response digital = puf.evaluate_noiseless(c);
  std::size_t bit = 0;
  for (const auto& row : analog) {
    for (double delta : row) {
      const bool d = (digital[bit / 8] >> (7 - bit % 8)) & 1;
      EXPECT_EQ(d, delta > 0.0) << "bit " << bit;
      ++bit;
    }
  }
}

TEST(PhotonicPuf, TemperatureChangesResponses) {
  PhotonicPuf puf(small_photonic_config(), 7, 0);
  const Challenge c(2, 0xAA);
  const Response cold = puf.evaluate_noiseless(c);
  puf.set_temperature(320.0);
  const Response hot = puf.evaluate_noiseless(c);
  EXPECT_GT(crypto::fractional_hamming_distance(cold, hot), 0.0);
}

TEST(PhotonicPuf, LaserPowerScalingFlipsOnlyMinorityOfBits) {
  // Differential readout self-references the optical power, so a modest
  // global power change flips only the bits whose calibrated margin is
  // small — a minority, far from the fresh-device distance of ~50%.
  PhotonicPuf puf(small_photonic_config(), 7, 0);
  const Challenge c(2, 0xAA);
  const Response nominal = puf.evaluate_noiseless(c);
  puf.set_laser_power_scale(1.3);
  const Response boosted = puf.evaluate_noiseless(c);
  EXPECT_LT(crypto::fractional_hamming_distance(nominal, boosted), 0.30);
}

TEST(PhotonicPuf, ThroughputMeetsAttestationClaim) {
  // §III-B: "the inherent speed of the pPUF (at least 5 Gb/s)". With the
  // full-size configuration the response throughput must clear that bar.
  PhotonicPufConfig cfg;  // defaults: 8 ports, 64-bit challenges, 25 GS/s
  PhotonicPuf puf(cfg, 11, 0);
  EXPECT_GE(puf.response_throughput_bps(), 5e9);
  EXPECT_LT(puf.interrogation_time_s(), 100e-9);  // §IV lifetime bound
}

TEST(PhotonicPuf, ResponseLifetimeBelow100ns) {
  PhotonicPuf puf(small_photonic_config(), 11, 0);
  EXPECT_LT(puf.interrogation_time_s(), 100e-9);
}

// ---- Challenge encryption ----------------------------------------------------

TEST(EncryptedChallengePuf, TransformIsDeterministicAndKeyed) {
  auto inner = std::make_unique<PhotonicPuf>(small_photonic_config(), 13, 0);
  const Response weak_key = crypto::bytes_of("weak puf key material");
  EncryptedChallengePuf wrapped(std::move(inner), weak_key);
  const Challenge c(2, 0x42);
  EXPECT_EQ(wrapped.transform(c), wrapped.transform(c));
  EXPECT_NE(wrapped.transform(c), c);

  auto inner2 = std::make_unique<PhotonicPuf>(small_photonic_config(), 13, 0);
  EncryptedChallengePuf other(std::move(inner2),
                              crypto::bytes_of("different key"));
  EXPECT_NE(wrapped.transform(c), other.transform(c));
}

TEST(EncryptedChallengePuf, ConsistentWithInnerOnTransformedChallenge) {
  PhotonicPuf reference(small_photonic_config(), 13, 0);
  auto inner = std::make_unique<PhotonicPuf>(small_photonic_config(), 13, 0);
  const Response weak_key = crypto::bytes_of("key");
  EncryptedChallengePuf wrapped(std::move(inner), weak_key);
  const Challenge c(2, 0x42);
  EXPECT_EQ(wrapped.evaluate_noiseless(c),
            reference.evaluate_noiseless(wrapped.transform(c)));
}

TEST(EncryptedChallengePuf, TransformKnownAnswer) {
  EncryptedChallengePuf wrapped(
      std::make_unique<PhotonicPuf>(small_photonic_config(), 13, 0),
      crypto::bytes_of("weak puf key material"));
  EXPECT_EQ(crypto::to_hex(wrapped.transform(Challenge(2, 0x42))), "79d0");
  EXPECT_EQ(crypto::to_hex(wrapped.transform(Challenge{0x00, 0x01})), "387c");
  EXPECT_EQ(crypto::to_hex(wrapped.transform(Challenge{0xff, 0xfe})), "3d55");
}

TEST(EncryptedChallengePuf, NullInnerThrows) {
  EXPECT_THROW(EncryptedChallengePuf(nullptr, crypto::bytes_of("k")),
               std::invalid_argument);
}

// ---- Composite PIC+ASIC -------------------------------------------------------

CompositePuf make_composite(std::uint64_t pic_index,
                            std::uint64_t asic_seed) {
  return CompositePuf(
      std::make_unique<PhotonicPuf>(small_photonic_config(), 31, pic_index),
      std::make_unique<SramPuf>(SramPufConfig{}, asic_seed));
}

TEST(CompositePuf, GenuinePairingIsStable) {
  CompositePuf genuine = make_composite(0, 100);
  const Challenge c(2, 0x99);
  const Response ref = genuine.evaluate_noiseless(c);
  // Noisy evaluations stay close to the reference.
  EXPECT_LT(crypto::fractional_hamming_distance(genuine.evaluate(c), ref),
            0.15);
}

TEST(CompositePuf, SwappedPicDetected) {
  CompositePuf genuine = make_composite(0, 100);
  CompositePuf tampered = make_composite(1, 100);  // attacker swapped PIC
  crypto::ChaChaDrbg rng(crypto::bytes_of("swap-pic"));
  double d = 0.0;
  constexpr int kChallenges = 8;
  for (int i = 0; i < kChallenges; ++i) {
    const Challenge c = rng.generate(2);
    d += crypto::fractional_hamming_distance(
        genuine.evaluate_noiseless(c), tampered.evaluate_noiseless(c));
  }
  EXPECT_GT(d / kChallenges, 0.2);
}

TEST(CompositePuf, SwappedAsicDetected) {
  CompositePuf genuine = make_composite(0, 100);
  CompositePuf tampered = make_composite(0, 101);  // attacker swapped ASIC
  const Challenge c(2, 0x99);
  const double d = crypto::fractional_hamming_distance(
      genuine.evaluate_noiseless(c), tampered.evaluate_noiseless(c));
  EXPECT_NEAR(d, 0.5, 0.2);  // keystream mask decorrelates completely
}

// The binding cipher's keystream, read as the composite response XOR the
// bare PIC's: pins the key derived from the ASIC's SRAM pattern.
TEST(CompositePuf, BindingMaskKnownAnswer) {
  CompositePuf composite = make_composite(0, 100);
  const PhotonicPuf pic(small_photonic_config(), 31, 0);
  std::string masks;
  for (const Challenge& c : {Challenge(2, 0x99), Challenge{0x00, 0x01}}) {
    masks += crypto::to_hex(crypto::xor_bytes(composite.evaluate_noiseless(c),
                                              pic.evaluate_noiseless(c)));
    masks += ' ';
  }
  EXPECT_EQ(masks, "b58c1e82 cb68fda1 ");
}

TEST(CompositePuf, NullChipThrows) {
  EXPECT_THROW(
      CompositePuf(nullptr, std::make_unique<SramPuf>(SramPufConfig{}, 1)),
      std::invalid_argument);
}

}  // namespace
}  // namespace neuropuls::puf
