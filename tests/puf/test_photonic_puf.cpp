// Tests for the photonic PUF and its compositions — the §II-A statistical
// claims (intra/inter Hamming distance), the §III-B speed claim, and the
// §IV chip-binding / challenge-encryption constructions.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>

#include "crypto/chacha20.hpp"
#include "crypto/sha256.hpp"
#include "faults/device_faults.hpp"

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

// ---- Known answers for every entry point -----------------------------------

// SHA-256 over the output of each PhotonicPuf entry point on a fresh
// device, with and without an active fault model, on the small and the
// default configuration. Response bytes are hashed as they are, analog
// margins as the raw bytes of their doubles, so any change in an operation
// tree, a noise-draw order or a fault hook shows up here. The digests were
// recorded on the implementation that evaluated single challenges through a
// scalar core and batches through lane blocks; one core must reproduce
// both.

std::shared_ptr<const faults::DeviceFaultModel> kat_fault_model() {
  faults::DeviceFaultConfig config;
  config.photodiodes.push_back({1, 0.0});  // dead photodiode on port 1
  config.thermal = {0.5, 4.0};
  config.laser_droop = {0.02, 0.6};
  config.phase_aging = {0.01, 0.3};
  return std::make_shared<const faults::DeviceFaultModel>(config, 0x4b4154);
}

struct KatDigests {
  std::string evaluate;
  std::string evaluate_noiseless;
  std::string evaluate_noiseless_at;
  std::string evaluate_analog_noisy;
  std::string evaluate_analog_model;
  std::string evaluate_batch_1;
  std::string evaluate_batch_7;
  std::string evaluate_batch_17;
};

std::string digest_hex(crypto::Sha256& h) {
  const auto d = h.finalize();
  return crypto::to_hex(crypto::ByteView(d.data(), d.size()));
}

void absorb_margins(crypto::Sha256& h,
                    const std::vector<std::vector<double>>& margins) {
  for (const auto& row : margins) {
    crypto::Bytes raw(row.size() * sizeof(double));
    std::memcpy(raw.data(), row.data(), raw.size());
    h.update(raw);
  }
}

KatDigests kat_digests(const PhotonicPufConfig& config, bool faulted) {
  const auto model = faulted ? kat_fault_model() : nullptr;
  auto fresh = [&] {
    auto device = std::make_unique<PhotonicPuf>(config, 0x6b6174, 3);
    device->set_fault_model(model);
    return device;
  };
  crypto::ChaChaDrbg rng(crypto::bytes_of("photonic-puf-known-answers"));
  const std::size_t challenge_bytes = fresh()->challenge_bytes();
  std::vector<Challenge> challenges;
  for (int i = 0; i < 17; ++i) {
    challenges.push_back(rng.generate(challenge_bytes));
  }

  KatDigests out;
  {
    auto device = fresh();
    crypto::Sha256 h;
    for (int i = 0; i < 12; ++i) h.update(device->evaluate(challenges[i]));
    out.evaluate = digest_hex(h);
  }
  {
    auto device = fresh();
    crypto::Sha256 h;
    for (int i = 0; i < 6; ++i) {
      h.update(device->evaluate_noiseless(challenges[i]));
    }
    out.evaluate_noiseless = digest_hex(h);
  }
  {
    auto device = fresh();
    crypto::Sha256 h;
    for (const double dt : {2.5, -4.0}) {
      for (int i = 0; i < 6; ++i) {
        h.update(device->evaluate_noiseless_at(
            challenges[i], photonic::kReferenceTemperature + dt));
      }
    }
    out.evaluate_noiseless_at = digest_hex(h);
  }
  for (const bool noisy : {true, false}) {
    auto device = fresh();
    crypto::Sha256 h;
    for (int i = 0; i < 4; ++i) {
      absorb_margins(h, device->evaluate_analog(challenges[i], noisy));
    }
    (noisy ? out.evaluate_analog_noisy : out.evaluate_analog_model) =
        digest_hex(h);
  }
  for (const std::size_t size : {1, 7, 17}) {
    auto device = fresh();
    crypto::Sha256 h;
    // One evaluation first, so the batch starts past counter value 1.
    h.update(device->evaluate(challenges[16]));
    const std::vector<Challenge> batch(challenges.begin(),
                                       challenges.begin() +
                                           static_cast<std::ptrdiff_t>(size));
    for (const auto& r : device->evaluate_batch(batch)) h.update(r);
    (size == 1 ? out.evaluate_batch_1
               : size == 7 ? out.evaluate_batch_7 : out.evaluate_batch_17) =
        digest_hex(h);
  }
  return out;
}

void expect_digests(const KatDigests& got, const KatDigests& want) {
  EXPECT_EQ(got.evaluate, want.evaluate);
  EXPECT_EQ(got.evaluate_noiseless, want.evaluate_noiseless);
  EXPECT_EQ(got.evaluate_noiseless_at, want.evaluate_noiseless_at);
  EXPECT_EQ(got.evaluate_analog_noisy, want.evaluate_analog_noisy);
  EXPECT_EQ(got.evaluate_analog_model, want.evaluate_analog_model);
  EXPECT_EQ(got.evaluate_batch_1, want.evaluate_batch_1);
  EXPECT_EQ(got.evaluate_batch_7, want.evaluate_batch_7);
  EXPECT_EQ(got.evaluate_batch_17, want.evaluate_batch_17);
}

// The noiseless entries never see the fault model, so they repeat the
// healthy digests in the faulted cases.
TEST(PhotonicPufKnownAnswer, SmallConfigHealthy) {
  expect_digests(
      kat_digests(small_photonic_config(), false),
      {"38918cac029ca69e73b4fb4c5541aaf8e14fec1b5b98db869d7fb14daa52e855",
       "d4ae0b0479ce364913b5217b79d5ac787c59d893191e517dfdf0469f41afcbcc",
       "73c8a6e603ae13cccff31e86eafed3d9266f3a14c000e4e790e2681eabaaa275",
       "eef9594c77dfe16ae843fe0a63f124967f8c7a3d1e19f01cba22cefb109e007a",
       "f41bd3220def2d58590e1138a6ba88d8eba92b0a3d4e30058357d87101208f58",
       "8a33c5cb89b8e1d9220f7256531d1e930468513ea7ee2c5c937bda44b0390793",
       "9598cebfcea121ec340105b882cee96465386f885fb35a3875e2389390b79e19",
       "c27f496fabee6c5b30f7ca056585736dc62e08e8b8cfaff16bde3c55d387186b"});
}

TEST(PhotonicPufKnownAnswer, SmallConfigFaulted) {
  expect_digests(
      kat_digests(small_photonic_config(), true),
      {"f8b9a704a945aa52d1d0d4d8eceac47815b261cf05cce33cca54257579013668",
       "d4ae0b0479ce364913b5217b79d5ac787c59d893191e517dfdf0469f41afcbcc",
       "73c8a6e603ae13cccff31e86eafed3d9266f3a14c000e4e790e2681eabaaa275",
       "79b179d9e3cd56bb8bc7aca27347bf0f5005555b269ffcce5e657fe880879560",
       "f41bd3220def2d58590e1138a6ba88d8eba92b0a3d4e30058357d87101208f58",
       "5f940793a3ad833c2c93d8971b50b04b6a0c3cff4c4c9baccbd0073f8095b469",
       "5c1ad1a63bf5bc5c74fce96145c1c0dbfecb10b45977232c471006f24bda8d4c",
       "0861fa1a4fcd300ceec86b613d75c2a3297f1ef1518e19c02c0aedcdaa359d94"});
}

TEST(PhotonicPufKnownAnswer, DefaultConfigHealthy) {
  expect_digests(
      kat_digests(PhotonicPufConfig{}, false),
      {"deeb8591711fa2f8299d6c1cebce5c56514d0a2e9b9273e8f6d913da9cb7ba1b",
       "2c27af69d1c3296f83b7ff6bf596bd5d9dc91c382aad9449c710e92a533b1cf4",
       "7250ee8d6af561249ed2f0aa0c6fb4da5143739afb7538788f2446acd3e5c748",
       "c9350b439296d092c95bc57e43dfc260643c937b53278d1c562bf2110e8a5a7f",
       "3541850c356c7ce47afd82e5d49a9ebcd1052d7b6c55c92ec96f0ba481572ca7",
       "50724a33584829bce8b520dc8a8de1ba5fd7d8659fe59ee0707aaf426ff9b3e4",
       "2ec0f494be3095bc19d28b94126d6558d3e5327f205d7fa5de588e3d80fdf973",
       "e9528342b71cf1aa7e3ef7b4acada4c6f9ed1a3b4dd4e4b3a936ed276af255ee"});
}

TEST(PhotonicPufKnownAnswer, DefaultConfigFaulted) {
  expect_digests(
      kat_digests(PhotonicPufConfig{}, true),
      {"d43ecd9f30f4ff80b8bafa884f63891e392372a4d52938d229c1c167a7539c07",
       "2c27af69d1c3296f83b7ff6bf596bd5d9dc91c382aad9449c710e92a533b1cf4",
       "7250ee8d6af561249ed2f0aa0c6fb4da5143739afb7538788f2446acd3e5c748",
       "0f1ff908646ecce99b8b80f305e1173f3300299b11ce6ce237e773ffe0f0112b",
       "3541850c356c7ce47afd82e5d49a9ebcd1052d7b6c55c92ec96f0ba481572ca7",
       "00f483d1beb506c4f80875e4fdb2e9a120383049ee202be519b56fd65a2b9b36",
       "a64ea7aa80a6e23a01f795978144123410f115f2e04258c2aa11c8bb74998e37",
       "b2e74c59245cd7e4bda9c139d00a885efd75fbfe88c213f58a5fe3729229def5"});
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
