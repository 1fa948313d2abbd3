// Timing-leak harness tests: constant-time primitives stay under the
// dudect threshold, the deliberately variable-time control is flagged,
// and the report/config plumbing behaves.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>

#include "crypto/aes.hpp"
#include "crypto/block_kernels.hpp"
#include "crypto/dh.hpp"
#include "crypto/hmac.hpp"
#include "metrics/timing_leak.hpp"

namespace neuropuls::metrics {
namespace {

// Timing measurements are statistical: a loaded CI machine can push one
// run of a perfectly constant-time target over the threshold. Take the
// best of three independently-seeded runs — a genuinely leaking target
// fails all three (its |t| grows with sample count; the control lands in
// the hundreds), while a constant-time one passes with overwhelming
// probability.
TimingLeakReport best_of_three(const TimingTarget& target,
                               crypto::ByteView fixed_input,
                               TimingLeakConfig config) {
  TimingLeakReport best;
  best.t_statistic = 1e18;
  for (std::uint64_t attempt = 0; attempt < 3; ++attempt) {
    config.seed = 1 + attempt;
    const TimingLeakReport report =
        measure_timing_leak(target, fixed_input, config);
    if (std::abs(report.t_statistic) < std::abs(best.t_statistic)) {
      best = report;
    }
    if (!best.leaking) break;
  }
  return best;
}

TimingLeakConfig quick_config() {
  TimingLeakConfig config;
  config.samples_per_class = 12000;
  config.warmup = 512;
  return config;
}

TEST(TimingLeak, CtEqualIsConstantTime) {
  // The fixed class matches the secret exactly; the random class
  // mismatches (usually in the first byte). An early-exit comparator
  // would separate the classes; ct_equal must not.
  const crypto::Bytes secret(4096, 0x5A);
  const TimingTarget target = [&secret](crypto::ByteView input) {
    volatile bool sink = crypto::ct_equal(input, secret);
    (void)sink;
  };
  const auto report = best_of_three(target, secret, quick_config());
  EXPECT_FALSE(report.leaking)
      << "ct_equal flagged: t=" << report.t_statistic;
  EXPECT_GT(report.used_fixed, 0u);
  EXPECT_GT(report.used_random, 0u);
}

TEST(TimingLeak, VariableTimeControlIsFlagged) {
  // The positive control: if the harness cannot flag a byte-wise
  // early-exit over 4 KiB, it cannot flag anything.
  const crypto::Bytes secret(4096, 0x5A);
  TimingLeakConfig config = quick_config();
  const TimingTarget target = [&secret](crypto::ByteView input) {
    volatile bool sink = variable_time_equal(input, secret);
    (void)sink;
  };
  const auto report = measure_timing_leak(target, secret, config);
  EXPECT_TRUE(report.leaking)
      << "control NOT flagged: t=" << report.t_statistic;
  // The fixed class scans all 4096 bytes; the random class exits after
  // the first mismatch, so fixed must be measurably slower on average.
  EXPECT_GT(report.mean_fixed_ns, report.mean_random_ns);
}

TEST(TimingLeak, CmacTagVerificationIsConstantTime) {
  // AES-CMAC tag check as the secure channel performs it: recompute the
  // tag over the input and compare in constant time. The input is the
  // message; the comparison result (match for the fixed class only) must
  // not modulate the timing.
  const crypto::Aes cipher(crypto::Bytes(16, 0x0F));
  const crypto::Bytes message(256, 0x33);
  std::array<std::uint8_t, crypto::Cmac::kTagSize> good_tag{};
  crypto::Cmac(cipher).tag(message, good_tag);
  const TimingTarget target = [&](crypto::ByteView input) {
    std::array<std::uint8_t, crypto::Cmac::kTagSize> tag{};
    crypto::Cmac(cipher).tag(input, tag);
    volatile bool sink = crypto::ct_equal(tag, good_tag);
    (void)sink;
  };
  const auto report = best_of_three(target, message, quick_config());
  EXPECT_FALSE(report.leaking)
      << "CMAC verify flagged: t=" << report.t_statistic;
}

TEST(TimingLeak, AesBlockCipherIsConstantTime) {
  // The dispatched block cipher under one key, a fixed plaintext against
  // random ones. With AES-NI every round is one instruction whose timing
  // does not depend on the data; the portable table S-box makes no such
  // promise, so this case runs only where the hardware path is the one
  // Aes dispatches to.
  if (crypto::detail::aes_blocks_aesni() == nullptr) {
    GTEST_SKIP() << "CPU lacks AES-NI; the portable S-box is table-based";
  }
  const crypto::Aes cipher(crypto::Bytes(16, 0x0F));
  const crypto::Bytes plaintext(16, 0x00);
  const TimingTarget target = [&cipher](crypto::ByteView input) {
    std::array<std::uint8_t, 16> block{};
    std::copy(input.begin(), input.end(), block.begin());
    cipher.encrypt_block(block);
    volatile std::uint8_t sink = block[0];
    (void)sink;
  };
  const auto report = best_of_three(target, plaintext, quick_config());
  EXPECT_FALSE(report.leaking)
      << "AES encrypt_block flagged: t=" << report.t_statistic;
}

TEST(TimingLeak, HmacVerificationIsConstantTime) {
  // HMAC-SHA256 verify: recompute over the input, constant-time compare
  // against the expected MAC (EKE key-confirmation shape).
  const crypto::Bytes key(32, 0x77);
  const crypto::Bytes message(256, 0x44);
  const crypto::Bytes good_mac = crypto::hmac_sha256(key, message);
  const TimingTarget target = [&](crypto::ByteView input) {
    const crypto::Bytes mac = crypto::hmac_sha256(key, input);
    volatile bool sink = crypto::ct_equal(mac, good_mac);
    (void)sink;
  };
  const auto report = best_of_three(target, message, quick_config());
  EXPECT_FALSE(report.leaking)
      << "HMAC verify flagged: t=" << report.t_statistic;
}

TEST(TimingLeak, ModexpIsConstantTime) {
  // EKE's secret exponent: the fixed class is the low-Hamming-weight
  // 0x80...01 (two set bits), the random class random 256-bit exponents
  // forced to the same length, as dh_generate forces them. A scan that
  // multiplies only on 1-bits separates the classes by ~126 multiplies.
  const auto& group = crypto::DhGroup::modp1536();
  crypto::Bytes fixed(32, 0);
  fixed.front() = 0x80;
  fixed.back() = 0x01;
  const TimingTarget target = [&group](crypto::ByteView input) {
    crypto::Bytes exponent(input.begin(), input.end());
    exponent.front() |= 0x80;
    exponent.back() |= 0x01;
    const crypto::BigUint result = crypto::modexp(
        group.generator, crypto::BigUint::from_bytes_be(exponent),
        group.prime);
    volatile bool sink = result.is_zero();
    (void)sink;
  };
  TimingLeakConfig config;
  config.samples_per_class = 1000;
  config.warmup = 32;
  const auto report = best_of_three(target, fixed, config);
  EXPECT_FALSE(report.leaking)
      << "modexp flagged: t=" << report.t_statistic;
}

TEST(TimingLeak, DhGenerateIsConstantTime) {
  // The fixed-base comb behind dh_generate, on the same two classes as
  // ModexpIsConstantTime: 0x80...01 against random 256-bit exponents with
  // the top and bottom bits forced. A comb that skipped zero columns, or
  // indexed its table directly, would give the sparse class fewer or
  // cheaper steps.
  const auto& group = crypto::DhGroup::modp1536();
  crypto::Bytes fixed(32, 0);
  fixed.front() = 0x80;
  fixed.back() = 0x01;
  const TimingTarget target = [&group](crypto::ByteView input) {
    crypto::Bytes exponent(input.begin(), input.end());
    exponent.front() |= 0x80;
    exponent.back() |= 0x01;
    const crypto::BigUint result =
        group.comb.pow(crypto::BigUint::from_bytes_be(exponent));
    volatile bool sink = result.is_zero();
    (void)sink;
  };
  TimingLeakConfig config;
  config.samples_per_class = 2000;
  config.warmup = 64;
  const auto report = best_of_three(target, fixed, config);
  EXPECT_FALSE(report.leaking)
      << "fixed-base comb flagged: t=" << report.t_statistic;
}

TEST(TimingLeak, ReportEchoesThreshold) {
  const crypto::Bytes fixed(64, 1);
  TimingLeakConfig config;
  config.samples_per_class = 64;
  config.threshold = 9.0;
  const auto report = measure_timing_leak(
      [](crypto::ByteView) {}, fixed, config);
  EXPECT_DOUBLE_EQ(report.threshold, 9.0);
}

TEST(TimingLeak, ConfigValidation) {
  const crypto::Bytes fixed(16, 1);
  const TimingTarget noop = [](crypto::ByteView) {};
  EXPECT_THROW(measure_timing_leak(nullptr, fixed, {}),
               std::invalid_argument);
  EXPECT_THROW(measure_timing_leak(noop, crypto::ByteView{}, {}),
               std::invalid_argument);
  TimingLeakConfig too_few;
  too_few.samples_per_class = 4;
  EXPECT_THROW(measure_timing_leak(noop, fixed, too_few),
               std::invalid_argument);
  TimingLeakConfig bad_quantile;
  bad_quantile.crop_quantile = 0.0;
  EXPECT_THROW(measure_timing_leak(noop, fixed, bad_quantile),
               std::invalid_argument);
}

TEST(VariableTimeEqual, FunctionalBehaviour) {
  const crypto::Bytes a = {1, 2, 3};
  const crypto::Bytes b = {1, 2, 3};
  const crypto::Bytes c = {1, 2, 4};
  EXPECT_TRUE(variable_time_equal(a, b));
  EXPECT_FALSE(variable_time_equal(a, c));
  EXPECT_FALSE(variable_time_equal(a, crypto::ByteView(b).first(2)));
  EXPECT_TRUE(variable_time_equal({}, {}));
}

}  // namespace
}  // namespace neuropuls::metrics
