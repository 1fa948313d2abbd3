// Timing-leak detection experiment (DESIGN.md "Security hygiene" layer).
//
// Prints a dudect-style t-statistic table for the stack's secret-handling
// primitives — the constant-time comparator, CMAC tag verification,
// HMAC-SHA256 verification, the AES block cipher on each kernel (AES-NI
// and the portable table S-box, reported as measured), MODP modexp over a
// secret exponent — against the deliberately variable-time control, then
// times the harness itself so its cost per audited primitive is known.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <cstdio>

#include "crypto/aes.hpp"
#include "crypto/block_kernels.hpp"
#include "crypto/dh.hpp"
#include "crypto/hmac.hpp"
#include "metrics/timing_leak.hpp"

namespace neuropuls {
namespace {

using metrics::TimingLeakConfig;
using metrics::TimingLeakReport;
using metrics::TimingTarget;

void print_row(const char* name, const TimingLeakReport& report) {
  std::printf("  %-28s %9.2f  %10.1f  %10.1f   %s\n", name,
              report.t_statistic, report.mean_fixed_ns,
              report.mean_random_ns,
              report.leaking ? "LEAKING" : "constant-time");
}

void print_leak_table() {
  TimingLeakConfig config;
  config.samples_per_class = 20000;
  config.warmup = 512;

  const crypto::Bytes secret(4096, 0x5A);
  const crypto::Aes cipher(crypto::Bytes(16, 0x0F));
  const crypto::Bytes key32(32, 0x77);
  const crypto::Bytes message(256, 0x33);
  const crypto::Bytes good_tag = crypto::aes_cmac(cipher, message);
  const crypto::Bytes good_mac = crypto::hmac_sha256(key32, message);

  std::printf("Timing-leak audit (dudect-style Welch t-test, |t| > %.1f "
              "flags a leak; %zu samples/class)\n",
              config.threshold, config.samples_per_class);
  std::printf("  %-28s %9s  %10s  %10s   %s\n", "target", "t-stat",
              "fixed ns", "random ns", "verdict");

  print_row("ct_equal (4 KiB)",
            measure_timing_leak(
                [&secret](crypto::ByteView input) {
                  volatile bool sink = crypto::ct_equal(input, secret);
                  (void)sink;
                },
                secret, config));
  print_row("CMAC tag verify (256 B)",
            measure_timing_leak(
                [&](crypto::ByteView input) {
                  const crypto::Bytes tag = crypto::aes_cmac(cipher, input);
                  volatile bool sink = crypto::ct_equal(tag, good_tag);
                  (void)sink;
                },
                message, config));
  print_row("HMAC-SHA256 verify (256 B)",
            measure_timing_leak(
                [&](crypto::ByteView input) {
                  const crypto::Bytes mac = crypto::hmac_sha256(key32, input);
                  volatile bool sink = crypto::ct_equal(mac, good_mac);
                  (void)sink;
                },
                message, config));
  // One block under one key, fixed plaintext against random ones, on each
  // kernel driven directly with the same schedule.
  std::array<std::uint8_t, crypto::detail::kAesScheduleBytes> schedule{};
  crypto::detail::aes_expand_key(crypto::Bytes(16, 0x0F), schedule);
  const auto aes_row = [&](const char* name, crypto::detail::AesBlocks kernel) {
    if (kernel == nullptr) {
      std::printf("  %-28s %9s  %10s  %10s   %s\n", name, "-", "-", "-",
                  "n/a (no AES-NI)");
      return;
    }
    print_row(name, measure_timing_leak(
                        [&](crypto::ByteView input) {
                          std::array<std::uint8_t, 16> block{};
                          std::copy(input.begin(), input.end(), block.begin());
                          kernel(schedule.data(), block.data(), 1);
                          volatile std::uint8_t sink = block[0];
                          (void)sink;
                        },
                        crypto::Bytes(16, 0x00), config));
  };
  aes_row("AES block, AES-NI", crypto::detail::aes_blocks_aesni());
  aes_row("AES block, portable S-box", &crypto::detail::aes_blocks_portable);
  crypto::secure_wipe(schedule.data(), schedule.size());
  // Modexp is ~0.3 ms a call, so it gets a tenth of the samples.
  TimingLeakConfig modexp_config = config;
  modexp_config.samples_per_class = 2000;
  modexp_config.warmup = 32;
  crypto::Bytes low_weight(32, 0);  // the exponent 0x80...01
  low_weight.front() = 0x80;
  low_weight.back() = 0x01;
  const auto& group = crypto::DhGroup::modp1536();
  print_row("modexp MODP-1536 (256-bit x)",
            measure_timing_leak(
                [&group](crypto::ByteView input) {
                  crypto::Bytes exponent(input.begin(), input.end());
                  exponent.front() |= 0x80;
                  exponent.back() |= 0x01;
                  const crypto::BigUint result = crypto::modexp(
                      group.generator,
                      crypto::BigUint::from_bytes_be(exponent), group.prime);
                  volatile bool sink = result.is_zero();
                  (void)sink;
                },
                low_weight, modexp_config));
  print_row("variable_time_equal CONTROL",
            measure_timing_leak(
                [&secret](crypto::ByteView input) {
                  volatile bool sink =
                      metrics::variable_time_equal(input, secret);
                  (void)sink;
                },
                secret, config));
  std::printf("\n");
}

void BM_HarnessCtEqual(benchmark::State& state) {
  // Cost of one full audit of ct_equal at the given buffer length.
  const crypto::Bytes secret(static_cast<std::size_t>(state.range(0)), 0x5A);
  TimingLeakConfig config;
  config.samples_per_class = 2000;
  config.warmup = 64;
  const TimingTarget target = [&secret](crypto::ByteView input) {
    volatile bool sink = crypto::ct_equal(input, secret);
    (void)sink;
  };
  for (auto _ : state) {
    config.seed++;
    benchmark::DoNotOptimize(measure_timing_leak(target, secret, config));
  }
}
BENCHMARK(BM_HarnessCtEqual)->Arg(64)->Arg(1024)->Arg(4096)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace neuropuls

int main(int argc, char** argv) {
  neuropuls::print_leak_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
