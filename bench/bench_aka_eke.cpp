// E9 / §IV — EKE AKA vs HSC-IoT: handshake cost ("computationally more
// expensive"), forward secrecy, and the offline-attack elimination.
#include "attacks/brute_force.hpp"
#include "bench_util.hpp"
#include "core/aka_eke.hpp"
#include "core/secure_channel.hpp"
#include "core/mutual_auth.hpp"
#include "core/session_driver.hpp"
#include "crypto/sha256.hpp"
#include "puf/photonic_puf.hpp"

#include <chrono>

namespace {

using namespace neuropuls;

double measure_ms(const std::function<void()>& fn, int reps) {
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < reps; ++i) fn();
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(end - start).count() / reps;
}

void print_cost_table() {
  bench::banner("E9 / §IV", "Handshake cost: HSC-IoT vs EKE AKA");
  const crypto::Bytes secret = crypto::bytes_of("current CRP response");

  // HSC-IoT session.
  puf::PhotonicPuf device_puf(puf::small_photonic_config(), 77, 0);
  crypto::ChaChaDrbg rng(crypto::bytes_of("e9"));
  const auto provisioned = core::provision(device_puf, rng);
  const crypto::Bytes memory(1024, 0x11);
  core::AuthDevice device(device_puf, provisioned.device_crp, memory);
  core::AuthVerifier verifier(provisioned.verifier_secret,
                              crypto::Sha256::hash(memory),
                              device_puf.challenge_bytes());
  net::DuplexChannel channel;
  std::uint64_t session = 0;
  const double hsc_ms = measure_ms(
      [&] {
        ++session;
        core::run_auth_session(verifier, device, channel, session, session);
      },
      20);

  const double eke1536_ms = measure_ms(
      [&] {
        core::run_eke_handshake(secret, secret, crypto::DhGroup::modp1536(),
                                1, ++session);
      },
      3);
  const double eke2048_ms = measure_ms(
      [&] {
        core::run_eke_handshake(secret, secret, crypto::DhGroup::modp2048(),
                                1, ++session);
      },
      3);

  std::printf("  %-26s %-16s %-16s %-10s\n", "protocol", "time (ms)",
              "vs HSC-IoT", "PFS");
  std::printf("  %-26s %-16.3f %-16s %-10s\n", "HSC-IoT mutual auth", hsc_ms,
              "1x", "no");
  auto ratio = [](double r) {
    char buf[24];
    std::snprintf(buf, sizeof buf, "%.0fx", r);
    return std::string(buf);
  };
  std::printf("  %-26s %-16.3f %-16s %-10s\n", "EKE AKA (1536-bit group)",
              eke1536_ms, ratio(eke1536_ms / hsc_ms).c_str(), "yes");
  std::printf("  %-26s %-16.3f %-16s %-10s\n", "EKE AKA (2048-bit group)",
              eke2048_ms, ratio(eke2048_ms / hsc_ms).c_str(), "yes");
  bench::note("the paper's trade: EKE is orders of magnitude more compute "
              "(modexp-dominated) but adds perfect forward secrecy and "
              "kills offline dictionary attacks on the CRP.");
}

void print_guessing_table() {
  bench::banner("E9 / §IV", "Attacker guessing economics");
  std::printf("  %-34s %-20s\n", "quantity", "value");
  std::printf("  %-34s %-20.1e\n", "expected guesses (32-bit CRP)",
              attacks::expected_guesses(32));
  std::printf("  %-34s %-20.1e\n",
              "online success, 1e6 attempts (32b)",
              attacks::online_guess_success(32, 1'000'000));
  std::printf("  %-34s %-20.1e\n",
              "EKE rate reduction (1e9 H/s -> 1/s)",
              attacks::eke_rate_reduction(1e9, 1.0));
  bench::note("under EKE every password guess costs a live protocol run: "
              "the attacker loses the 1e9x offline speedup.");
}

void print_tables() {
  print_cost_table();
  print_guessing_table();
}

void BM_EkeHandshake1536(benchmark::State& state) {
  const crypto::Bytes secret = crypto::bytes_of("crp");
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::run_eke_handshake(
        secret, secret, crypto::DhGroup::modp1536(), 1, ++seed));
  }
}
BENCHMARK(BM_EkeHandshake1536)->Unit(benchmark::kMillisecond);

void BM_EkeHandshake2048(benchmark::State& state) {
  const crypto::Bytes secret = crypto::bytes_of("crp");
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::run_eke_handshake(
        secret, secret, crypto::DhGroup::modp2048(), 1, ++seed));
  }
}
BENCHMARK(BM_EkeHandshake2048)->Unit(benchmark::kMillisecond);

void BM_Modexp2048(benchmark::State& state) {
  const auto& group = crypto::DhGroup::modp2048();
  crypto::ChaChaDrbg rng(crypto::bytes_of("modexp"));
  const auto pair = crypto::dh_generate(group, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        crypto::modexp(group.generator, pair.secret, group.prime));
  }
}
BENCHMARK(BM_Modexp2048)->Unit(benchmark::kMillisecond);

// g^x through the group's fixed-base comb, as EKE's initiate and respond
// run it.
void BM_DhGenerate2048(benchmark::State& state) {
  const auto& group = crypto::DhGroup::modp2048();
  crypto::ChaChaDrbg rng(crypto::bytes_of("dh-generate"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::dh_generate(group, rng));
  }
}
BENCHMARK(BM_DhGenerate2048)->Unit(benchmark::kMillisecond);

// peer^x through the group's held MontgomeryCtx, as EKE's confirm and
// finalize run it.
void BM_DhSharedSecret2048(benchmark::State& state) {
  const auto& group = crypto::DhGroup::modp2048();
  crypto::ChaChaDrbg rng(crypto::bytes_of("dh-shared"));
  const auto mine = crypto::dh_generate(group, rng);
  const auto peer = crypto::dh_generate(group, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        crypto::dh_shared_secret(group, mine.secret, peer.public_value));
  }
}
BENCHMARK(BM_DhSharedSecret2048)->Unit(benchmark::kMillisecond);

void BM_HscIotSession(benchmark::State& state) {
  puf::PhotonicPuf device_puf(puf::small_photonic_config(), 77, 1);
  crypto::ChaChaDrbg rng(crypto::bytes_of("e9b"));
  const auto provisioned = core::provision(device_puf, rng);
  const crypto::Bytes memory(1024, 0x11);
  core::AuthDevice device(device_puf, provisioned.device_crp, memory);
  core::AuthVerifier verifier(provisioned.verifier_secret,
                              crypto::Sha256::hash(memory),
                              device_puf.challenge_bytes());
  net::DuplexChannel channel;
  std::uint64_t session = 0;
  for (auto _ : state) {
    ++session;
    benchmark::DoNotOptimize(
        core::run_auth_session(verifier, device, channel, session, session));
  }
}
BENCHMARK(BM_HscIotSession)->Unit(benchmark::kMicrosecond);

void BM_SecureChannelRecord(benchmark::State& state) {
  // Bulk data over the AKA-keyed secure channel (seal + open round trip).
  const crypto::Bytes secret = crypto::bytes_of("crp");
  auto handshake = core::run_eke_handshake(
      secret, secret, crypto::DhGroup::modp1536(), 1, 7);
  core::SecureChannel sender(std::move(handshake.initiator_key), true);
  core::SecureChannel receiver(std::move(handshake.responder_key), false);
  const crypto::Bytes payload(static_cast<std::size_t>(state.range(0)), 0x5C);
  for (auto _ : state) {
    const auto record = sender.seal(payload);
    benchmark::DoNotOptimize(receiver.open(record));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_SecureChannelRecord)->Arg(256)->Arg(4096)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

NEUROPULS_BENCH_MAIN(print_tables)
