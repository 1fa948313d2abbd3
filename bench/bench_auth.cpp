// E2 / Fig. 4 — Mutual-authentication protocol: session cost and verifier
// storage scaling vs the classical CRP-database baseline.
//
// Paper claims reproduced:
//   * "this protocol only needs one CRP to be known by the Verifier at
//     any point, which is more scalable than other solutions that require
//     a large database of CRPs" — the storage table;
//   * lightweight session: a handful of hash/MAC/DRBG operations — the
//     timing cases.
#include "bench_util.hpp"
#include "core/mutual_auth.hpp"
#include "core/session_driver.hpp"
#include "crypto/sha256.hpp"
#include "puf/crp_db.hpp"
#include "puf/photonic_puf.hpp"

namespace {

using namespace neuropuls;

struct AuthFixture {
  std::unique_ptr<puf::PhotonicPuf> puf;
  std::unique_ptr<core::AuthDevice> device;
  std::unique_ptr<core::AuthVerifier> verifier;
};

AuthFixture make_fixture() {
  AuthFixture f;
  f.puf = std::make_unique<puf::PhotonicPuf>(puf::small_photonic_config(),
                                             2024, 0);
  crypto::ChaChaDrbg rng(crypto::bytes_of("bench-auth"));
  const auto provisioned = core::provision(*f.puf, rng);
  const crypto::Bytes memory(4096, 0xA5);
  f.device = std::make_unique<core::AuthDevice>(*f.puf,
                                                provisioned.device_crp, memory);
  f.verifier = std::make_unique<core::AuthVerifier>(
      provisioned.verifier_secret, crypto::Sha256::hash(memory),
      f.puf->challenge_bytes());
  return f;
}

void print_storage_table() {
  bench::banner("E2 / Fig. 4",
                "Verifier storage: HSC-IoT (one CRP) vs CRP-database baseline");
  puf::PhotonicPuf device_puf(puf::small_photonic_config(), 2024, 1);
  const std::size_t crp_bytes =
      device_puf.challenge_bytes() + device_puf.response_bytes();
  std::printf("  %-24s %-22s %-22s\n", "sessions supported",
              "HSC-IoT storage (B)", "CRP database (B)");
  for (std::size_t sessions : {10ul, 100ul, 1000ul, 10000ul, 100000ul}) {
    // HSC-IoT: one response + one fallback, independent of session count.
    const std::size_t hsc = 2 * device_puf.response_bytes();
    const std::size_t db = sessions * crp_bytes;
    std::printf("  %-24zu %-22zu %-22zu\n", sessions, hsc, db);
  }
  bench::note("HSC-IoT state is O(1); the Suh-style database is O(sessions) "
              "and is consumed (one CRP burned per session).");
}

void print_session_trace() {
  bench::banner("E2 / Fig. 4", "Protocol session trace (message sizes)");
  AuthFixture f = make_fixture();
  net::DuplexChannel channel;
  channel.send(net::Direction::kAtoB, f.verifier->start(1, 0xBEEF));
  const auto request = channel.receive(net::Direction::kAtoB);
  const auto response = f.device->handle_request(*request);
  channel.send(net::Direction::kBtoA, *response);
  const auto delivered = channel.receive(net::Direction::kBtoA);
  const auto outcome = f.verifier->process_response(*delivered);
  channel.send(net::Direction::kAtoB, *outcome.confirm);
  const auto confirm = channel.receive(net::Direction::kAtoB);
  (void)f.device->handle_confirm(*confirm);

  std::printf("  %-28s %-12s %-8s\n", "message", "direction", "bytes");
  for (const auto& entry : channel.transcript()) {
    std::printf("  %-28s %-12s %-8zu\n",
                net::message_type_name(entry.message.type).c_str(),
                entry.direction == net::Direction::kAtoB ? "V -> D" : "D -> V",
                entry.message.payload.size());
  }
  std::printf("  session result: %s, memory hash ok: %s\n",
              outcome.status == core::AuthStatus::kOk ? "authenticated" : "FAILED",
              outcome.memory_hash_ok ? "yes" : "no");
}

void print_tables() {
  print_storage_table();
  print_session_trace();
}

void BM_FullAuthSession(benchmark::State& state) {
  AuthFixture f = make_fixture();
  net::DuplexChannel channel;
  std::uint64_t session = 0;
  for (auto _ : state) {
    ++session;
    benchmark::DoNotOptimize(core::run_auth_session(
        *f.verifier, *f.device, channel, session, session * 7));
  }
}
BENCHMARK(BM_FullAuthSession)->Unit(benchmark::kMicrosecond);

void BM_DeviceResponseOnly(benchmark::State& state) {
  AuthFixture f = make_fixture();
  std::uint64_t session = 0;
  for (auto _ : state) {
    ++session;
    const auto request = f.verifier->start(session, session);
    benchmark::DoNotOptimize(f.device->handle_request(request));
  }
}
BENCHMARK(BM_DeviceResponseOnly)->Unit(benchmark::kMicrosecond);

void BM_CrpDatabaseEnrollment(benchmark::State& state) {
  puf::PhotonicPuf device_puf(puf::small_photonic_config(), 2024, 2);
  crypto::ChaChaDrbg rng(crypto::bytes_of("bench-db"));
  const auto crps = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    puf::CrpDatabase db;
    db.enroll(device_puf, crps, rng, 1);
    benchmark::DoNotOptimize(db.storage_bytes());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_CrpDatabaseEnrollment)->Arg(16)->Arg(64)->Arg(256)
    ->Unit(benchmark::kMillisecond)->Complexity(benchmark::oN);

}  // namespace

NEUROPULS_BENCH_MAIN(print_tables)
