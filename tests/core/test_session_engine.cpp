// SessionEngine (ctest label: concurrency): the multiplexed verifier
// engine must be a pure scheduling transform — K sessions run
// concurrently produce byte-identical per-session transcripts and
// reports to the same K sessions run one by one through core::run_serial,
// clean links and faulty links alike. Sessions share no mutable state,
// so these tests are also the TSan probe for the engine's reactor
// (`scripts/check.sh reactor`).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/secret.hpp"
#include "core/session_engine.hpp"
#include "crypto/dh.hpp"
#include "crypto/sha256.hpp"
#include "faults/faulty_channel.hpp"
#include "net/message.hpp"
#include "puf/arbiter_puf.hpp"

namespace neuropuls {
namespace {

using core::AuthSessionMachine;
using core::RetryPolicy;
using core::SessionEngine;
using core::SessionEngineConfig;
using core::SessionReport;
using core::SessionResult;
using net::Direction;
using net::DuplexChannel;

// One verifier/device pairing with its own channel and (optionally) its
// own seeded fault layer — the per-session world both runners step.
struct AuthFixture {
  std::unique_ptr<puf::ArbiterPuf> puf;
  std::unique_ptr<core::AuthDevice> device;
  std::unique_ptr<core::AuthVerifier> verifier;
  DuplexChannel channel;
  std::unique_ptr<faults::FaultyChannel> faulty;
};

std::unique_ptr<AuthFixture> make_auth_fixture(std::uint64_t device_seed,
                                               double drop_rate,
                                               std::uint64_t fault_seed) {
  auto f = std::make_unique<AuthFixture>();
  f->puf = std::make_unique<puf::ArbiterPuf>(puf::ArbiterPufConfig{},
                                             device_seed);
  crypto::ChaChaDrbg rng(crypto::bytes_of("engine-provision"));
  const auto provisioned = core::provision(*f->puf, rng);
  const crypto::Bytes memory = crypto::bytes_of("engine firmware image");
  f->device = std::make_unique<core::AuthDevice>(
      *f->puf, provisioned.device_crp, memory);
  f->verifier = std::make_unique<core::AuthVerifier>(
      provisioned.verifier_secret, crypto::Sha256::hash(memory),
      f->puf->challenge_bytes());
  if (drop_rate > 0.0) {
    f->faulty = std::make_unique<faults::FaultyChannel>(
        f->channel, faults::symmetric_faults(faults::symmetric_drop(drop_rate)),
        fault_seed);
  }
  return f;
}

crypto::Bytes serialize_transcript(const DuplexChannel& channel) {
  crypto::Bytes out;
  for (const auto& entry : channel.transcript()) {
    out.push_back(entry.direction == Direction::kAtoB ? 0 : 1);
    out.push_back(entry.delivered ? 1 : 0);
    const auto wire = net::encode_message(entry.message);
    crypto::append_u32_be(out, static_cast<std::uint32_t>(wire.size()));
    out.insert(out.end(), wire.begin(), wire.end());
  }
  return out;
}

// The one factory both paths run: serial and engine sessions build the
// identical machine from the identical (seed, factory) pair.
core::MachineFactory auth_session(AuthFixture& f, std::size_t k) {
  return [&f, k](crypto::ChaChaDrbg& rng) {
    return std::make_unique<AuthSessionMachine>(
        f.channel, RetryPolicy{}, rng, *f.verifier, *f.device, 10 * (k + 1));
  };
}

// Runs K auth sessions serially (each with its own seed) and returns
// per-session transcripts + reports.
void run_serial_sessions(std::size_t sessions, double drop_rate,
                         std::vector<crypto::Bytes>& transcripts,
                         std::vector<SessionReport>& reports) {
  for (std::size_t k = 0; k < sessions; ++k) {
    auto f = make_auth_fixture(1000 + k, drop_rate, 0xF00 + k);
    reports.push_back(core::run_serial(100 + k, auth_session(*f, k)));
    transcripts.push_back(serialize_transcript(f->channel));
  }
}

// Runs the same K sessions through the engine with the given in-flight
// width and thread count; the byte-identity assertions below are thereby
// the reactor's determinism contract.
void run_engine(std::size_t sessions, double drop_rate, std::size_t in_flight,
                std::size_t threads,
                std::vector<crypto::Bytes>& transcripts,
                std::vector<SessionReport>& reports) {
  std::vector<std::unique_ptr<AuthFixture>> fixtures;
  for (std::size_t k = 0; k < sessions; ++k) {
    fixtures.push_back(make_auth_fixture(1000 + k, drop_rate, 0xF00 + k));
  }
  common::ThreadPool pool(threads);
  SessionEngineConfig config;
  config.max_in_flight = in_flight;
  SessionEngine engine(pool, config);
  for (std::size_t k = 0; k < sessions; ++k) {
    engine.submit(100 + k, auth_session(*fixtures[k], k));
  }
  reports = engine.run();
  for (const auto& fixture : fixtures) {
    transcripts.push_back(serialize_transcript(fixture->channel));
  }
}

TEST(SessionEngineConcurrency, CleanLinkMatchesSerialByteForByte) {
  constexpr std::size_t kSessions = 8;
  std::vector<crypto::Bytes> serial_t, engine_t;
  std::vector<SessionReport> serial_r, engine_r;
  run_serial_sessions(kSessions, 0.0, serial_t, serial_r);
  run_engine(kSessions, 0.0, /*in_flight=*/kSessions, /*threads=*/2,
             engine_t, engine_r);
  ASSERT_EQ(engine_r.size(), kSessions);
  for (std::size_t k = 0; k < kSessions; ++k) {
    EXPECT_EQ(serial_t[k], engine_t[k]) << "session " << k;
    EXPECT_EQ(serial_r[k], engine_r[k]) << "session " << k;
    EXPECT_EQ(engine_r[k].result, SessionResult::kConverged);
  }
}

TEST(SessionEngineConcurrency, FaultyLinkMatchesSerialByteForByte) {
  constexpr std::size_t kSessions = 8;
  constexpr double kDrop = 0.10;
  std::vector<crypto::Bytes> serial_t, engine_t;
  std::vector<SessionReport> serial_r, engine_r;
  run_serial_sessions(kSessions, kDrop, serial_t, serial_r);
  run_engine(kSessions, kDrop, /*in_flight=*/4, /*threads=*/2,
             engine_t, engine_r);
  for (std::size_t k = 0; k < kSessions; ++k) {
    EXPECT_EQ(serial_t[k], engine_t[k]) << "session " << k;
    EXPECT_EQ(serial_r[k], engine_r[k]) << "session " << k;
  }
}

TEST(SessionEngineConcurrency, ScheduleShapeCannotChangeResults) {
  constexpr std::size_t kSessions = 6;
  constexpr double kDrop = 0.15;
  std::vector<crypto::Bytes> base_t;
  std::vector<SessionReport> base_r;
  run_engine(kSessions, kDrop, /*in_flight=*/1, /*threads=*/1, base_t, base_r);
  // Sweep scheduler shapes: in-flight width and pool width must be
  // invisible in every per-session byte.
  for (const std::size_t in_flight : {2u, 3u, 6u}) {
    for (const std::size_t threads : {1u, 4u}) {
      std::vector<crypto::Bytes> t;
      std::vector<SessionReport> r;
      run_engine(kSessions, kDrop, in_flight, threads, t, r);
      for (std::size_t k = 0; k < kSessions; ++k) {
        EXPECT_EQ(base_t[k], t[k])
            << "session " << k << " in_flight " << in_flight << " threads "
            << threads;
        EXPECT_EQ(base_r[k], r[k]) << "session " << k;
      }
    }
  }
}

// The reactor's scheduling machinery must actually engage (steps counted,
// sessions parked on the wheel and revived by its virtual clock) without
// affecting results. park_threshold = 1 parks on every wait so the wheel
// path is guaranteed to run even for short backoffs.
TEST(SessionEngineConcurrency, ReactorStatsAccountForScheduling) {
  constexpr std::size_t kSessions = 8;
  constexpr double kDrop = 0.20;
  std::vector<std::unique_ptr<AuthFixture>> fixtures;
  for (std::size_t k = 0; k < kSessions; ++k) {
    fixtures.push_back(make_auth_fixture(1000 + k, kDrop, 0xF00 + k));
  }
  common::ThreadPool pool(2);
  SessionEngineConfig config;
  config.max_in_flight = 4;
  config.park_threshold = 1;
  SessionEngine engine(pool, config);
  for (std::size_t k = 0; k < kSessions; ++k) {
    engine.submit(100 + k, auth_session(*fixtures[k], k));
  }
  const auto reports = engine.run();
  ASSERT_EQ(reports.size(), kSessions);
  const auto& stats = engine.stats();
  EXPECT_EQ(stats.completed, kSessions);
  EXPECT_GT(stats.steps, 0u);
  // drop = 0.20 forces retries, so sessions wait (park) and the wheel's
  // virtual clock must tick to revive them.
  EXPECT_GT(stats.parks, 0u);
  EXPECT_GT(stats.wheel_ticks, 0u);
  EXPECT_GT(stats.peak_queue_depth, 0u);
  // Transcripts still byte-identical to serial despite the wheel churn.
  std::vector<crypto::Bytes> serial_t;
  std::vector<SessionReport> serial_r;
  run_serial_sessions(kSessions, kDrop, serial_t, serial_r);
  for (std::size_t k = 0; k < kSessions; ++k) {
    EXPECT_EQ(serial_t[k], serialize_transcript(fixtures[k]->channel))
        << "session " << k;
    EXPECT_EQ(serial_r[k], reports[k]) << "session " << k;
  }
}

TEST(SessionEngineConcurrency, AdmissionRefillsFreedSlots) {
  constexpr std::size_t kSessions = 16;
  std::vector<crypto::Bytes> transcripts;
  std::vector<SessionReport> reports;
  run_engine(kSessions, 0.0, /*in_flight=*/3, /*threads=*/2, transcripts,
             reports);
  ASSERT_EQ(reports.size(), kSessions);
  for (std::size_t k = 0; k < kSessions; ++k) {
    EXPECT_EQ(reports[k].result, SessionResult::kConverged) << "session " << k;
    EXPECT_EQ(reports[k].attempts, 1u) << "session " << k;
  }
}

// EKE through the engine: converged concurrent key exchanges produce the
// same session keys as serial runs (keys being the whole point of EKE).
TEST(SessionEngineConcurrency, EkeKeysMatchSerial) {
  const crypto::DhGroup& group = crypto::DhGroup::modp1536();
  constexpr std::size_t kSessions = 3;
  const auto make_party = [&](const char* role, std::size_t k) {
    crypto::Bytes seed = crypto::bytes_of(role);
    seed.push_back(static_cast<std::uint8_t>(k));
    return std::make_unique<core::EkeParty>(
        crypto::bytes_of("engine shared crp response"), group,
        crypto::ChaChaDrbg(seed));
  };

  struct EkeFixture {
    std::unique_ptr<core::EkeParty> initiator;
    std::unique_ptr<core::EkeParty> responder;
    DuplexChannel channel;
  };
  const auto make_fixture = [&](std::size_t k) {
    auto f = std::make_unique<EkeFixture>();
    f->initiator = make_party("eke-i", k);
    f->responder = make_party("eke-r", k);
    return f;
  };
  const auto eke_session = [](EkeFixture& f,
                              std::size_t k) -> core::MachineFactory {
    return [&f, k](crypto::ChaChaDrbg& rng) {
      return std::make_unique<core::EkeSessionMachine>(
          f.channel, RetryPolicy{}, rng, *f.initiator, *f.responder,
          100 * (k + 1));
    };
  };

  std::vector<common::SecretBytes> serial_keys;
  for (std::size_t k = 0; k < kSessions; ++k) {
    auto f = make_fixture(k);
    const auto report = core::run_serial(500 + k, eke_session(*f, k));
    ASSERT_EQ(report.result, SessionResult::kConverged);
    serial_keys.push_back(f->initiator->session_key().clone());
  }

  std::vector<std::unique_ptr<EkeFixture>> fixtures;
  for (std::size_t k = 0; k < kSessions; ++k) {
    fixtures.push_back(make_fixture(k));
  }
  common::ThreadPool pool(2);
  SessionEngineConfig config;
  config.max_in_flight = kSessions;
  SessionEngine engine(pool, config);
  for (std::size_t k = 0; k < kSessions; ++k) {
    engine.submit(500 + k, eke_session(*fixtures[k], k));
  }
  const auto reports = engine.run();
  EXPECT_EQ(engine.stats().completed, kSessions);
  EXPECT_EQ(engine.stats().converged, kSessions);
  for (std::size_t k = 0; k < kSessions; ++k) {
    ASSERT_EQ(reports[k].result, SessionResult::kConverged);
    EXPECT_TRUE(common::ct_equal(fixtures[k]->initiator->session_key(),
                                 fixtures[k]->responder->session_key()));
    EXPECT_TRUE(common::ct_equal(fixtures[k]->initiator->session_key(),
                                 serial_keys[k]));
  }
}

}  // namespace
}  // namespace neuropuls
