// Park/wake race chaos (ctest labels: chaos + concurrency — the reactor
// flavor of scripts/check.sh runs this binary under TSan).
//
// The reactor's most delicate window is the park boundary: a session
// decides its channel cannot progress and goes onto the timer heap while
// a delayed frame is still held for it. A delay-injecting FaultyChannel
// holds frames for 1..8 poll ticks, and the engine's park threshold sits
// either inside that range (4) or at its floor (1, so every wait the
// machine reports becomes a park), so deliveries land right at park
// decisions.
//
// Invariants asserted: no session is lost or completed twice
// (on_complete fires exactly once per submission index), no session is
// ever stepped by two workers at once (the engine's atomic guard throws,
// which would fail the run), and — the determinism contract — every
// per-session transcript and report stay byte-identical to a
// core::run_serial run no matter where the parks land.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/session_engine.hpp"
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
using net::Direction;
using net::DuplexChannel;

struct AuthFixture {
  std::unique_ptr<puf::ArbiterPuf> puf;
  std::unique_ptr<core::AuthDevice> device;
  std::unique_ptr<core::AuthVerifier> verifier;
  DuplexChannel channel;
  std::unique_ptr<faults::FaultyChannel> faulty;
};

// Delay-dominated link: most of the chaos is frames arriving late, right
// around the park threshold, rather than vanishing.
faults::ChannelFaultConfig park_boundary_faults() {
  faults::LinkFaultRates rates;
  rates.drop = 0.05;
  rates.delay = 0.45;
  rates.max_delay_polls = 8;  // straddles park_threshold below
  return faults::symmetric_faults(rates);
}

std::unique_ptr<AuthFixture> make_fixture(std::uint64_t device_seed,
                                          std::uint64_t fault_seed) {
  auto f = std::make_unique<AuthFixture>();
  f->puf =
      std::make_unique<puf::ArbiterPuf>(puf::ArbiterPufConfig{}, device_seed);
  crypto::ChaChaDrbg rng(crypto::bytes_of("park-wake-provision"));
  const auto provisioned = core::provision(*f->puf, rng);
  const crypto::Bytes memory = crypto::bytes_of("park-wake firmware");
  f->device = std::make_unique<core::AuthDevice>(*f->puf,
                                                 provisioned.device_crp, memory);
  f->verifier = std::make_unique<core::AuthVerifier>(
      provisioned.verifier_secret, crypto::Sha256::hash(memory),
      f->puf->challenge_bytes());
  f->faulty = std::make_unique<faults::FaultyChannel>(
      f->channel, park_boundary_faults(), fault_seed);
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

// The one factory the serial reference and the engine both run.
core::MachineFactory auth_session(AuthFixture& f, std::uint64_t base) {
  return [&f, base](crypto::ChaChaDrbg& rng) {
    return std::make_unique<AuthSessionMachine>(f.channel, RetryPolicy{}, rng,
                                                *f.verifier, *f.device, base);
  };
}

void run_serial_sessions(std::size_t sessions,
                         std::vector<crypto::Bytes>& transcripts,
                         std::vector<SessionReport>& reports) {
  for (std::size_t k = 0; k < sessions; ++k) {
    auto f = make_fixture(4000 + k, 0xBEEF + k);
    reports.push_back(
        core::run_serial(700 + k, auth_session(*f, 10 * (k + 1))));
    transcripts.push_back(serialize_transcript(f->channel));
  }
}

// Shared body: reactor run over delay-heavy links with the given park
// threshold, checked against the serial baseline.
void run_park_wake_scenario(std::size_t park_threshold) {
  constexpr std::size_t kSessions = 12;
  std::vector<crypto::Bytes> serial_t;
  std::vector<SessionReport> serial_r;
  run_serial_sessions(kSessions, serial_t, serial_r);

  std::vector<std::unique_ptr<AuthFixture>> fixtures;
  for (std::size_t k = 0; k < kSessions; ++k) {
    fixtures.push_back(make_fixture(4000 + k, 0xBEEF + k));
  }
  common::ThreadPool pool(4);
  SessionEngineConfig config;
  config.max_in_flight = 6;
  config.park_threshold = park_threshold;
  std::vector<std::atomic<unsigned>> completions(kSessions);
  config.on_complete = [&completions](std::size_t index) {
    completions[index].fetch_add(1, std::memory_order_relaxed);
  };
  SessionEngine engine(pool, config);
  for (std::size_t k = 0; k < kSessions; ++k) {
    engine.submit(700 + k, auth_session(*fixtures[k], 10 * (k + 1)));
  }
  const auto reports = engine.run();

  ASSERT_EQ(reports.size(), kSessions);
  for (std::size_t k = 0; k < kSessions; ++k) {
    // Exactly-once completion: never lost, never double-retired.
    EXPECT_EQ(completions[k].load(), 1u) << "session " << k;
    // Byte-identical to serial despite delays at park boundaries.
    EXPECT_EQ(serial_t[k], serialize_transcript(fixtures[k]->channel))
        << "session " << k;
    EXPECT_EQ(reports[k], serial_r[k]) << "session " << k;
  }
  EXPECT_EQ(engine.stats().completed, kSessions);
}

// Sits inside the fault layer's 1..8-tick delay window: a held frame can
// deliver on the very poll that precedes a park decision.
TEST(ParkWakeChaos, DelaysAtParkBoundariesPreserveDeterminism) {
  run_park_wake_scenario(4);
}

// The smallest threshold parks on every wait, so every held frame is
// awaited from the timer heap rather than by polling in place.
TEST(ParkWakeChaos, ParkOnEveryWaitPreservesDeterminism) {
  run_park_wake_scenario(1);
}

}  // namespace
}  // namespace neuropuls
