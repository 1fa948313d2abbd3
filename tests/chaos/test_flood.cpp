// Hostile-load chaos (ctest label: chaos): the abuse-resistance
// invariants of ROADMAP item 4, driven end-to-end through
// core::AdmissionController + core::SessionEngine with
// faults::FloodAuthMachine attackers competing against honest sessions.
//
//   * zero false accepts — no flood shape ever completes a session
//     against a correct verifier;
//   * bounded memory — the controller's charged-byte high-water mark
//     never exceeds the configured budget, and the admission fast path
//     itself allocates nothing (counted operator new);
//   * liveness for honest clients — honest sessions converge while the
//     flood is shed, rate-limited, or evicted around them;
//   * restart resilience — a thundering herd of re-authentications after
//     a verifier restart against the durable CRP store all succeed.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/alloc_probe.hpp"
#include "common/io.hpp"
#include "core/admission_control.hpp"
#include "core/session_engine.hpp"
#include "crypto/sha256.hpp"
#include "faults/flood_adversary.hpp"
#include "puf/arbiter_puf.hpp"
#include "puf/crp_db.hpp"

NEUROPULS_DEFINE_ALLOC_PROBE()

namespace neuropuls {
namespace {

namespace io = common::io;

using core::AdmissionConfig;
using core::AdmissionController;
using core::AuthSessionMachine;
using core::RetryPolicy;
using core::SessionEngine;
using core::SessionEngineConfig;
using core::SessionReport;
using core::SessionResult;
using faults::FloodAuthMachine;
using faults::FloodMode;

struct AuthFixture {
  std::unique_ptr<puf::ArbiterPuf> puf;
  std::unique_ptr<core::AuthDevice> device;
  std::unique_ptr<core::AuthVerifier> verifier;
  net::DuplexChannel channel;
};

std::unique_ptr<AuthFixture> make_fixture(std::uint64_t device_seed) {
  auto f = std::make_unique<AuthFixture>();
  f->puf =
      std::make_unique<puf::ArbiterPuf>(puf::ArbiterPufConfig{}, device_seed);
  crypto::ChaChaDrbg rng(crypto::bytes_of("flood-provision"));
  const auto provisioned = core::provision(*f->puf, rng);
  const crypto::Bytes memory = crypto::bytes_of("flood firmware");
  f->device = std::make_unique<core::AuthDevice>(*f->puf,
                                                 provisioned.device_crp, memory);
  f->verifier = std::make_unique<core::AuthVerifier>(
      provisioned.verifier_secret, crypto::Sha256::hash(memory),
      f->puf->challenge_bytes());
  return f;
}

/// One submitted session: an honest AuthSessionMachine or a flood
/// attacker, tagged with its admission identity.
struct Slot {
  std::unique_ptr<AuthFixture> fixture;
  bool hostile = false;
  FloodMode mode = FloodMode::kMalformed;
  std::uint64_t client_id = 0;
  net::Message replay_seed;
  FloodAuthMachine* machine = nullptr;  // borrowed; dies with run()'s arena
  std::uint64_t observed_false_accepts = 0;
};

/// on_complete hook that snapshots each hostile machine's false-accept
/// counter at retirement, while the machine is still alive — the engine
/// arena destroys all machines when run() returns, so reading the raw
/// pointers afterwards would be use-after-free. Fires on worker threads,
/// but each submission index is written exactly once.
std::function<void(std::size_t)> snapshot_hook(std::vector<Slot>& slots) {
  return [&slots](std::size_t index) {
    Slot& slot = slots[index];
    if (slot.machine != nullptr) {
      slot.observed_false_accepts = slot.machine->false_accepts();
    }
  };
}

/// Submits every slot and runs the engine.
std::vector<SessionReport> run_mixed(SessionEngine& engine,
                                     std::vector<Slot>& slots,
                                     const RetryPolicy& policy) {
  for (std::size_t k = 0; k < slots.size(); ++k) {
    Slot& slot = slots[k];
    core::SubmitOptions options;
    options.client_id = slot.client_id;
    options.cost_bytes = 512;
    engine.submit(
        1000 + k,
        [&slot, &policy, k](crypto::ChaChaDrbg& rng)
            -> std::unique_ptr<core::SessionMachine> {
          if (!slot.hostile) {
            return std::make_unique<AuthSessionMachine>(
                slot.fixture->channel, policy, rng, *slot.fixture->verifier,
                *slot.fixture->device, 10 * (k + 1));
          }
          auto machine = std::make_unique<FloodAuthMachine>(
              slot.fixture->channel, policy, rng, *slot.fixture->verifier,
              slot.mode, slot.replay_seed);
          slot.machine = machine.get();
          return machine;
        },
        options);
  }
  return engine.run();
}

void expect_no_false_accepts(const std::vector<Slot>& slots,
                             const std::vector<SessionReport>& reports) {
  for (std::size_t k = 0; k < slots.size(); ++k) {
    if (!slots[k].hostile) continue;
    EXPECT_NE(reports[k].result, SessionResult::kConverged)
        << "hostile session " << k << " converged";
    EXPECT_EQ(slots[k].observed_false_accepts, 0u) << "hostile session " << k;
  }
}

TEST(FloodChaos, ReplayStormZeroFalseAccepts) {
  // 24 replay attackers, each storming a real verifier with genuinely
  // captured stale material, against 8 honest sessions.
  std::vector<Slot> slots;
  for (std::size_t k = 0; k < 8; ++k) {
    Slot honest;
    honest.fixture = make_fixture(100 + k);
    honest.client_id = k;  // distinct honest clients
    slots.push_back(std::move(honest));
  }
  for (std::size_t k = 0; k < 24; ++k) {
    Slot evil;
    evil.fixture = make_fixture(500 + k);
    evil.hostile = true;
    evil.mode = FloodMode::kReplay;
    evil.client_id = 9000 + (k % 3);  // a few hot attacker identities
    evil.replay_seed = faults::capture_replay_material(
        *evil.fixture->verifier, *evil.fixture->device, evil.fixture->channel,
        /*session_id=*/1, /*seed=*/0xAB00 + k);
    slots.push_back(std::move(evil));
  }

  AdmissionConfig admission_config;
  admission_config.bucket_capacity = 64;  // rate limiting not under test here
  AdmissionController controller(admission_config);
  common::ThreadPool pool(2);
  SessionEngineConfig config;
  config.max_in_flight = 8;
  config.admission = &controller;
  config.on_complete = snapshot_hook(slots);
  SessionEngine engine(pool, config);

  const RetryPolicy policy;
  const auto reports = run_mixed(engine, slots, policy);

  expect_no_false_accepts(slots, reports);
  for (std::size_t k = 0; k < 8; ++k) {
    EXPECT_EQ(reports[k].result, SessionResult::kConverged) << "honest " << k;
  }
  const auto stats = engine.stats();
  EXPECT_EQ(stats.admitted + stats.shed_rate_limited + stats.shed_memory,
            slots.size());
  // Every replayed frame the verifier rejected was charged as malformed.
  EXPECT_GT(stats.malformed, 0u);
  EXPECT_GT(controller.stats().malformed, 0u);
  // Everything completed, so the half-open table drained.
  EXPECT_EQ(controller.stats().half_open, 0u);
}

TEST(FloodChaos, MalformedFloodBurnsTheSendersBucket) {
  // One hostile identity floods malformed frames; its own garbage (4
  // malformed frames per exhausted session, charged at retirement) burns
  // the bucket far faster than refills arrive, so later sessions from
  // the same client are shed at the gate. Honest clients never notice.
  std::vector<Slot> slots;
  for (std::size_t k = 0; k < 8; ++k) {
    Slot evil;
    evil.fixture = make_fixture(700 + k);
    evil.hostile = true;
    evil.mode = FloodMode::kMalformed;
    evil.client_id = 666;
    slots.push_back(std::move(evil));
  }
  for (std::size_t k = 0; k < 2; ++k) {
    Slot honest;
    honest.fixture = make_fixture(200 + k);
    honest.client_id = k;
    slots.push_back(std::move(honest));
  }

  AdmissionConfig admission_config;
  admission_config.bucket_capacity = 16;
  AdmissionController controller(admission_config);
  common::ThreadPool pool(2);
  SessionEngineConfig config;
  config.max_in_flight = 1;  // serialize admissions: burns precede admits
  config.admission = &controller;
  config.on_complete = snapshot_hook(slots);
  SessionEngine engine(pool, config);

  const RetryPolicy policy;  // max_attempts 4 -> 4 malformed frames/session
  const auto reports = run_mixed(engine, slots, policy);

  expect_no_false_accepts(slots, reports);
  // 16 tokens: each hostile session costs 1 admission + 4 malformed
  // burns, so only ~4 of 8 get in; without the malformed charge all 8
  // would fit.
  const auto stats = engine.stats();
  EXPECT_GT(stats.shed_rate_limited, 0u);
  std::size_t hostile_shed = 0;
  for (std::size_t k = 0; k < 8; ++k) {
    if (reports[k].result == SessionResult::kShed) ++hostile_shed;
  }
  EXPECT_GE(hostile_shed, 4u);
  for (std::size_t k = 8; k < 10; ++k) {
    EXPECT_EQ(reports[k].result, SessionResult::kConverged) << "honest " << k;
  }
}

TEST(FloodChaos, OversizedFloodNeverReachesParseCode) {
  std::vector<Slot> slots;
  for (std::size_t k = 0; k < 6; ++k) {
    Slot evil;
    evil.fixture = make_fixture(800 + k);
    evil.hostile = true;
    evil.mode = FloodMode::kOversized;
    evil.client_id = 4242;
    slots.push_back(std::move(evil));
  }
  Slot honest;
  honest.fixture = make_fixture(300);
  honest.client_id = 1;
  slots.push_back(std::move(honest));

  AdmissionConfig admission_config;
  admission_config.bucket_capacity = 64;
  AdmissionController controller(admission_config);
  common::ThreadPool pool(2);
  SessionEngineConfig config;
  config.max_in_flight = 4;
  config.admission = &controller;
  config.on_complete = snapshot_hook(slots);
  SessionEngine engine(pool, config);

  const RetryPolicy policy;  // kMaxFrameBytes rejects the payloads
  const auto reports = run_mixed(engine, slots, policy);

  expect_no_false_accepts(slots, reports);
  EXPECT_EQ(reports.back().result, SessionResult::kConverged);
  // The oversized frames were discarded on length alone and counted.
  EXPECT_GT(engine.stats().malformed, 0u);
  for (std::size_t k = 0; k < 6; ++k) {
    EXPECT_GT(reports[k].malformed_frames, 0u) << "hostile " << k;
  }
}

TEST(FloodChaos, HalfOpenExhaustionEvictsOldestPerClient) {
  // One client opens sessions and goes silent. Its per-client cap forces
  // its own oldest half-open session out — the table never starves
  // honest clients and one identity cannot pin it.
  std::vector<Slot> slots;
  for (std::size_t k = 0; k < 6; ++k) {
    Slot evil;
    evil.fixture = make_fixture(900 + k);
    evil.hostile = true;
    evil.mode = FloodMode::kHalfOpen;
    evil.client_id = 31337;
    slots.push_back(std::move(evil));
  }
  for (std::size_t k = 0; k < 4; ++k) {
    Slot honest;
    honest.fixture = make_fixture(400 + k);
    honest.client_id = k;
    slots.push_back(std::move(honest));
  }

  AdmissionConfig admission_config;
  admission_config.bucket_capacity = 64;
  admission_config.half_open_slots = 8;
  admission_config.half_open_per_client = 2;
  AdmissionController controller(admission_config);
  common::ThreadPool pool(2);
  SessionEngineConfig config;
  config.max_in_flight = 10;
  config.admission = &controller;
  config.on_complete = snapshot_hook(slots);
  SessionEngine engine(pool, config);

  const RetryPolicy policy;
  const auto reports = run_mixed(engine, slots, policy);

  expect_no_false_accepts(slots, reports);
  const auto stats = engine.stats();
  // 6 half-open sessions against a per-client cap of 2: at least 4 were
  // evicted (the exact count depends on retirement interleaving).
  EXPECT_GE(stats.evicted_half_open, 4u);
  // Eviction is the only thing that wakes a parked session early; every
  // other revival is a timer deadline.
  EXPECT_LE(stats.wakeups, stats.evicted_half_open);
  std::size_t evicted_reports = 0;
  for (std::size_t k = 0; k < 6; ++k) {
    if (reports[k].result == SessionResult::kEvicted) ++evicted_reports;
  }
  EXPECT_GE(evicted_reports, 4u);
  for (std::size_t k = 6; k < 10; ++k) {
    EXPECT_EQ(reports[k].result, SessionResult::kConverged) << "honest " << k;
  }
  EXPECT_EQ(controller.stats().half_open, 0u);
}

TEST(FloodChaos, MemoryBudgetHighWaterProvablyBounded) {
  // Sessions declare 1 KiB each against a 4 KiB global budget: at most 4
  // may be half-open at once no matter what the engine's in-flight limit
  // wants, and the controller's high-water mark proves it.
  std::vector<Slot> slots;
  for (std::size_t k = 0; k < 12; ++k) {
    Slot honest;
    honest.fixture = make_fixture(600 + k);
    honest.client_id = k;
    slots.push_back(std::move(honest));
  }

  AdmissionConfig admission_config;
  admission_config.bucket_capacity = 64;
  admission_config.global_budget_bytes = 4096;
  admission_config.session_budget_bytes = 2048;
  AdmissionController controller(admission_config);
  common::ThreadPool pool(2);
  SessionEngineConfig config;
  config.max_in_flight = 8;
  config.admission = &controller;
  SessionEngine engine(pool, config);

  for (std::size_t k = 0; k < slots.size(); ++k) {
    Slot& slot = slots[k];
    core::SubmitOptions options;
    options.client_id = slot.client_id;
    options.cost_bytes = 1024;
    const RetryPolicy policy;
    engine.submit(
        1000 + k,
        [&slot, policy, k](crypto::ChaChaDrbg& rng)
            -> std::unique_ptr<core::SessionMachine> {
          return std::make_unique<AuthSessionMachine>(
              slot.fixture->channel, policy, rng, *slot.fixture->verifier,
              *slot.fixture->device, 10 * (k + 1));
        },
        options);
  }
  const auto reports = engine.run();

  const auto stats = controller.stats();
  EXPECT_LE(stats.peak_charged_bytes, 4096u);
  EXPECT_GT(stats.peak_charged_bytes, 0u);
  EXPECT_EQ(stats.charged_bytes, 0u);  // fully released
  EXPECT_EQ(stats.half_open, 0u);
  // Every admitted session converged; sheds (if the schedule produced
  // any) never built a machine, so their channels carry no traffic.
  for (std::size_t k = 0; k < reports.size(); ++k) {
    if (reports[k].result == SessionResult::kShed) {
      EXPECT_TRUE(slots[k].fixture->channel.transcript().empty())
          << "shed session " << k << " sent frames";
    } else {
      EXPECT_EQ(reports[k].result, SessionResult::kConverged) << k;
    }
  }
  // A session above the per-session cap is shed before anything runs.
  core::SubmitOptions oversized;
  oversized.cost_bytes = 4096;  // > session_budget_bytes
  const auto verdict = controller.try_admit(99, 99, oversized.cost_bytes);
  EXPECT_EQ(verdict.decision, core::AdmitDecision::kShedMemory);
}

TEST(FloodChaos, AdmissionFastPathAllocatesNothing) {
  AdmissionConfig admission_config;
  admission_config.client_slots = 64;
  admission_config.half_open_slots = 32;
  AdmissionController controller(admission_config);

  // Warm nothing: the constructor preallocated every table. The probe
  // covers admit/evict/complete/note_malformed/advance across enough
  // clients to force table churn and half-open eviction.
  const auto before = common::alloc_probe::allocations();
  std::size_t admitted = 0;
  for (std::uint64_t round = 0; round < 200; ++round) {
    controller.advance(1);
    const auto verdict =
        controller.try_admit(/*client_id=*/round % 97, /*handle=*/round,
                             /*cost_bytes=*/256);
    if (verdict.decision == core::AdmitDecision::kAdmitted) ++admitted;
    controller.note_malformed(round % 97, 1);
    if (round % 3 == 0) controller.complete(round);
  }
  (void)controller.stats();
  EXPECT_EQ(common::alloc_probe::allocations(), before)
      << "admission fast path allocated";
  EXPECT_GT(admitted, 0u);
}

TEST(FloodChaos, ThunderingHerdReauthAfterVerifierRestart) {
  // Fleet enrollment goes into the durable CRP store; the verifier
  // process "restarts" (store closed and recovered from disk); then the
  // whole fleet re-authenticates at once through admission control.
  constexpr std::size_t kFleet = 12;
  const io::TempDir dir("np-flood-herd");

  std::vector<std::unique_ptr<puf::ArbiterPuf>> pufs;
  std::vector<puf::Challenge> challenges;
  {
    puf::CrpDurabilityOptions options;
    options.directory = dir.path();
    puf::CrpDatabase db(2, options);
    crypto::ChaChaDrbg rng(crypto::bytes_of("herd-enroll"));
    for (std::size_t k = 0; k < kFleet; ++k) {
      pufs.push_back(
          std::make_unique<puf::ArbiterPuf>(puf::ArbiterPufConfig{}, 50 + k));
      const auto provisioned = core::provision(*pufs[k], rng);
      challenges.push_back(provisioned.device_crp.challenge);
      db.insert({provisioned.device_crp.challenge,
                 provisioned.device_crp.response});
    }
  }  // clean shutdown: WAL drained

  // Restart: recover the store and rebuild every verifier from it.
  puf::CrpDurabilityOptions options;
  options.directory = dir.path();
  puf::CrpDatabase db(2, options);
  ASSERT_EQ(db.size(), kFleet);

  const crypto::Bytes memory = crypto::bytes_of("flood firmware");
  std::vector<std::unique_ptr<core::AuthDevice>> devices;
  std::vector<std::unique_ptr<core::AuthVerifier>> verifiers;
  std::vector<std::unique_ptr<net::DuplexChannel>> channels;
  for (std::size_t k = 0; k < kFleet; ++k) {
    const auto response = db.lookup(challenges[k]);
    ASSERT_TRUE(response.has_value()) << "CRP " << k << " lost in recovery";
    devices.push_back(std::make_unique<core::AuthDevice>(
        *pufs[k], core::ProvisionedCrp{challenges[k], *response}, memory));
    verifiers.push_back(std::make_unique<core::AuthVerifier>(
        *response, crypto::Sha256::hash(memory), pufs[k]->challenge_bytes()));
    channels.push_back(std::make_unique<net::DuplexChannel>());
  }

  AdmissionConfig admission_config;
  admission_config.bucket_capacity = 4;  // tight: the herd must still fit
  AdmissionController controller(admission_config);
  common::ThreadPool pool(2);
  SessionEngineConfig config;
  config.max_in_flight = 6;
  config.admission = &controller;
  SessionEngine engine(pool, config);

  const RetryPolicy policy;
  for (std::size_t k = 0; k < kFleet; ++k) {
    core::SubmitOptions submit_options;
    submit_options.client_id = k;  // every device is its own client
    submit_options.cost_bytes = 512;
    engine.submit(
        2000 + k,
        [&, k](crypto::ChaChaDrbg& rng)
            -> std::unique_ptr<core::SessionMachine> {
          return std::make_unique<AuthSessionMachine>(
              *channels[k], policy, rng, *verifiers[k], *devices[k],
              10 * (k + 1));
        },
        submit_options);
  }
  const auto reports = engine.run();

  for (std::size_t k = 0; k < kFleet; ++k) {
    EXPECT_EQ(reports[k].result, SessionResult::kConverged)
        << "device " << k << " failed re-auth after restart";
  }
  EXPECT_EQ(engine.stats().admitted, kFleet);
  EXPECT_EQ(engine.stats().shed_rate_limited, 0u);
  EXPECT_EQ(controller.stats().half_open, 0u);
}

}  // namespace
}  // namespace neuropuls
