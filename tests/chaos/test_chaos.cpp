// Chaos suite (ctest label: chaos): sweeps seeded fault rates over the
// full device/protocol stack and asserts the graceful-degradation
// invariants that DESIGN.md's fault-model section promises:
//
//   * no false accept — a session that converges always leaves both
//     parties on the same secret / session key, at every corruption rate;
//   * bounded recovery — at low loss the retry driver converges within
//     its budget; at total loss it exhausts cleanly (bounded ticks, no
//     state damage) and a later clean session recovers;
//   * determinism — identical seeds reproduce byte-identical channel
//     transcripts, fault schedule included;
//   * device-level degradation — robust (k-of-n) derivation recovers keys
//     under thermal-spike faults, persistent diode death drives CRP
//     quarantine/eviction, and the accelerator health model walks
//     Healthy -> Degraded -> LockedOut and back only via reset.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "accel/secure_api.hpp"
#include "core/key_manager.hpp"
#include "core/session_driver.hpp"
#include "crypto/aes.hpp"
#include "crypto/dh.hpp"
#include "crypto/sha256.hpp"
#include "faults/device_faults.hpp"
#include "faults/faulty_channel.hpp"
#include "puf/crp_db.hpp"
#include "puf/photonic_puf.hpp"

namespace neuropuls {
namespace {

using core::AuthDevice;
using core::AuthVerifier;
using core::RetryPolicy;
using core::SessionResult;
using faults::ChannelFaultConfig;
using faults::DeviceFaultConfig;
using faults::DeviceFaultModel;
using faults::FaultyChannel;
using faults::LinkFaultRates;
using net::Direction;
using net::DuplexChannel;

// ------------------------------------------------------------- harness

struct AuthHarness {
  std::unique_ptr<puf::PhotonicPuf> puf;
  std::unique_ptr<AuthDevice> device;
  std::unique_ptr<AuthVerifier> verifier;
  std::unique_ptr<DuplexChannel> channel;
};

AuthHarness make_auth_harness() {
  AuthHarness h;
  h.channel = std::make_unique<DuplexChannel>();
  h.puf = std::make_unique<puf::PhotonicPuf>(puf::small_photonic_config(), 71,
                                             /*device_index=*/0);
  crypto::ChaChaDrbg rng(crypto::bytes_of("chaos-provision"));
  const auto provisioned = core::provision(*h.puf, rng);
  const crypto::Bytes memory = crypto::bytes_of("chaos firmware image");
  h.device =
      std::make_unique<AuthDevice>(*h.puf, provisioned.device_crp, memory);
  h.verifier = std::make_unique<AuthVerifier>(provisioned.verifier_secret,
                                              crypto::Sha256::hash(memory),
                                              h.puf->challenge_bytes());
  return h;
}

bool in_sync(const AuthHarness& h) {
  return common::ct_equal(h.device->current_response(),
                          h.verifier->current_secret());
}

LinkFaultRates mixed_rates(double per_fault) {
  LinkFaultRates rates;
  rates.drop = per_fault;
  rates.corrupt = per_fault;
  rates.duplicate = per_fault;
  rates.delay = per_fault;
  rates.reorder = per_fault;
  rates.max_delay_polls = 4;
  return rates;
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

// One serial mutual-auth session over the harness channel. Every
// session gets its own DRBG seed.
core::SessionReport run_auth(AuthHarness& h, std::uint64_t seed,
                             std::uint64_t session_base,
                             const RetryPolicy& policy = {}) {
  return core::run_serial(seed, [&](crypto::ChaChaDrbg& rng) {
    return std::make_unique<core::AuthSessionMachine>(
        *h.channel, policy, rng, *h.verifier, *h.device, session_base);
  });
}

// ---------------------------------------------------------- mutual auth

TEST(ChaosAuth, ConvergesAtOnePercentDrop) {
  AuthHarness h = make_auth_harness();
  FaultyChannel faulty(*h.channel,
                       faults::symmetric_faults(faults::symmetric_drop(0.01)),
                       0xC1);
  constexpr unsigned kSessions = 10;
  for (unsigned s = 0; s < kSessions; ++s) {
    const auto report = run_auth(h, s + 1, 1000 * (s + 1));
    ASSERT_EQ(report.result, SessionResult::kConverged) << "session " << s;
    EXPECT_LE(report.attempts, RetryPolicy{}.max_attempts);
    EXPECT_TRUE(in_sync(h)) << "session " << s;
  }
  EXPECT_EQ(h.device->completed_sessions(), kSessions);
}

TEST(ChaosAuth, NoFalseAcceptAtAnyCorruptionRate) {
  for (const double rate : {0.05, 0.20, 0.50}) {
    AuthHarness h = make_auth_harness();
    LinkFaultRates rates;
    rates.corrupt = rate;
    {
      FaultyChannel faulty(*h.channel, faults::symmetric_faults(rates),
                           0xC2 + static_cast<std::uint64_t>(rate * 100));
      for (unsigned s = 0; s < 8; ++s) {
        const auto report = run_auth(h, s + 1, 1000 * (s + 1));
        // THE invariant: convergence always means agreement. A corrupted
        // frame may cost attempts but can never complete a session with
        // divergent secrets.
        if (report.result == SessionResult::kConverged) {
          EXPECT_TRUE(in_sync(h)) << "rate " << rate << " session " << s;
        }
      }
    }
    // Whatever the carnage, a clean channel recovers the pairing (the
    // verifier's one-deep fallback absorbs lost confirms).
    const auto report = run_auth(h, 1, 100000);
    EXPECT_EQ(report.result, SessionResult::kConverged) << "rate " << rate;
    EXPECT_TRUE(in_sync(h)) << "rate " << rate;
  }
}

TEST(ChaosAuth, TotalLossExhaustsCleanlyThenRecovers) {
  AuthHarness h = make_auth_harness();
  {
    FaultyChannel faulty(*h.channel,
                         faults::symmetric_faults(faults::symmetric_drop(1.0)),
                         0xC3);
    const RetryPolicy p;
    const auto report = run_auth(h, 1, 1000, p);
    EXPECT_EQ(report.result, SessionResult::kExhausted);
    EXPECT_EQ(report.attempts, p.max_attempts);
    // Bounded work: every attempt can burn at most the per-receive budget
    // on each of its three expect() calls, plus capped backoff.
    EXPECT_LE(report.poll_ticks,
              static_cast<std::uint64_t>(p.max_attempts) * 3 *
                  p.receive_poll_budget);
    EXPECT_LE(report.backoff_ticks,
              static_cast<std::uint64_t>(p.max_attempts) *
                  (p.backoff_max_polls + p.backoff_base_polls));
    EXPECT_EQ(h.device->completed_sessions(), 0u);
  }
  // The faulty layer is gone; the same endpoints converge immediately.
  const auto report = run_auth(h, 1, 2000);
  EXPECT_EQ(report.result, SessionResult::kConverged);
  EXPECT_TRUE(in_sync(h));
}

TEST(ChaosAuth, BackoffSaturatesAtCapForLargeAttemptCounts) {
  AuthHarness h = make_auth_harness();
  FaultyChannel faulty(*h.channel,
                       faults::symmetric_faults(faults::symmetric_drop(1.0)),
                       0xC5);
  RetryPolicy policy;
  policy.max_attempts = 70;  // drives the backoff shift past 63
  policy.receive_poll_budget = 1;
  const auto report = run_auth(h, 1, 3000, policy);
  EXPECT_EQ(report.result, SessionResult::kExhausted);
  EXPECT_EQ(report.attempts, policy.max_attempts);

  // Regression: once `base << shift` would overflow the type width the
  // exponential term must *saturate* at backoff_max_polls, not wrap to
  // zero and silently collapse the backoff to jitter only.
  std::uint64_t min_expected = 0;
  for (unsigned attempt = 2; attempt <= policy.max_attempts; ++attempt) {
    const unsigned shift = attempt - 2;
    std::uint64_t exp = policy.backoff_max_polls;
    if (shift < 32 && (policy.backoff_base_polls << shift) < exp) {
      exp = policy.backoff_base_polls << shift;
    }
    min_expected += exp;
  }
  EXPECT_GE(report.backoff_ticks, min_expected);
  // Upper bound: per-backoff jitter is in [0, base).
  EXPECT_LE(report.backoff_ticks,
            min_expected +
                (policy.max_attempts - 1) * policy.backoff_base_polls);
}

TEST(ChaosAuth, MixedFaultSweepMaintainsInvariants) {
  AuthHarness h = make_auth_harness();
  unsigned converged = 0;
  constexpr unsigned kSessions = 12;
  {
    FaultyChannel faulty(*h.channel,
                         faults::symmetric_faults(mixed_rates(0.05)), 0xC4);
    for (unsigned s = 0; s < kSessions; ++s) {
      const auto report = run_auth(h, s + 1, 1000 * (s + 1));
      if (report.result == SessionResult::kConverged) {
        ++converged;
        EXPECT_TRUE(in_sync(h)) << "session " << s;
      }
      EXPECT_LE(report.attempts, RetryPolicy{}.max_attempts);
    }
    faulty.flush();
  }
  // At 5% per fault family most sessions get through within the retry
  // budget; all of them must have kept the endpoints consistent.
  EXPECT_GE(converged, kSessions / 2);
  EXPECT_EQ(run_auth(h, 1, 100000).result, SessionResult::kConverged);
  EXPECT_TRUE(in_sync(h));
}

// ------------------------------------------------------------ eke chaos

const crypto::DhGroup& group() { return crypto::DhGroup::modp1536(); }

core::SessionReport run_eke(DuplexChannel& channel, core::EkeParty& initiator,
                            core::EkeParty& responder,
                            std::uint64_t session_base,
                            const RetryPolicy& policy = {}) {
  return core::run_serial(1, [&](crypto::ChaChaDrbg& rng) {
    return std::make_unique<core::EkeSessionMachine>(
        channel, policy, rng, initiator, responder, session_base);
  });
}

TEST(ChaosEke, ConvergedKeysAlwaysMatch) {
  const crypto::Bytes secret = crypto::bytes_of("chaos shared crp response");
  core::EkeParty initiator(secret, group(),
                           crypto::ChaChaDrbg(crypto::bytes_of("chaos-i")));
  core::EkeParty responder(secret, group(),
                           crypto::ChaChaDrbg(crypto::bytes_of("chaos-r")));
  DuplexChannel channel;
  LinkFaultRates rates;
  rates.drop = 0.05;
  rates.corrupt = 0.10;
  FaultyChannel faulty(channel, faults::symmetric_faults(rates), 0xE1);
  const auto report = run_eke(channel, initiator, responder, 5000);
  ASSERT_EQ(report.result, SessionResult::kConverged);
  EXPECT_EQ(initiator.session_key().size(), 32u);
  EXPECT_TRUE(common::ct_equal(initiator.session_key(),
                               responder.session_key()));
}

TEST(ChaosEke, TotalLossExhaustsWithoutAKey) {
  const crypto::Bytes secret = crypto::bytes_of("chaos shared crp response");
  core::EkeParty initiator(secret, group(),
                           crypto::ChaChaDrbg(crypto::bytes_of("chaos-i3")));
  core::EkeParty responder(secret, group(),
                           crypto::ChaChaDrbg(crypto::bytes_of("chaos-r3")));
  DuplexChannel channel;
  FaultyChannel faulty(channel,
                       faults::symmetric_faults(faults::symmetric_drop(1.0)),
                       0xE2);
  // Two attempts keep the (modexp-heavy) exhaustion path cheap.
  RetryPolicy policy;
  policy.max_attempts = 2;
  const auto report = run_eke(channel, initiator, responder, 6000, policy);
  EXPECT_EQ(report.result, SessionResult::kExhausted);
  // The initiator never saw a server hello: no key on its side.
  EXPECT_TRUE(initiator.session_key().empty());
}

// ---------------------------------------------------------- determinism

TEST(ChaosDeterminism, SameSeedsByteIdenticalTranscripts) {
  const auto run = [](std::uint64_t channel_seed) {
    AuthHarness h = make_auth_harness();
    FaultyChannel faulty(*h.channel,
                         faults::symmetric_faults(mixed_rates(0.08)),
                         channel_seed);
    for (unsigned s = 0; s < 5; ++s) {
      (void)run_auth(h, 7 + s, 1000 * (s + 1));
    }
    faulty.flush();
    return serialize_transcript(*h.channel);
  };
  const auto first = run(0xD1);
  const auto second = run(0xD1);
  EXPECT_EQ(first, second);  // byte-identical, fault schedule included
  EXPECT_NE(first, run(0xD2));  // and the seed really drives the schedule
}

// --------------------------------------------------------- device chaos

TEST(ChaosDevice, RobustKeyDerivationUnderThermalSpikes) {
  puf::PhotonicPuf p(puf::small_photonic_config(), 2024, 0);
  core::KeyManager manager(p);
  crypto::ChaChaDrbg rng(crypto::bytes_of("chaos-enroll"));
  const auto record = manager.enroll(rng);
  const auto healthy = manager.derive(record);
  ASSERT_TRUE(healthy.has_value());

  DeviceFaultConfig config;
  config.thermal = {/*spike_probability=*/0.4, /*magnitude_kelvin=*/1.5};
  p.set_fault_model(std::make_shared<const DeviceFaultModel>(config, 31));

  const auto robust = manager.derive(record, /*attempts=*/4,
                                      /*readings=*/5);
  ASSERT_TRUE(robust.has_value());
  // Robust derivation recovers the *enrolled* key hierarchy, not merely
  // some key: majority re-measurement pushes the spiked readings back
  // inside the code's correction radius.
  EXPECT_TRUE(common::ct_equal(robust->encryption_key,
                               healthy->encryption_key));
  EXPECT_TRUE(common::ct_equal(robust->mac_key, healthy->mac_key));
  EXPECT_TRUE(common::ct_equal(robust->binding_key, healthy->binding_key));
}

TEST(ChaosDevice, DeadPhotodiodeDrivesCrpQuarantine) {
  puf::PhotonicPuf p(puf::small_photonic_config(), 909, 0);
  std::vector<puf::Challenge> challenges;
  for (std::uint8_t i = 0; i < 6; ++i) {
    crypto::Bytes c(p.challenge_bytes(), 0);
    for (std::size_t k = 0; k < c.size(); ++k) {
      c[k] = static_cast<std::uint8_t>(0x11 * (i + 1) + 7 * k);
    }
    challenges.push_back(c);
  }
  puf::CrpDatabase db;
  db.set_quarantine_threshold(2);
  for (const auto& c : challenges) {
    db.insert({c, p.evaluate_robust(c, 5)});  // healthy enrollment
  }

  DeviceFaultConfig config;
  config.photodiodes.push_back({/*port=*/0, /*responsivity_scale=*/0.0});
  p.set_fault_model(std::make_shared<const DeviceFaultModel>(config, 5));

  // Verifier-side authentication rounds: a reading too far from the
  // enrolled response is a failure against that CRP.
  for (int round = 0; round < 2; ++round) {
    for (const auto& c : challenges) {
      const auto stored = db.lookup(c);
      if (!stored) continue;  // already quarantined
      const double err =
          crypto::fractional_hamming_distance(p.evaluate(c), *stored);
      if (err > 0.10) {
        db.record_failure(c);
      } else {
        db.record_success(c);
      }
    }
  }
  // A dead diode corrupts every response that touches its port pair —
  // persistent failures, so quarantine fires.
  EXPECT_GT(db.quarantined(), 0u);
  const std::size_t evicted = db.evict_quarantined();
  EXPECT_GT(evicted, 0u);
  EXPECT_EQ(db.quarantined(), 0u);
  EXPECT_EQ(db.size(), challenges.size() - evicted);
}

// ----------------------------------------------------- accelerator health

accel::MlpNetwork tiny_network() {
  accel::MlpNetwork network;
  accel::Layer layer;
  layer.inputs = 2;
  layer.outputs = 2;
  layer.weights = {1.0, 0.0, 0.0, 1.0};
  layer.biases = {0.5, -0.5};
  layer.activation = accel::Activation::kLinear;
  network.layers.push_back(layer);
  return network;
}

TEST(ChaosAccel, HealthWalksDegradedToLockoutAndResets) {
  const crypto::Bytes key = crypto::bytes_of("chaos accel key");
  accel::SecureAccelerator device(std::make_unique<accel::DigitalMvm>(),
                                  common::SecretBytes::copy_of(key),
                                  accel::HealthPolicy{2, 4});
  device.load_network(
      accel::SecureAccelerator::encrypt_network(tiny_network(), key, 1));
  ASSERT_EQ(device.health(), accel::HealthState::kHealthy);

  std::uint64_t nonce = 2;
  const auto bad_input = [&] {
    auto blob =
        accel::SecureAccelerator::encrypt_input({1.0, 2.0}, key, nonce++);
    blob.back() ^= 0x01;  // break the MAC
    return blob;
  };
  const auto good_input = [&] {
    return accel::SecureAccelerator::encrypt_input({1.0, 2.0}, key, nonce++);
  };

  EXPECT_THROW(device.execute_network(bad_input()), std::runtime_error);
  EXPECT_EQ(device.health(), accel::HealthState::kHealthy);  // 1 failure
  EXPECT_THROW(device.execute_network(bad_input()), std::runtime_error);
  EXPECT_EQ(device.health(), accel::HealthState::kDegraded);  // 2 failures
  // Degraded still serves valid traffic, and a success heals fully.
  EXPECT_NO_THROW(device.execute_network(good_input()));
  EXPECT_EQ(device.health(), accel::HealthState::kHealthy);
  EXPECT_EQ(device.consecutive_failures(), 0u);

  for (int i = 0; i < 4; ++i) {
    EXPECT_THROW(device.execute_network(bad_input()), std::runtime_error);
  }
  EXPECT_EQ(device.health(), accel::HealthState::kLockedOut);
  EXPECT_EQ(device.consecutive_failures(), 4u);
  // Locked out: even valid ciphertext is refused, distinguishably.
  EXPECT_THROW(device.execute_network(good_input()), accel::LockedOutError);
  EXPECT_THROW(
      device.load_network(
          accel::SecureAccelerator::encrypt_network(tiny_network(), key, 99)),
      accel::LockedOutError);
  EXPECT_EQ(device.health(), accel::HealthState::kLockedOut);  // sticky

  device.reset_health();
  EXPECT_EQ(device.health(), accel::HealthState::kHealthy);
  EXPECT_NO_THROW(device.execute_network(good_input()));
}

TEST(ChaosAccel, MalformedAuthenticBlobCountsTowardDegradation) {
  const crypto::Bytes key = crypto::bytes_of("chaos accel key");
  accel::SecureAccelerator device(std::make_unique<accel::DigitalMvm>(),
                                  common::SecretBytes::copy_of(key),
                                  accel::HealthPolicy{1, 3});
  // MAC-valid frames whose *plaintext* fails to parse (a version-skewed
  // peer holding the right key): the parse failure must surface as a
  // clean runtime_error, count toward degradation, and — exercised under
  // the ASan chaos flavor — wipe the decrypted plaintext on the way out.
  const crypto::Bytes junk = {0xDE, 0xAD, 0xBE, 0xEF};
  const crypto::CtrThenMac sealer(key);
  EXPECT_THROW(
      device.load_network(sealer.seal(crypto::Bytes(16, 9), junk)),
      std::runtime_error);
  EXPECT_EQ(device.health(), accel::HealthState::kDegraded);
  EXPECT_EQ(device.consecutive_failures(), 1u);

  device.reset_health();
  device.load_network(
      accel::SecureAccelerator::encrypt_network(tiny_network(), key, 1));
  EXPECT_THROW(
      device.execute_network(sealer.seal(crypto::Bytes(16, 10), junk)),
      std::runtime_error);
  EXPECT_EQ(device.health(), accel::HealthState::kDegraded);
  // A well-formed exchange heals as usual.
  EXPECT_NO_THROW(device.execute_network(
      accel::SecureAccelerator::encrypt_input({1.0, 2.0}, key, 11)));
  EXPECT_EQ(device.health(), accel::HealthState::kHealthy);
}

TEST(ChaosAccel, MissingNetworkIsNotAHealthFailure) {
  const crypto::Bytes key = crypto::bytes_of("chaos accel key");
  accel::SecureAccelerator device(std::make_unique<accel::DigitalMvm>(),
                                  common::SecretBytes::copy_of(key),
                                  accel::HealthPolicy{1, 2});
  // Operator error (no network loaded) is a logic_error and must not
  // count toward crypto-failure lockout.
  EXPECT_THROW(device.execute_network(
                   accel::SecureAccelerator::encrypt_input({1.0}, key, 1)),
               std::logic_error);
  EXPECT_EQ(device.health(), accel::HealthState::kHealthy);
  EXPECT_EQ(device.consecutive_failures(), 0u);
}

TEST(ChaosAccel, HealthPolicyValidated) {
  const crypto::Bytes key = crypto::bytes_of("k");
  EXPECT_THROW(
      accel::SecureAccelerator(std::make_unique<accel::DigitalMvm>(),
                               common::SecretBytes::copy_of(key),
                               accel::HealthPolicy{0, 5}),
      std::invalid_argument);
  EXPECT_THROW(
      accel::SecureAccelerator(std::make_unique<accel::DigitalMvm>(),
                               common::SecretBytes::copy_of(key),
                               accel::HealthPolicy{3, 2}),
      std::invalid_argument);
}

}  // namespace
}  // namespace neuropuls
