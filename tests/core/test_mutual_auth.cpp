// Mutual-authentication protocol tests (Fig. 4): the happy path, CRP
// rotation, verifier O(1) state, freshness/replay, tampering, memory-hash
// integrity hints, and desynchronisation recovery.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/mutual_auth.hpp"
#include "core/session_driver.hpp"
#include "crypto/sha256.hpp"
#include "puf/photonic_puf.hpp"

namespace neuropuls::core {
namespace {

struct Harness {
  std::unique_ptr<puf::PhotonicPuf> puf;
  std::unique_ptr<AuthDevice> device;
  std::unique_ptr<AuthVerifier> verifier;
  std::unique_ptr<net::DuplexChannel> channel;
};

Harness make_harness(std::uint64_t device_index = 0) {
  Harness s;
  s.channel = std::make_unique<net::DuplexChannel>();
  s.puf = std::make_unique<puf::PhotonicPuf>(puf::small_photonic_config(), 71,
                                             device_index);
  crypto::ChaChaDrbg rng(crypto::bytes_of("provision"));
  const auto provisioned = provision(*s.puf, rng);
  const crypto::Bytes memory = crypto::bytes_of(
      "firmware image v1.0 -- pretend this is the device's flash");
  s.device = std::make_unique<AuthDevice>(*s.puf, provisioned.device_crp,
                                          memory);
  s.verifier = std::make_unique<AuthVerifier>(
      provisioned.verifier_secret, crypto::Sha256::hash(memory),
      s.puf->challenge_bytes());
  return s;
}

TEST(MutualAuth, SingleSessionSucceeds) {
  Harness s = make_harness();
  EXPECT_TRUE(run_auth_session(*s.verifier, *s.device, *s.channel, 1, 0xAA));
  EXPECT_EQ(s.device->completed_sessions(), 1u);
  EXPECT_EQ(s.verifier->completed_sessions(), 1u);
}

TEST(MutualAuth, CrpRotatesEverySession) {
  Harness s = make_harness();
  // Snapshot plain copies of each session secret (test-only unwrap).
  const auto snapshot = [](const common::SecretBytes& secret) {
    const auto view = secret.reveal();
    return crypto::Bytes(view.begin(), view.end());
  };
  std::vector<puf::Response> secrets;
  secrets.push_back(snapshot(s.device->current_response()));
  for (int i = 1; i <= 5; ++i) {
    ASSERT_TRUE(run_auth_session(*s.verifier, *s.device, *s.channel,
                                 static_cast<std::uint64_t>(i),
                                 0x1000u + static_cast<std::uint64_t>(i)));
    secrets.push_back(snapshot(s.device->current_response()));
    // Device and verifier stay in lockstep.
    EXPECT_TRUE(common::ct_equal(s.device->current_response(),
                                 s.verifier->current_secret()));
  }
  // All session secrets distinct (fresh CRP per session).
  for (std::size_t a = 0; a < secrets.size(); ++a) {
    for (std::size_t b = a + 1; b < secrets.size(); ++b) {
      EXPECT_NE(secrets[a], secrets[b]) << a << "," << b;
    }
  }
}

TEST(MutualAuth, RotatedResponseKnownAnswer) {
  // Three one-shot sessions from the fixed provisioning: pins every
  // rotated CRP, whatever sequences the three hops.
  Harness s = make_harness();
  for (std::uint64_t i = 1; i <= 3; ++i) {
    ASSERT_TRUE(run_auth_session(*s.verifier, *s.device, *s.channel, i, i));
  }
  EXPECT_EQ(crypto::to_hex(s.device->current_response().reveal()),
            "0e53065e");
  EXPECT_TRUE(common::ct_equal(s.device->current_response(),
                               s.verifier->current_secret()));
}

TEST(MutualAuth, OneShotSessionNeverRetries) {
  Harness s = make_harness();
  bool dropped = false;
  s.channel->set_adversary([&](net::Direction, const net::Message& m) {
    if (m.type == net::MessageType::kAuthRequest && !dropped) {
      dropped = true;
      return net::Verdict::drop();
    }
    return net::Verdict::pass();
  });
  const auto requests = [&] {
    const auto& transcript = s.channel->transcript();
    return std::count_if(transcript.begin(), transcript.end(),
                         [](const net::TranscriptEntry& entry) {
                           return entry.message.type ==
                                  net::MessageType::kAuthRequest;
                         });
  };
  // The dropped request is not re-sent: one attempt, then false.
  EXPECT_FALSE(run_auth_session(*s.verifier, *s.device, *s.channel, 1, 1));
  EXPECT_EQ(requests(), 1);
  EXPECT_TRUE(run_auth_session(*s.verifier, *s.device, *s.channel, 2, 2));
  EXPECT_EQ(requests(), 2);
}

TEST(MutualAuth, VerifierStateIsOneResponse) {
  // The paper's scalability claim: verifier stores one response (plus a
  // one-deep fallback), not a CRP database. Sanity-check the object's
  // state size indirectly: the secret is exactly one response long.
  Harness s = make_harness();
  EXPECT_EQ(s.verifier->current_secret().size(), s.puf->response_bytes());
}

TEST(MutualAuth, ReplayedResponseRejected) {
  Harness s = make_harness();
  // Run an honest session while recording the device's response.
  net::Message recorded{};
  s.channel->set_adversary([&](net::Direction d, const net::Message& m) {
    if (d == net::Direction::kBtoA &&
        m.type == net::MessageType::kAuthResponse) {
      recorded = m;
    }
    return net::Verdict::pass();
  });
  ASSERT_TRUE(run_auth_session(*s.verifier, *s.device, *s.channel, 1, 0x01));

  // Attacker replays the recorded response in a new session.
  const auto request = s.verifier->start(2, 0x02);
  (void)request;  // never reaches the device
  const auto outcome = s.verifier->process_response(recorded);
  EXPECT_NE(outcome.status, AuthStatus::kOk);
}

TEST(MutualAuth, ReplayedResponseBurnsNoFreshCrp) {
  // Regression (abuse-resistance PR): a re-sent stale challenge response
  // must be rejected cheaply — no second rotation, no session recount —
  // so a replay storm costs the attacker rate-limit tokens, never fresh
  // CRP/PUF material on the verifier side.
  Harness s = make_harness();
  const auto request = s.verifier->start(1, 0xAB);
  const auto response = s.device->handle_request(request);
  ASSERT_TRUE(response.has_value());
  const auto first = s.verifier->process_response(*response);
  ASSERT_EQ(first.status, AuthStatus::kOk);
  ASSERT_EQ(s.verifier->completed_sessions(), 1u);

  // Byte-identical replay of the response that just authenticated. The
  // one-deep fallback secret could re-verify its MAC — the replay latch
  // must reject before any MAC work.
  for (int storm = 0; storm < 5; ++storm) {
    const auto replay = s.verifier->process_response(*response);
    EXPECT_EQ(replay.status, AuthStatus::kReplayed);
    EXPECT_FALSE(replay.confirm.has_value());
  }
  EXPECT_EQ(s.verifier->completed_sessions(), 1u);  // not double-counted

  // A fresh session still works: the latch clears on start().
  ASSERT_TRUE(s.device->handle_confirm(*first.confirm) == AuthStatus::kOk);
  EXPECT_TRUE(run_auth_session(*s.verifier, *s.device, *s.channel, 2, 0xCD));
}

TEST(MutualAuth, ReplayedRequestBurnsNoPufEvaluation) {
  // Device side of the same discipline: a replayed (or retried) auth
  // request for the in-flight session is answered from the wire cache —
  // byte-identical — instead of evaluating the PUF and deriving a fresh
  // candidate CRP per replayed frame.
  Harness s = make_harness();
  const auto request = s.verifier->start(1, 0x77);
  const auto response = s.device->handle_request(request);
  ASSERT_TRUE(response.has_value());
  for (int storm = 0; storm < 5; ++storm) {
    const auto again = s.device->handle_request(request);
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(again->payload, response->payload);
    EXPECT_EQ(again->session_id, response->session_id);
  }
  // The pending CRP is unchanged, so the handshake still completes.
  const auto outcome = s.verifier->process_response(*response);
  ASSERT_EQ(outcome.status, AuthStatus::kOk);
  EXPECT_EQ(s.device->handle_confirm(*outcome.confirm), AuthStatus::kOk);
  EXPECT_EQ(s.device->completed_sessions(), 1u);
}

TEST(MutualAuth, TamperedResponseRejected) {
  Harness s = make_harness();
  s.channel->set_adversary([](net::Direction d, const net::Message& m) {
    if (d == net::Direction::kBtoA &&
        m.type == net::MessageType::kAuthResponse) {
      net::Message forged = m;
      forged.payload[0] ^= 0x01;  // flip one masked-response bit
      return net::Verdict::replace(forged);
    }
    return net::Verdict::pass();
  });
  EXPECT_FALSE(run_auth_session(*s.verifier, *s.device, *s.channel, 1, 0x01));
}

TEST(MutualAuth, WrongDeviceRejected) {
  // A different physical device (same wafer, different die) cannot answer
  // for the provisioned one.
  Harness s = make_harness(0);
  puf::PhotonicPuf impostor_puf(puf::small_photonic_config(), 71, 1);
  crypto::ChaChaDrbg rng(crypto::bytes_of("impostor"));
  const auto impostor_crp = provision(impostor_puf, rng);
  AuthDevice impostor(impostor_puf, impostor_crp.device_crp,
                      crypto::bytes_of("firmware"));
  EXPECT_FALSE(run_auth_session(*s.verifier, impostor, *s.channel, 1, 0x01));
}

TEST(MutualAuth, MemoryCorruptionFlagged) {
  Harness s = make_harness();
  s.device->corrupt_memory(3, 0xEE);
  // Authentication still succeeds (H is an integrity *hint*, detection is
  // attestation's job) but the hash mismatch is reported.
  const auto request = s.verifier->start(1, 0x01);
  const auto response = s.device->handle_request(request);
  ASSERT_TRUE(response.has_value());
  const auto outcome = s.verifier->process_response(*response);
  EXPECT_EQ(outcome.status, AuthStatus::kOk);
  EXPECT_FALSE(outcome.memory_hash_ok);
}

TEST(MutualAuth, CleanDeviceMemoryHashOk) {
  Harness s = make_harness();
  const auto request = s.verifier->start(1, 0x01);
  const auto response = s.device->handle_request(request);
  ASSERT_TRUE(response.has_value());
  EXPECT_TRUE(s.verifier->process_response(*response).memory_hash_ok);
}

TEST(MutualAuth, DesyncRecoveryAfterLostConfirm) {
  Harness s = make_harness();

  // Session 1: the verifier's confirm is lost -> verifier rotated,
  // device did not.
  s.channel->set_adversary([](net::Direction d, const net::Message& m) {
    if (d == net::Direction::kAtoB &&
        m.type == net::MessageType::kAuthConfirm) {
      return net::Verdict::drop();
    }
    return net::Verdict::pass();
  });
  EXPECT_FALSE(run_auth_session(*s.verifier, *s.device, *s.channel, 1, 0x01));
  EXPECT_EQ(s.device->completed_sessions(), 0u);
  EXPECT_EQ(s.verifier->completed_sessions(), 1u);
  EXPECT_FALSE(common::ct_equal(s.device->current_response(),
                                s.verifier->current_secret()));

  // Session 2 with an honest channel: the fallback secret recovers sync.
  s.channel->set_adversary(nullptr);
  EXPECT_TRUE(run_auth_session(*s.verifier, *s.device, *s.channel, 2, 0x02));
  EXPECT_TRUE(common::ct_equal(s.device->current_response(),
                               s.verifier->current_secret()));
}

TEST(MutualAuth, RepeatedConfirmLossStillRecoverable) {
  Harness s = make_harness();
  s.channel->set_adversary([](net::Direction d, const net::Message& m) {
    if (d == net::Direction::kAtoB &&
        m.type == net::MessageType::kAuthConfirm) {
      return net::Verdict::drop();
    }
    return net::Verdict::pass();
  });
  // Lose the confirm three sessions in a row.
  for (std::uint64_t i = 1; i <= 3; ++i) {
    EXPECT_FALSE(run_auth_session(*s.verifier, *s.device, *s.channel, i, i));
  }
  s.channel->set_adversary(nullptr);
  EXPECT_TRUE(run_auth_session(*s.verifier, *s.device, *s.channel, 9, 0x09));
}

TEST(MutualAuth, MalformedInputsRejectedWithoutStateChange) {
  Harness s = make_harness();
  const common::SecretBytes before = s.device->current_response().clone();

  EXPECT_FALSE(s.device
                   ->handle_request(net::Message{net::MessageType::kData, 1,
                                                 crypto::Bytes(8, 0)})
                   .has_value());
  EXPECT_FALSE(s.device
                   ->handle_request(net::Message{
                       net::MessageType::kAuthRequest, 1, crypto::Bytes(3, 0)})
                   .has_value());
  EXPECT_EQ(s.device->handle_confirm(
                net::Message{net::MessageType::kAuthConfirm, 1,
                             crypto::Bytes(31, 0)}),
            AuthStatus::kMalformed);
  EXPECT_EQ(s.device->handle_confirm(
                net::Message{net::MessageType::kAuthConfirm, 1,
                             crypto::Bytes(32, 0)}),
            AuthStatus::kBadSession);  // no pending session
  EXPECT_TRUE(common::ct_equal(s.device->current_response(), before));

  const auto outcome = s.verifier->process_response(
      net::Message{net::MessageType::kAuthResponse, 99, crypto::Bytes(8, 0)});
  EXPECT_EQ(outcome.status, AuthStatus::kBadSession);
}

// The device rotates its CRP only on a confirm whose MAC it verified: a
// well-formed confirm for the live session with a forged MAC (the
// genuine one with one bit flipped, or all zeros) must be refused with
// no rotation, and the genuine confirm must still complete the session.
TEST(MutualAuth, ForgedConfirmRejectedWithoutRotation) {
  Harness s = make_harness();
  const common::SecretBytes before = s.device->current_response().clone();
  const auto response = s.device->handle_request(s.verifier->start(1, 0xAB));
  ASSERT_TRUE(response.has_value());
  const auto outcome = s.verifier->process_response(*response);
  ASSERT_EQ(outcome.status, AuthStatus::kOk);
  ASSERT_TRUE(outcome.confirm.has_value());

  net::Message flipped = *outcome.confirm;
  flipped.payload[0] ^= 0x01;
  net::Message zeros = *outcome.confirm;
  std::fill(zeros.payload.begin(), zeros.payload.end(), 0);
  for (const net::Message& forged : {flipped, zeros}) {
    EXPECT_EQ(s.device->handle_confirm(forged), AuthStatus::kBadMac);
    EXPECT_TRUE(common::ct_equal(s.device->current_response(), before))
        << "a forged confirm rotated the CRP";
    EXPECT_EQ(s.device->completed_sessions(), 0u);
  }

  EXPECT_EQ(s.device->handle_confirm(*outcome.confirm), AuthStatus::kOk);
  EXPECT_FALSE(common::ct_equal(s.device->current_response(), before));
  EXPECT_EQ(s.device->completed_sessions(), 1u);
}

TEST(CrpSerialization, RoundTripAndValidation) {
  Harness s = make_harness();
  crypto::ChaChaDrbg rng(crypto::bytes_of("crp-ser"));
  const auto provisioned = provision(*s.puf, rng);

  const crypto::Bytes blob = serialize_crp(provisioned.device_crp);
  const ProvisionedCrp restored = deserialize_crp(blob);
  EXPECT_EQ(restored.challenge, provisioned.device_crp.challenge);
  EXPECT_EQ(restored.response, provisioned.device_crp.response);

  // A restored CRP provisions a working device.
  AuthDevice device(*s.puf, restored, crypto::bytes_of("fw"));
  AuthVerifier verifier(restored.response,
                        crypto::Sha256::hash(crypto::bytes_of("fw")),
                        s.puf->challenge_bytes());
  net::DuplexChannel channel;
  EXPECT_TRUE(run_auth_session(verifier, device, channel, 1, 0x55));

  EXPECT_THROW(deserialize_crp(crypto::Bytes(4, 0)), std::runtime_error);
  EXPECT_THROW(deserialize_crp(crypto::ByteView(blob).first(blob.size() - 2)),
               std::runtime_error);
  crypto::Bytes trailing = blob;
  trailing.push_back(0);
  EXPECT_THROW(deserialize_crp(trailing), std::runtime_error);
}

TEST(MutualAuth, ConstructionRejectsBadState) {
  puf::PhotonicPuf p(puf::small_photonic_config(), 71, 0);
  EXPECT_THROW(AuthDevice(p, ProvisionedCrp{}, crypto::bytes_of("m")),
               std::invalid_argument);
  EXPECT_THROW(AuthVerifier({}, crypto::Bytes(32, 0), 2),
               std::invalid_argument);
  EXPECT_THROW(AuthVerifier(crypto::Bytes(4, 1), crypto::Bytes(32, 0), 0),
               std::invalid_argument);
}

}  // namespace
}  // namespace neuropuls::core
