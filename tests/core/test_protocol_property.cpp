// Protocol property sweeps: the mutual-authentication state machine must
// stay consistent under every single-message-loss pattern and across long
// session chains; EKE must agree under both groups and arbitrary secret
// lengths.
#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "core/aka_eke.hpp"
#include "core/mutual_auth.hpp"
#include "core/session_driver.hpp"
#include "crypto/sha256.hpp"
#include "puf/photonic_puf.hpp"

namespace neuropuls::core {
namespace {

struct AuthWorld {
  std::unique_ptr<puf::PhotonicPuf> puf;
  std::unique_ptr<AuthDevice> device;
  std::unique_ptr<AuthVerifier> verifier;
  std::unique_ptr<net::DuplexChannel> channel;
};

AuthWorld make_world(std::uint64_t seed) {
  AuthWorld w;
  w.channel = std::make_unique<net::DuplexChannel>();
  w.puf = std::make_unique<puf::PhotonicPuf>(puf::small_photonic_config(),
                                             9000 + seed, 0);
  crypto::ChaChaDrbg rng(crypto::bytes_of("prop-prov"));
  const auto provisioned = provision(*w.puf, rng);
  const crypto::Bytes memory = crypto::bytes_of("fw");
  w.device =
      std::make_unique<AuthDevice>(*w.puf, provisioned.device_crp, memory);
  w.verifier = std::make_unique<AuthVerifier>(provisioned.verifier_secret,
                                              crypto::Sha256::hash(memory),
                                              w.puf->challenge_bytes());
  return w;
}

// Which of the three protocol messages the adversary drops.
class SingleLoss : public ::testing::TestWithParam<net::MessageType> {};

TEST_P(SingleLoss, OneLossNeverBreaksTheNextSession) {
  AuthWorld w = make_world(1);
  const net::MessageType victim = GetParam();
  w.channel->set_adversary([victim](net::Direction, const net::Message& m) {
    return m.type == victim ? net::Verdict::drop() : net::Verdict::pass();
  });
  // The lossy session fails...
  EXPECT_FALSE(run_auth_session(*w.verifier, *w.device, *w.channel, 1, 0x01));
  // ...but an honest follow-up always succeeds, for every loss position.
  w.channel->set_adversary(nullptr);
  EXPECT_TRUE(run_auth_session(*w.verifier, *w.device, *w.channel, 2, 0x02));
  EXPECT_TRUE(common::ct_equal(w.device->current_response(),
                               w.verifier->current_secret()));
}

INSTANTIATE_TEST_SUITE_P(
    LossPositions, SingleLoss,
    ::testing::Values(net::MessageType::kAuthRequest,
                      net::MessageType::kAuthResponse,
                      net::MessageType::kAuthConfirm),
    [](const ::testing::TestParamInfo<net::MessageType>& info) {
      return net::message_type_name(info.param).substr(5);  // strip "auth-"
    });

// Long chains with interleaved random losses must never wedge the pair.
class LossyChains : public ::testing::TestWithParam<unsigned> {};

TEST_P(LossyChains, AlwaysRecoverable) {
  AuthWorld w = make_world(GetParam());
  rng::Xoshiro256 rng(GetParam());
  std::uint64_t session = 0;
  int successes = 0;
  for (int round = 0; round < 20; ++round) {
    const bool lossy = rng.bernoulli(0.4);
    if (lossy) {
      const int which = static_cast<int>(rng.uniform_int(3));
      w.channel->set_adversary([which](net::Direction, const net::Message& m) {
        const bool drop =
            (which == 0 && m.type == net::MessageType::kAuthRequest) ||
            (which == 1 && m.type == net::MessageType::kAuthResponse) ||
            (which == 2 && m.type == net::MessageType::kAuthConfirm);
        return drop ? net::Verdict::drop() : net::Verdict::pass();
      });
    } else {
      w.channel->set_adversary(nullptr);
    }
    ++session;
    successes +=
        run_auth_session(*w.verifier, *w.device, *w.channel, session, session);
  }
  // Every lossless round after the first must succeed; final honest round
  // proves no permanent wedge.
  w.channel->set_adversary(nullptr);
  ++session;
  EXPECT_TRUE(
      run_auth_session(*w.verifier, *w.device, *w.channel, session, session));
  EXPECT_GT(successes, 0);
  EXPECT_TRUE(common::ct_equal(w.device->current_response(),
                               w.verifier->current_secret()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, LossyChains, ::testing::Values(1u, 2u, 3u, 4u));

// Sessions compose: N consecutive honest sessions all succeed and every
// rotated secret is fresh.
class SessionChains : public ::testing::TestWithParam<int> {};

TEST_P(SessionChains, AllSucceedAllFresh) {
  AuthWorld w = make_world(50);
  std::vector<puf::Response> secrets;
  for (int i = 1; i <= GetParam(); ++i) {
    ASSERT_TRUE(run_auth_session(*w.verifier, *w.device, *w.channel,
                                 static_cast<std::uint64_t>(i),
                                 static_cast<std::uint64_t>(i) * 31));
    const auto view = w.verifier->current_secret().reveal();
    secrets.push_back(puf::Response(view.begin(), view.end()));
  }
  for (std::size_t a = 0; a < secrets.size(); ++a) {
    for (std::size_t b = a + 1; b < secrets.size(); ++b) {
      EXPECT_NE(secrets[a], secrets[b]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Lengths, SessionChains, ::testing::Values(2, 5, 10));

// ---- EKE sweeps ------------------------------------------------------------------

struct EkeCase {
  std::size_t secret_len;
  bool big_group;
};

std::string eke_case_name(const EkeCase& c) {
  return "len" + std::to_string(c.secret_len) +
         (c.big_group ? "_g2048" : "_g1536");
}

// gtest would otherwise print the struct's raw bytes, padding included, and
// the uninitialised padding would change the test names between builds.
void PrintTo(const EkeCase& c, std::ostream* os) { *os << eke_case_name(c); }

class EkeSweep : public ::testing::TestWithParam<EkeCase> {};

TEST_P(EkeSweep, AgreementAcrossSecretLengthsAndGroups) {
  const auto& group = GetParam().big_group ? crypto::DhGroup::modp2048()
                                           : crypto::DhGroup::modp1536();
  crypto::Bytes secret(GetParam().secret_len, 0x42);
  secret.back() = 0x17;
  const auto outcome = run_eke_handshake(secret, secret, group, 9, 1234);
  EXPECT_TRUE(outcome.keys_match);
  EXPECT_EQ(outcome.initiator_key.size(), 32u);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, EkeSweep,
    ::testing::Values(EkeCase{1, false}, EkeCase{4, false}, EkeCase{32, false},
                      EkeCase{255, false}, EkeCase{32, true}),
    [](const ::testing::TestParamInfo<EkeCase>& info) {
      return eke_case_name(info.param);
    });

}  // namespace
}  // namespace neuropuls::core
