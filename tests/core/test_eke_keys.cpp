// EKE AKA handshake tests (§IV) and key-manager tests.
#include <gtest/gtest.h>

#include "core/aka_eke.hpp"
#include "core/key_manager.hpp"
#include "core/session_driver.hpp"
#include "puf/photonic_puf.hpp"
#include "puf/sram_puf.hpp"

namespace neuropuls::core {
namespace {

const crypto::DhGroup& group() { return crypto::DhGroup::modp1536(); }

TEST(Eke, HandshakeAgreesOnKey) {
  const crypto::Bytes secret = crypto::bytes_of("shared CRP response");
  const auto outcome = run_eke_handshake(secret, secret, group(), 1, 42);
  EXPECT_TRUE(outcome.keys_match);
  EXPECT_EQ(outcome.initiator_key.size(), 32u);
  EXPECT_EQ(outcome.responder_key.size(), 32u);
}

TEST(Eke, WrongPasswordFails) {
  const auto outcome = run_eke_handshake(crypto::bytes_of("secret-A"),
                                         crypto::bytes_of("secret-B"),
                                         group(), 1, 42);
  EXPECT_TRUE(outcome.initiator_key.empty());
  EXPECT_FALSE(outcome.keys_match);
}

TEST(Eke, ForwardSecrecyDistinctSessionKeys) {
  // Same password, different ephemeral randomness -> unrelated keys.
  const crypto::Bytes secret = crypto::bytes_of("same CRP");
  const auto s1 = run_eke_handshake(secret, secret, group(), 1, 100);
  const auto s2 = run_eke_handshake(secret, secret, group(), 2, 200);
  ASSERT_TRUE(s1.keys_match);
  ASSERT_TRUE(s2.keys_match);
  EXPECT_FALSE(
      common::ct_equal(s1.initiator_key, s2.initiator_key));
}

TEST(Eke, SessionKeyKnownAnswers) {
  // Session id 9 over both MODP groups: pins the keys of the one-shot
  // handshake, whatever sequences its four steps.
  const crypto::Bytes secret = crypto::bytes_of("shared CRP response");
  struct Case {
    const crypto::DhGroup& group;
    std::uint64_t seed;
    const char* key;
  };
  const Case cases[] = {
      {crypto::DhGroup::modp1536(), 1,
       "07d0321914d1a142ba6d576876235e9b66de71ec541730f19145f8e3aaf499bc"},
      {crypto::DhGroup::modp1536(), 42,
       "e08e4154a658aefec87e7182ce35c3b11a2f09270adaf2a2ccaf003a468748e9"},
      {crypto::DhGroup::modp1536(), 1234,
       "cf7d9fc631e81d98fb3fefe557e307a6903e2801182b10b98d1b003ff8e8597b"},
      {crypto::DhGroup::modp2048(), 1,
       "232b2fe23da5b81a37f9090721993cf80808d12ab05c3cd71add08e79603eabb"},
      {crypto::DhGroup::modp2048(), 42,
       "b1875b4e3f9937d2efac97c4ae36ce51067b3f46f46358090359d9604ca0e080"},
      {crypto::DhGroup::modp2048(), 1234,
       "0310ae232d0f9918be4550cb11077f9a608548edc14de69a21c206d4340a86e1"},
  };
  for (const Case& c : cases) {
    const auto outcome = run_eke_handshake(secret, secret, c.group, 9, c.seed);
    ASSERT_TRUE(outcome.keys_match) << c.seed;
    EXPECT_EQ(crypto::to_hex(outcome.initiator_key.reveal()), c.key)
        << c.group.prime_bytes << " " << c.seed;
  }
}

TEST(Eke, TamperedServerHelloRejected) {
  const crypto::Bytes secret = crypto::bytes_of("pw");
  crypto::Bytes si = crypto::bytes_of("i");
  crypto::Bytes sr = crypto::bytes_of("r");
  EkeParty initiator(secret, group(), crypto::ChaChaDrbg(si));
  EkeParty responder(secret, group(), crypto::ChaChaDrbg(sr));

  const auto hello = initiator.initiate(5);
  auto server_hello = responder.respond(hello);
  ASSERT_TRUE(server_hello.has_value());
  server_hello->payload[20] ^= 0x01;
  EXPECT_FALSE(initiator.confirm(*server_hello).has_value());
  EXPECT_TRUE(initiator.session_key().empty());
}

TEST(Eke, ReplayedServerHelloCannotWipeEstablishedKey) {
  // confirm() consumes the ephemeral exponent; a ServerHello replayed
  // after success must be refused before it touches the session key.
  const crypto::Bytes secret = crypto::bytes_of("pw");
  EkeParty initiator(secret, group(), crypto::ChaChaDrbg(crypto::bytes_of("i3")));
  EkeParty responder(secret, group(), crypto::ChaChaDrbg(crypto::bytes_of("r3")));

  const auto hello = initiator.initiate(9);
  const auto server_hello = responder.respond(hello);
  ASSERT_TRUE(server_hello.has_value());
  const auto client_confirm = initiator.confirm(*server_hello);
  ASSERT_TRUE(client_confirm.has_value());
  ASSERT_TRUE(responder.finalize(*client_confirm));
  const common::SecretBytes key = initiator.session_key().clone();
  ASSERT_FALSE(key.empty());

  EXPECT_FALSE(initiator.confirm(*server_hello).has_value());
  EXPECT_TRUE(common::ct_equal(initiator.session_key(), key));
  EXPECT_TRUE(common::ct_equal(responder.session_key(), key));
}

TEST(Eke, TamperedClientConfirmRejected) {
  const crypto::Bytes secret = crypto::bytes_of("pw");
  EkeParty initiator(secret, group(), crypto::ChaChaDrbg(crypto::bytes_of("i2")));
  EkeParty responder(secret, group(), crypto::ChaChaDrbg(crypto::bytes_of("r2")));
  const auto hello = initiator.initiate(5);
  const auto server_hello = responder.respond(hello);
  ASSERT_TRUE(server_hello.has_value());
  auto confirm = initiator.confirm(*server_hello);
  ASSERT_TRUE(confirm.has_value());
  confirm->payload[0] ^= 0x01;
  EXPECT_FALSE(responder.finalize(*confirm));
}

TEST(Eke, MalformedMessagesRejected) {
  const crypto::Bytes secret = crypto::bytes_of("pw");
  EkeParty party(secret, group(), crypto::ChaChaDrbg(crypto::bytes_of("x")));
  EXPECT_FALSE(party
                   .respond(net::Message{net::MessageType::kEkeClientHello, 1,
                                         crypto::Bytes(10, 0)})
                   .has_value());
  EXPECT_FALSE(party
                   .confirm(net::Message{net::MessageType::kEkeServerHello, 1,
                                         crypto::Bytes(10, 0)})
                   .has_value());
  EXPECT_FALSE(party.finalize(
      net::Message{net::MessageType::kEkeClientConfirm, 1, crypto::Bytes(32, 0)}));
  EXPECT_THROW(EkeParty({}, group(), crypto::ChaChaDrbg(crypto::bytes_of("y"))),
               std::invalid_argument);
}

// ---- Key manager ---------------------------------------------------------------

TEST(KeyManager, SramEnrollAndDerive) {
  puf::SramPufConfig cfg;
  cfg.cells = 1024;  // >= 635 extractor bits
  puf::SramPuf weak_puf(cfg, 7);
  KeyManager manager(weak_puf);

  crypto::ChaChaDrbg rng(crypto::bytes_of("enroll"));
  const auto record = manager.enroll(rng);
  const auto keys = manager.derive(record);
  ASSERT_TRUE(keys.has_value());
  EXPECT_EQ(keys->encryption_key.size(), 16u);
  EXPECT_EQ(keys->mac_key.size(), 32u);
  EXPECT_EQ(keys->binding_key.size(), 16u);
  // Purpose keys pairwise distinct (taint-typed: compare via ct_equal).
  EXPECT_FALSE(common::ct_equal(keys->encryption_key, keys->binding_key));

  // Boot-to-boot stability: ten fresh derivations give identical keys.
  for (int boot = 0; boot < 10; ++boot) {
    const auto rederived = manager.derive(record);
    ASSERT_TRUE(rederived.has_value());
    EXPECT_TRUE(
        common::ct_equal(rederived->encryption_key, keys->encryption_key));
  }
}

// The three purpose keys of a fixed SRAM PUF enrolled with a fixed DRBG:
// pins the HKDF split of the fuzzy-extracted root, label by label.
TEST(KeyManager, SubKeysKnownAnswer) {
  puf::SramPufConfig cfg;
  cfg.cells = 1024;
  puf::SramPuf weak_puf(cfg, 7);
  KeyManager manager(weak_puf);
  crypto::ChaChaDrbg rng(crypto::bytes_of("enroll"));
  const auto keys = manager.derive(manager.enroll(rng));
  ASSERT_TRUE(keys.has_value());
  EXPECT_EQ(crypto::to_hex(keys->encryption_key.reveal()), "ba8414b47f471552c69d559ff1a59b8d");
  EXPECT_EQ(crypto::to_hex(keys->mac_key.reveal()),
            "886051b5cbdd6e04702171fd274a532cbdb0e1b8b7aa7e7910034a98bfe2d34b");
  EXPECT_EQ(crypto::to_hex(keys->binding_key.reveal()),
            "7bcb3932463c39b5b06d9d111c750851");
}

TEST(KeyManager, PhotonicWeakUsage) {
  puf::PhotonicPuf strong_puf(puf::small_photonic_config(), 91, 0);
  KeyManager manager(strong_puf);
  crypto::ChaChaDrbg rng(crypto::bytes_of("enroll-ph"));
  const auto record = manager.enroll(rng);
  const auto keys = manager.derive(record);
  ASSERT_TRUE(keys.has_value());
  const auto again = manager.derive(record);
  ASSERT_TRUE(again.has_value());
  EXPECT_TRUE(common::ct_equal(keys->encryption_key, again->encryption_key));
}

TEST(KeyManager, DistinctDevicesDistinctKeys) {
  puf::SramPufConfig cfg;
  cfg.cells = 1024;
  puf::SramPuf puf_a(cfg, 1), puf_b(cfg, 2);
  KeyManager manager_a(puf_a), manager_b(puf_b);
  crypto::ChaChaDrbg rng_a(crypto::bytes_of("e")), rng_b(crypto::bytes_of("e"));
  manager_a.enroll(rng_a);
  manager_b.enroll(rng_b);
  EXPECT_FALSE(
      common::ct_equal(manager_a.enrolled_root(), manager_b.enrolled_root()));
}

TEST(KeyManager, HelperDataFromOtherDeviceFails) {
  puf::SramPufConfig cfg;
  cfg.cells = 1024;
  puf::SramPuf puf_a(cfg, 1), puf_b(cfg, 2);
  KeyManager manager_a(puf_a), manager_b(puf_b);
  crypto::ChaChaDrbg rng(crypto::bytes_of("e"));
  const auto record_a = manager_a.enroll(rng);
  // Device B trying to reproduce with A's helper data: either a decode
  // failure or a key different from A's.
  const auto stolen = manager_b.derive(record_a);
  if (stolen) {
    EXPECT_FALSE(common::ct_equal(
        stolen->encryption_key, manager_a.derive(record_a)->encryption_key));
  }
}

TEST(CollectResponseBits, WeakPufTooShortThrows) {
  puf::SramPufConfig cfg;
  cfg.cells = 64;
  puf::SramPuf tiny(cfg, 1);
  EXPECT_THROW(collect_response_bits(tiny, 1000), std::invalid_argument);
}

TEST(CollectResponseBits, StrongPufExactCount) {
  puf::PhotonicPuf p(puf::small_photonic_config(), 91, 3);
  const auto bits = collect_response_bits(p, 100);
  EXPECT_EQ(bits.size(), 100u);
}

}  // namespace
}  // namespace neuropuls::core
