// Secure-channel tests: duplex round trips, replay/reorder/tamper
// rejection with poisoning, direction separation, and the rekey ratchet.
#include <gtest/gtest.h>

#include "core/aka_eke.hpp"
#include "core/secure_channel.hpp"
#include "core/session_driver.hpp"

namespace neuropuls::core {
namespace {

common::SecretBytes session_key() {
  // A real session key from an EKE handshake.
  const crypto::Bytes secret = crypto::bytes_of("crp secret");
  auto outcome = run_eke_handshake(secret, secret,
                                   crypto::DhGroup::modp1536(), 1, 5);
  return std::move(outcome.initiator_key);
}

TEST(SecureChannel, DuplexRoundTrip) {
  const auto key = session_key();
  SecureChannel initiator(key.clone(), true);
  SecureChannel responder(key.clone(), false);

  const auto record = initiator.seal(crypto::bytes_of("hello device"));
  const auto opened = responder.open(record);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, crypto::bytes_of("hello device"));

  const auto reply = responder.seal(crypto::bytes_of("hello verifier"));
  const auto opened_reply = initiator.open(reply);
  ASSERT_TRUE(opened_reply.has_value());
  EXPECT_EQ(*opened_reply, crypto::bytes_of("hello verifier"));
}

TEST(SecureChannel, ManyRecordsInOrder) {
  const auto key = session_key();
  SecureChannel a(key.clone(), true), b(key.clone(), false);
  for (int i = 0; i < 100; ++i) {
    crypto::Bytes msg = crypto::bytes_of("record #");
    msg.push_back(static_cast<std::uint8_t>(i));
    const auto opened = b.open(a.seal(msg));
    ASSERT_TRUE(opened.has_value()) << i;
    EXPECT_EQ(*opened, msg);
  }
  EXPECT_EQ(a.records_sent(), 100u);
  EXPECT_EQ(b.records_received(), 100u);
}

TEST(SecureChannel, EmptyPayloadAllowed) {
  const auto key = session_key();
  SecureChannel a(key.clone(), true), b(key.clone(), false);
  const auto opened = b.open(a.seal({}));
  ASSERT_TRUE(opened.has_value());
  EXPECT_TRUE(opened->empty());
}

TEST(SecureChannel, ReplayPoisons) {
  const auto key = session_key();
  SecureChannel a(key.clone(), true), b(key.clone(), false);
  const auto record = a.seal(crypto::bytes_of("once"));
  ASSERT_TRUE(b.open(record).has_value());
  EXPECT_FALSE(b.open(record).has_value());  // replay
  EXPECT_TRUE(b.poisoned());
  // After poisoning, even valid traffic is dead.
  EXPECT_FALSE(b.open(a.seal(crypto::bytes_of("later"))).has_value());
}

TEST(SecureChannel, ReorderRejected) {
  const auto key = session_key();
  SecureChannel a(key.clone(), true), b(key.clone(), false);
  const auto first = a.seal(crypto::bytes_of("1"));
  const auto second = a.seal(crypto::bytes_of("2"));
  EXPECT_FALSE(b.open(second).has_value());  // out of order
  EXPECT_TRUE(b.poisoned());
  (void)first;
}

TEST(SecureChannel, TamperRejected) {
  const auto key = session_key();
  SecureChannel a(key.clone(), true), b(key.clone(), false);
  auto record = a.seal(crypto::bytes_of("important"));
  record[10] ^= 0x01;
  EXPECT_FALSE(b.open(record).has_value());
  EXPECT_TRUE(b.poisoned());
}

TEST(SecureChannel, TruncationRejected) {
  const auto key = session_key();
  SecureChannel a(key.clone(), true), b(key.clone(), false);
  const auto record = a.seal(crypto::bytes_of("x"));
  EXPECT_FALSE(
      b.open(crypto::ByteView(record).first(record.size() - 1)).has_value());
  SecureChannel c(key.clone(), false);
  EXPECT_FALSE(c.open(crypto::Bytes(10, 0)).has_value());
}

TEST(SecureChannel, DirectionsUseIndependentKeys) {
  const auto key = session_key();
  SecureChannel a(key.clone(), true), b(key.clone(), false);
  // Reflecting a's record back at a must fail (it expects the r2i key).
  const auto record = a.seal(crypto::bytes_of("reflect me"));
  EXPECT_FALSE(a.open(record).has_value());
}

TEST(SecureChannel, DistinctSessionKeysDoNotInterop) {
  SecureChannel a(session_key(), true);
  const crypto::Bytes other_secret = crypto::bytes_of("other");
  auto other = run_eke_handshake(other_secret, other_secret,
                                 crypto::DhGroup::modp1536(), 2, 9);
  SecureChannel b(std::move(other.responder_key), false);
  EXPECT_FALSE(b.open(a.seal(crypto::bytes_of("?"))).has_value());
}

TEST(SecureChannel, RekeyRatchetKeepsWorking) {
  SecureChannelConfig config;
  config.rekey_interval = 8;  // ratchet every 8 records
  const auto key = session_key();
  SecureChannel a(key.clone(), true, config), b(key.clone(), false, config);
  for (int i = 0; i < 40; ++i) {
    const auto opened = b.open(a.seal(crypto::bytes_of("r")));
    ASSERT_TRUE(opened.has_value()) << "record " << i;
  }
}

TEST(SecureChannel, RekeyChangesCiphertexts) {
  SecureChannelConfig config;
  config.rekey_interval = 2;
  const auto key = session_key();
  SecureChannel a1(key.clone(), true, config);
  SecureChannel a2(key.clone(), true);  // no ratchet
  // Skip to sequence 2 on both.
  (void)a1.seal({});
  (void)a1.seal({});
  (void)a2.seal({});
  (void)a2.seal({});
  // Same sequence number + same plaintext, but a1 has ratcheted.
  EXPECT_NE(a1.seal(crypto::bytes_of("same")),
            a2.seal(crypto::bytes_of("same")));
}

// Wire-byte known answers from a fixed session key: one record at seq 0
// and the first record after a ratchet step (rekey_interval = 2, seq 2).
// Any change to key derivation, the ratchet, ChaCha20 framing or the CMAC
// tag shows up here as a byte diff.
common::SecretBytes fixed_session_key() {
  crypto::Bytes key(32);
  for (std::size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<std::uint8_t>(i);
  }
  return common::SecretBytes(std::move(key));
}

TEST(SecureChannel, RecordKnownAnswerAtSeqZero) {
  SecureChannel a(fixed_session_key(), true);
  EXPECT_EQ(crypto::to_hex(a.seal(crypto::bytes_of("table I record"))),
            "0000000000000000833d57eb2fcf27030adc7f4bb38f"
            "9d49e51e9e4bfbad339426dde7634d2a");
}

TEST(SecureChannel, RecordKnownAnswerAfterRatchet) {
  SecureChannelConfig config;
  config.rekey_interval = 2;
  SecureChannel a(fixed_session_key(), true, config);
  (void)a.seal({});
  (void)a.seal({});
  EXPECT_EQ(crypto::to_hex(a.seal(crypto::bytes_of("table I record"))),
            "0000000000000002b7a45c4f55cc2858874c2e091df5"
            "347b28115fe5318833d6ceba85421111");
}

TEST(SecureChannel, ConstructionRejectsBadInput) {
  EXPECT_THROW(SecureChannel({}, true), std::invalid_argument);
  SecureChannelConfig config;
  config.rekey_interval = 0;
  EXPECT_THROW(SecureChannel(common::SecretBytes(crypto::Bytes(32, 1)), true,
                             config),
               std::invalid_argument);
}

}  // namespace
}  // namespace neuropuls::core
