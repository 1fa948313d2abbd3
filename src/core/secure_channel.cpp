#include "core/secure_channel.hpp"

#include <algorithm>
#include <stdexcept>

#include "crypto/chacha20.hpp"
#include "crypto/hmac.hpp"

namespace neuropuls::core {

namespace {
constexpr std::size_t kSeqLen = 8;
constexpr std::size_t kTagLen = crypto::Cmac::kTagSize;

// 12-byte ChaCha20 nonce: the direction-bound sequence number big-endian,
// zero-padded. Sequence uniqueness per direction key is the rekey
// interval's job.
std::array<std::uint8_t, 12> nonce_for(std::uint64_t sequence) {
  std::array<std::uint8_t, 12> nonce{};
  crypto::put_u64_be(std::span<std::uint8_t>(nonce.data(), 8), sequence);
  return nonce;
}
}  // namespace

common::SecretBytes SecureChannel::direction_key(
    crypto::ByteView session_key, bool initiator_to_responder) {
  return common::SecretBytes(crypto::hkdf(
      crypto::ByteView{}, session_key,
      initiator_to_responder ? crypto::bytes_of("np-sc-i2r")
                             : crypto::bytes_of("np-sc-r2i"),
      32));
}

SecureChannel::DirectionKeys SecureChannel::make_direction_keys(
    common::SecretBytes root) {
  DirectionKeys keys{{},
                     common::SecretBytes(crypto::hkdf(
                         crypto::ByteView{}, root.reveal(),
                         crypto::bytes_of("enc"), 32)),
                     crypto::Cmac(crypto::hkdf_aes128(root.reveal(), "mac"))};
  keys.root = std::move(root);
  return keys;
}

SecureChannel::SecureChannel(common::SecretBytes session_key,
                             bool is_initiator, SecureChannelConfig config)
    : config_(config),
      send_(make_direction_keys(
          direction_key(session_key.reveal(), is_initiator))),
      recv_(make_direction_keys(
          direction_key(session_key.reveal(), !is_initiator))) {
  // Checked after the keys exist (HKDF accepts any key length); a throw
  // here still wipes them as the members unwind, and `session_key` wipes
  // on scope exit (SecretBytes destructor).
  if (session_key.empty()) {
    throw std::invalid_argument("SecureChannel: empty session key");
  }
  if (config_.rekey_interval == 0) {
    throw std::invalid_argument("SecureChannel: zero rekey interval");
  }
}

void SecureChannel::maybe_ratchet(DirectionKeys& keys, std::uint64_t seq) {
  if (seq != 0 && seq % config_.rekey_interval == 0) {
    // Move-assignment wipes the pre-ratchet keys before installing the
    // stepped ones — forward secrecy within the record stream.
    keys = make_direction_keys(common::SecretBytes(crypto::hkdf(
        crypto::ByteView{}, keys.root.reveal(),
        crypto::bytes_of("np-sc-ratchet"), 32)));
  }
}

crypto::Bytes SecureChannel::seal(crypto::ByteView plaintext) {
  maybe_ratchet(send_, send_seq_);
  const std::uint64_t seq = send_seq_++;

  // One buffer for the whole record: seq, then the body encrypted in
  // place, then the tag over both.
  const std::size_t signed_len = kSeqLen + plaintext.size();
  crypto::Bytes record(signed_len + kTagLen);
  crypto::put_u64_be(record, seq);
  std::copy(plaintext.begin(), plaintext.end(), record.begin() + kSeqLen);
  const auto nonce = nonce_for(seq);
  crypto::chacha20_xor_inplace(
      send_.enc.reveal(), nonce, 0,
      std::span<std::uint8_t>(record.data() + kSeqLen, plaintext.size()));
  send_.mac.tag(crypto::ByteView(record).first(signed_len),
                std::span<std::uint8_t, kTagLen>(record.data() + signed_len,
                                                 kTagLen));
  return record;
}

std::optional<crypto::Bytes> SecureChannel::open(crypto::ByteView record) {
  if (poisoned_) return std::nullopt;
  if (record.size() < kSeqLen + kTagLen) {
    poisoned_ = true;
    return std::nullopt;
  }
  const std::uint64_t seq = crypto::get_u64_be(record.first(kSeqLen));

  maybe_ratchet(recv_, recv_seq_);
  if (seq != recv_seq_) {  // replay, reorder, or drop
    poisoned_ = true;
    return std::nullopt;
  }

  const crypto::ByteView signed_part = record.first(record.size() - kTagLen);
  const crypto::ByteView tag = record.subspan(record.size() - kTagLen);
  std::array<std::uint8_t, kTagLen> expected{};
  recv_.mac.tag(signed_part, expected);
  if (!crypto::ct_equal(tag, expected)) {
    poisoned_ = true;
    return std::nullopt;
  }

  ++recv_seq_;
  const crypto::ByteView body = signed_part.subspan(kSeqLen);
  crypto::Bytes plain(body.begin(), body.end());
  const auto nonce = nonce_for(seq);
  crypto::chacha20_xor_inplace(recv_.enc.reveal(), nonce, 0, plain);
  return plain;
}

}  // namespace neuropuls::core
