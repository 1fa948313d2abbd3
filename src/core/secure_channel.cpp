#include "core/secure_channel.hpp"

#include <algorithm>
#include <stdexcept>
#include <string_view>

#include "crypto/chacha20.hpp"

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

constexpr std::string_view kInitiatorToResponder = "np-sc-i2r";
constexpr std::string_view kResponderToInitiator = "np-sc-r2i";

// The HKDF context keyed on the 32-byte `kdf.expand(label)`: a direction
// key (or its ratchet step), held only as its PRK context.
crypto::Hkdf next_root(const crypto::Hkdf& kdf, std::string_view label) {
  std::array<std::uint8_t, 32> key{};  // ctlint:secret
  kdf.expand(crypto::bytes_of(label), key);
  crypto::Hkdf root(crypto::ByteView{}, key);
  crypto::secure_wipe(key.data(), key.size());
  return root;
}

// The session key, refused before anything is derived from it.
crypto::ByteView checked_session_key(const common::SecretBytes& key) {
  if (key.empty()) {
    throw std::invalid_argument("SecureChannel: empty session key");
  }
  return key.reveal();
}
}  // namespace

SecureChannel::DirectionKeys SecureChannel::make_direction_keys(
    const crypto::Hkdf& root) {
  return DirectionKeys{
      root, common::SecretBytes(root.expand(crypto::bytes_of("enc"), 32)),
      crypto::Cmac(crypto::hkdf_aes128(root, "mac"))};
}

// `session_key` wipes on return (SecretBytes destructor); one extract of
// it serves both directions.
SecureChannel::SecureChannel(common::SecretBytes session_key,
                             bool is_initiator, SecureChannelConfig config)
    : SecureChannel(crypto::Hkdf(crypto::ByteView{},
                                 checked_session_key(session_key)),
                    is_initiator, config) {}

SecureChannel::SecureChannel(const crypto::Hkdf& session, bool is_initiator,
                             SecureChannelConfig config)
    : config_(config),
      send_(make_direction_keys(
          next_root(session, is_initiator ? kInitiatorToResponder
                                          : kResponderToInitiator))),
      recv_(make_direction_keys(
          next_root(session, is_initiator ? kResponderToInitiator
                                          : kInitiatorToResponder))) {
  if (config_.rekey_interval == 0) {
    throw std::invalid_argument("SecureChannel: zero rekey interval");
  }
}

void SecureChannel::maybe_ratchet(DirectionKeys& keys, std::uint64_t seq) {
  if (seq != 0 && seq % config_.rekey_interval == 0) {
    // Assignment overwrites the pre-ratchet keys with the stepped ones
    // (the enc key's move wipes it first) — forward secrecy within the
    // record stream.
    keys = make_direction_keys(next_root(keys.root, "np-sc-ratchet"));
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
