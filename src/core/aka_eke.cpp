#include "core/aka_eke.hpp"

#include <stdexcept>
#include <string_view>

#include "crypto/aes.hpp"
#include "crypto/hmac.hpp"

namespace neuropuls::core {

namespace {
constexpr std::size_t kNonceLen = 16;
constexpr std::size_t kMacLen = 32;

// Key confirmation: HMAC(session key, label || transcript).
crypto::Bytes confirm_mac(crypto::ByteView session_key, std::string_view label,
                          crypto::ByteView transcript) {
  return crypto::hmac_sha256_parts(
      session_key,
      {crypto::ByteView(reinterpret_cast<const std::uint8_t*>(label.data()),
                        label.size()),
       transcript});
}

// The password cipher, keyed before the password is wiped on return; an
// empty password is refused before anything is derived from it.
crypto::Aes password_cipher(crypto::Bytes secret) {
  const common::SecretBytes password(std::move(secret));
  if (password.empty()) {
    throw std::invalid_argument("EkeParty: empty shared secret");
  }
  return crypto::hkdf_aes128(
      crypto::Hkdf(crypto::ByteView{}, password.reveal()), "np-eke-pw");
}
}  // namespace

EkeParty::EkeParty(crypto::Bytes secret, const crypto::DhGroup& group,
                   crypto::ChaChaDrbg rng)
    : pw_cipher_(password_cipher(std::move(secret))),
      group_(group),
      rng_(std::move(rng)) {}

crypto::Bytes EkeParty::encrypt_public(const crypto::BigUint& value,
                                       crypto::ByteView nonce) const {
  return crypto::aes_ctr(pw_cipher_, nonce,
                         value.to_bytes_be(group_.prime_bytes));
}

crypto::BigUint EkeParty::decrypt_public(crypto::ByteView nonce,
                                         crypto::ByteView ciphertext) const {
  const crypto::Bytes plain = crypto::aes_ctr(pw_cipher_, nonce, ciphertext);
  return crypto::BigUint::from_bytes_be(plain);
}

void EkeParty::derive_session_key(const crypto::Bytes& shared) {
  session_key_ = common::SecretBytes(
      crypto::Hkdf(transcript_, shared)
          .expand(crypto::bytes_of("np-eke-session"), 32));
}

net::Message EkeParty::initiate(std::uint64_t session_id) {
  session_id_ = session_id;
  ephemeral_.secret.wipe();  // an unconsumed exponent from a lost attempt
  ephemeral_ = crypto::dh_generate(group_, rng_);

  crypto::Bytes payload = rng_.generate(kNonceLen);
  const crypto::Bytes enc =
      encrypt_public(ephemeral_.public_value,
                     crypto::ByteView(payload).first(kNonceLen));
  payload.insert(payload.end(), enc.begin(), enc.end());

  transcript_ = payload;
  return net::Message{net::MessageType::kEkeClientHello, session_id,
                      std::move(payload)};
}

std::optional<net::Message> EkeParty::respond(
    const net::Message& client_hello) {
  if (client_hello.type != net::MessageType::kEkeClientHello ||
      client_hello.payload.size() != kNonceLen + group_.prime_bytes) {
    return std::nullopt;
  }
  session_id_ = client_hello.session_id;
  const crypto::ByteView payload(client_hello.payload);
  const crypto::BigUint peer = decrypt_public(
      payload.first(kNonceLen), payload.subspan(kNonceLen));
  if (!crypto::dh_public_is_valid(group_, peer)) {
    // A wrong password decrypts to a random group element, which is
    // almost always valid — rejection happens at key confirmation. This
    // check only filters degenerate values.
    return std::nullopt;
  }

  ephemeral_ = crypto::dh_generate(group_, rng_);
  crypto::Bytes shared;  // ctlint:secret g^xy — wiped after the KDF below
  try {
    shared = crypto::dh_shared_secret(group_, ephemeral_.secret, peer);
  } catch (const std::runtime_error&) {
    ephemeral_.secret.wipe();
    return std::nullopt;
  }
  // Forward secrecy: y must not outlive the one exponentiation that needs
  // it, or a later memory read recovers g^xy.
  ephemeral_.secret.wipe();

  crypto::Bytes payload_out = rng_.generate(kNonceLen);
  const crypto::Bytes enc =
      encrypt_public(ephemeral_.public_value,
                     crypto::ByteView(payload_out).first(kNonceLen));
  payload_out.insert(payload_out.end(), enc.begin(), enc.end());

  // Transcript: client hello || server hello (before the MAC).
  transcript_ = client_hello.payload;
  transcript_.insert(transcript_.end(), payload_out.begin(),
                     payload_out.end());
  derive_session_key(shared);
  crypto::secure_wipe(shared);

  // Responder key confirmation.
  const crypto::Bytes mac =
      confirm_mac(session_key_.reveal(), "np-eke-server", transcript_);
  payload_out.insert(payload_out.end(), mac.begin(), mac.end());

  return net::Message{net::MessageType::kEkeServerHello, session_id_,
                      std::move(payload_out)};
}

std::optional<net::Message> EkeParty::confirm(
    const net::Message& server_hello) {
  if (server_hello.type != net::MessageType::kEkeServerHello ||
      server_hello.payload.size() !=
          kNonceLen + group_.prime_bytes + kMacLen ||
      server_hello.session_id != session_id_) {
    return std::nullopt;
  }
  // The exponent is consumed by the first confirm() that reaches the DH
  // step; a replayed ServerHello must not touch the established key.
  if (ephemeral_.secret.is_zero()) return std::nullopt;
  const crypto::ByteView payload(server_hello.payload);
  const crypto::ByteView hello =
      payload.first(kNonceLen + group_.prime_bytes);
  const crypto::ByteView mac = payload.subspan(hello.size());

  const crypto::BigUint peer =
      decrypt_public(hello.first(kNonceLen), hello.subspan(kNonceLen));
  if (!crypto::dh_public_is_valid(group_, peer)) return std::nullopt;

  crypto::Bytes shared;  // ctlint:secret g^xy — wiped after the KDF below
  try {
    shared = crypto::dh_shared_secret(group_, ephemeral_.secret, peer);
  } catch (const std::runtime_error&) {
    ephemeral_.secret.wipe();
    return std::nullopt;
  }
  ephemeral_.secret.wipe();

  transcript_.insert(transcript_.end(), hello.begin(), hello.end());
  derive_session_key(shared);
  crypto::secure_wipe(shared);

  const crypto::Bytes expected =
      confirm_mac(session_key_.reveal(), "np-eke-server", transcript_);
  if (!crypto::ct_equal(mac, expected)) {
    session_key_.wipe();
    return std::nullopt;
  }

  const crypto::Bytes client_mac =
      confirm_mac(session_key_.reveal(), "np-eke-client", transcript_);
  return net::Message{net::MessageType::kEkeClientConfirm, session_id_,
                      client_mac};
}

bool EkeParty::finalize(const net::Message& client_confirm) {
  // Exact-length check before any HMAC work: a flooded responder must not
  // spend a keyed hash on a frame that cannot possibly verify.
  if (client_confirm.type != net::MessageType::kEkeClientConfirm ||
      client_confirm.session_id != session_id_ || session_key_.empty() ||
      client_confirm.payload.size() != kMacLen) {
    return false;
  }
  const crypto::Bytes expected =
      confirm_mac(session_key_.reveal(), "np-eke-client", transcript_);
  if (!crypto::ct_equal(client_confirm.payload, expected)) {
    session_key_.wipe();
    return false;
  }
  return true;
}

}  // namespace neuropuls::core
