// EKE-based Authentication and Key Agreement (§IV).
//
// "One approach is to see the CRP as a low-entropy shared secret. With
// this, we can consider the use of the well-established and secure EKE
// protocol to achieve both mutual authentication and key exchange ...
// This approach protects against most possible attacks to the CRP while
// providing perfect forward security ... Note that this approach is
// computationally more expensive."
//
// Bellovin–Merritt EKE over an RFC 3526 MODP group: each side's ephemeral
// DH public value crosses the wire encrypted under a key derived from the
// shared PUF response w, so an eavesdropper cannot mount an offline
// dictionary attack on w, and the session key K = KDF(g^xy, transcript)
// is independent of w after the fact (forward secrecy: leaking w later
// does not expose past session keys). Key confirmation MACs authenticate
// both parties. `bench/bench_aka_eke` quantifies the "computationally
// more expensive" claim against the HSC-IoT session.
#pragma once

#include <cstdint>
#include <optional>

#include "common/secret.hpp"
#include "crypto/aes.hpp"
#include "crypto/bytes.hpp"
#include "crypto/chacha20.hpp"
#include "crypto/dh.hpp"
#include "net/message.hpp"

namespace neuropuls::core {

/// One side of the EKE handshake. The initiator is the Verifier, the
/// responder the Device; both are constructed from the same low-entropy
/// secret (the current CRP response).
class EkeParty {
 public:
  /// `secret` is the shared low-entropy password (the CRP response);
  /// `rng` supplies ephemeral randomness. Throws std::invalid_argument on
  /// an empty secret.
  EkeParty(crypto::Bytes secret, const crypto::DhGroup& group,
           crypto::ChaChaDrbg rng);

  /// Initiator step 1: produce the client hello for `session_id`.
  net::Message initiate(std::uint64_t session_id);

  /// Responder step: consume the client hello, produce the server hello
  /// (which carries the responder's key-confirmation MAC).
  std::optional<net::Message> respond(const net::Message& client_hello);

  /// Initiator step 2: consume the server hello, produce the client
  /// confirmation. Session key becomes available on success.
  std::optional<net::Message> confirm(const net::Message& server_hello);

  /// Responder step 2: verify the client confirmation.
  bool finalize(const net::Message& client_confirm);

  /// The agreed session key (empty until the handshake completes). The
  /// taint type makes accidental `==` or implicit copies compile errors;
  /// callers clone() it into the secure channel.
  const common::SecretBytes& session_key() const noexcept {
    return session_key_;
  }

 private:
  crypto::Bytes encrypt_public(const crypto::BigUint& value,
                               crypto::ByteView nonce) const;
  crypto::BigUint decrypt_public(crypto::ByteView nonce,
                                 crypto::ByteView ciphertext) const;
  void derive_session_key(const crypto::Bytes& shared);

  /// AES keyed with HKDF(secret, "np-eke-pw"), expanded once at
  /// construction: the party's only copy of the password (CRP response),
  /// whose by-value argument is wiped once this schedule exists.
  crypto::Aes pw_cipher_;
  const crypto::DhGroup& group_;
  crypto::ChaChaDrbg rng_;
  /// This side's DH key pair. The secret exponent is wiped as soon as
  /// dh_shared_secret has used it; zero means "consumed".
  crypto::DhKeyPair ephemeral_;
  crypto::Bytes transcript_;
  common::SecretBytes session_key_;
  std::uint64_t session_id_ = 0;
};

}  // namespace neuropuls::core
