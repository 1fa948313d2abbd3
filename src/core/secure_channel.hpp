// Authenticated-encryption channel keyed by the EKE session key (§IV:
// the AKA output is "to be used in the secure channel implementation",
// and the session keys it generates serve "for the data encryption").
//
// Framing per record: seq(8, big-endian) || ChaCha20 body || CMAC tag —
// the cipher nonce is derived from the direction-bound sequence number,
// so records are self-describing, replay of any record fails the
// sequence check, reordering fails the MAC (the tag covers the sequence
// number), and the two directions use independent keys (no reflection
// attacks). The body runs through the batched in-place ChaCha20 keystream
// (the paper's lightweight cipher for this device class). ChaCha20 stays
// because the record format pins it: the wire bytes and their known
// answers are ChaCha20's, whatever AES kernel the host runs; AES keeps
// only the CMAC tag role. Rekeying via HKDF ratchet after a configurable
// record count bounds key usage.
#pragma once

#include <cstdint>
#include <optional>

#include "common/secret.hpp"
#include "crypto/aes.hpp"
#include "crypto/bytes.hpp"

namespace neuropuls::core {

struct SecureChannelConfig {
  /// Records per direction before the ratchet steps the keys forward.
  std::uint64_t rekey_interval = 1u << 20;
};

/// One endpoint of the record channel. Construct both ends from the same
/// session key with opposite `is_initiator` flags.
class SecureChannel {
 public:
  /// `session_key` is the 32-byte EKE output, taint-typed: callers hand
  /// over ownership (move, or `.clone()` an EkeParty key). Throws
  /// std::invalid_argument on an empty key.
  SecureChannel(common::SecretBytes session_key, bool is_initiator,
                SecureChannelConfig config = {});

  /// Seals one application record for the peer.
  crypto::Bytes seal(crypto::ByteView plaintext);

  /// Opens a record from the peer. Returns std::nullopt on any failure:
  /// truncation, wrong sequence (replay/reorder/drop), bad tag. The
  /// channel is poisoned after a failure (all later opens fail) — a
  /// tampered stream must not be resynchronisable by the attacker.
  std::optional<crypto::Bytes> open(crypto::ByteView record);

  std::uint64_t records_sent() const noexcept { return send_seq_; }
  std::uint64_t records_received() const noexcept { return recv_seq_; }
  bool poisoned() const noexcept { return poisoned_; }

 private:
  /// Cached per-direction record keys. The enc/mac subkeys are a pure
  /// function of the direction key, so they are derived once here (and
  /// again on each ratchet) instead of re-running HKDF on every record —
  /// the seal/open hot path then runs only ChaCha20 + CMAC.
  struct DirectionKeys {
    common::SecretBytes root;  // the ratcheting direction key
    common::SecretBytes enc;
    crypto::Aes mac;  // the CMAC key, held only as its schedule
  };

  void maybe_ratchet(DirectionKeys& keys, std::uint64_t seq);
  static DirectionKeys make_direction_keys(common::SecretBytes root);
  static common::SecretBytes direction_key(crypto::ByteView session_key,
                                           bool initiator_to_responder);

  SecureChannelConfig config_;
  DirectionKeys send_;
  DirectionKeys recv_;
  std::uint64_t send_seq_ = 0;
  std::uint64_t recv_seq_ = 0;
  bool poisoned_ = false;
};

}  // namespace neuropuls::core
