// HMAC-SHA256 (RFC 2104 / FIPS 198-1) and HKDF (RFC 5869).
//
// The Fig. 4 mutual-authentication protocol signs every message with
// `MAC(data, key)` where the key is the current PUF response r_i. Every
// sub-key in the stack comes from one `Hkdf` context per secret: the
// fuzzy-extracted root's Table I, MAC and binding keys, the EKE password
// cipher and session key, the channel's direction keys and the
// accelerator's Encrypt-then-MAC keys. The context runs Extract once and
// holds the PRK only as a keyed HMAC, so each label costs one Expand.
#pragma once

#include "crypto/bytes.hpp"
#include "crypto/sha256.hpp"

namespace neuropuls::crypto {

/// Computes HMAC-SHA256(key, data). Any key length is accepted; keys longer
/// than the block size are hashed first per the RFC.
Bytes hmac_sha256(ByteView key, ByteView data);

/// HMAC-SHA256 over scattered parts, equal to hmac_sha256 of their
/// concatenation without splicing a buffer (a label and a transcript).
Bytes hmac_sha256_parts(ByteView key, std::initializer_list<ByteView> parts);

/// Incremental HMAC for multi-part messages (mirrors Sha256's interface).
/// It holds the key as the ipad midstate and the opad block (for auth,
/// that key is the PUF response r_i); the destructor wipes both.
class HmacSha256 {
 public:
  explicit HmacSha256(ByteView key);
  HmacSha256(const HmacSha256&) = default;
  HmacSha256& operator=(const HmacSha256&) = default;
  ~HmacSha256();

  void update(ByteView data) noexcept { inner_.update(data); }
  Bytes finalize();

 private:
  Sha256 inner_;  // the ipad midstate
  std::array<std::uint8_t, Sha256::kBlockSize> opad_key_{};
};

/// HKDF-SHA256 keyed on one secret. The constructor runs
/// PRK = HKDF-Extract(salt, ikm) once (an empty salt is RFC 5869's
/// hash-length string of zeros) and keeps the PRK only as a keyed
/// HmacSha256; the PRK bytes are wiped. Each expand then starts every
/// T(n) from a copy of that context, so deriving many labels from one
/// secret extracts once.
class Hkdf {
 public:
  static constexpr std::size_t kMaxOutput = 255 * Sha256::kDigestSize;

  Hkdf(ByteView salt, ByteView ikm);

  /// HKDF-Expand(PRK, info) into `out`. Throws std::invalid_argument
  /// when out is longer than kMaxOutput.
  void expand(ByteView info, std::span<std::uint8_t> out) const;

  /// The same, into a new buffer of `length` bytes.
  Bytes expand(ByteView info, std::size_t length) const {
    Bytes okm(length);
    expand(info, okm);
    return okm;
  }

 private:
  HmacSha256 prk_;
};

}  // namespace neuropuls::crypto
