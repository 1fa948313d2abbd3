// HMAC-SHA256 (RFC 2104 / FIPS 198-1) and HKDF (RFC 5869).
//
// The Fig. 4 mutual-authentication protocol signs every message with
// `MAC(data, key)` where the key is the current PUF response r_i; HKDF is
// used by the key-management service to derive independent sub-keys
// (encryption, MAC, session) from a single fuzzy-extractor output.
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

/// HKDF-Extract: PRK = HMAC(salt, ikm).
Bytes hkdf_extract(ByteView salt, ByteView ikm);

/// HKDF-Expand: derives `length` bytes from PRK with context string `info`.
/// Throws std::invalid_argument when length > 255 * 32.
Bytes hkdf_expand(ByteView prk, ByteView info, std::size_t length);

/// Convenience: extract-then-expand.
Bytes hkdf(ByteView salt, ByteView ikm, ByteView info, std::size_t length);

}  // namespace neuropuls::crypto
