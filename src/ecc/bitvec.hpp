// Unpacked bit vectors for the coding layer.
//
// Error-correction code logic is clearest one bit per element; the
// protocol layers deal in packed bytes. This header provides the bit-level
// type and lossless conversions between the two representations.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "crypto/bytes.hpp"

namespace neuropuls::ecc {

/// One bit per element; values are 0 or 1.
using BitVec = std::vector<std::uint8_t>;

/// Unpacks bytes MSB-first into `bit_count` bits.
/// Throws std::invalid_argument when the buffer holds fewer bits.
inline BitVec unpack_bits(crypto::ByteView bytes, std::size_t bit_count) {
  if (bit_count > bytes.size() * 8) {
    throw std::invalid_argument("unpack_bits: buffer too small");
  }
  BitVec bits(bit_count);
  for (std::size_t i = 0; i < bit_count; ++i) {
    bits[i] = (bytes[i / 8] >> (7 - i % 8)) & 1;
  }
  return bits;
}

/// Unpacks every bit of the buffer.
inline BitVec unpack_bits(crypto::ByteView bytes) {
  return unpack_bits(bytes, bytes.size() * 8);
}

/// Packs bits MSB-first; the final byte is zero-padded.
inline crypto::Bytes pack_bits(const BitVec& bits) {
  crypto::Bytes out((bits.size() + 7) / 8, 0);
  for (std::size_t i = 0; i < bits.size(); ++i) {
    if (bits[i] & 1) out[i / 8] |= static_cast<std::uint8_t>(1u << (7 - i % 8));
  }
  return out;
}

/// XOR of equal-length bit vectors.
inline BitVec xor_bits(const BitVec& a, const BitVec& b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("xor_bits: length mismatch");
  }
  BitVec out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = (a[i] ^ b[i]) & 1;
  return out;
}

}  // namespace neuropuls::ecc
