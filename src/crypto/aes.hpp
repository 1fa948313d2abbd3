// AES-128/192/256 encryption (FIPS 197) with CTR mode and CMAC (NIST SP
// 800-38B).
//
// Table I of the paper specifies that the neural-network configuration,
// inputs, and outputs cross the hardware boundary only in encrypted form.
// The accelerator model (`src/accel`) uses AES-CTR for that bulk
// encryption and CMAC as an authentication option.
//
// Encrypt-only: CTR, CMAC and the EKE password cipher never run the
// inverse cipher, so there is none. An `Aes` is the only holder of its
// key material — the raw key is expanded into the schedule at
// construction and the destructor wipes the schedule, so callers keep an
// `Aes` rather than key bytes.
//
// Two kernels do the block encryption, picked once per process by the
// CPUID probe in crypto/block_kernels.hpp (no build option, no switch):
//  - AES-NI on x86-64 CPUs that have it, up to 8 blocks interleaved per
//    round. Each round is one instruction with no data-dependent memory
//    access, so this path is constant-time.
//  - Elsewhere, the portable reference: SubBytes reads a compile-time
//    generated 256-entry S-box indexed by secret state, so it is NOT
//    constant-time (a cache-timing channel), and MixColumns works on
//    bytes. Making it constant-time with a bitsliced S-box is ROADMAP
//    item 1 step 3, still open.
// Both read the same FIPS 197 schedule and give identical bytes.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "crypto/bytes.hpp"

namespace neuropuls::crypto {

/// An AES block cipher keyed at construction. Supports 128/192/256-bit keys.
class Aes {
 public:
  static constexpr std::size_t kBlockSize = 16;

  /// Throws std::invalid_argument unless key is 16, 24, or 32 bytes.
  explicit Aes(ByteView key);

  /// Every copy owns, and on destruction wipes, its own key schedule.
  Aes(const Aes&) = default;
  Aes& operator=(const Aes&) = default;
  ~Aes();

  /// Encrypts one 16-byte block in place.
  void encrypt_block(std::span<std::uint8_t, kBlockSize> block) const noexcept;

  /// Encrypts `nblocks` contiguous 16-byte blocks in place, each round
  /// run across every block before the next starts, so the independent
  /// block pipelines interleave (CTR keystream generation is exactly this
  /// shape). Bit-identical to nblocks encrypt_block calls.
  void encrypt_blocks(std::uint8_t* blocks, std::size_t nblocks) const noexcept;

 private:
  // Up to 15 round keys of 16 bytes each (AES-256).
  std::array<std::uint8_t, 16 * 15> round_keys_{};
  std::size_t rounds_ = 0;
};

/// AES-CTR stream transform. Encryption and decryption are the same
/// operation. `nonce` is the initial 16-byte counter block; the low 32 bits
/// are incremented big-endian per block (NIST SP 800-38A style).
Bytes aes_ctr(const Aes& cipher, ByteView nonce16, ByteView data);

/// CMAC (OMAC1) over `data` under `cipher`'s key. Returns a 16-byte tag.
Bytes aes_cmac(const Aes& cipher, ByteView data);

/// The AES-128 schedule for HKDF-SHA256(empty salt, `ikm`, `info`) — how
/// every AES key in the stack is derived. The 16-byte derived key is wiped
/// once expanded, so the returned schedule is its only holder.
Aes hkdf_aes128(ByteView ikm, std::string_view info);

/// The AES S-box lookup (exposed for the side-channel analyses, which
/// model first-round S-box leakage).
std::uint8_t aes_sbox(std::uint8_t x) noexcept;

/// Authenticated encryption used at the accelerator hardware boundary:
/// Encrypt-then-MAC with independent keys derived from `key` via HKDF.
/// Frame layout: nonce(16) || ciphertext || tag(16).
Bytes aes_ctr_then_mac_seal(ByteView key, ByteView nonce16, ByteView plaintext);

/// Opens a frame produced by aes_ctr_then_mac_seal. Throws
/// std::runtime_error on authentication failure or malformed frame.
Bytes aes_ctr_then_mac_open(ByteView key, ByteView frame);

}  // namespace neuropuls::crypto
