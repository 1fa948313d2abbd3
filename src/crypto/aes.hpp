// AES-128 encryption (FIPS 197) with CTR mode and CMAC (NIST SP 800-38B).
// Every AES key in the stack is a 16-byte expand of an `Hkdf` context
// (hkdf_aes128), so there is one key schedule and one round count; 24-
// and 32-byte keys are refused.
//
// Table I of the paper specifies that the neural-network configuration,
// inputs, and outputs cross the hardware boundary only in encrypted form.
// The accelerator model (`src/accel`) seals them with `CtrThenMac`:
// AES-CTR for the bulk encryption, then CMAC over nonce and ciphertext.
//
// Encrypt-only: CTR, CMAC and the EKE password cipher never run the
// inverse cipher, so there is none. Keys live only inside keyed
// contexts, each built once per key and wiped by its destructor: an
// `Aes` holds its schedule (the raw key is expanded at construction), a
// `Cmac` an `Aes` plus its two subkeys, and a `CtrThenMac` both derived
// keys. Callers keep a context rather than key bytes, and a caller that
// uses one key for many messages keeps one context for all of them.
//
// Two kernels do the key schedule and the block encryption, picked once
// per process by the CPUID probe in crypto/block_kernels.hpp (no build
// option, no switch):
//  - AES-NI on x86-64 CPUs that have it: AESKEYGENASSIST for the
//    schedule, and up to 8 blocks interleaved per round. Each step is
//    one instruction with no data-dependent memory access, so this path
//    is constant-time, the schedule included.
//  - Elsewhere, the portable reference: SubBytes and the schedule's
//    SubWord read a compile-time generated 256-entry S-box indexed by
//    secret state, so it is NOT constant-time (a cache-timing channel),
//    and MixColumns works on bytes. Making it constant-time with a
//    bitsliced S-box is ROADMAP item 1 step 2, still open.
// Both give the same FIPS 197 schedule and identical bytes.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "crypto/bytes.hpp"

namespace neuropuls::crypto {

/// An AES-128 block cipher keyed at construction.
class Aes {
 public:
  static constexpr std::size_t kBlockSize = 16;

  /// Throws std::invalid_argument unless key is 16 bytes.
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
  // 11 round keys of 16 bytes each.
  std::array<std::uint8_t, 16 * 11> round_keys_{};
};

/// AES-CTR stream transform. Encryption and decryption are the same
/// operation. `nonce` is the initial 16-byte counter block; the low 32 bits
/// are incremented big-endian per block (NIST SP 800-38A style).
Bytes aes_ctr(const Aes& cipher, ByteView nonce16, ByteView data);

/// CMAC (RFC 4493, NIST SP 800-38B) under one AES-128 key, with the
/// subkeys k1 and k2 computed once at construction. Like `Aes`, every
/// copy owns its key material; the destructor wipes the subkeys and the
/// member `Aes` its schedule.
class Cmac {
 public:
  static constexpr std::size_t kTagSize = 16;

  explicit Cmac(const Aes& cipher);
  Cmac(const Cmac&) = default;
  Cmac& operator=(const Cmac&) = default;
  ~Cmac();

  /// Writes the 16-byte tag over `data` to `out`.
  void tag(ByteView data, std::span<std::uint8_t, kTagSize> out) const noexcept;

 private:
  Aes cipher_;
  std::array<std::uint8_t, 16> k1_{};
  std::array<std::uint8_t, 16> k2_{};
};

class Hkdf;

/// The AES-128 schedule for the 16-byte `kdf.expand(info)` — how every AES
/// key in the stack is derived. The derived key is wiped once expanded,
/// so the returned schedule is its only holder.
Aes hkdf_aes128(const Hkdf& kdf, std::string_view info);

/// The AES S-box lookup (exposed for the side-channel analyses, which
/// model first-round S-box leakage).
std::uint8_t aes_sbox(std::uint8_t x) noexcept;

/// Authenticated encryption used at the accelerator hardware boundary:
/// Encrypt-then-MAC with independent keys expanded from one Hkdf(key)
/// context, "np-enc" for AES-CTR and "np-mac" for CMAC. Frame layout:
/// nonce(16) || ciphertext || tag(16).
///
/// The context derives both keys once, at construction, from one
/// extract. It holds the key only as the CTR schedule and the Cmac.
class CtrThenMac {
 public:
  static constexpr std::size_t kNonceSize = 16;

  explicit CtrThenMac(ByteView key);

  /// Seals `plaintext` under the 16-byte initial counter block `nonce16`.
  /// Throws std::invalid_argument on any other nonce length.
  Bytes seal(ByteView nonce16, ByteView plaintext) const;

  /// Opens a sealed frame. Throws std::runtime_error on authentication
  /// failure or a frame shorter than nonce and tag; nothing is decrypted
  /// before the tag verifies.
  Bytes open(ByteView frame) const;

 private:
  explicit CtrThenMac(const Hkdf& kdf);

  Aes enc_;
  Cmac mac_;
};

}  // namespace neuropuls::crypto
