// AES and SHA-256 block kernels behind `Aes` and `Sha256`, and the AES
// key schedule, exposed so tests can pin the x86-64 AES-NI and SHA-NI
// bodies against the portable reference on the same inputs. This is not
// a runtime switch: `Aes` and `Sha256` pick their kernels themselves,
// from the one CPUID probe below.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "crypto/bytes.hpp"

namespace neuropuls::crypto::detail {

/// The instruction-set extensions the crypto kernels can use. All false
/// off x86-64.
struct CpuFeatures {
  bool aes_ni = false;    // AESENC/AESENCLAST and SSE4.1
  bool sha_ni = false;    // SHA256RNDS2/MSG1/MSG2 and SSE4.1
  bool bmi2_adx = false;  // MULX, ADCX and ADOX
};

/// The crypto layer's only CPUID probe, run once per process (a
/// function-local static). Every kernel choice reads it.
const CpuFeatures& cpu_features() noexcept;

/// Bytes of an expanded AES-128 schedule: 11 round keys.
inline constexpr std::size_t kAesScheduleBytes = 16 * 11;

/// Expands a 16-byte key into the FIPS 197 AES-128 schedule on the
/// schedule kernel this process picked. Throws std::invalid_argument for
/// any other key length.
void aes_expand_key(ByteView key,
                    std::span<std::uint8_t, kAesScheduleBytes> round_keys);

/// Expands the 16 bytes at `key` into the kAesScheduleBytes at
/// `round_keys`.
using AesExpandKey = void (*)(const std::uint8_t* key,
                              std::uint8_t* round_keys) noexcept;

/// Portable FIPS 197 schedule: SubWord reads the S-box table indexed by
/// key bytes, so it is not constant-time.
void aes_expand_key_portable(const std::uint8_t* key,
                             std::uint8_t* round_keys) noexcept;

/// The AESKEYGENASSIST schedule (no key-indexed memory access), or
/// nullptr when the target is not x86-64 or CPUID reports no AES-NI.
AesExpandKey aes_expand_key_aesni() noexcept;

/// Encrypts `nblocks` contiguous 16-byte blocks in place under an
/// expanded AES-128 schedule (10 rounds).
using AesBlocks = void (*)(const std::uint8_t* round_keys,
                           std::uint8_t* blocks, std::size_t nblocks) noexcept;

/// Portable table-based AES, round-major across the blocks.
void aes_blocks_portable(const std::uint8_t* round_keys, std::uint8_t* blocks,
                         std::size_t nblocks) noexcept;

/// The AES-NI kernel (up to 8 blocks interleaved per round), or nullptr
/// when the target is not x86-64 or CPUID reports no AES-NI.
AesBlocks aes_blocks_aesni() noexcept;

/// dst ^= src over n bytes, a 64-bit word at a time: with AES-NI the CTR
/// keystream, and with batched blocks the ChaCha20 one, cost less than a
/// byte-wise XOR of it would. Shared by both stream ciphers.
inline void xor_keystream(std::uint8_t* dst, const std::uint8_t* src,
                          std::size_t n) noexcept {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t d, s;
    std::memcpy(&d, dst + i, 8);
    std::memcpy(&s, src + i, 8);
    d ^= s;
    std::memcpy(dst + i, &d, 8);
  }
  for (; i < n; ++i) dst[i] ^= src[i];
}

/// Runs `nblocks` consecutive 64-byte blocks through the SHA-256
/// compression function, updating the chaining value `state` (a..h).
using Sha256Blocks = void (*)(std::uint32_t* state, const std::uint8_t* data,
                              std::size_t nblocks) noexcept;

/// Portable FIPS 180-4 compression.
void sha256_blocks_portable(std::uint32_t* state, const std::uint8_t* data,
                            std::size_t nblocks) noexcept;

/// The SHA-NI kernel, or nullptr when the target is not x86-64 or CPUID
/// reports no SHA extensions.
Sha256Blocks sha256_blocks_shani() noexcept;

}  // namespace neuropuls::crypto::detail
