// AES and SHA-256 block kernels behind `Aes` and `Sha256`, exposed so
// tests can pin the x86-64 AES-NI and SHA-NI bodies against the portable
// reference on the same inputs. This is not a runtime switch: `Aes` and
// `Sha256` pick their kernel themselves, from the one CPUID probe below.
#pragma once

#include <cstddef>
#include <cstdint>

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

/// Expands a 16-byte key into the FIPS 197 AES-128 schedule. Throws
/// std::invalid_argument for any other key length.
void aes_expand_key(ByteView key,
                    std::span<std::uint8_t, kAesScheduleBytes> round_keys);

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
