// SHA-256 (FIPS 180-4).
//
// The attestation protocol of Section III-B chains
// `h_{i+1} = HASH(m_{i+1}, r_{i+1}, h_i)` over a random walk through device
// memory, and the mutual-authentication protocol (Fig. 4) derives MAC keys
// from PUF responses. Both are built on this implementation, which has an
// incremental (init/update/final) interface so memory regions can be
// hashed without copying them into a contiguous buffer.
//
// The compression function runs on one of two kernels, picked once per
// process by the CPUID probe in crypto/block_kernels.hpp (no build
// option, no switch): the SHA-NI instructions on x86-64 CPUs that have
// them, else the portable FIPS 180-4 reference. Both are constant-time:
// neither branches on nor indexes memory by the data or the chaining
// value, and they give identical digests.
#pragma once

#include <array>
#include <cstdint>

#include "crypto/bytes.hpp"

namespace neuropuls::crypto {

/// Incremental SHA-256 context. Typical use:
///   Sha256 h;
///   h.update(chunk1); h.update(chunk2);
///   auto digest = h.finalize();
/// `finalize()` may be called exactly once; the context is then exhausted.
class Sha256 {
 public:
  static constexpr std::size_t kDigestSize = 32;
  static constexpr std::size_t kBlockSize = 64;

  Sha256() noexcept { reset(); }

  /// Restores the initial hash state so the context can be reused.
  void reset() noexcept;

  /// Zeroes the chaining state and the buffered input, for a context
  /// that hashed key material; reset() it before any further use.
  void wipe() noexcept;

  /// Absorbs `data` into the running hash.
  void update(ByteView data) noexcept;

  /// Pads, finishes, and returns the 32-byte digest.
  std::array<std::uint8_t, kDigestSize> finalize() noexcept;

  /// One-shot convenience.
  static std::array<std::uint8_t, kDigestSize> digest(ByteView data) noexcept;

  /// One-shot over scattered parts, equivalent to hashing their
  /// concatenation without splicing a buffer (the CRP snapshot trailer
  /// covers a header and an entry stream built separately).
  static std::array<std::uint8_t, kDigestSize> digest_parts(
      std::initializer_list<ByteView> parts) noexcept;

  /// One-shot convenience returning a heap buffer (protocol-friendly).
  static Bytes hash(ByteView data);

 private:
  /// Runs `nblocks` consecutive 64-byte blocks through the compression
  /// kernel this process picked (crypto/block_kernels.hpp), with the
  /// chaining state held in registers across blocks.
  void process_blocks(const std::uint8_t* data, std::size_t nblocks) noexcept;

  std::array<std::uint32_t, 8> state_{};
  std::array<std::uint8_t, kBlockSize> buffer_{};
  std::size_t buffer_len_ = 0;
  std::uint64_t total_len_ = 0;
};

}  // namespace neuropuls::crypto
