// ChaCha20 stream cipher (RFC 8439) and a ChaCha-based deterministic
// random bit generator.
//
// The edge device modelled by NEUROPULS is resource constrained (§I), and
// ChaCha20 is the standard software-friendly cipher for that class of
// hardware: no tables, no GF(2^8) arithmetic, addition/rotation/XOR only.
// The benches in `bench/bench_crypto` compare it against AES-CTR to back
// the paper's "lightweight" requirement with numbers. The DRBG is used as
// the `RNG(·)` function of the Fig. 4 protocol (challenge derivation
// `c_{i+1} = RNG(r_i)`) and of the attestation random walk of §III-B —
// both sides must derive identical streams from a shared seed, which this
// deterministic construction guarantees. The cipher holds no key: the
// record channel expands each direction's 32-byte ChaCha20 key from that
// direction's `Hkdf` context (crypto/hmac.hpp).
#pragma once

#include <array>
#include <cstdint>

#include "crypto/bytes.hpp"

namespace neuropuls::crypto {

/// Encrypts/decrypts `data` in place with ChaCha20 (RFC 8439: 32-byte
/// key, 12-byte nonce, 32-bit initial counter) — the bulk path
/// `SecureChannel::seal/open` runs records through. Throws
/// std::invalid_argument on any other key or nonce length.
void chacha20_xor_inplace(ByteView key32, ByteView nonce12,
                          std::uint32_t counter, std::span<std::uint8_t> data);

/// Deterministic random generator seeded from arbitrary bytes.
///
/// The seed is pre-whitened with SHA-256 so any entropy source — in
/// particular a raw PUF response — can seed it directly. Output is the
/// ChaCha20 keystream under that derived key, so two parties seeding with
/// the same bytes obtain the same stream (the property both Fig. 4's
/// challenge update and §III-B's memory walk rely on).
class ChaChaDrbg {
 public:
  explicit ChaChaDrbg(ByteView seed);

  /// Produces `n` pseudo-random bytes.
  Bytes generate(std::size_t n);

  /// Fills `out` with pseudo-random bytes. Block-aligned spans bypass the
  /// internal 64-byte staging buffer and run the batched keystream kernel
  /// straight into `out`; the stream position advances exactly as the
  /// byte-at-a-time path would (mixed call patterns stay reproducible).
  void generate_into(std::span<std::uint8_t> out);

  /// Uniform integer in [0, bound) by rejection sampling (no modulo bias).
  /// Throws std::invalid_argument when bound == 0.
  std::uint64_t uniform(std::uint64_t bound);

  /// Raw 64-bit output word.
  std::uint64_t next_u64();

 private:
  void refill() noexcept;

  std::array<std::uint32_t, 8> key_{};
  std::array<std::uint32_t, 3> nonce_{};
  std::uint32_t counter_ = 0;
  std::array<std::uint8_t, 64> block_{};
  std::size_t block_pos_ = 64;  // exhausted; refill on first use
};

}  // namespace neuropuls::crypto
