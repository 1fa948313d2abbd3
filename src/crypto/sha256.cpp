#include "crypto/sha256.hpp"

#include <bit>
#include <cstring>

#include "crypto/block_kernels.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace neuropuls::crypto {

namespace {

alignas(16) constexpr std::array<std::uint32_t, 64> kRoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline std::uint32_t rotr(std::uint32_t x, int n) noexcept {
  return std::rotr(x, n);
}

inline std::uint32_t big_sigma0(std::uint32_t x) noexcept {
  return rotr(x, 2) ^ rotr(x, 13) ^ rotr(x, 22);
}
inline std::uint32_t big_sigma1(std::uint32_t x) noexcept {
  return rotr(x, 6) ^ rotr(x, 11) ^ rotr(x, 25);
}
inline std::uint32_t small_sigma0(std::uint32_t x) noexcept {
  return rotr(x, 7) ^ rotr(x, 18) ^ (x >> 3);
}
inline std::uint32_t small_sigma1(std::uint32_t x) noexcept {
  return rotr(x, 17) ^ rotr(x, 19) ^ (x >> 10);
}
inline std::uint32_t ch(std::uint32_t x, std::uint32_t y,
                        std::uint32_t z) noexcept {
  return (x & y) ^ (~x & z);
}
inline std::uint32_t maj(std::uint32_t x, std::uint32_t y,
                         std::uint32_t z) noexcept {
  return (x & y) ^ (x & z) ^ (y & z);
}

#if defined(__x86_64__)

// SHA-NI keeps the chaining value as two vectors, ABEF and CDGH (lane 3
// first). The kernel converts from and to state[0..7] = a..h itself, and
// each 4-word group of the schedule costs one MSG1, one ALIGNR and one
// MSG2. The four live schedule vectors rotate through `m`.
__attribute__((target("sha,sse4.1"))) void sha256_blocks_shani_body(
    std::uint32_t* state, const std::uint8_t* data,
    std::size_t nblocks) noexcept {
  const __m128i byte_swap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  const auto* k = reinterpret_cast<const __m128i*>(kRoundConstants.data());

  const __m128i dcba = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0xB1);
  const __m128i hgfe = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4)), 0x1B);
  __m128i abef = _mm_alignr_epi8(dcba, hgfe, 8);
  __m128i cdgh = _mm_blend_epi16(hgfe, dcba, 0xF0);

  for (; nblocks > 0; --nblocks, data += Sha256::kBlockSize) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    const auto* in = reinterpret_cast<const __m128i*>(data);
    __m128i m[4];
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      __m128i& w = m[g % 4];
      if (g < 4) {
        w = _mm_shuffle_epi8(_mm_loadu_si128(in + g), byte_swap);
      } else {
        // W[t-16] + s0(W[t-15]), + W[t-7], + s1(W[t-2]).
        const __m128i prev = m[(g + 3) % 4];
        w = _mm_sha256msg1_epu32(w, m[(g + 1) % 4]);
        w = _mm_add_epi32(w, _mm_alignr_epi8(prev, m[(g + 2) % 4], 4));
        w = _mm_sha256msg2_epu32(w, prev);
      }
      __m128i wk = _mm_add_epi32(w, _mm_load_si128(k + g));
      // Two rounds each; RNDS2 returns the new ABEF and the old ABEF is
      // the new CDGH, so the two vectors trade roles and trade back.
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      wk = _mm_shuffle_epi32(wk, 0x0E);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, wk);
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(dchg, feba, 8));
}

#endif  // __x86_64__

}  // namespace

namespace detail {

void sha256_blocks_portable(std::uint32_t* state, const std::uint8_t* data,
                            std::size_t nblocks) noexcept {
  // Chaining state lives in locals for the whole run; blocks feed forward
  // through s0..s7 without touching `state` until the end.
  std::uint32_t s0 = state[0], s1 = state[1], s2 = state[2], s3 = state[3];
  std::uint32_t s4 = state[4], s5 = state[5], s6 = state[6], s7 = state[7];

  for (std::size_t blk = 0; blk < nblocks; ++blk) {
    const std::uint8_t* block = data + blk * Sha256::kBlockSize;
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<std::uint32_t>(block[4 * i]) << 24) |
             (static_cast<std::uint32_t>(block[4 * i + 1]) << 16) |
             (static_cast<std::uint32_t>(block[4 * i + 2]) << 8) |
             static_cast<std::uint32_t>(block[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      w[i] = small_sigma1(w[i - 2]) + w[i - 7] + small_sigma0(w[i - 15]) +
             w[i - 16];
    }

    std::uint32_t a = s0, b = s1, c = s2, d = s3;
    std::uint32_t e = s4, f = s5, g = s6, h = s7;

    for (int i = 0; i < 64; ++i) {
      const std::uint32_t t1 =
          h + big_sigma1(e) + ch(e, f, g) + kRoundConstants[static_cast<std::size_t>(i)] + w[i];
      const std::uint32_t t2 = big_sigma0(a) + maj(a, b, c);
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }

    s0 += a;
    s1 += b;
    s2 += c;
    s3 += d;
    s4 += e;
    s5 += f;
    s6 += g;
    s7 += h;
  }

  state[0] = s0, state[1] = s1, state[2] = s2, state[3] = s3;
  state[4] = s4, state[5] = s5, state[6] = s6, state[7] = s7;
}

Sha256Blocks sha256_blocks_shani() noexcept {
#if defined(__x86_64__)
  if (cpu_features().sha_ni) return &sha256_blocks_shani_body;
#endif
  return nullptr;
}

}  // namespace detail

void Sha256::reset() noexcept {
  state_ = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  buffer_len_ = 0;
  total_len_ = 0;
}

void Sha256::wipe() noexcept {
  secure_wipe(state_.data(), sizeof(state_));
  secure_wipe(buffer_.data(), buffer_.size());
  buffer_len_ = 0;
  total_len_ = 0;
}

void Sha256::process_blocks(const std::uint8_t* data,
                            std::size_t nblocks) noexcept {
  // SHA-NI where the CPUID probe found it, else the portable reference.
  const detail::Sha256Blocks hardware = detail::sha256_blocks_shani();
  (hardware != nullptr ? hardware : &detail::sha256_blocks_portable)(
      state_.data(), data, nblocks);
}

void Sha256::update(ByteView data) noexcept {
  // An empty span may carry a null data() pointer, which memcpy must
  // never receive even with a zero length.
  if (data.empty()) return;
  total_len_ += data.size();
  std::size_t offset = 0;

  if (buffer_len_ > 0) {
    const std::size_t need = kBlockSize - buffer_len_;
    const std::size_t take = data.size() < need ? data.size() : need;
    std::memcpy(buffer_.data() + buffer_len_, data.data(), take);
    buffer_len_ += take;
    offset += take;
    if (buffer_len_ == kBlockSize) {
      process_blocks(buffer_.data(), 1);
      buffer_len_ = 0;
    }
  }

  const std::size_t whole = (data.size() - offset) / kBlockSize;
  if (whole > 0) {
    process_blocks(data.data() + offset, whole);
    offset += whole * kBlockSize;
  }

  if (offset < data.size()) {
    buffer_len_ = data.size() - offset;
    std::memcpy(buffer_.data(), data.data() + offset, buffer_len_);
  }
}

std::array<std::uint8_t, Sha256::kDigestSize> Sha256::finalize() noexcept {
  const std::uint64_t bit_len = total_len_ * 8;

  // Append 0x80 then zero-pad to 56 mod 64, then the 64-bit length.
  std::uint8_t pad[kBlockSize * 2] = {0x80};
  const std::size_t rem = static_cast<std::size_t>(total_len_ % kBlockSize);
  const std::size_t pad_len =
      (rem < 56) ? (56 - rem) : (kBlockSize + 56 - rem);
  std::uint8_t len_be[8];
  put_u64_be(len_be, bit_len);

  update(ByteView(pad, pad_len));
  // update() adjusted total_len_, but padding bytes must not count; the
  // length word was computed beforehand so this is only cosmetic.
  update(ByteView(len_be, 8));

  std::array<std::uint8_t, kDigestSize> out{};
  for (int i = 0; i < 8; ++i) {
    put_u32_be(std::span<std::uint8_t>(out.data() + 4 * i, 4),
               state_[static_cast<std::size_t>(i)]);
  }
  return out;
}

std::array<std::uint8_t, Sha256::kDigestSize> Sha256::digest(
    ByteView data) noexcept {
  Sha256 h;
  h.update(data);
  return h.finalize();
}

std::array<std::uint8_t, Sha256::kDigestSize> Sha256::digest_parts(
    std::initializer_list<ByteView> parts) noexcept {
  Sha256 h;
  for (const ByteView part : parts) h.update(part);
  return h.finalize();
}

Bytes Sha256::hash(ByteView data) {
  const auto d = digest(data);
  return Bytes(d.begin(), d.end());
}

}  // namespace neuropuls::crypto
