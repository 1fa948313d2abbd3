#include "crypto/chacha20.hpp"

#include <bit>
#include <cstring>
#include <limits>

#include "crypto/block_kernels.hpp"
#include "crypto/sha256.hpp"

namespace neuropuls::crypto {

namespace {

inline void quarter_round(std::uint32_t& a, std::uint32_t& b, std::uint32_t& c,
                          std::uint32_t& d) noexcept {
  a += b; d ^= a; d = std::rotl(d, 16);
  c += d; b ^= c; b = std::rotl(b, 12);
  a += b; d ^= a; d = std::rotl(d, 8);
  c += d; b ^= c; b = std::rotl(b, 7);
}

// Lane width of the batched keystream kernel: 4 blocks' round state is
// interleaved word-by-word (x[i][lane]) so the 20 rounds run as plain
// elementwise loops the auto-vectorizer maps onto SSE2/AVX2/NEON — the
// same restrict-pointer pattern as src/common/simd.hpp, and integer-only,
// so lane output is trivially bit-identical to the scalar block function.
constexpr std::size_t kChaCha20Lanes = 4;

constexpr std::array<std::uint32_t, 4> kSigma = {0x61707865, 0x3320646e,
                                                 0x79622d32, 0x6b206574};

std::uint32_t load_le32(const std::uint8_t* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

void store_le32(std::uint8_t* p, std::uint32_t v) noexcept {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

// Interleaved quarter round over kChaCha20Lanes independent blocks: every
// operation is elementwise across the lane dimension, so the loop
// vectorizes to one SIMD op per scalar op. Integer add/xor/rotl are exact,
// hence lane k's output is the scalar block function's output verbatim.
inline void quarter_round_lanes(std::uint32_t* a, std::uint32_t* b,
                                std::uint32_t* c, std::uint32_t* d) noexcept {
  for (std::size_t l = 0; l < kChaCha20Lanes; ++l) {
    a[l] += b[l]; d[l] ^= a[l]; d[l] = std::rotl(d[l], 16);
    c[l] += d[l]; b[l] ^= c[l]; b[l] = std::rotl(b[l], 12);
    a[l] += b[l]; d[l] ^= a[l]; d[l] = std::rotl(d[l], 8);
    c[l] += d[l]; b[l] ^= c[l]; b[l] = std::rotl(b[l], 7);
  }
}

// kChaCha20Lanes keystream blocks at consecutive counters, interleaved
// word-by-word (x[word][lane]).
void chacha20_block_lanes(const std::array<std::uint32_t, 8>& key,
                          std::uint32_t counter,
                          const std::array<std::uint32_t, 3>& nonce,
                          std::uint8_t* out) noexcept {
  std::uint32_t init[16];
  for (int i = 0; i < 4; ++i) init[i] = kSigma[static_cast<std::size_t>(i)];
  for (int i = 0; i < 8; ++i) init[4 + i] = key[static_cast<std::size_t>(i)];
  init[12] = counter;
  for (int i = 0; i < 3; ++i) init[13 + i] = nonce[static_cast<std::size_t>(i)];

  std::uint32_t x[16][kChaCha20Lanes];
  for (int i = 0; i < 16; ++i) {
    for (std::size_t l = 0; l < kChaCha20Lanes; ++l) x[i][l] = init[i];
  }
  for (std::size_t l = 0; l < kChaCha20Lanes; ++l) {
    x[12][l] = counter + static_cast<std::uint32_t>(l);
  }

  for (int round = 0; round < 10; ++round) {
    quarter_round_lanes(x[0], x[4], x[8], x[12]);
    quarter_round_lanes(x[1], x[5], x[9], x[13]);
    quarter_round_lanes(x[2], x[6], x[10], x[14]);
    quarter_round_lanes(x[3], x[7], x[11], x[15]);
    quarter_round_lanes(x[0], x[5], x[10], x[15]);
    quarter_round_lanes(x[1], x[6], x[11], x[12]);
    quarter_round_lanes(x[2], x[7], x[8], x[13]);
    quarter_round_lanes(x[3], x[4], x[9], x[14]);
  }

  for (std::size_t l = 0; l < kChaCha20Lanes; ++l) {
    for (int i = 0; i < 16; ++i) {
      const std::uint32_t feedforward =
          i == 12 ? counter + static_cast<std::uint32_t>(l) : init[i];
      store_le32(out + 64 * l + 4 * i, x[i][l] + feedforward);
    }
  }
}

// Raw ChaCha20 block function: fills `out` with the keystream block for
// (key, counter, nonce).
void chacha20_block(const std::array<std::uint32_t, 8>& key,
                    std::uint32_t counter,
                    const std::array<std::uint32_t, 3>& nonce,
                    std::span<std::uint8_t, 64> out) noexcept {
  std::uint32_t state[16];
  for (int i = 0; i < 4; ++i) state[i] = kSigma[static_cast<std::size_t>(i)];
  for (int i = 0; i < 8; ++i) state[4 + i] = key[static_cast<std::size_t>(i)];
  state[12] = counter;
  for (int i = 0; i < 3; ++i) state[13 + i] = nonce[static_cast<std::size_t>(i)];

  std::uint32_t x[16];
  std::memcpy(x, state, sizeof(x));
  for (int round = 0; round < 10; ++round) {
    quarter_round(x[0], x[4], x[8], x[12]);
    quarter_round(x[1], x[5], x[9], x[13]);
    quarter_round(x[2], x[6], x[10], x[14]);
    quarter_round(x[3], x[7], x[11], x[15]);
    quarter_round(x[0], x[5], x[10], x[15]);
    quarter_round(x[1], x[6], x[11], x[12]);
    quarter_round(x[2], x[7], x[8], x[13]);
    quarter_round(x[3], x[4], x[9], x[14]);
  }
  for (int i = 0; i < 16; ++i) {
    store_le32(out.data() + 4 * i, x[i] + state[i]);
  }
}

// Batched ChaCha20 keystream: fills `out` (64 * nblocks bytes) with the
// keystream blocks for counters counter, counter+1, …, counter+nblocks-1.
// Bit-identical to nblocks sequential chacha20_block calls (asserted in
// tests/crypto/test_cipher.cpp); groups of kChaCha20Lanes blocks run the
// interleaved-round kernel, the tail falls back to the scalar block.
void chacha20_blocks(const std::array<std::uint32_t, 8>& key,
                     std::uint32_t counter,
                     const std::array<std::uint32_t, 3>& nonce,
                     std::uint8_t* out, std::size_t nblocks) noexcept {
  std::size_t done = 0;
  while (done + kChaCha20Lanes <= nblocks) {
    chacha20_block_lanes(key, counter, nonce, out + 64 * done);
    counter += static_cast<std::uint32_t>(kChaCha20Lanes);
    done += kChaCha20Lanes;
  }
  for (; done < nblocks; ++done) {
    chacha20_block(key, counter++, nonce,
                   std::span<std::uint8_t, 64>(out + 64 * done, 64));
  }
}

}  // namespace

void chacha20_xor_inplace(ByteView key32, ByteView nonce12,
                          std::uint32_t counter,
                          std::span<std::uint8_t> data) {
  if (key32.size() != 32) {
    throw std::invalid_argument("chacha20: key must be 32 bytes");
  }
  if (nonce12.size() != 12) {
    throw std::invalid_argument("chacha20: nonce must be 12 bytes");
  }
  std::array<std::uint32_t, 8> key{};
  for (int i = 0; i < 8; ++i) key[static_cast<std::size_t>(i)] = load_le32(key32.data() + 4 * i);
  std::array<std::uint32_t, 3> nonce{};
  for (int i = 0; i < 3; ++i) nonce[static_cast<std::size_t>(i)] = load_le32(nonce12.data() + 4 * i);

  // Keystream for up to kChaCha20Lanes blocks at a time; the tail block is
  // generated in full and used partially (CTR keystream is positional, so
  // over-generating changes no byte of the output).
  std::array<std::uint8_t, 64 * kChaCha20Lanes> keystream;
  for (std::size_t offset = 0; offset < data.size();
       offset += keystream.size()) {
    const std::size_t n =
        std::min<std::size_t>(keystream.size(), data.size() - offset);
    const std::size_t blocks = (n + 63) / 64;
    chacha20_blocks(key, counter, nonce, keystream.data(), blocks);
    counter += static_cast<std::uint32_t>(blocks);
    detail::xor_keystream(data.data() + offset, keystream.data(), n);
  }
}

ChaChaDrbg::ChaChaDrbg(ByteView seed) {
  const auto digest = Sha256::digest(seed);
  for (int i = 0; i < 8; ++i) {
    key_[static_cast<std::size_t>(i)] = load_le32(digest.data() + 4 * i);
  }
  nonce_ = {0x4e505544, 0x5242471a, 0x00000001};  // fixed domain tag
}

void ChaChaDrbg::refill() noexcept {
  chacha20_block(key_, counter_++, nonce_, block_);
  block_pos_ = 0;
}

void ChaChaDrbg::generate_into(std::span<std::uint8_t> out) {
  std::size_t written = 0;
  // Drain any partially consumed staging block first so the stream
  // position is exactly where the byte-at-a-time path would leave it.
  if (block_pos_ < 64 && written < out.size()) {
    const std::size_t n =
        std::min<std::size_t>(64 - block_pos_, out.size() - written);
    std::memcpy(out.data() + written, block_.data() + block_pos_, n);
    block_pos_ += n;
    written += n;
  }
  // Bulk middle: batched keystream straight into the caller's buffer,
  // skipping the staging copy entirely.
  const std::size_t whole = (out.size() - written) / 64;
  if (whole > 0) {
    chacha20_blocks(key_, counter_, nonce_, out.data() + written, whole);
    counter_ += static_cast<std::uint32_t>(whole);
    written += whole * 64;
  }
  if (written < out.size()) {
    refill();
    const std::size_t n = out.size() - written;
    std::memcpy(out.data() + written, block_.data(), n);
    block_pos_ = n;
  }
}

Bytes ChaChaDrbg::generate(std::size_t n) {
  Bytes out(n);
  generate_into(out);
  return out;
}

std::uint64_t ChaChaDrbg::next_u64() {
  std::uint8_t buf[8];
  generate_into(buf);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(buf[i]) << (8 * i);
  return v;
}

std::uint64_t ChaChaDrbg::uniform(std::uint64_t bound) {
  if (bound == 0) {
    throw std::invalid_argument("ChaChaDrbg::uniform: bound must be > 0");
  }
  // Rejection sampling: accept only below the largest multiple of bound.
  const std::uint64_t limit =
      std::numeric_limits<std::uint64_t>::max() -
      (std::numeric_limits<std::uint64_t>::max() % bound);
  std::uint64_t v;
  do {
    v = next_u64();
  } while (v >= limit && limit != 0);
  return v % bound;
}

}  // namespace neuropuls::crypto
