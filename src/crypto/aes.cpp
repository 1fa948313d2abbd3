#include "crypto/aes.hpp"

#include <cstring>

#include "crypto/block_kernels.hpp"
#include "crypto/hmac.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace neuropuls::crypto {

namespace {

// ---- GF(2^8) helpers -------------------------------------------------------

constexpr std::uint8_t xtime(std::uint8_t x) {
  return static_cast<std::uint8_t>((x << 1) ^ ((x >> 7) * 0x1B));
}

constexpr std::uint8_t gf_mul(std::uint8_t a, std::uint8_t b) {
  std::uint8_t p = 0;
  for (int i = 0; i < 8; ++i) {
    if (b & 1) p ^= a;
    a = xtime(a);
    b >>= 1;
  }
  return p;
}

// Multiplicative inverse in GF(2^8) by exponentiation (a^254).
constexpr std::uint8_t gf_inv(std::uint8_t a) {
  if (a == 0) return 0;
  std::uint8_t result = 1;
  // 254 = 0b11111110
  std::uint8_t base = a;
  int e = 254;
  while (e > 0) {
    if (e & 1) result = gf_mul(result, base);
    base = gf_mul(base, base);
    e >>= 1;
  }
  return result;
}

constexpr std::uint8_t sbox_entry(std::uint8_t x) {
  const std::uint8_t inv = gf_inv(x);
  // Affine transformation per FIPS 197.
  std::uint8_t y = inv;
  std::uint8_t out = inv;
  for (int i = 0; i < 4; ++i) {
    y = static_cast<std::uint8_t>((y << 1) | (y >> 7));
    out ^= y;
  }
  return static_cast<std::uint8_t>(out ^ 0x63);
}

constexpr std::array<std::uint8_t, 256> make_sbox() {
  std::array<std::uint8_t, 256> table{};
  for (int i = 0; i < 256; ++i) {
    table[static_cast<std::size_t>(i)] =
        sbox_entry(static_cast<std::uint8_t>(i));
  }
  return table;
}

constexpr auto kSbox = make_sbox();

constexpr std::array<std::uint8_t, 11> kRcon = {0x00, 0x01, 0x02, 0x04, 0x08,
                                                0x10, 0x20, 0x40, 0x80, 0x1B,
                                                0x36};

constexpr std::size_t kRounds = 10;

void sub_bytes(std::uint8_t* s) noexcept {
  for (int i = 0; i < 16; ++i) s[i] = kSbox[s[i]];
}

// State is column-major: s[4*c + r] is row r, column c.
void shift_rows(std::uint8_t* s) noexcept {
  std::uint8_t t[16];
  std::memcpy(t, s, 16);
  for (int r = 1; r < 4; ++r) {
    for (int c = 0; c < 4; ++c) {
      s[4 * c + r] = t[4 * ((c + r) % 4) + r];
    }
  }
}

void mix_columns(std::uint8_t* s) noexcept {
  for (int c = 0; c < 4; ++c) {
    std::uint8_t* col = s + 4 * c;
    const std::uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
    // 2x is xtime(x) and 3x is xtime(x) ^ x: one shift and a masked
    // reduction each, where gf_mul would loop over all eight bits.
    const std::uint8_t d0 = xtime(a0), d1 = xtime(a1), d2 = xtime(a2),
                       d3 = xtime(a3);
    col[0] = static_cast<std::uint8_t>(d0 ^ d1 ^ a1 ^ a2 ^ a3);
    col[1] = static_cast<std::uint8_t>(a0 ^ d1 ^ d2 ^ a2 ^ a3);
    col[2] = static_cast<std::uint8_t>(a0 ^ a1 ^ d2 ^ d3 ^ a3);
    col[3] = static_cast<std::uint8_t>(d0 ^ a0 ^ a1 ^ a2 ^ d3);
  }
}

void add_round_key(std::uint8_t* s, const std::uint8_t* rk) noexcept {
  for (int i = 0; i < 16; ++i) s[i] ^= rk[i];
}

#if defined(__x86_64__)

// N blocks through every round, interleaved so N independent AESENC
// chains hide the instruction's latency. Reads the FIPS 197 schedule
// as is: AES-NI round keys use the same byte order.
template <std::size_t N>
__attribute__((target("aes,sse4.1"))) inline void aesni_encrypt_n(
    const std::uint8_t* round_keys, std::uint8_t* blocks) noexcept {
  const auto* rk = reinterpret_cast<const __m128i*>(round_keys);
  auto* io = reinterpret_cast<__m128i*>(blocks);
  __m128i s[N];
  const __m128i first = _mm_loadu_si128(rk);
#pragma GCC unroll 8
  for (std::size_t b = 0; b < N; ++b) {
    s[b] = _mm_xor_si128(_mm_loadu_si128(io + b), first);
  }
  for (std::size_t round = 1; round < kRounds; ++round) {
    const __m128i k = _mm_loadu_si128(rk + round);
#pragma GCC unroll 8
    for (std::size_t b = 0; b < N; ++b) s[b] = _mm_aesenc_si128(s[b], k);
  }
  const __m128i last = _mm_loadu_si128(rk + kRounds);
#pragma GCC unroll 8
  for (std::size_t b = 0; b < N; ++b) {
    _mm_storeu_si128(io + b, _mm_aesenclast_si128(s[b], last));
  }
}

__attribute__((target("aes,sse4.1"))) void aes_blocks_aesni_body(
    const std::uint8_t* round_keys, std::uint8_t* blocks,
    std::size_t nblocks) noexcept {
  for (; nblocks >= 8; nblocks -= 8, blocks += 16 * 8) {
    aesni_encrypt_n<8>(round_keys, blocks);
  }
  if (nblocks >= 4) {
    aesni_encrypt_n<4>(round_keys, blocks);
    nblocks -= 4;
    blocks += 16 * 4;
  }
  for (; nblocks > 0; --nblocks, blocks += 16) {
    aesni_encrypt_n<1>(round_keys, blocks);
  }
}

#endif  // __x86_64__

}  // namespace

namespace detail {

void aes_expand_key(ByteView key,
                    std::span<std::uint8_t, kAesScheduleBytes> round_keys) {
  constexpr std::size_t kNk = 4;  // key length in 32-bit words
  // ctlint:allow(secret-compare) the key length is public
  if (key.size() != 4 * kNk) {
    throw std::invalid_argument("Aes: key must be 16 bytes");
  }
  std::uint8_t* w = round_keys.data();
  std::memcpy(w, key.data(), key.size());

  for (std::size_t i = kNk; i < 4 * (kRounds + 1); ++i) {
    std::uint8_t temp[4];
    std::memcpy(temp, w + 4 * (i - 1), 4);
    if (i % kNk == 0) {
      // RotWord + SubWord + Rcon
      const std::uint8_t t0 = temp[0];
      temp[0] = static_cast<std::uint8_t>(kSbox[temp[1]] ^ kRcon[i / kNk]);
      temp[1] = kSbox[temp[2]];
      temp[2] = kSbox[temp[3]];
      temp[3] = kSbox[t0];
    }
    for (std::size_t j = 0; j < 4; ++j) {
      w[4 * i + j] = static_cast<std::uint8_t>(w[4 * (i - kNk) + j] ^ temp[j]);
    }
  }
}

void aes_blocks_portable(const std::uint8_t* round_keys, std::uint8_t* blocks,
                         std::size_t nblocks) noexcept {
  for (std::size_t b = 0; b < nblocks; ++b) {
    add_round_key(blocks + 16 * b, round_keys);
  }
  for (std::size_t round = 1; round < kRounds; ++round) {
    const std::uint8_t* rk = round_keys + 16 * round;
    for (std::size_t b = 0; b < nblocks; ++b) {
      std::uint8_t* s = blocks + 16 * b;
      sub_bytes(s);
      shift_rows(s);
      mix_columns(s);
      add_round_key(s, rk);
    }
  }
  const std::uint8_t* rk_final = round_keys + 16 * kRounds;
  for (std::size_t b = 0; b < nblocks; ++b) {
    std::uint8_t* s = blocks + 16 * b;
    sub_bytes(s);
    shift_rows(s);
    add_round_key(s, rk_final);
  }
}

AesBlocks aes_blocks_aesni() noexcept {
#if defined(__x86_64__)
  if (cpu_features().aes_ni) return &aes_blocks_aesni_body;
#endif
  return nullptr;
}

}  // namespace detail

namespace {

// The kernel this process runs: AES-NI where the CPUID probe found it,
// else the portable reference.
detail::AesBlocks aes_kernel() noexcept {
  const detail::AesBlocks hardware = detail::aes_blocks_aesni();
  return hardware != nullptr ? hardware : &detail::aes_blocks_portable;
}

}  // namespace

Aes::Aes(ByteView key) { detail::aes_expand_key(key, round_keys_); }

Aes::~Aes() { secure_wipe(round_keys_.data(), round_keys_.size()); }

void Aes::encrypt_block(
    std::span<std::uint8_t, kBlockSize> block) const noexcept {
  encrypt_blocks(block.data(), 1);
}

void Aes::encrypt_blocks(std::uint8_t* blocks,
                         std::size_t nblocks) const noexcept {
  aes_kernel()(round_keys_.data(), blocks, nblocks);
}

std::uint8_t aes_sbox(std::uint8_t x) noexcept { return kSbox[x]; }

namespace {

// Number of CTR keystream blocks pipelined through encrypt_blocks per
// round trip; 8 blocks (128 bytes) covers typical record sizes in one or
// two batches without oversizing the stack buffer.
constexpr std::size_t kCtrPipeline = 8;

// dst ^= src over n bytes, a 64-bit word at a time: with AES-NI the
// keystream costs less than a byte-wise XOR of it would.
void xor_keystream(std::uint8_t* dst, const std::uint8_t* src,
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

}  // namespace

Bytes aes_ctr(const Aes& cipher, ByteView nonce16, ByteView data) {
  if (nonce16.size() != Aes::kBlockSize) {
    throw std::invalid_argument("aes_ctr: nonce must be 16 bytes");
  }
  // The low 32 bits count big-endian and wrap; the other 12 bytes stay.
  std::uint32_t low = (std::uint32_t{nonce16[12]} << 24) |
                      (std::uint32_t{nonce16[13]} << 16) |
                      (std::uint32_t{nonce16[14]} << 8) | nonce16[15];

  Bytes out(data.begin(), data.end());
  std::array<std::uint8_t, Aes::kBlockSize * kCtrPipeline> keystream{};
  for (std::size_t offset = 0; offset < out.size();
       offset += keystream.size()) {
    const std::size_t n =
        std::min<std::size_t>(keystream.size(), out.size() - offset);
    const std::size_t blocks = (n + Aes::kBlockSize - 1) / Aes::kBlockSize;
    // Materialise the counter blocks, then pipeline them through the
    // cipher in one pass. The tail block may be generated in full and
    // used partially — CTR keystream is positional.
    for (std::size_t b = 0; b < blocks; ++b, ++low) {
      std::uint8_t* block = keystream.data() + Aes::kBlockSize * b;
      std::memcpy(block, nonce16.data(), 12);
      block[12] = static_cast<std::uint8_t>(low >> 24);
      block[13] = static_cast<std::uint8_t>(low >> 16);
      block[14] = static_cast<std::uint8_t>(low >> 8);
      block[15] = static_cast<std::uint8_t>(low);
    }
    cipher.encrypt_blocks(keystream.data(), blocks);
    xor_keystream(out.data() + offset, keystream.data(), n);
  }
  return out;
}

namespace {

// Doubles a 128-bit value in GF(2^128) for CMAC subkey derivation.
void cmac_double(std::array<std::uint8_t, 16>& block) noexcept {
  const bool msb = (block[0] & 0x80) != 0;
  for (int i = 0; i < 15; ++i) {
    block[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(
        (block[static_cast<std::size_t>(i)] << 1) |
        (block[static_cast<std::size_t>(i) + 1] >> 7));
  }
  block[15] = static_cast<std::uint8_t>(block[15] << 1);
  if (msb) block[15] ^= 0x87;
}

}  // namespace

Bytes aes_cmac(const Aes& cipher, ByteView data) {
  std::array<std::uint8_t, 16> l{};  // ctlint:secret
  cipher.encrypt_block(l);
  std::array<std::uint8_t, 16> k1 = l;  // ctlint:secret
  cmac_double(k1);
  std::array<std::uint8_t, 16> k2 = k1;  // ctlint:secret
  cmac_double(k2);

  const std::size_t n_blocks =
      data.empty() ? 1 : (data.size() + 15) / 16;
  const bool last_complete = !data.empty() && data.size() % 16 == 0;

  std::array<std::uint8_t, 16> x{};
  for (std::size_t b = 0; b + 1 < n_blocks; ++b) {
    for (std::size_t i = 0; i < 16; ++i) x[i] ^= data[16 * b + i];
    cipher.encrypt_block(x);
  }

  std::array<std::uint8_t, 16> last{};  // ctlint:secret data XOR k1/k2
  const std::size_t tail_offset = 16 * (n_blocks - 1);
  if (last_complete) {
    for (std::size_t i = 0; i < 16; ++i) {
      last[i] = static_cast<std::uint8_t>(data[tail_offset + i] ^ k1[i]);
    }
  } else {
    const std::size_t tail_len = data.size() - tail_offset;
    for (std::size_t i = 0; i < tail_len; ++i) last[i] = data[tail_offset + i];
    last[tail_len] = 0x80;
    for (std::size_t i = 0; i < 16; ++i) last[i] ^= k2[i];
  }
  for (std::size_t i = 0; i < 16; ++i) x[i] ^= last[i];
  cipher.encrypt_block(x);
  secure_wipe(l.data(), l.size());
  secure_wipe(k1.data(), k1.size());
  secure_wipe(k2.data(), k2.size());
  secure_wipe(last.data(), last.size());

  return Bytes(x.begin(), x.end());
}

Aes hkdf_aes128(ByteView ikm, std::string_view info) {
  Bytes key = hkdf(ByteView{}, ikm, bytes_of(info), 16);  // ctlint:secret
  Aes cipher(key);
  secure_wipe(key);
  return cipher;
}

Bytes aes_ctr_then_mac_seal(ByteView key, ByteView nonce16,
                            ByteView plaintext) {
  // Independent sub-keys so the MAC key never touches the CTR keystream.
  const Aes enc = hkdf_aes128(key, "np-enc");
  const Aes mac = hkdf_aes128(key, "np-mac");

  Bytes frame(nonce16.begin(), nonce16.end());
  const Bytes ct = aes_ctr(enc, nonce16, plaintext);
  frame.insert(frame.end(), ct.begin(), ct.end());
  const Bytes tag = aes_cmac(mac, frame);
  frame.insert(frame.end(), tag.begin(), tag.end());
  return frame;
}

Bytes aes_ctr_then_mac_open(ByteView key, ByteView frame) {
  if (frame.size() < 32) {
    throw std::runtime_error("aes_ctr_then_mac_open: frame too short");
  }
  const Aes enc = hkdf_aes128(key, "np-enc");
  const Aes mac = hkdf_aes128(key, "np-mac");

  const ByteView body = frame.first(frame.size() - 16);
  const ByteView tag = frame.subspan(frame.size() - 16);
  const Bytes expected = aes_cmac(mac, body);
  if (!ct_equal(tag, expected)) {
    throw std::runtime_error("aes_ctr_then_mac_open: authentication failure");
  }
  const ByteView nonce = body.first(16);
  const ByteView ct = body.subspan(16);
  return aes_ctr(enc, nonce, ct);
}

}  // namespace neuropuls::crypto
