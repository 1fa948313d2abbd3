#include "crypto/aes.hpp"

#include <cstring>

#include "crypto/hmac.hpp"

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
    col[0] = static_cast<std::uint8_t>(gf_mul(a0, 2) ^ gf_mul(a1, 3) ^ a2 ^ a3);
    col[1] = static_cast<std::uint8_t>(a0 ^ gf_mul(a1, 2) ^ gf_mul(a2, 3) ^ a3);
    col[2] = static_cast<std::uint8_t>(a0 ^ a1 ^ gf_mul(a2, 2) ^ gf_mul(a3, 3));
    col[3] = static_cast<std::uint8_t>(gf_mul(a0, 3) ^ a1 ^ a2 ^ gf_mul(a3, 2));
  }
}

void add_round_key(std::uint8_t* s, const std::uint8_t* rk) noexcept {
  for (int i = 0; i < 16; ++i) s[i] ^= rk[i];
}

}  // namespace

Aes::Aes(ByteView key) {
  std::size_t nk;  // key length in 32-bit words
  switch (key.size()) {
    case 16: nk = 4; rounds_ = 10; break;
    case 24: nk = 6; rounds_ = 12; break;
    case 32: nk = 8; rounds_ = 14; break;
    default:
      throw std::invalid_argument("Aes: key must be 16, 24, or 32 bytes");
  }

  const std::size_t total_words = 4 * (rounds_ + 1);
  std::uint8_t* w = round_keys_.data();
  std::memcpy(w, key.data(), key.size());

  for (std::size_t i = nk; i < total_words; ++i) {
    std::uint8_t temp[4];
    std::memcpy(temp, w + 4 * (i - 1), 4);
    if (i % nk == 0) {
      // RotWord + SubWord + Rcon
      const std::uint8_t t0 = temp[0];
      temp[0] = static_cast<std::uint8_t>(kSbox[temp[1]] ^ kRcon[i / nk]);
      temp[1] = kSbox[temp[2]];
      temp[2] = kSbox[temp[3]];
      temp[3] = kSbox[t0];
    } else if (nk > 6 && i % nk == 4) {
      for (int j = 0; j < 4; ++j) temp[j] = kSbox[temp[j]];
    }
    for (int j = 0; j < 4; ++j) {
      w[4 * i + static_cast<std::size_t>(j)] =
          static_cast<std::uint8_t>(w[4 * (i - nk) + static_cast<std::size_t>(j)] ^ temp[j]);
    }
  }
}

Aes::~Aes() { secure_wipe(round_keys_.data(), round_keys_.size()); }

void Aes::encrypt_block(
    std::span<std::uint8_t, kBlockSize> block) const noexcept {
  std::uint8_t* s = block.data();
  add_round_key(s, round_keys_.data());
  for (std::size_t round = 1; round < rounds_; ++round) {
    sub_bytes(s);
    shift_rows(s);
    mix_columns(s);
    add_round_key(s, round_keys_.data() + 16 * round);
  }
  sub_bytes(s);
  shift_rows(s);
  add_round_key(s, round_keys_.data() + 16 * rounds_);
}

void Aes::encrypt_blocks(std::uint8_t* blocks,
                         std::size_t nblocks) const noexcept {
  for (std::size_t b = 0; b < nblocks; ++b) {
    add_round_key(blocks + 16 * b, round_keys_.data());
  }
  for (std::size_t round = 1; round < rounds_; ++round) {
    const std::uint8_t* rk = round_keys_.data() + 16 * round;
    for (std::size_t b = 0; b < nblocks; ++b) {
      std::uint8_t* s = blocks + 16 * b;
      sub_bytes(s);
      shift_rows(s);
      mix_columns(s);
      add_round_key(s, rk);
    }
  }
  const std::uint8_t* rk_final = round_keys_.data() + 16 * rounds_;
  for (std::size_t b = 0; b < nblocks; ++b) {
    std::uint8_t* s = blocks + 16 * b;
    sub_bytes(s);
    shift_rows(s);
    add_round_key(s, rk_final);
  }
}

std::uint8_t aes_sbox(std::uint8_t x) noexcept { return kSbox[x]; }

namespace {

// Number of CTR keystream blocks pipelined through encrypt_blocks per
// round trip; 8 blocks (128 bytes) covers typical record sizes in one or
// two batches without oversizing the stack buffer.
constexpr std::size_t kCtrPipeline = 8;

}  // namespace

Bytes aes_ctr(const Aes& cipher, ByteView nonce16, ByteView data) {
  if (nonce16.size() != Aes::kBlockSize) {
    throw std::invalid_argument("aes_ctr: nonce must be 16 bytes");
  }
  std::array<std::uint8_t, Aes::kBlockSize> counter{};
  std::memcpy(counter.data(), nonce16.data(), Aes::kBlockSize);

  Bytes out(data.begin(), data.end());
  std::array<std::uint8_t, Aes::kBlockSize * kCtrPipeline> keystream{};
  for (std::size_t offset = 0; offset < out.size();
       offset += keystream.size()) {
    const std::size_t n =
        std::min<std::size_t>(keystream.size(), out.size() - offset);
    const std::size_t blocks = (n + Aes::kBlockSize - 1) / Aes::kBlockSize;
    // Materialise the counter blocks, then pipeline them through the
    // cipher in one round-major pass. The tail block may be generated in
    // full and used partially — CTR keystream is positional.
    for (std::size_t b = 0; b < blocks; ++b) {
      std::memcpy(keystream.data() + Aes::kBlockSize * b, counter.data(),
                  Aes::kBlockSize);
      // Increment the low 32 bits big-endian.
      for (int i = 15; i >= 12; --i) {
        if (++counter[static_cast<std::size_t>(i)] != 0) break;
      }
    }
    cipher.encrypt_blocks(keystream.data(), blocks);
    for (std::size_t i = 0; i < n; ++i) out[offset + i] ^= keystream[i];
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
