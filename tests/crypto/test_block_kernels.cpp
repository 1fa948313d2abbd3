// The AES and SHA-256 block kernels and the AES key schedules, each entry
// point on its own: the portable reference and the x86-64 AES-NI / SHA-NI
// bodies run the published vectors (FIPS 197, SP 800-38A CTR, RFC 4493
// CMAC, FIPS 180-4, RFC 4231 HMAC; the FIPS 197 A.1 expansion for the
// schedules) through modes built here on the bare kernel, then a seeded
// random differential pins every kernel, and the dispatched `Aes`,
// schedule and `Sha256`, to the portable one. A hardware case skips on a CPU
// without the feature.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <ostream>
#include <string>

#include "crypto/aes.hpp"
#include "crypto/block_kernels.hpp"
#include "crypto/prng.hpp"
#include "crypto/sha256.hpp"

namespace neuropuls::crypto {
namespace {

// ---- AES ------------------------------------------------------------------

struct AesEntry {
  const char* name;
  detail::AesBlocks (*get)();  // nullptr result: not on this CPU
};

detail::AesBlocks portable_aes() { return &detail::aes_blocks_portable; }

const AesEntry kAesEntries[] = {{"portable", &portable_aes},
                                {"aesni", &detail::aes_blocks_aesni}};

// Print an entry by name: gtest's default byte dump would put the
// load address of `get` into every listed test name, so no two runs of
// the binary would list the same names.
void PrintTo(const AesEntry& entry, std::ostream* os) { *os << entry.name; }

// A key schedule driven through one bare kernel.
class KernelAes {
 public:
  KernelAes(detail::AesBlocks kernel, ByteView key) : kernel_(kernel) {
    detail::aes_expand_key(key, schedule_);
  }

  void encrypt(std::uint8_t* blocks, std::size_t nblocks) const {
    kernel_(schedule_.data(), blocks, nblocks);
  }

  // SP 800-38A CTR with the big-endian low-32 counter increment.
  Bytes ctr(ByteView counter16, ByteView data) const {
    Bytes counter(counter16.begin(), counter16.end());
    Bytes out(data.begin(), data.end());
    for (std::size_t off = 0; off < out.size(); off += 16) {
      Bytes keystream = counter;
      encrypt(keystream.data(), 1);
      for (std::size_t i = off; i < std::min(out.size(), off + 16); ++i) {
        out[i] ^= keystream[i - off];
      }
      for (int b = 15; b >= 12; --b) {
        if (++counter[static_cast<std::size_t>(b)] != 0) break;
      }
    }
    return out;
  }

  // RFC 4493 AES-CMAC.
  Bytes cmac(ByteView data) const {
    std::array<std::uint8_t, 16> k1{};
    encrypt(k1.data(), 1);
    const auto dbl = [](std::array<std::uint8_t, 16> v) {
      const std::uint8_t carry = v[0] >> 7;
      for (std::size_t i = 0; i < 15; ++i) {
        v[i] = static_cast<std::uint8_t>((v[i] << 1) | (v[i + 1] >> 7));
      }
      v[15] = static_cast<std::uint8_t>((v[15] << 1) ^ (carry * 0x87));
      return v;
    };
    k1 = dbl(k1);
    const std::array<std::uint8_t, 16> k2 = dbl(k1);
    const std::size_t n = data.empty() ? 1 : (data.size() + 15) / 16;
    const bool complete = !data.empty() && data.size() % 16 == 0;
    std::array<std::uint8_t, 16> x{};
    for (std::size_t b = 0; b < n; ++b) {
      const std::size_t len = std::min<std::size_t>(16, data.size() - 16 * b);
      for (std::size_t i = 0; i < len; ++i) x[i] ^= data[16 * b + i];
      if (b + 1 == n) {
        if (!complete) x[len] ^= 0x80;
        for (std::size_t i = 0; i < 16; ++i) x[i] ^= complete ? k1[i] : k2[i];
      }
      encrypt(x.data(), 1);
    }
    return Bytes(x.begin(), x.end());
  }

 private:
  detail::AesBlocks kernel_;
  std::array<std::uint8_t, detail::kAesScheduleBytes> schedule_{};
};

class AesKernelTest : public ::testing::TestWithParam<AesEntry> {
 protected:
  void SetUp() override {
    kernel_ = GetParam().get();
    if (kernel_ == nullptr) GTEST_SKIP() << "CPU lacks AES-NI";
  }
  detail::AesBlocks kernel_ = nullptr;
};

TEST_P(AesKernelTest, Fips197) {
  const struct {
    const char* key;
    const char* ciphertext;
  } vectors[] = {
      {"000102030405060708090a0b0c0d0e0f", "69c4e0d86a7b0430d8cdb78070b4c55a"},
  };
  for (const auto& v : vectors) {
    Bytes block = from_hex("00112233445566778899aabbccddeeff");
    KernelAes(kernel_, from_hex(v.key)).encrypt(block.data(), 1);
    EXPECT_EQ(to_hex(block), v.ciphertext) << "key " << v.key;
  }
}

// NIST SP 800-38A F.5.1: CTR-AES128 encrypt.
TEST_P(AesKernelTest, Sp800_38aCtr) {
  const Bytes counter = from_hex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff");
  const Bytes plaintext = from_hex(
      "6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51"
      "30c81c46a35ce411e5fbc1191a0a52eff69f2445df4f9b17ad2b417be66c3710");
  const struct {
    const char* key;
    const char* ciphertext;
  } vectors[] = {
      {"2b7e151628aed2a6abf7158809cf4f3c",
       "874d6191b620e3261bef6864990db6ce9806f66b7970fdff8617187bb9fffdff"
       "5ae4df3edbd5d35e5b4f09020db03eab1e031dda2fbe03d1792170a0f3009cee"},
  };
  for (const auto& v : vectors) {
    const KernelAes cipher(kernel_, from_hex(v.key));
    EXPECT_EQ(to_hex(cipher.ctr(counter, plaintext)), v.ciphertext)
        << "key " << v.key;
  }
}

// RFC 4493 section 4: AES-128 CMAC over 0, 16, 40 and 64 bytes.
TEST_P(AesKernelTest, Rfc4493Cmac) {
  const KernelAes cipher(kernel_, from_hex("2b7e151628aed2a6abf7158809cf4f3c"));
  const Bytes message = from_hex(
      "6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51"
      "30c81c46a35ce411e5fbc1191a0a52eff69f2445df4f9b17ad2b417be66c3710");
  const struct {
    std::size_t length;
    const char* tag;
  } vectors[] = {{0, "bb1d6929e95937287fa37d129b756746"},
                 {16, "070a16b46b4d4144f79bdd9dd04a287c"},
                 {40, "dfa66747de9ae63030ca32611497c827"},
                 {64, "51f0bebf7e3b9d92fc49741779363cfe"}};
  for (const auto& v : vectors) {
    EXPECT_EQ(to_hex(cipher.cmac(ByteView(message).first(v.length))), v.tag)
        << "length " << v.length;
  }
}

// 1-17 blocks under random 16-byte keys: this kernel, the portable
// reference, the dispatched Aes::encrypt_blocks and per-block
// encrypt_block all agree.
TEST_P(AesKernelTest, MatchesPortableOnRandomInputs) {
  rng::Xoshiro256 rng(197);
  for (int trial = 0; trial < 600; ++trial) {
    Bytes key(16);
    for (auto& byte : key) byte = static_cast<std::uint8_t>(rng.next());
    const std::size_t nblocks = 1 + rng.uniform_int(17);
    Bytes input(16 * nblocks);
    for (auto& byte : input) byte = static_cast<std::uint8_t>(rng.next());

    Bytes reference = input;
    KernelAes(&detail::aes_blocks_portable, key)
        .encrypt(reference.data(), nblocks);
    Bytes fast = input;
    KernelAes(kernel_, key).encrypt(fast.data(), nblocks);
    ASSERT_EQ(fast, reference) << "trial " << trial;

    const Aes dispatched(key);
    Bytes batched = input;
    dispatched.encrypt_blocks(batched.data(), nblocks);
    ASSERT_EQ(batched, reference) << "trial " << trial;
    Bytes single = input;
    for (std::size_t b = 0; b < nblocks; ++b) {
      dispatched.encrypt_block(
          std::span<std::uint8_t, 16>(single.data() + 16 * b, 16));
    }
    ASSERT_EQ(single, reference) << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, AesKernelTest, ::testing::ValuesIn(kAesEntries),
    [](const ::testing::TestParamInfo<AesEntry>& info) {
      return std::string(info.param.name);
    });

// ---- AES key schedule -----------------------------------------------------

struct ScheduleEntry {
  const char* name;
  detail::AesExpandKey (*get)();  // nullptr result: not on this CPU
};

detail::AesExpandKey portable_schedule() {
  return &detail::aes_expand_key_portable;
}

const ScheduleEntry kScheduleEntries[] = {
    {"portable", &portable_schedule}, {"aesni", &detail::aes_expand_key_aesni}};

void PrintTo(const ScheduleEntry& entry, std::ostream* os) {
  *os << entry.name;
}

using Schedule = std::array<std::uint8_t, detail::kAesScheduleBytes>;

class AesScheduleTest : public ::testing::TestWithParam<ScheduleEntry> {
 protected:
  void SetUp() override {
    expand_ = GetParam().get();
    if (expand_ == nullptr) GTEST_SKIP() << "CPU lacks AES-NI";
  }
  Schedule expand(ByteView key) const {
    Schedule schedule{};
    expand_(key.data(), schedule.data());
    return schedule;
  }
  detail::AesExpandKey expand_ = nullptr;
};

// FIPS 197 appendix A.1: every word w[0..43] of the AES-128 expansion.
TEST_P(AesScheduleTest, Fips197A1Expansion) {
  const Schedule schedule =
      expand(from_hex("2b7e151628aed2a6abf7158809cf4f3c"));
  EXPECT_EQ(to_hex(schedule),
            "2b7e151628aed2a6abf7158809cf4f3c"
            "a0fafe1788542cb123a339392a6c7605"
            "f2c295f27a96b9435935807a7359f67f"
            "3d80477d4716fe3e1e237e446d7a883b"
            "ef44a541a8525b7fb671253bdb0bad00"
            "d4d1c6f87c839d87caf2b8bc11f915bc"
            "6d88a37a110b3efddbf98641ca0093fd"
            "4e54f70e5f5fc9f384a64fb24ea6dc4f"
            "ead27321b58dbad2312bf5607f8d292f"
            "ac7766f319fadc2128d12941575c006e"
            "d014f9a8c9ee2589e13f0cc8b6630ca6");
}

// 1,000 random keys: this schedule, the portable reference and the
// dispatched detail::aes_expand_key agree byte for byte.
TEST_P(AesScheduleTest, MatchesPortableOnRandomKeys) {
  rng::Xoshiro256 rng(1197);
  for (int trial = 0; trial < 1000; ++trial) {
    Bytes key(16);
    for (auto& byte : key) byte = static_cast<std::uint8_t>(rng.next());
    Schedule reference{};
    detail::aes_expand_key_portable(key.data(), reference.data());
    ASSERT_EQ(expand(key), reference) << "trial " << trial;
    Schedule dispatched{};
    detail::aes_expand_key(key, dispatched);
    ASSERT_EQ(dispatched, reference) << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, AesScheduleTest, ::testing::ValuesIn(kScheduleEntries),
    [](const ::testing::TestParamInfo<ScheduleEntry>& info) {
      return std::string(info.param.name);
    });

// ---- SHA-256 --------------------------------------------------------------

struct ShaEntry {
  const char* name;
  detail::Sha256Blocks (*get)();
};

detail::Sha256Blocks portable_sha() { return &detail::sha256_blocks_portable; }

const ShaEntry kShaEntries[] = {{"portable", &portable_sha},
                                {"shani", &detail::sha256_blocks_shani}};

void PrintTo(const ShaEntry& entry, std::ostream* os) { *os << entry.name; }

// FIPS 180-4 padding around a bare compression kernel.
Bytes digest_with(detail::Sha256Blocks kernel, ByteView message) {
  std::uint32_t state[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  Bytes padded(message.begin(), message.end());
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) padded.push_back(0);
  const std::uint64_t bits = 8 * static_cast<std::uint64_t>(message.size());
  for (int shift = 56; shift >= 0; shift -= 8) {
    padded.push_back(static_cast<std::uint8_t>(bits >> shift));
  }
  kernel(state, padded.data(), padded.size() / 64);
  Bytes out(32);
  for (std::size_t i = 0; i < 8; ++i) {
    put_u32_be(std::span<std::uint8_t>(out.data() + 4 * i, 4), state[i]);
  }
  return out;
}

// RFC 2104 HMAC around digest_with.
Bytes hmac_with(detail::Sha256Blocks kernel, ByteView key, ByteView data) {
  Bytes block_key = key.size() > 64 ? digest_with(kernel, key)
                                    : Bytes(key.begin(), key.end());
  block_key.resize(64, 0);
  Bytes inner, outer;
  for (const std::uint8_t byte : block_key) {
    inner.push_back(static_cast<std::uint8_t>(byte ^ 0x36));
    outer.push_back(static_cast<std::uint8_t>(byte ^ 0x5c));
  }
  inner.insert(inner.end(), data.begin(), data.end());
  const Bytes inner_digest = digest_with(kernel, inner);
  outer.insert(outer.end(), inner_digest.begin(), inner_digest.end());
  return digest_with(kernel, outer);
}

class ShaKernelTest : public ::testing::TestWithParam<ShaEntry> {
 protected:
  void SetUp() override {
    kernel_ = GetParam().get();
    if (kernel_ == nullptr) GTEST_SKIP() << "CPU lacks SHA-NI";
  }
  detail::Sha256Blocks kernel_ = nullptr;
};

// FIPS 180-4 examples (one block, two blocks, the 896-bit message) and
// the empty string.
TEST_P(ShaKernelTest, Fips180Vectors) {
  const struct {
    const char* message;
    const char* digest;
  } vectors[] = {
      {"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {"abc",
       "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
      {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
      {"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno"
       "ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
       "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"},
  };
  for (const auto& v : vectors) {
    EXPECT_EQ(to_hex(digest_with(kernel_, bytes_of(v.message))), v.digest)
        << "message \"" << v.message << "\"";
  }
}

// RFC 4231 test cases 1, 2, 3 and 6 (the key longer than a block).
TEST_P(ShaKernelTest, Rfc4231Hmac) {
  EXPECT_EQ(to_hex(hmac_with(kernel_, Bytes(20, 0x0b), bytes_of("Hi There"))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
  EXPECT_EQ(to_hex(hmac_with(kernel_, bytes_of("Jefe"),
                             bytes_of("what do ya want for nothing?"))),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
  EXPECT_EQ(to_hex(hmac_with(kernel_, Bytes(20, 0xaa), Bytes(50, 0xdd))),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
  EXPECT_EQ(
      to_hex(hmac_with(
          kernel_, Bytes(131, 0xaa),
          bytes_of("Test Using Larger Than Block-Size Key - Hash Key First"))),
      "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

// Messages of 0-300 bytes: this kernel, the portable reference and the
// dispatched Sha256 fed through random update splits all agree.
TEST_P(ShaKernelTest, MatchesPortableOnRandomInputs) {
  rng::Xoshiro256 rng(180);
  for (std::size_t length = 0; length <= 300; ++length) {
    Bytes message(length);
    for (auto& byte : message) byte = static_cast<std::uint8_t>(rng.next());
    const Bytes reference = digest_with(&detail::sha256_blocks_portable, message);
    ASSERT_EQ(digest_with(kernel_, message), reference) << "length " << length;

    Sha256 streamed;
    for (std::size_t off = 0; off < length;) {
      const std::size_t take =
          std::min<std::size_t>(length - off, rng.uniform_int(150));
      streamed.update(ByteView(message).subspan(off, take));
      off += take;
    }
    const auto digest = streamed.finalize();
    ASSERT_EQ(Bytes(digest.begin(), digest.end()), reference)
        << "length " << length;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, ShaKernelTest, ::testing::ValuesIn(kShaEntries),
    [](const ::testing::TestParamInfo<ShaEntry>& info) {
      return std::string(info.param.name);
    });

// The probe's answers are the kernels' availability: a hardware entry is
// non-null exactly when the CPU has the feature.
TEST(CpuFeatures, HardwareEntriesFollowTheProbe) {
  const detail::CpuFeatures& features = detail::cpu_features();
  EXPECT_EQ(detail::aes_blocks_aesni() != nullptr, features.aes_ni);
  EXPECT_EQ(detail::aes_expand_key_aesni() != nullptr, features.aes_ni);
  EXPECT_EQ(detail::sha256_blocks_shani() != nullptr, features.sha_ni);
}

}  // namespace
}  // namespace neuropuls::crypto
