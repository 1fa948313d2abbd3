// SHA-256 / HMAC / HKDF tests against published vectors (FIPS 180-4,
// RFC 4231, RFC 5869) plus incremental-interface consistency checks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <new>
#include <string>

#include "crypto/block_kernels.hpp"
#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"
#include "crypto/siphash.hpp"

namespace neuropuls::crypto {
namespace {

std::string hex_digest(ByteView data) {
  return to_hex(Sha256::hash(data));
}

TEST(Sha256, EmptyString) {
  EXPECT_EQ(hex_digest(Bytes{}),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(hex_digest(bytes_of("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(
      hex_digest(bytes_of(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  const auto d = h.finalize();
  EXPECT_EQ(to_hex(Bytes(d.begin(), d.end())),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const Bytes data = bytes_of("The quick brown fox jumps over the lazy dog");
  for (std::size_t split = 0; split <= data.size(); ++split) {
    Sha256 h;
    h.update(ByteView(data).first(split));
    h.update(ByteView(data).subspan(split));
    const auto d = h.finalize();
    EXPECT_EQ(Bytes(d.begin(), d.end()), Sha256::hash(data))
        << "split at " << split;
  }
}

// The multi-block compression path (one process_blocks call per bulk
// update) vs block-at-a-time buffering: chunk sizes below 64 force every
// block through the staging buffer, larger ones stream whole blocks
// directly — the digest must not depend on the route.
TEST(Sha256, MultiBlockStreamingMatchesBufferedBlocks) {
  Bytes data(1009);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 131 + 17);
  }
  const Bytes oneshot = Sha256::hash(data);
  for (const std::size_t chunk : {1u, 63u, 64u, 65u, 128u, 333u}) {
    Sha256 h;
    for (std::size_t off = 0; off < data.size(); off += chunk) {
      h.update(ByteView(data).subspan(off, std::min(chunk,
                                                    data.size() - off)));
    }
    const auto d = h.finalize();
    EXPECT_EQ(Bytes(d.begin(), d.end()), oneshot) << "chunk " << chunk;
  }
}

TEST(Sha256, ResetReusesContext) {
  Sha256 h;
  h.update(bytes_of("garbage"));
  h.reset();
  h.update(bytes_of("abc"));
  const auto d = h.finalize();
  EXPECT_EQ(to_hex(Bytes(d.begin(), d.end())),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

// RFC 4231 test case 1.
TEST(HmacSha256, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  EXPECT_EQ(to_hex(hmac_sha256(key, bytes_of("Hi There"))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

// RFC 4231 test case 2 ("Jefe").
TEST(HmacSha256, Rfc4231Case2) {
  EXPECT_EQ(
      to_hex(hmac_sha256(bytes_of("Jefe"),
                         bytes_of("what do ya want for nothing?"))),
      "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

// RFC 4231 test case 3: key of 20 0xaa bytes, data of 50 0xdd bytes.
TEST(HmacSha256, Rfc4231Case3) {
  const Bytes key(20, 0xaa);
  const Bytes data(50, 0xdd);
  EXPECT_EQ(to_hex(hmac_sha256(key, data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

// RFC 4231 test case 6: key longer than the block size.
TEST(HmacSha256, Rfc4231Case6LongKey) {
  const Bytes key(131, 0xaa);
  EXPECT_EQ(
      to_hex(hmac_sha256(
          key, bytes_of("Test Using Larger Than Block-Size Key - Hash Key First"))),
      "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacSha256, IncrementalMatchesOneShot) {
  const Bytes key = bytes_of("secret key");
  const Bytes data = bytes_of("message in several parts");
  HmacSha256 mac(key);
  mac.update(ByteView(data).first(7));
  mac.update(ByteView(data).subspan(7));
  EXPECT_EQ(mac.finalize(), hmac_sha256(key, data));
}

TEST(HmacSha256, PartsMatchConcatenation) {
  const Bytes key = bytes_of("session key");
  const Bytes label = bytes_of("np-eke-server");
  const Bytes transcript(150, 0x3c);
  EXPECT_EQ(hmac_sha256_parts(key, {label, transcript}),
            hmac_sha256(key, concat({label, transcript})));
  EXPECT_EQ(hmac_sha256_parts(key, {}), hmac_sha256(key, Bytes{}));
}

// What an HmacSha256 keyed on `key` (at most 64 bytes) stores: the opad
// block and the SHA-256 midstate after the ipad block, as byte strings.
std::array<Bytes, 2> hmac_key_state(ByteView key) {
  std::array<std::uint8_t, 64> ipad{};
  Bytes opad(64);
  for (std::size_t i = 0; i < 64; ++i) {
    const std::uint8_t k = i < key.size() ? key[i] : 0;
    opad[i] = static_cast<std::uint8_t>(k ^ 0x5c);
    ipad[i] = static_cast<std::uint8_t>(k ^ 0x36);
  }
  std::uint32_t midstate[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                               0xa54ff53a, 0x510e527f, 0x9b05688c,
                               0x1f83d9ab, 0x5be0cd19};
  detail::sha256_blocks_portable(midstate, ipad.data(), 1);
  Bytes midstate_bytes(sizeof(midstate));
  std::memcpy(midstate_bytes.data(), midstate, sizeof(midstate));
  return {opad, midstate_bytes};
}

// Whether `storage` contains `secret` anywhere.
template <std::size_t N>
bool holds(const std::uint8_t (&storage)[N], const Bytes& secret) {
  return std::search(storage, storage + N, secret.begin(), secret.end()) !=
         storage + N;
}

// An HMAC context holds its key twice: as the opad block and as the SHA-256
// midstate after the ipad block. Placement-new into a caller-owned buffer
// lets the test read that storage after destruction, in the style of
// Aes.DestructorWipesKeyFromCallerStorage.
TEST(HmacSha256, DestructorWipesKeyFromCallerStorage) {
  const Bytes key = from_hex(
      "0b1c2d3e4f5061728394a5b6c7d8e9fa0b1c2d3e4f5061728394a5b6c7d8e9fa");
  alignas(HmacSha256) std::uint8_t storage[sizeof(HmacSha256)];
  auto* mac = new (storage) HmacSha256(key);
  for (const Bytes& state : hmac_key_state(key)) {
    ASSERT_TRUE(holds(storage, state));
  }
  mac->~HmacSha256();
  for (const Bytes& state : hmac_key_state(key)) {
    EXPECT_FALSE(holds(storage, state));
  }
}

// RFC 5869 test case 1, through one Hkdf context.
TEST(Hkdf, Rfc5869Case1) {
  const Bytes ikm(22, 0x0b);
  const Bytes salt = from_hex("000102030405060708090a0b0c");
  const Bytes info = from_hex("f0f1f2f3f4f5f6f7f8f9");
  EXPECT_EQ(to_hex(Hkdf(salt, ikm).expand(info, 42)),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
}

// RFC 5869 test case 2: 80-byte salt, IKM and info, 82-byte OKM. Three
// T(n) blocks, so T(1) and T(2) each chain into the next block's HMAC.
TEST(Hkdf, Rfc5869Case2LongInputs) {
  Bytes ikm(80), salt(80), info(80);
  for (std::size_t i = 0; i < 80; ++i) {
    ikm[i] = static_cast<std::uint8_t>(i);
    salt[i] = static_cast<std::uint8_t>(0x60 + i);
    info[i] = static_cast<std::uint8_t>(0xb0 + i);
  }
  EXPECT_EQ(to_hex(Hkdf(salt, ikm).expand(info, 82)),
            "b11e398dc80327a1c8e7f78c596a49344f012eda2d4efad8a050cc4c19afa97c"
            "59045a99cac7827271cb41c65e590e09da3275600c2f09b8367793a9aca3db71"
            "cc30c58179ec3e87c14c01d5c1f3434f1d87");
}

// RFC 5869 test case 3: empty salt and info.
TEST(Hkdf, Rfc5869Case3EmptySaltInfo) {
  const Bytes ikm(22, 0x0b);
  EXPECT_EQ(to_hex(Hkdf(ByteView{}, ikm).expand(ByteView{}, 42)),
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d"
            "9d201395faa4b61a96c8");
}

TEST(Hkdf, RejectsOversizedRequest) {
  const Hkdf kdf(ByteView{}, Bytes(32, 0x01));
  EXPECT_THROW(kdf.expand(ByteView{}, Hkdf::kMaxOutput + 1),
               std::invalid_argument);
  EXPECT_EQ(kdf.expand(ByteView{}, Hkdf::kMaxOutput).size(), Hkdf::kMaxOutput);
}

TEST(Hkdf, DistinctInfoGivesIndependentKeys) {
  const Hkdf kdf(ByteView{}, bytes_of("puf-derived key material"));
  EXPECT_NE(kdf.expand(bytes_of("enc"), 32), kdf.expand(bytes_of("mac"), 32));
}

// One context expands any number of labels, in any order, to the bytes a
// fresh context per label gives: expand leaves the keyed PRK unchanged.
TEST(Hkdf, ManyExpandsMatchFreshContexts) {
  const Bytes salt = bytes_of("transcript");
  const Bytes ikm = bytes_of("shared secret g^xy");
  const Hkdf kdf(salt, ikm);
  for (int round = 0; round < 2; ++round) {
    for (const std::size_t length : {0u, 1u, 16u, 32u, 33u, 64u, 100u}) {
      const Bytes info = bytes_of("label-" + std::to_string(length));
      EXPECT_EQ(kdf.expand(info, length), Hkdf(salt, ikm).expand(info, length))
          << "length " << length << " round " << round;
    }
  }
}

// The context holds the PRK only as an HMAC key: its opad block and the
// midstate after the ipad block. The PRK itself is never stored, and the
// destructor wipes both, as HmacSha256.DestructorWipesKeyFromCallerStorage
// checks for a plain key. The PRK is RFC 5869 test case 1's.
TEST(Hkdf, DestructorWipesPrkContext) {
  const Bytes ikm(22, 0x0b);
  const Bytes salt = from_hex("000102030405060708090a0b0c");
  const Bytes prk = from_hex(
      "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5");
  alignas(Hkdf) std::uint8_t storage[sizeof(Hkdf)];
  auto* kdf = new (storage) Hkdf(salt, ikm);
  for (const Bytes& state : hmac_key_state(prk)) {
    ASSERT_TRUE(holds(storage, state));
  }
  EXPECT_FALSE(holds(storage, prk));
  kdf->~Hkdf();
  for (const Bytes& state : hmac_key_state(prk)) {
    EXPECT_FALSE(holds(storage, state));
  }
}

// Reference vector from the SipHash paper (Appendix A).
TEST(SipHash, PaperVector) {
  std::array<std::uint8_t, 16> key{};
  for (int i = 0; i < 16; ++i) key[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(i);
  Bytes msg(15);
  for (int i = 0; i < 15; ++i) msg[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(i);
  EXPECT_EQ(siphash24(key, msg), 0xa129ca6149be45e5ULL);
}

TEST(SipHash, KeyednessAndDeterminism) {
  std::array<std::uint8_t, 16> k1{};
  std::array<std::uint8_t, 16> k2{};
  k2[0] = 1;
  const Bytes msg = bytes_of("bus transaction");
  EXPECT_EQ(siphash24(k1, msg), siphash24(k1, msg));
  EXPECT_NE(siphash24(k1, msg), siphash24(k2, msg));
}

}  // namespace
}  // namespace neuropuls::crypto
