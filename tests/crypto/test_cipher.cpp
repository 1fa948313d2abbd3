// AES (FIPS 197 / SP 800-38A / SP 800-38B) and ChaCha20 (RFC 8439) tests
// against published vectors, plus the keyed CMAC and Encrypt-then-MAC
// contexts used at the accelerator hardware boundary.
#include <gtest/gtest.h>

#include <algorithm>
#include <new>

#include "crypto/aes.hpp"
#include "crypto/chacha20.hpp"
#include "crypto/hmac.hpp"
#include "crypto/prng.hpp"

namespace neuropuls::crypto {
namespace {

// One CMAC tag through a one-use Cmac context.
Bytes cmac_tag(const Aes& cipher, ByteView data) {
  Bytes tag(Cmac::kTagSize);
  Cmac(cipher).tag(data, std::span<std::uint8_t, Cmac::kTagSize>(tag));
  return tag;
}

// ChaCha20 over a copy of `data`.
Bytes chacha20(ByteView key, ByteView nonce, std::uint32_t counter,
               ByteView data) {
  Bytes out(data.begin(), data.end());
  chacha20_xor_inplace(key, nonce, counter, out);
  return out;
}

TEST(Aes, Fips197Aes128) {
  const Bytes key = from_hex("000102030405060708090a0b0c0d0e0f");
  Bytes block = from_hex("00112233445566778899aabbccddeeff");
  Aes cipher(key);
  cipher.encrypt_block(std::span<std::uint8_t, 16>(block.data(), 16));
  EXPECT_EQ(to_hex(block), "69c4e0d86a7b0430d8cdb78070b4c55a");
}

TEST(Aes, RejectsBadKeySize) {
  EXPECT_THROW(Aes(Bytes(15, 0)), std::invalid_argument);
  EXPECT_THROW(Aes(Bytes(0, 0)), std::invalid_argument);
  EXPECT_THROW(Aes(Bytes(33, 0)), std::invalid_argument);
}

// AES-192 and AES-256 are not supported: every key in the stack is a
// 16-byte HKDF output, so their key lengths are refused like any other.
TEST(Aes, RejectsAes192And256Keys) {
  EXPECT_THROW(Aes(Bytes(24, 0)), std::invalid_argument);
  EXPECT_THROW(Aes(Bytes(32, 0)), std::invalid_argument);
}

// The schedule's first round key is the raw key, so an unwiped Aes leaves
// the key readable in whatever storage held it. Placement-new into a
// caller-owned buffer lets the test read that storage after destruction.
TEST(Aes, DestructorWipesKeyFromCallerStorage) {
  const Bytes key = from_hex("2b7e151628aed2a6abf7158809cf4f3c");
  alignas(Aes) std::uint8_t storage[sizeof(Aes)];
  const auto holds_key = [&] {
    return std::search(storage, storage + sizeof(storage), key.begin(),
                       key.end()) != storage + sizeof(storage);
  };
  Aes* cipher = new (storage) Aes(key);
  ASSERT_TRUE(holds_key());
  cipher->~Aes();
  EXPECT_FALSE(holds_key());
}

// NIST SP 800-38A F.5.1: CTR-AES128 encrypt.
TEST(AesCtr, Sp800_38aVector) {
  const Bytes key = from_hex("2b7e151628aed2a6abf7158809cf4f3c");
  const Bytes counter = from_hex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff");
  const Bytes plaintext = from_hex(
      "6bc1bee22e409f96e93d7e117393172a"
      "ae2d8a571e03ac9c9eb76fac45af8e51"
      "30c81c46a35ce411e5fbc1191a0a52ef"
      "f69f2445df4f9b17ad2b417be66c3710");
  const Bytes expected = from_hex(
      "874d6191b620e3261bef6864990db6ce"
      "9806f66b7970fdff8617187bb9fffdff"
      "5ae4df3edbd5d35e5b4f09020db03eab"
      "1e031dda2fbe03d1792170a0f3009cee");
  const Aes cipher(key);
  EXPECT_EQ(aes_ctr(cipher, counter, plaintext), expected);
  // CTR is an involution.
  EXPECT_EQ(aes_ctr(cipher, counter, expected), plaintext);
}

TEST(AesCtr, PartialBlock) {
  const Aes cipher(Bytes(16, 0x42));
  const Bytes nonce(16, 0x00);
  const Bytes msg = bytes_of("short");
  const Bytes ct = aes_ctr(cipher, nonce, msg);
  EXPECT_EQ(ct.size(), msg.size());
  EXPECT_EQ(aes_ctr(cipher, nonce, ct), msg);
}

TEST(AesCtr, RejectsBadNonce) {
  EXPECT_THROW(aes_ctr(Aes(Bytes(16, 0)), Bytes(12, 0), Bytes(4, 0)),
               std::invalid_argument);
}

// NIST SP 800-38B D.1: AES-128 CMAC examples.
TEST(AesCmac, EmptyMessage) {
  const Aes cipher(from_hex("2b7e151628aed2a6abf7158809cf4f3c"));
  EXPECT_EQ(to_hex(cmac_tag(cipher, Bytes{})),
            "bb1d6929e95937287fa37d129b756746");
}

TEST(AesCmac, Example2) {
  const Aes cipher(from_hex("2b7e151628aed2a6abf7158809cf4f3c"));
  const Bytes msg = from_hex("6bc1bee22e409f96e93d7e117393172a");
  EXPECT_EQ(to_hex(cmac_tag(cipher, msg)), "070a16b46b4d4144f79bdd9dd04a287c");
}

TEST(AesCmac, Example3PartialBlock) {
  const Aes cipher(from_hex("2b7e151628aed2a6abf7158809cf4f3c"));
  const Bytes msg = from_hex(
      "6bc1bee22e409f96e93d7e117393172a"
      "ae2d8a571e03ac9c9eb76fac45af8e51"
      "30c81c46a35ce411");
  EXPECT_EQ(to_hex(cmac_tag(cipher, msg)), "dfa66747de9ae63030ca32611497c827");
}

TEST(AesCmac, Example4FullBlocks) {
  const Aes cipher(from_hex("2b7e151628aed2a6abf7158809cf4f3c"));
  const Bytes msg = from_hex(
      "6bc1bee22e409f96e93d7e117393172a"
      "ae2d8a571e03ac9c9eb76fac45af8e51"
      "30c81c46a35ce411e5fbc1191a0a52ef"
      "f69f2445df4f9b17ad2b417be66c3710");
  EXPECT_EQ(to_hex(cmac_tag(cipher, msg)), "51f0bebf7e3b9d92fc49741779363cfe");
}

// A Cmac caches its subkeys k1 and k2 next to the cipher's schedule; the
// destructor must wipe them from the context's storage. RFC 4493 section
// 4 gives both subkeys for this key.
TEST(Cmac, DestructorWipesSubkeys) {
  const Bytes key = from_hex("2b7e151628aed2a6abf7158809cf4f3c");
  const Bytes k1 = from_hex("fbeed618357133667c85e08f7236a8de");
  const Bytes k2 = from_hex("f7ddac306ae266ccf90bc11ee46d513b");
  alignas(Cmac) std::uint8_t storage[sizeof(Cmac)];
  const auto holds = [&](const Bytes& secret) {
    return std::search(storage, storage + sizeof(storage), secret.begin(),
                       secret.end()) != storage + sizeof(storage);
  };
  Cmac* mac = new (storage) Cmac(Aes(key));
  ASSERT_TRUE(holds(key));
  ASSERT_TRUE(holds(k1));
  ASSERT_TRUE(holds(k2));
  mac->~Cmac();
  EXPECT_FALSE(holds(key));
  EXPECT_FALSE(holds(k1));
  EXPECT_FALSE(holds(k2));
}

// CtrThenMac derives both keys from one HKDF extract; the frame must be
// byte-identical to Encrypt-then-MAC under the two RFC 5869 expands, for
// keys short and long (above 64 bytes HMAC hashes the key first) and
// plaintexts of 0-300 bytes.
TEST(CtrThenMac, MatchesTwoHkdfDerivations) {
  rng::Xoshiro256 rng(5869);
  for (std::size_t key_len = 0; key_len <= 100; ++key_len) {
    Bytes key(key_len);
    for (auto& byte : key) byte = static_cast<std::uint8_t>(rng.next());
    Bytes nonce(16);
    for (auto& byte : nonce) byte = static_cast<std::uint8_t>(rng.next());
    Bytes plaintext(rng.uniform_int(301));
    for (auto& byte : plaintext) byte = static_cast<std::uint8_t>(rng.next());

    const Hkdf kdf(ByteView{}, key);
    const Aes enc(kdf.expand(bytes_of("np-enc"), 16));
    const Aes mac(kdf.expand(bytes_of("np-mac"), 16));
    Bytes expected = nonce;
    const Bytes ct = aes_ctr(enc, nonce, plaintext);
    expected.insert(expected.end(), ct.begin(), ct.end());
    const Bytes tag = cmac_tag(mac, expected);
    expected.insert(expected.end(), tag.begin(), tag.end());

    const CtrThenMac context(key);
    const Bytes frame = context.seal(nonce, plaintext);
    ASSERT_EQ(to_hex(frame), to_hex(expected)) << "key length " << key_len;
    ASSERT_EQ(context.open(frame), plaintext) << "key length " << key_len;
  }
}

// The context holds both derived keys as the first round keys of its two
// schedules; the destructor must wipe both from the context's storage.
TEST(CtrThenMac, DestructorWipesKeys) {
  const Bytes key = bytes_of("device binding key");
  const Hkdf kdf(ByteView{}, key);
  const Bytes enc_key = kdf.expand(bytes_of("np-enc"), 16);
  const Bytes mac_key = kdf.expand(bytes_of("np-mac"), 16);
  alignas(CtrThenMac) std::uint8_t storage[sizeof(CtrThenMac)];
  const auto holds = [&](const Bytes& secret) {
    return std::search(storage, storage + sizeof(storage), secret.begin(),
                       secret.end()) != storage + sizeof(storage);
  };
  CtrThenMac* context = new (storage) CtrThenMac(key);
  ASSERT_TRUE(holds(enc_key));
  ASSERT_TRUE(holds(mac_key));
  context->~CtrThenMac();
  EXPECT_FALSE(holds(enc_key));
  EXPECT_FALSE(holds(mac_key));
}

TEST(SealedFrame, RoundTrip) {
  const Bytes key = bytes_of("device binding key");
  const Bytes nonce(16, 0x07);
  const Bytes msg = bytes_of("neural network weights, layer 0");
  const CtrThenMac context(key);
  EXPECT_EQ(context.open(context.seal(nonce, msg)), msg);
}

TEST(SealedFrame, KnownAnswer) {
  const Bytes key = bytes_of("device binding key");
  const Bytes nonce = from_hex("000102030405060708090a0b0c0d0e0f");
  EXPECT_EQ(to_hex(CtrThenMac(key).seal(
                nonce, bytes_of("neural network weights, layer 0"))),
            "000102030405060708090a0b0c0d0e0f"
            "a5e82f2e2169df24a33d5aedb4472b81"
            "8918e91a8a5516620900da12addcdb37"
            "477d64cbfa49865c69bb72027413b4");
}

TEST(SealedFrame, DetectsTampering) {
  const Bytes key = bytes_of("device binding key");
  const Bytes nonce(16, 0x07);
  const CtrThenMac context(key);
  Bytes frame = context.seal(nonce, bytes_of("payload"));
  frame[20] ^= 0x01;
  EXPECT_THROW(context.open(frame), std::runtime_error);
}

TEST(SealedFrame, DetectsWrongKey) {
  const Bytes nonce(16, 0x07);
  const Bytes frame =
      CtrThenMac(bytes_of("key A")).seal(nonce, bytes_of("payload"));
  EXPECT_THROW(CtrThenMac(bytes_of("key B")).open(frame), std::runtime_error);
}

TEST(SealedFrame, RejectsTruncatedFrame) {
  EXPECT_THROW(CtrThenMac(bytes_of("k")).open(Bytes(31, 0)),
               std::runtime_error);
}

// RFC 8439 section 2.4.2 encryption test vector.
TEST(ChaCha20, Rfc8439Encryption) {
  const Bytes key = from_hex(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  const Bytes nonce = from_hex("000000000000004a00000000");
  const Bytes plaintext = bytes_of(
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.");
  const Bytes expected = from_hex(
      "6e2e359a2568f98041ba0728dd0d6981"
      "e97e7aec1d4360c20a27afccfd9fae0b"
      "f91b65c5524733ab8f593dabcd62b357"
      "1639d624e65152ab8f530c359f0861d8"
      "07ca0dbf500d6a6156a38e088a22b65e"
      "52bc514d16ccf806818ce91ab7793736"
      "5af90bbf74a35be6b40b8eedf2785e42"
      "874d");
  EXPECT_EQ(chacha20(key, nonce, 1, plaintext), expected);
}

TEST(ChaCha20, Involution) {
  const Bytes key(32, 0xaa);
  const Bytes nonce(12, 0x01);
  const Bytes msg = bytes_of("encrypt me twice and you get me back");
  EXPECT_EQ(chacha20(key, nonce, 7, chacha20(key, nonce, 7, msg)), msg);
}

TEST(ChaCha20, RejectsBadParams) {
  Bytes data(4);
  EXPECT_THROW(chacha20_xor_inplace(Bytes(31, 0), Bytes(12, 0), 0, data),
               std::invalid_argument);
  EXPECT_THROW(chacha20_xor_inplace(Bytes(32, 0), Bytes(11, 0), 0, data),
               std::invalid_argument);
}

TEST(ChaChaDrbg, DeterministicAcrossInstances) {
  ChaChaDrbg a(bytes_of("seed"));
  ChaChaDrbg b(bytes_of("seed"));
  EXPECT_EQ(a.generate(100), b.generate(100));
}

TEST(ChaChaDrbg, SeedSensitivity) {
  ChaChaDrbg a(bytes_of("seed-1"));
  ChaChaDrbg b(bytes_of("seed-2"));
  EXPECT_NE(a.generate(32), b.generate(32));
}

TEST(ChaChaDrbg, UniformRespectsBound) {
  ChaChaDrbg rng(bytes_of("bound test"));
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.uniform(17), 17u);
  }
  EXPECT_THROW(rng.uniform(0), std::invalid_argument);
}

// Bit-identity of the batched kernels against their scalar forms: the
// lane-interleaved / pipelined paths are pure layout transforms and must
// never change a single output bit.

// The 4-lane ChaCha20 kernel vs one-block-at-a-time calls. A 64-byte
// message takes the scalar tail path, so encrypting a long message in one
// call (lane groups + tail) must equal stitching per-block scalar calls
// at successive counters.
TEST(ChaCha20, BatchedKeystreamMatchesScalarBlocks) {
  Bytes key(32), nonce(12);
  for (std::size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<std::uint8_t>(0x13 * i + 5);
  }
  for (std::size_t i = 0; i < nonce.size(); ++i) {
    nonce[i] = static_cast<std::uint8_t>(0x31 * i + 7);
  }
  // 6.5 blocks: one full lane group of 4, a scalar tail of 2, a partial.
  Bytes msg(416 - 32);
  for (std::size_t i = 0; i < msg.size(); ++i) {
    msg[i] = static_cast<std::uint8_t>(i * 37);
  }
  const Bytes bulk = chacha20(key, nonce, 9, msg);
  Bytes stitched;
  for (std::size_t off = 0; off < msg.size(); off += 64) {
    const std::size_t n = std::min<std::size_t>(64, msg.size() - off);
    const Bytes piece = chacha20(
        key, nonce, static_cast<std::uint32_t>(9 + off / 64),
        ByteView(msg).subspan(off, n));
    stitched.insert(stitched.end(), piece.begin(), piece.end());
  }
  EXPECT_EQ(bulk, stitched);
}

// The AES round-major multi-block path vs encrypt_block per block.
TEST(Aes, EncryptBlocksMatchesSingleBlockCalls) {
  const Bytes key = from_hex("2b7e151628aed2a6abf7158809cf4f3c");
  Aes cipher(key);
  Bytes batched(16 * 9);
  for (std::size_t i = 0; i < batched.size(); ++i) {
    batched[i] = static_cast<std::uint8_t>(i * 73 + 11);
  }
  Bytes scalar = batched;
  cipher.encrypt_blocks(batched.data(), 9);
  for (std::size_t b = 0; b < 9; ++b) {
    cipher.encrypt_block(
        std::span<std::uint8_t, 16>(scalar.data() + 16 * b, 16));
  }
  EXPECT_EQ(batched, scalar);
}

// The pipelined CTR path vs a hand-rolled single-block CTR with the
// big-endian low-32 counter increment — pins both keystream bits and
// counter semantics across the 8-block pipeline boundary.
TEST(AesCtr, PipelinedMatchesManualCounterWalk) {
  const Bytes key = from_hex("2b7e151628aed2a6abf7158809cf4f3c");
  Bytes counter = from_hex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff");
  Bytes msg(200);
  for (std::size_t i = 0; i < msg.size(); ++i) {
    msg[i] = static_cast<std::uint8_t>(0xA5 ^ (i * 29));
  }
  Bytes expected = msg;
  Aes cipher(key);
  for (std::size_t off = 0; off < msg.size(); off += 16) {
    Bytes keystream = counter;
    cipher.encrypt_block(std::span<std::uint8_t, 16>(keystream.data(), 16));
    for (std::size_t i = 0; i < std::min<std::size_t>(16, msg.size() - off);
         ++i) {
      expected[off + i] ^= keystream[i];
    }
    for (int b = 15; b >= 12; --b) {  // wrapping big-endian low-32 increment
      if (++counter[static_cast<std::size_t>(b)] != 0) break;
    }
  }
  EXPECT_EQ(aes_ctr(cipher, from_hex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff"), msg),
            expected);
}

// DRBG bulk fills vs single-byte draws: the stream position advances
// identically, so mixed call patterns stay reproducible.
TEST(ChaChaDrbg, BulkGenerateMatchesByteAtATime) {
  ChaChaDrbg bulk(bytes_of("bulk-vs-bytes"));
  ChaChaDrbg bytes(bytes_of("bulk-vs-bytes"));
  const Bytes big = bulk.generate(333);
  Bytes stitched;
  for (std::size_t i = 0; i < 333; ++i) {
    const Bytes one = bytes.generate(1);
    stitched.push_back(one[0]);
  }
  EXPECT_EQ(big, stitched);
}

TEST(ChaChaDrbg, GenerateSpansBlockBoundaries) {
  ChaChaDrbg a(bytes_of("boundary"));
  ChaChaDrbg b(bytes_of("boundary"));
  // 130 bytes crosses two 64-byte keystream blocks.
  const Bytes big = a.generate(130);
  Bytes stitched = b.generate(50);
  const Bytes rest = b.generate(80);
  stitched.insert(stitched.end(), rest.begin(), rest.end());
  EXPECT_EQ(big, stitched);
}

}  // namespace
}  // namespace neuropuls::crypto
