// AES (FIPS 197 / SP 800-38A / SP 800-38B) and ChaCha20 (RFC 8439) tests
// against published vectors, plus the sealed-frame helpers used at the
// accelerator hardware boundary.
#include <gtest/gtest.h>

#include <algorithm>
#include <new>

#include "crypto/aes.hpp"
#include "crypto/chacha20.hpp"

namespace neuropuls::crypto {
namespace {

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
  EXPECT_EQ(to_hex(aes_cmac(cipher, Bytes{})),
            "bb1d6929e95937287fa37d129b756746");
}

TEST(AesCmac, Example2) {
  const Aes cipher(from_hex("2b7e151628aed2a6abf7158809cf4f3c"));
  const Bytes msg = from_hex("6bc1bee22e409f96e93d7e117393172a");
  EXPECT_EQ(to_hex(aes_cmac(cipher, msg)), "070a16b46b4d4144f79bdd9dd04a287c");
}

TEST(AesCmac, Example3PartialBlock) {
  const Aes cipher(from_hex("2b7e151628aed2a6abf7158809cf4f3c"));
  const Bytes msg = from_hex(
      "6bc1bee22e409f96e93d7e117393172a"
      "ae2d8a571e03ac9c9eb76fac45af8e51"
      "30c81c46a35ce411");
  EXPECT_EQ(to_hex(aes_cmac(cipher, msg)), "dfa66747de9ae63030ca32611497c827");
}

TEST(AesCmac, Example4FullBlocks) {
  const Aes cipher(from_hex("2b7e151628aed2a6abf7158809cf4f3c"));
  const Bytes msg = from_hex(
      "6bc1bee22e409f96e93d7e117393172a"
      "ae2d8a571e03ac9c9eb76fac45af8e51"
      "30c81c46a35ce411e5fbc1191a0a52ef"
      "f69f2445df4f9b17ad2b417be66c3710");
  EXPECT_EQ(to_hex(aes_cmac(cipher, msg)), "51f0bebf7e3b9d92fc49741779363cfe");
}

TEST(SealedFrame, RoundTrip) {
  const Bytes key = bytes_of("device binding key");
  const Bytes nonce(16, 0x07);
  const Bytes msg = bytes_of("neural network weights, layer 0");
  const Bytes frame = aes_ctr_then_mac_seal(key, nonce, msg);
  EXPECT_EQ(aes_ctr_then_mac_open(key, frame), msg);
}

TEST(SealedFrame, KnownAnswer) {
  const Bytes key = bytes_of("device binding key");
  const Bytes nonce = from_hex("000102030405060708090a0b0c0d0e0f");
  EXPECT_EQ(to_hex(aes_ctr_then_mac_seal(
                key, nonce, bytes_of("neural network weights, layer 0"))),
            "000102030405060708090a0b0c0d0e0f"
            "a5e82f2e2169df24a33d5aedb4472b81"
            "8918e91a8a5516620900da12addcdb37"
            "477d64cbfa49865c69bb72027413b4");
}

TEST(SealedFrame, DetectsTampering) {
  const Bytes key = bytes_of("device binding key");
  const Bytes nonce(16, 0x07);
  Bytes frame = aes_ctr_then_mac_seal(key, nonce, bytes_of("payload"));
  frame[20] ^= 0x01;
  EXPECT_THROW(aes_ctr_then_mac_open(key, frame), std::runtime_error);
}

TEST(SealedFrame, DetectsWrongKey) {
  const Bytes nonce(16, 0x07);
  const Bytes frame =
      aes_ctr_then_mac_seal(bytes_of("key A"), nonce, bytes_of("payload"));
  EXPECT_THROW(aes_ctr_then_mac_open(bytes_of("key B"), frame),
               std::runtime_error);
}

TEST(SealedFrame, RejectsTruncatedFrame) {
  EXPECT_THROW(aes_ctr_then_mac_open(bytes_of("k"), Bytes(31, 0)),
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
  EXPECT_EQ(chacha20_xor(key, nonce, 1, plaintext), expected);
}

TEST(ChaCha20, Involution) {
  const Bytes key(32, 0xaa);
  const Bytes nonce(12, 0x01);
  const Bytes msg = bytes_of("encrypt me twice and you get me back");
  EXPECT_EQ(chacha20_xor(key, nonce, 7, chacha20_xor(key, nonce, 7, msg)),
            msg);
}

TEST(ChaCha20, RejectsBadParams) {
  EXPECT_THROW(chacha20_xor(Bytes(31, 0), Bytes(12, 0), 0, Bytes{}),
               std::invalid_argument);
  EXPECT_THROW(chacha20_xor(Bytes(32, 0), Bytes(11, 0), 0, Bytes{}),
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

TEST(ChaChaDrbg, ReseedChangesStream) {
  ChaChaDrbg a(bytes_of("seed"));
  ChaChaDrbg b(bytes_of("seed"));
  a.generate(16);
  b.generate(16);
  a.reseed(bytes_of("extra entropy"));
  EXPECT_NE(a.generate(32), b.generate(32));
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
  const Bytes bulk = chacha20_xor(key, nonce, 9, msg);
  Bytes stitched;
  for (std::size_t off = 0; off < msg.size(); off += 64) {
    const std::size_t n = std::min<std::size_t>(64, msg.size() - off);
    const Bytes piece = chacha20_xor(
        key, nonce, static_cast<std::uint32_t>(9 + off / 64),
        ByteView(msg).subspan(off, n));
    stitched.insert(stitched.end(), piece.begin(), piece.end());
  }
  EXPECT_EQ(bulk, stitched);
}

TEST(ChaCha20, InplaceMatchesCopyingXor) {
  const Bytes key(32, 0x5c);
  const Bytes nonce(12, 0x36);
  Bytes data = bytes_of("in-place and copying paths share one keystream");
  const Bytes expected = chacha20_xor(key, nonce, 3, data);
  chacha20_xor_inplace(key, nonce, 3, data);
  EXPECT_EQ(data, expected);
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

TEST(ChaChaDrbg, KeystreamXorConsumesSameStreamAsGenerate) {
  ChaChaDrbg a(bytes_of("xor-stream"));
  ChaChaDrbg b(bytes_of("xor-stream"));
  // Interleave partial-block and multi-block spans on both instances.
  for (const std::size_t n : {5u, 64u, 130u, 1u, 200u}) {
    Bytes data(n);
    for (std::size_t i = 0; i < n; ++i) {
      data[i] = static_cast<std::uint8_t>(i + n);
    }
    Bytes xored = data;
    a.keystream_xor(xored);
    const Bytes stream = b.generate(n);
    for (std::size_t i = 0; i < n; ++i) {
      data[i] ^= stream[i];
    }
    EXPECT_EQ(xored, data) << "span length " << n;
  }
  // Both instances are now at the same position.
  EXPECT_EQ(a.generate(32), b.generate(32));
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
