// Property sweeps over the crypto substrate: incremental/one-shot hash
// agreement, cipher involutions, and per-bit tamper detection, across a
// grid of message lengths chosen to straddle every block boundary.
#include <gtest/gtest.h>

#include "crypto/aes.hpp"
#include "crypto/chacha20.hpp"
#include "crypto/hmac.hpp"
#include "crypto/prng.hpp"
#include "crypto/sha256.hpp"

namespace neuropuls::crypto {
namespace {

class MessageLengths : public ::testing::TestWithParam<std::size_t> {
 protected:
  Bytes message() const {
    rng::Xoshiro256 rng(GetParam() * 31 + 7);
    Bytes data(GetParam());
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
    return data;
  }
};

TEST_P(MessageLengths, ShaIncrementalEqualsOneShot) {
  const Bytes data = message();
  // Split at every third boundary candidate.
  for (std::size_t split :
       {std::size_t{0}, data.size() / 3, data.size() / 2, data.size()}) {
    Sha256 h;
    h.update(ByteView(data).first(split));
    h.update(ByteView(data).subspan(split));
    const auto digest = h.finalize();
    EXPECT_EQ(Bytes(digest.begin(), digest.end()), Sha256::hash(data))
        << "len=" << data.size() << " split=" << split;
  }
}

TEST_P(MessageLengths, AesCtrInvolution) {
  const Bytes data = message();
  const Aes cipher(Bytes(16, 0x5A));
  const Bytes nonce(16, 0x01);
  EXPECT_EQ(aes_ctr(cipher, nonce, aes_ctr(cipher, nonce, data)), data);
}

TEST_P(MessageLengths, ChaChaInvolution) {
  const Bytes data = message();
  const Bytes key(32, 0x5A);
  const Bytes nonce(12, 0x01);
  Bytes twice = data;
  chacha20_xor_inplace(key, nonce, 3, twice);
  chacha20_xor_inplace(key, nonce, 3, twice);
  EXPECT_EQ(twice, data);
}

TEST_P(MessageLengths, SealedFrameRoundTrip) {
  const Bytes data = message();
  const Bytes key = bytes_of("property key");
  const Bytes nonce(16, 0x07);
  const CtrThenMac context(key);
  EXPECT_EQ(context.open(context.seal(nonce, data)), data);
}

TEST_P(MessageLengths, CiphertextSameLengthAsPlaintext) {
  const Bytes data = message();
  const Aes cipher(Bytes(16, 0x11));
  const Bytes nonce(16, 0x22);
  EXPECT_EQ(aes_ctr(cipher, nonce, data).size(), data.size());
}

INSTANTIATE_TEST_SUITE_P(BlockBoundaries, MessageLengths,
                         ::testing::Values(0ul, 1ul, 15ul, 16ul, 17ul, 55ul,
                                           56ul, 63ul, 64ul, 65ul, 127ul,
                                           128ul, 129ul, 1000ul));

// Every single-bit flip anywhere in a sealed frame must be detected.
TEST(TamperExhaustive, SealedFrameEveryBitPosition) {
  const Bytes key = bytes_of("tamper key");
  const Bytes nonce(16, 0x09);
  const Bytes plaintext = bytes_of("short secret");
  const CtrThenMac context(key);
  const Bytes frame = context.seal(nonce, plaintext);
  for (std::size_t byte = 0; byte < frame.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      Bytes mutated = frame;
      mutated[byte] ^= static_cast<std::uint8_t>(1 << bit);
      EXPECT_THROW(context.open(mutated), std::runtime_error)
          << "byte " << byte << " bit " << bit;
    }
  }
}

// Every single-bit flip in a MAC'd message changes the HMAC.
TEST(TamperExhaustive, HmacEveryBitPosition) {
  const Bytes key = bytes_of("hmac key");
  const Bytes msg = bytes_of("authenticated");
  const Bytes reference = hmac_sha256(key, msg);
  for (std::size_t byte = 0; byte < msg.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      Bytes mutated = msg;
      mutated[byte] ^= static_cast<std::uint8_t>(1 << bit);
      EXPECT_NE(hmac_sha256(key, mutated), reference);
    }
  }
}

// Avalanche: flipping one input bit flips ~half the SHA-256 output bits.
TEST(Avalanche, Sha256HalfTheBits) {
  const Bytes base = bytes_of("avalanche test input");
  const Bytes h0 = Sha256::hash(base);
  double total = 0.0;
  int cases = 0;
  for (std::size_t byte = 0; byte < base.size(); byte += 3) {
    Bytes mutated = base;
    mutated[byte] ^= 0x01;
    total += fractional_hamming_distance(h0, Sha256::hash(mutated));
    ++cases;
  }
  EXPECT_NEAR(total / cases, 0.5, 0.08);
}

// AES key-avalanche: one key bit flips ~half the ciphertext block.
TEST(Avalanche, AesKeyBit) {
  Bytes key(16, 0x42);
  Bytes block_in = from_hex("00112233445566778899aabbccddeeff");
  auto encrypt = [&](const Bytes& k) {
    Bytes block = block_in;
    Aes(k).encrypt_block(std::span<std::uint8_t, 16>(block.data(), 16));
    return block;
  };
  const Bytes reference = encrypt(key);
  double total = 0.0;
  int cases = 0;
  for (std::size_t byte = 0; byte < key.size(); ++byte) {
    Bytes mutated_key = key;
    mutated_key[byte] ^= 0x80;
    total += fractional_hamming_distance(reference, encrypt(mutated_key));
    ++cases;
  }
  EXPECT_NEAR(total / cases, 0.5, 0.06);
}

// DRBG streams with related seeds are uncorrelated.
class SeedPairs : public ::testing::TestWithParam<int> {};

TEST_P(SeedPairs, RelatedSeedsUncorrelatedStreams) {
  Bytes seed_a = bytes_of("related seed base");
  Bytes seed_b = seed_a;
  seed_b[static_cast<std::size_t>(GetParam()) % seed_b.size()] ^= 0x01;
  ChaChaDrbg a(seed_a), b(seed_b);
  const Bytes stream_a = a.generate(512);
  const Bytes stream_b = b.generate(512);
  EXPECT_NEAR(fractional_hamming_distance(stream_a, stream_b), 0.5, 0.05);
}

INSTANTIATE_TEST_SUITE_P(FlipPositions, SeedPairs,
                         ::testing::Values(0, 3, 7, 11, 16));

}  // namespace
}  // namespace neuropuls::crypto
