#include "puf/composite.hpp"

#include <stdexcept>

#include "common/secret.hpp"
#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"

namespace neuropuls::puf {

namespace {
// The chip-binding cipher, keyed from the ASIC's stable (noise-free
// reference) SRAM pattern; in hardware this would be the fuzzy-extracted
// key. The pattern is held only as a SecretBytes, so it is wiped once the
// cipher is keyed.
crypto::Aes binding_cipher(const SramPuf* asic) {
  const common::SecretBytes pattern(asic ? asic->evaluate_noiseless({})
                                         : Response{});
  return crypto::hkdf_aes128(
      crypto::Hkdf(crypto::ByteView{}, pattern.reveal()), "np-chip-binding");
}
}  // namespace

EncryptedChallengePuf::EncryptedChallengePuf(std::unique_ptr<Puf> inner,
                                             const Response& weak_key)
    : inner_(std::move(inner)),
      cipher_(crypto::hkdf_aes128(crypto::Hkdf(crypto::ByteView{}, weak_key),
                                  "np-challenge-enc")) {
  if (!inner_) {
    throw std::invalid_argument("EncryptedChallengePuf: null inner PUF");
  }
}

Challenge EncryptedChallengePuf::transform(const Challenge& challenge) const {
  if (challenge.size() != inner_->challenge_bytes()) {
    throw std::invalid_argument("EncryptedChallengePuf: wrong challenge size");
  }
  // Deterministic whitening: AES-CTR keystream derived from the challenge
  // itself (the challenge digest is the nonce), XORed onto the challenge.
  // Same challenge -> same transformed challenge, but the mapping is a
  // keyed PRF the attacker cannot model around.
  const crypto::Bytes digest = crypto::Sha256::hash(challenge);
  const crypto::Bytes nonce(digest.begin(), digest.begin() + 16);
  return crypto::aes_ctr(cipher_, nonce, challenge);
}

CompositePuf::CompositePuf(std::unique_ptr<Puf> pic,
                           std::unique_ptr<SramPuf> asic)
    : pic_(std::move(pic)),
      asic_(std::move(asic)),
      asic_cipher_(binding_cipher(asic_.get())) {
  if (!pic_ || !asic_) {
    throw std::invalid_argument("CompositePuf: null chip");
  }
}

crypto::Bytes CompositePuf::asic_mask(const Challenge& challenge) const {
  // Keystream the length of the response, bound to the challenge.
  const crypto::Bytes digest = crypto::Sha256::hash(challenge);
  const crypto::Bytes nonce(digest.begin(), digest.begin() + 16);
  return crypto::aes_ctr(asic_cipher_, nonce,
                         crypto::Bytes(pic_->response_bytes(), 0));
}

Response CompositePuf::evaluate(const Challenge& challenge) {
  return crypto::xor_bytes(pic_->evaluate(challenge), asic_mask(challenge));
}

Response CompositePuf::evaluate_noiseless(const Challenge& challenge) const {
  return crypto::xor_bytes(pic_->evaluate_noiseless(challenge),
                           asic_mask(challenge));
}

}  // namespace neuropuls::puf
