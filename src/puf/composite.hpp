// PUF composition: challenge encryption and PIC+ASIC chip binding.
//
// Two §IV hardening constructions:
//
// 1. `EncryptedChallengePuf` — "architectural solutions that rely on the
//    combination of a strong and a weak PUF to encrypt the challenges
//    before entering the photonic PUF as we previously proposed for
//    purely electronic PUFs" (ref. [30], Vatajelu et al.). The weak PUF
//    yields a device-secret AES key; every external challenge is
//    encrypted with it before reaching the strong PUF, so the mapping a
//    modelling attacker observes is composed with a PRP they cannot
//    invert — linear/parity feature models stop working even on an
//    arbiter PUF.
//
// 2. `CompositePuf` — "PUF intrinsically bound at both the PIC and the
//    ASIC levels ... it is possible to generate a composite response from
//    the 2 chips, which can be used to assess the genuine character of
//    the accelerator as a whole." The ASIC post-processes the PIC
//    response with a keyed transform derived from its own SRAM PUF;
//    swapping either chip (tampering) changes the composite response.
#pragma once

#include <memory>

#include "crypto/aes.hpp"
#include "puf/puf.hpp"
#include "puf/sram_puf.hpp"

namespace neuropuls::puf {

/// Wraps a strong PUF so that challenges are AES-CTR-whitened with a key
/// derived from a weak PUF before evaluation.
class EncryptedChallengePuf final : public Puf {
 public:
  /// `key_source` is read once at construction (the weak PUF's enrolled
  /// key material, 16 bytes after hashing).
  EncryptedChallengePuf(std::unique_ptr<Puf> inner, const Response& weak_key);

  std::size_t challenge_bytes() const override {
    return inner_->challenge_bytes();
  }
  std::size_t response_bytes() const override {
    return inner_->response_bytes();
  }

  Response evaluate(const Challenge& challenge) override {
    return inner_->evaluate(transform(challenge));
  }
  Response evaluate_noiseless(const Challenge& challenge) const override {
    return inner_->evaluate_noiseless(transform(challenge));
  }
  std::string name() const override {
    return "enc-challenge(" + inner_->name() + ")";
  }

  /// The whitening transform itself (exposed for tests).
  Challenge transform(const Challenge& challenge) const;

 private:
  std::unique_ptr<Puf> inner_;
  crypto::Aes cipher_;
};

/// PIC response post-processed by the bound ASIC: the composite response
/// is response XOR keystream(sram_key, challenge). The genuine pair
/// (PIC i, ASIC i) produces enrolled responses; any swapped chip fails.
class CompositePuf final : public Puf {
 public:
  CompositePuf(std::unique_ptr<Puf> pic, std::unique_ptr<SramPuf> asic);

  std::size_t challenge_bytes() const override {
    return pic_->challenge_bytes();
  }
  std::size_t response_bytes() const override {
    return pic_->response_bytes();
  }

  Response evaluate(const Challenge& challenge) override;
  Response evaluate_noiseless(const Challenge& challenge) const override;
  std::string name() const override {
    return "composite(" + pic_->name() + "+sram)";
  }

 private:
  crypto::Bytes asic_mask(const Challenge& challenge) const;

  std::unique_ptr<Puf> pic_;
  std::unique_ptr<SramPuf> asic_;
  crypto::Aes asic_cipher_;  // keyed once from the ASIC's stable bits
};

}  // namespace neuropuls::puf
