// Finite-field Diffie–Hellman over RFC 3526 MODP groups.
//
// This is the public-key half of the EKE Authentication and Key Agreement
// protocol of Section IV: the CRP acts as a low-entropy shared secret that
// encrypts the DH public values, and the DH exchange supplies the
// high-entropy session key with perfect forward secrecy. Group 14
// (2048-bit) is the default; the smaller 1536-bit group 5 is exposed for
// the cost-scaling sweep in `bench/bench_aka_eke`.
#pragma once

#include <cstdint>

#include "crypto/bignum.hpp"
#include "crypto/bytes.hpp"
#include "crypto/chacha20.hpp"

namespace neuropuls::crypto {

/// A fixed DH group (safe prime p, generator g), with the fixed-base comb
/// for g built once with the group. The comb holds the group's one
/// Montgomery context for p. `dh_generate` computes g^x through the comb;
/// `dh_shared_secret` raises the peer's value through `comb.ctx().modexp`.
/// Both are constant-time in the exponent (bignum.hpp).
struct DhGroup {
  BigUint prime;
  BigUint generator;
  std::size_t prime_bytes;  // serialised public-value length
  FixedBaseComb comb;  // g^x for the 256-bit exponents dh_generate draws

  /// RFC 3526 group 5: 1536-bit MODP.
  static const DhGroup& modp1536();
  /// RFC 3526 group 14: 2048-bit MODP.
  static const DhGroup& modp2048();
};

/// One party's ephemeral DH key pair.
struct DhKeyPair {
  BigUint secret;  // x
  BigUint public_value;  // g^x mod p
};

/// Samples an ephemeral key pair; the secret has ~2x the bits of the
/// target security level (256-bit exponent for the 2048-bit group is the
/// conventional short-exponent optimisation).
DhKeyPair dh_generate(const DhGroup& group, ChaChaDrbg& rng);

/// Computes the shared secret (peer_public ^ secret mod p) and returns it
/// serialised big-endian at the group's fixed width.
/// Throws std::runtime_error on an out-of-range or degenerate public value
/// (0, 1, or p-1 — small-subgroup/identity elements).
Bytes dh_shared_secret(const DhGroup& group, const BigUint& secret,
                       const BigUint& peer_public);

/// Validates a peer public value without computing the secret.
bool dh_public_is_valid(const DhGroup& group, const BigUint& peer_public);

}  // namespace neuropuls::crypto
