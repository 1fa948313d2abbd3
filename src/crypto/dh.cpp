#include "crypto/dh.hpp"

#include <stdexcept>
#include <utility>

namespace neuropuls::crypto {

namespace {

// RFC 3526 section 2 — 1536-bit MODP group, generator 2.
constexpr const char* kModp1536Hex =
    "FFFFFFFF FFFFFFFF C90FDAA2 2168C234 C4C6628B 80DC1CD1"
    "29024E08 8A67CC74 020BBEA6 3B139B22 514A0879 8E3404DD"
    "EF9519B3 CD3A431B 302B0A6D F25F1437 4FE1356D 6D51C245"
    "E485B576 625E7EC6 F44C42E9 A637ED6B 0BFF5CB6 F406B7ED"
    "EE386BFB 5A899FA5 AE9F2411 7C4B1FE6 49286651 ECE45B3D"
    "C2007CB8 A163BF05 98DA4836 1C55D39A 69163FA8 FD24CF5F"
    "83655D23 DCA3AD96 1C62F356 208552BB 9ED52907 7096966D"
    "670C354E 4ABC9804 F1746C08 CA237327 FFFFFFFF FFFFFFFF";

// RFC 3526 section 3 — 2048-bit MODP group, generator 2.
constexpr const char* kModp2048Hex =
    "FFFFFFFF FFFFFFFF C90FDAA2 2168C234 C4C6628B 80DC1CD1"
    "29024E08 8A67CC74 020BBEA6 3B139B22 514A0879 8E3404DD"
    "EF9519B3 CD3A431B 302B0A6D F25F1437 4FE1356D 6D51C245"
    "E485B576 625E7EC6 F44C42E9 A637ED6B 0BFF5CB6 F406B7ED"
    "EE386BFB 5A899FA5 AE9F2411 7C4B1FE6 49286651 ECE45B3D"
    "C2007CB8 A163BF05 98DA4836 1C55D39A 69163FA8 FD24CF5F"
    "83655D23 DCA3AD96 1C62F356 208552BB 9ED52907 7096966D"
    "670C354E 4ABC9804 F1746C08 CA18217C 32905E46 2E36CE3B"
    "E39E772C 180E8603 9B2783A2 EC07A28F B5C55DF0 6F4C52C9"
    "DE2BCBF6 95581718 3995497C EA956AE5 15D22618 98FA0510"
    "15728E5A 8AACAA68 FFFFFFFF FFFFFFFF";

// The short exponent dh_generate draws: 256 bits, at least twice the
// 128-bit target security level.
constexpr std::size_t kExponentBytes = 32;

DhGroup make_group(const char* hex) {
  const BigUint prime = BigUint::from_hex(hex);
  const BigUint generator(2);
  FixedBaseComb comb(MontgomeryCtx(prime), generator, kExponentBytes / 8);
  return DhGroup{prime, generator, (prime.bit_length() + 7) / 8,
                 std::move(comb)};
}

}  // namespace

const DhGroup& DhGroup::modp1536() {
  static const DhGroup group = make_group(kModp1536Hex);
  return group;
}

const DhGroup& DhGroup::modp2048() {
  static const DhGroup group = make_group(kModp2048Hex);
  return group;
}

DhKeyPair dh_generate(const DhGroup& group, ChaChaDrbg& rng) {
  Bytes exponent_bytes = rng.generate(kExponentBytes);  // ctlint:secret
  exponent_bytes[0] |= 0x80;  // force full length
  exponent_bytes[kExponentBytes - 1] |= 0x01;  // never zero
  DhKeyPair pair;
  pair.secret = BigUint::from_bytes_be(exponent_bytes);
  secure_wipe(exponent_bytes);
  pair.public_value = group.comb.pow(pair.secret);
  return pair;
}

bool dh_public_is_valid(const DhGroup& group, const BigUint& peer_public) {
  // Reject 0, 1 and p-1 (order-1/order-2 elements) and out-of-range values.
  if (peer_public <= BigUint(1)) return false;
  const BigUint p_minus_1 = group.prime - BigUint(1);
  return peer_public < p_minus_1;
}

Bytes dh_shared_secret(const DhGroup& group, const BigUint& secret,
                       const BigUint& peer_public) {
  if (!dh_public_is_valid(group, peer_public)) {
    throw std::runtime_error("dh_shared_secret: invalid peer public value");
  }
  BigUint shared = group.comb.ctx().modexp(peer_public, secret);
  Bytes out = shared.to_bytes_be(group.prime_bytes);
  shared.wipe();
  return out;
}

}  // namespace neuropuls::crypto
