// Fixture: secret-indexed table lookups (cache-timing oracle) and secrets
// that leave scope without a wipe — plus the compliant variants that must
// stay quiet. Lint input only.
#include "common/secret.hpp"
#include "crypto/bytes.hpp"

namespace fixture {

extern const unsigned char kSbox[256];

unsigned char leaky_sbox_lookup() {
  neuropuls::crypto::Bytes key_byte(1, 0x3C);  // ctlint:secret  // ctlint:expect(missing-wipe)
  // The cache line touched depends on the key: CPA fodder.
  return kSbox[key_byte[0]];  // ctlint:expect(secret-index)
}

unsigned char masked_lookup_is_fine(unsigned char public_index) {
  // No secret inside the brackets -> no finding.
  return kSbox[public_index & 0xFF];
}

void forgot_to_wipe() {
  neuropuls::crypto::Bytes session_secret(32, 0);  // ctlint:secret  // ctlint:expect(missing-wipe)
  (void)session_secret;
}  // scope ends, residue stays on the heap

void wiped_properly() {
  neuropuls::crypto::Bytes root_key(32, 0);  // ctlint:secret
  (void)root_key;
  neuropuls::crypto::secure_wipe(root_key);
}

void secret_bytes_is_exempt() {
  // SecretBytes wipes itself on destruction; no annotation debt.
  neuropuls::common::SecretBytes vault;  // ctlint:secret
  (void)vault.size();
}

void secret_vector_is_exempt() {
  // So does SecretVector, the holder for non-byte plaintext.
  const neuropuls::common::SecretVector<double> output(  // ctlint:secret(output)
      std::vector<double>(4, 0.5));
  (void)output.reveal();
}

void plain_double_vector_is_not() {
  std::vector<double> output(4, 0.5);  // ctlint:secret  // ctlint:expect(missing-wipe)
  (void)output;
}

void method_wipe_counts() {
  neuropuls::common::SecretBytes sk;
  neuropuls::crypto::Bytes mirror(16, 1);  // ctlint:secret
  (void)sk;
  mirror.clear();
  // A named .wipe() call also satisfies the rule (SecretBytes member
  // mirrors exist transiently in protocol code).
  // ...except clear() alone is NOT a wipe; do it right:
  neuropuls::crypto::secure_wipe(mirror);
}

void suppressed_wipe_debt() {
  // ctlint:allow(missing-wipe) buffer is all-zero test padding, nothing secret survives
  neuropuls::crypto::Bytes padding(64, 0);  // ctlint:secret
  (void)padding;
}

}  // namespace fixture
