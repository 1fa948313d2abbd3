// Device key management: weak PUF -> fuzzy extractor -> key hierarchy.
//
// Fig. 1's left column: the weak PUF (with ECC) feeds "cryptographic key
// generation". At enrollment the device reads its weak PUF, runs the
// code-offset fuzzy extractor, and stores only the *helper data* (public)
// — never the key. At every boot the key is re-derived from a fresh noisy
// reading; HKDF then splits it into purpose-bound sub-keys so the Table I
// encryption key, the MAC key, and the PIC/ASIC binding key are pairwise
// independent ("this key is never exposed to the software layer" — here
// enforced by handing out derived sub-keys only).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "common/mutex.hpp"
#include "common/secret.hpp"
#include "common/thread_annotations.hpp"
#include "crypto/bytes.hpp"
#include "ecc/fuzzy_extractor.hpp"
#include "puf/puf.hpp"

namespace neuropuls::core {

/// Gathers `bits` response bits from a PUF by evaluating a deterministic
/// sequence of fixed enrollment challenges (weak-PUF usage of a strong
/// PUF; weak PUFs with empty challenges are read directly).
/// `readings` > 1 majority-votes each evaluation (Puf::evaluate_robust) —
/// the graceful-degradation re-measurement used when a single noisy read
/// is too corrupted for the code.
ecc::BitVec collect_response_bits(puf::Puf& puf, std::size_t bits,
                                  unsigned readings = 1);

/// Public, persistable enrollment record.
struct DeviceKeyRecord {
  ecc::HelperData helper;
};

struct DeviceKeys {
  common::SecretBytes encryption_key;  // Table I bulk encryption (16 bytes)
  common::SecretBytes mac_key;         // message authentication (32 bytes)
  common::SecretBytes binding_key;  // PIC<->ASIC composite binding (16 bytes)
};

/// Thread-safe: enrollment and derivation serialize on one internal
/// mutex — the PUF reference is not thread-safe, and the enrolled root
/// must never be observed half-written by a concurrent exporter.
class KeyManager {
 public:
  /// `key_bytes` sizes the fuzzy-extractor root key.
  explicit KeyManager(puf::Puf& puf, std::size_t key_bytes = 16);

  /// Manufacturing-time enrollment. Returns the public record to persist.
  DeviceKeyRecord enroll(crypto::ChaChaDrbg& rng) NP_EXCLUDES(mutex_);

  /// Boot-time key derivation: up to `attempts` tries, each from a fresh
  /// PUF reading that majority-votes `readings` re-measurements per
  /// challenge (1 = a single noisy read). Returns std::nullopt only when
  /// every attempt is too noisy for the code; the caller retries
  /// (physically, re-powers the PUF) or, past its budget, treats the
  /// device as a candidate for accel::SecureAccelerator lockout.
  std::optional<DeviceKeys> derive(const DeviceKeyRecord& record,
                                   unsigned attempts = 1,
                                   unsigned readings = 1)
      NP_EXCLUDES(mutex_);

  /// The degradation-tolerant escalation: derive() with 3 attempts of a
  /// 5-read majority, for devices whose single-read error rate has
  /// drifted past the code's correction radius (thermal spikes, aged
  /// shifters).
  std::optional<DeviceKeys> derive_robust(const DeviceKeyRecord& record)
      NP_EXCLUDES(mutex_) {
    return derive(record, 3, 5);
  }

  /// A copy of the root key derived at enrollment (for verifier-side
  /// provisioning in tests/examples; a production flow would never export
  /// it). By value: a reference into guarded state would outlive the lock.
  common::SecretBytes enrolled_root() const NP_EXCLUDES(mutex_);

  std::size_t response_bits() const noexcept {
    return extractor_.response_bits();
  }

 private:
  static DeviceKeys split(const crypto::Bytes& root);

  /// Serializes PUF access and guards root_.
  mutable common::Mutex mutex_;
  puf::Puf& puf_;
  ecc::FuzzyExtractor extractor_;
  common::SecretBytes root_ NP_GUARDED_BY(mutex_);
};

}  // namespace neuropuls::core
