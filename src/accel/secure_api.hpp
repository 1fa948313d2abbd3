// Table I — the hardware-boundary API:
//
//   | load_network    | ciphered_network | (none)          |
//   | execute_network | ciphered_input   | ciphered_output |
//
// "The configuration is decrypted in hardware and loaded in the
// accelerator ... data are never exposed in plaintext to the software
// ... primitives that never leave plaintext in the memory after
// execution." The class below is that hardware boundary: the only public
// entry points take and return ciphertext, the device key lives inside,
// and every intermediate plaintext is held in a self-wiping type
// (common::SecretBytes / common::SecretVector), so it is wiped on every
// exit, normal or by exception. The
// tests assert both the functional property (round-trip correctness) and
// the security property (tampered or wrongly-keyed blobs are rejected
// before any plaintext is produced).
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>

#include "accel/accelerator.hpp"
#include "common/mutex.hpp"
#include "common/secret.hpp"
#include "common/thread_annotations.hpp"
#include "crypto/aes.hpp"
#include "crypto/bytes.hpp"

namespace neuropuls::accel {

/// Service-health state of the secure boundary. Crypto failures (tampered
/// blobs, wrong keys — possibly a degrading PUF-derived key upstream)
/// degrade service instead of crashing the accelerator:
///   kHealthy  — normal operation;
///   kDegraded — consecutive crypto failures at/past the degrade
///               threshold; service continues, operators should re-derive
///               keys / re-enroll;
///   kLockedOut — failures reached the lockout threshold; all ciphered
///               entry points refuse (LockedOutError) until reset_health().
enum class HealthState { kHealthy, kDegraded, kLockedOut };

struct HealthPolicy {
  std::uint32_t degrade_after = 2;
  std::uint32_t lockout_after = 5;
};

/// Thrown by the ciphered entry points while locked out — distinguishable
/// from a plain crypto failure so callers can route to recovery instead
/// of retrying.
class LockedOutError : public std::runtime_error {
 public:
  LockedOutError()
      : std::runtime_error("SecureAccelerator: locked out after repeated "
                           "authentication failures") {}
};

/// Thread-safe: one mutex_ serializes the ciphered entry points (the
/// engine and nonce counter are single-stream hardware state) and guards
/// the health machine's failure count, which those entry points update.
class SecureAccelerator {
 public:
  /// `device_key` is the PUF-derived encryption key (from
  /// core::KeyManager); the taint type means callers hand over ownership
  /// and the key is never exposed again once installed. The constructor
  /// derives the CTR and CMAC keys from it once and wipes the raw bytes
  /// with `device_key`, so the accelerator holds the key only as those
  /// schedules. Throws std::invalid_argument on an empty key.
  SecureAccelerator(std::unique_ptr<MvmEngine> engine,
                    common::SecretBytes device_key,
                    HealthPolicy health_policy = {});

  /// Table I `load_network(ciphered_network)`. Throws std::runtime_error
  /// on authentication failure (tamper/wrong key) or malformed plaintext,
  /// LockedOutError while locked out.
  void load_network(crypto::ByteView ciphered_network) NP_EXCLUDES(mutex_);

  /// Table I `execute_network(ciphered_input) -> ciphered_output`.
  /// `nonce_counter` freshness is handled internally (monotonic).
  /// Throws LockedOutError while locked out.
  crypto::Bytes execute_network(crypto::ByteView ciphered_input)
      NP_EXCLUDES(mutex_);

  bool network_loaded() const NP_EXCLUDES(mutex_) {
    const common::MutexLock lock(mutex_);
    return accelerator_.loaded();
  }
  /// Snapshot of the engine's MAC/energy counters. By value: a reference
  /// into the engine would be read outside mutex_.
  EngineStats stats() const NP_EXCLUDES(mutex_) {
    const common::MutexLock lock(mutex_);
    return accelerator_.stats();
  }

  /// Health model: consecutive crypto (authentication) failures walk
  /// Healthy -> Degraded -> LockedOut; a success in Healthy/Degraded
  /// resets to Healthy. LockedOut is sticky — only an explicit operator
  /// reset_health() (re-provisioning) restores service. The state is a
  /// function of the failure count and the policy: a locked-out device
  /// refuses before recording any outcome, so its count stays put.
  HealthState health() const NP_EXCLUDES(mutex_);
  std::uint32_t consecutive_failures() const NP_EXCLUDES(mutex_) {
    const common::MutexLock lock(mutex_);
    return consecutive_failures_;
  }
  void reset_health() NP_EXCLUDES(mutex_) {
    const common::MutexLock lock(mutex_);
    consecutive_failures_ = 0;
  }

  /// Client-side helpers (run on the party that owns the same key):
  /// produce the ciphertext blobs the two entry points accept. Each call
  /// derives its own CtrThenMac from `key`.
  static crypto::Bytes encrypt_network(const MlpNetwork& network,
                                       crypto::ByteView key,
                                       std::uint64_t nonce);
  static crypto::Bytes encrypt_input(const std::vector<double>& input,
                                     crypto::ByteView key,
                                     std::uint64_t nonce);
  static std::vector<double> decrypt_output(crypto::ByteView ciphered_output,
                                            crypto::ByteView key);

 private:
  crypto::Bytes seal(crypto::ByteView plaintext) NP_REQUIRES(mutex_);
  /// Opens `blob` under the device keys and returns `parse` of its
  /// plaintext, which wipes itself on the way out. A failure of either
  /// step counts toward degradation before it propagates.
  template <typename Parse>
  auto open_parsed(crypto::ByteView blob, Parse parse) NP_REQUIRES(mutex_);
  void require_service() const NP_REQUIRES(mutex_);
  void note_success() NP_REQUIRES(mutex_);
  void note_failure() NP_REQUIRES(mutex_);

  /// Serializes the ciphered entry points and guards the engine, the
  /// nonce and the failure count.
  mutable common::Mutex mutex_;
  Accelerator accelerator_ NP_GUARDED_BY(mutex_);
  /// The device key, held only as its derived CTR schedule and CMAC
  /// context; immutable after construction.
  const crypto::CtrThenMac device_keys_;
  std::uint64_t nonce_counter_ NP_GUARDED_BY(mutex_) =
      0x80000000ULL;  // device-side nonce space
  const HealthPolicy health_policy_;
  std::uint32_t consecutive_failures_ NP_GUARDED_BY(mutex_) = 0;
};

}  // namespace neuropuls::accel
