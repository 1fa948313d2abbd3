#include "accel/secure_api.hpp"

#include <algorithm>
#include <stdexcept>

#include "crypto/aes.hpp"

namespace neuropuls::accel {

namespace {

crypto::Bytes nonce16(std::uint64_t counter) {
  crypto::Bytes nonce(16, 0);
  crypto::put_u64_be(std::span<std::uint8_t>(nonce.data() + 8, 8), counter);
  return nonce;
}

// The key before it is expanded: an empty one is refused here, before
// any derivation.
crypto::ByteView checked_device_key(const common::SecretBytes& key) {
  if (key.empty()) {
    throw std::invalid_argument("SecureAccelerator: empty device key");
  }
  return key.reveal();
}

}  // namespace

SecureAccelerator::SecureAccelerator(std::unique_ptr<MvmEngine> engine,
                                     common::SecretBytes device_key,
                                     HealthPolicy health_policy)
    : accelerator_(std::move(engine)),
      device_keys_(checked_device_key(device_key)),
      health_policy_(health_policy) {
  if (health_policy_.degrade_after == 0 ||
      health_policy_.lockout_after < health_policy_.degrade_after) {
    throw std::invalid_argument("SecureAccelerator: bad health policy");
  }
}

void SecureAccelerator::require_service() const {
  const common::ReadLock lock(health_mutex_);
  if (health_ == HealthState::kLockedOut) throw LockedOutError();
}

void SecureAccelerator::note_success() {
  // LockedOut is sticky (only reset_health() clears it), so a success can
  // only be observed in Healthy/Degraded — both recover fully.
  const common::WriteLock lock(health_mutex_);
  consecutive_failures_ = 0;
  health_ = HealthState::kHealthy;
}

void SecureAccelerator::note_failure() {
  const common::WriteLock lock(health_mutex_);
  ++consecutive_failures_;
  if (consecutive_failures_ >= health_policy_.lockout_after) {
    health_ = HealthState::kLockedOut;
  } else if (consecutive_failures_ >= health_policy_.degrade_after) {
    health_ = HealthState::kDegraded;
  }
}

crypto::Bytes SecureAccelerator::encrypt_network(const MlpNetwork& network,
                                                 crypto::ByteView key,
                                                 std::uint64_t nonce) {
  // Plaintext hygiene throughout this file: every transient plaintext
  // buffer carries the lint's secret annotation and is cleared with
  // crypto::secure_wipe before it goes out of scope ("never leave
  // plaintext in the memory after execution").
  crypto::Bytes plaintext = serialize_network(network);  // ctlint:secret
  crypto::Bytes sealed =
      crypto::CtrThenMac(key).seal(nonce16(nonce), plaintext);
  crypto::secure_wipe(plaintext);
  return sealed;
}

crypto::Bytes SecureAccelerator::encrypt_input(
    const std::vector<double>& input, crypto::ByteView key,
    std::uint64_t nonce) {
  crypto::Bytes plaintext = serialize_vector(input);  // ctlint:secret
  crypto::Bytes sealed =
      crypto::CtrThenMac(key).seal(nonce16(nonce), plaintext);
  crypto::secure_wipe(plaintext);
  return sealed;
}

std::vector<double> SecureAccelerator::decrypt_output(
    crypto::ByteView ciphered_output, crypto::ByteView key) {
  // ctlint:secret(plaintext)
  crypto::Bytes plaintext = crypto::CtrThenMac(key).open(ciphered_output);
  std::vector<double> output;
  try {
    output = deserialize_vector(plaintext);
  } catch (...) {
    crypto::secure_wipe(plaintext);
    throw;
  }
  crypto::secure_wipe(plaintext);
  return output;
}

void SecureAccelerator::load_network(crypto::ByteView ciphered_network) {
  const common::MutexLock entry(mutex_);  // mutex_ > health_mutex_
  require_service();
  crypto::Bytes plaintext;  // ctlint:secret
  try {
    // Decrypt-and-verify happens "in hardware" — inside this boundary.
    plaintext = device_keys_.open(ciphered_network);
  } catch (const std::runtime_error&) {
    // Authentication failure: tampered blob or wrong/degraded key. Count
    // it toward degradation, then surface the original error.
    note_failure();
    throw;
  }
  // The weights plaintext must be wiped on *every* exit path: a malformed
  // blob that passed the MAC (e.g. a version-skewed peer with the right
  // key) still counts toward degradation and must not leave decrypted
  // secrets behind in freed memory.
  MlpNetwork network;
  try {
    network = deserialize_network(plaintext);
  } catch (...) {
    crypto::secure_wipe(plaintext);
    note_failure();
    throw;
  }
  crypto::secure_wipe(plaintext);
  accelerator_.load(std::move(network));
  note_success();
}

crypto::Bytes SecureAccelerator::seal(crypto::ByteView plaintext) {
  return device_keys_.seal(nonce16(++nonce_counter_), plaintext);
}

crypto::Bytes SecureAccelerator::execute_network(
    crypto::ByteView ciphered_input) {
  const common::MutexLock entry(mutex_);  // mutex_ > health_mutex_
  require_service();
  if (!accelerator_.loaded()) {
    // Caller bug, not a device/crypto failure — never counts toward
    // degradation.
    throw std::logic_error("SecureAccelerator: no network loaded");
  }
  crypto::Bytes plaintext;  // ctlint:secret
  try {
    plaintext = device_keys_.open(ciphered_input);
  } catch (const std::runtime_error&) {
    note_failure();
    throw;
  }
  std::vector<double> input;  // ctlint:secret
  try {
    input = deserialize_vector(plaintext);
  } catch (...) {
    crypto::secure_wipe(plaintext);
    note_failure();
    throw;
  }
  crypto::secure_wipe(plaintext);
  note_success();

  std::vector<double> output;  // ctlint:secret
  try {
    output = accelerator_.infer(input);
  } catch (...) {
    crypto::secure_wipe(input);
    throw;
  }
  crypto::secure_wipe(input);

  crypto::Bytes serialized = serialize_vector(output);  // ctlint:secret
  crypto::secure_wipe(output);
  crypto::Bytes sealed = seal(serialized);
  crypto::secure_wipe(serialized);
  return sealed;
}

}  // namespace neuropuls::accel
