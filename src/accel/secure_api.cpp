#include "accel/secure_api.hpp"

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

HealthState SecureAccelerator::health() const {
  const common::MutexLock lock(mutex_);
  if (consecutive_failures_ >= health_policy_.lockout_after) {
    return HealthState::kLockedOut;
  }
  if (consecutive_failures_ >= health_policy_.degrade_after) {
    return HealthState::kDegraded;
  }
  return HealthState::kHealthy;
}

void SecureAccelerator::require_service() const {
  if (consecutive_failures_ >= health_policy_.lockout_after) {
    throw LockedOutError();
  }
}

void SecureAccelerator::note_success() { consecutive_failures_ = 0; }

void SecureAccelerator::note_failure() { ++consecutive_failures_; }

// Plaintext hygiene throughout this file: every transient plaintext is a
// SecretBytes or SecretVector carrying the lint's secret annotation, so
// its destructor wipes it on every exit ("never leave plaintext in the
// memory after execution").

crypto::Bytes SecureAccelerator::encrypt_network(const MlpNetwork& network,
                                                 crypto::ByteView key,
                                                 std::uint64_t nonce) {
  const common::SecretBytes plaintext(  // ctlint:secret(plaintext)
      serialize_network(network));
  return crypto::CtrThenMac(key).seal(nonce16(nonce), plaintext.reveal());
}

crypto::Bytes SecureAccelerator::encrypt_input(
    const std::vector<double>& input, crypto::ByteView key,
    std::uint64_t nonce) {
  const common::SecretBytes plaintext(  // ctlint:secret(plaintext)
      serialize_vector(input));
  return crypto::CtrThenMac(key).seal(nonce16(nonce), plaintext.reveal());
}

std::vector<double> SecureAccelerator::decrypt_output(
    crypto::ByteView ciphered_output, crypto::ByteView key) {
  const common::SecretBytes plaintext(  // ctlint:secret(plaintext)
      crypto::CtrThenMac(key).open(ciphered_output));
  return deserialize_vector(plaintext.reveal());
}

template <typename Parse>
auto SecureAccelerator::open_parsed(crypto::ByteView blob, Parse parse) {
  // Decrypt-and-verify happens "in hardware" — inside this boundary. A
  // tampered blob or a wrong/degraded key fails the MAC; a malformed
  // plaintext that passed it (e.g. a version-skewed peer with the right
  // key) fails the parse. Both count toward degradation.
  try {
    const common::SecretBytes plaintext(  // ctlint:secret(plaintext)
        device_keys_.open(blob));
    return parse(plaintext.reveal());
  } catch (const std::exception&) {
    note_failure();
    throw;
  }
}

void SecureAccelerator::load_network(crypto::ByteView ciphered_network) {
  const common::MutexLock entry(mutex_);
  require_service();
  accelerator_.load(open_parsed(ciphered_network, deserialize_network));
  note_success();
}

crypto::Bytes SecureAccelerator::seal(crypto::ByteView plaintext) {
  return device_keys_.seal(nonce16(++nonce_counter_), plaintext);
}

crypto::Bytes SecureAccelerator::execute_network(
    crypto::ByteView ciphered_input) {
  const common::MutexLock entry(mutex_);
  require_service();
  if (!accelerator_.loaded()) {
    // Caller bug, not a device/crypto failure — never counts toward
    // degradation.
    throw std::logic_error("SecureAccelerator: no network loaded");
  }
  const common::SecretVector<double> input(  // ctlint:secret(input)
      open_parsed(ciphered_input, deserialize_vector));
  note_success();
  const common::SecretVector<double> output(  // ctlint:secret(output)
      accelerator_.infer(input.reveal()));
  const common::SecretBytes serialized(  // ctlint:secret(serialized)
      serialize_vector(output.reveal()));
  return seal(serialized.reveal());
}

}  // namespace neuropuls::accel
