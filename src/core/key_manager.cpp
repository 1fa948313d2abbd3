#include "core/key_manager.hpp"

#include <stdexcept>

#include "crypto/chacha20.hpp"
#include "crypto/hmac.hpp"

namespace neuropuls::core {

ecc::BitVec collect_response_bits(puf::Puf& puf, std::size_t bits,
                                  unsigned readings) {
  const auto read = [&puf, readings](const puf::Challenge& c) {
    return readings > 1 ? puf.evaluate_robust(c, readings) : puf.evaluate(c);
  };
  ecc::BitVec collected;
  collected.reserve(bits);
  if (puf.challenge_bytes() == 0) {
    // Weak PUF: repeated power-up reads of the same cells are *noisy
    // re-readings*, not fresh entropy — one read supplies all the bits it
    // has; asking for more is a configuration error.
    const puf::Response r = read({});
    if (r.size() * 8 < bits) {
      throw std::invalid_argument(
          "collect_response_bits: weak PUF response too short");
    }
    const auto unpacked = ecc::unpack_bits(r, bits);
    return unpacked;
  }
  // Strong PUF as weak PUF: a fixed, public enrollment challenge sequence.
  crypto::ChaChaDrbg challenge_seq(crypto::bytes_of("np-enroll-seq"));
  while (collected.size() < bits) {
    const puf::Challenge c = challenge_seq.generate(puf.challenge_bytes());
    const puf::Response r = read(c);
    const auto chunk = ecc::unpack_bits(r);
    for (std::uint8_t b : chunk) {
      if (collected.size() == bits) break;
      collected.push_back(b);
    }
  }
  return collected;
}

KeyManager::KeyManager(puf::Puf& puf, std::size_t key_bytes)
    : puf_(puf), extractor_(ecc::make_default_extractor(key_bytes)) {}

DeviceKeyRecord KeyManager::enroll(crypto::ChaChaDrbg& rng) {
  const common::MutexLock lock(mutex_);
  const ecc::BitVec w = collect_response_bits(puf_, extractor_.response_bits());
  auto result = extractor_.generate(w, rng);
  root_ = common::SecretBytes(std::move(result.key));
  return DeviceKeyRecord{std::move(result.helper)};
}

std::optional<DeviceKeys> KeyManager::derive(const DeviceKeyRecord& record,
                                             unsigned attempts,
                                             unsigned readings) {
  const common::MutexLock lock(mutex_);
  for (unsigned attempt = 0; attempt < attempts; ++attempt) {
    const ecc::BitVec w_prime =
        collect_response_bits(puf_, extractor_.response_bits(), readings);
    auto root = extractor_.reproduce(w_prime, record.helper);
    if (!root) continue;  // still past the code radius — re-measure
    DeviceKeys keys = split(*root);
    crypto::secure_wipe(*root);  // the raw root must not outlive the split
    return keys;
  }
  return std::nullopt;
}

common::SecretBytes KeyManager::enrolled_root() const {
  const common::MutexLock lock(mutex_);
  return root_.clone();
}

DeviceKeys KeyManager::split(const crypto::Bytes& root) {
  const crypto::Hkdf kdf(crypto::ByteView{}, root);
  return DeviceKeys{
      common::SecretBytes(kdf.expand(crypto::bytes_of("np-key-enc"), 16)),
      common::SecretBytes(kdf.expand(crypto::bytes_of("np-key-mac"), 32)),
      common::SecretBytes(kdf.expand(crypto::bytes_of("np-key-bind"), 16))};
}

}  // namespace neuropuls::core
