#include "crypto/hmac.hpp"

#include <algorithm>
#include <cstring>

namespace neuropuls::crypto {

HmacSha256::HmacSha256(ByteView key) {
  std::array<std::uint8_t, Sha256::kBlockSize> block_key{};  // ctlint:secret
  if (key.size() > Sha256::kBlockSize) {
    Sha256 long_key;
    long_key.update(key);
    auto digest = long_key.finalize();  // ctlint:secret
    std::memcpy(block_key.data(), digest.data(), digest.size());
    secure_wipe(digest.data(), digest.size());
    long_key.wipe();
  } else if (!key.empty()) {  // empty views may carry a null data()
    std::memcpy(block_key.data(), key.data(), key.size());
  }

  std::array<std::uint8_t, Sha256::kBlockSize> ipad_key{};  // ctlint:secret
  for (std::size_t i = 0; i < Sha256::kBlockSize; ++i) {
    ipad_key[i] = static_cast<std::uint8_t>(block_key[i] ^ 0x36);
    opad_key_[i] = static_cast<std::uint8_t>(block_key[i] ^ 0x5c);
  }
  inner_.update(ipad_key);
  secure_wipe(block_key.data(), block_key.size());
  secure_wipe(ipad_key.data(), ipad_key.size());
}

HmacSha256::~HmacSha256() {
  inner_.wipe();
  secure_wipe(opad_key_.data(), opad_key_.size());
}

Bytes HmacSha256::finalize() {
  const auto inner_digest = inner_.finalize();
  Sha256 outer;
  outer.update(opad_key_);
  outer.update(inner_digest);
  const auto d = outer.finalize();
  outer.wipe();
  return Bytes(d.begin(), d.end());
}

Bytes hmac_sha256(ByteView key, ByteView data) {
  return hmac_sha256_parts(key, {data});
}

Bytes hmac_sha256_parts(ByteView key, std::initializer_list<ByteView> parts) {
  HmacSha256 mac(key);
  for (const ByteView part : parts) mac.update(part);
  return mac.finalize();
}

namespace {

// HMAC keyed on PRK = HKDF-Extract(salt, ikm); the context is the PRK's
// only holder.
HmacSha256 extract(ByteView salt, ByteView ikm) {
  static constexpr std::array<std::uint8_t, Sha256::kDigestSize> kZeroSalt{};
  const ByteView key = salt.empty() ? ByteView(kZeroSalt) : salt;
  Bytes prk = hmac_sha256(key, ikm);  // ctlint:secret
  HmacSha256 mac(prk);
  secure_wipe(prk);
  return mac;
}

}  // namespace

Hkdf::Hkdf(ByteView salt, ByteView ikm) : prk_(extract(salt, ikm)) {}

void Hkdf::expand(ByteView info, std::span<std::uint8_t> out) const {
  if (out.size() > kMaxOutput) {
    throw std::invalid_argument("Hkdf::expand: output too long");
  }
  Bytes block;  // ctlint:secret T(n)
  std::uint8_t counter = 1;
  for (std::size_t done = 0; done < out.size(); done += block.size()) {
    HmacSha256 mac = prk_;
    mac.update(block);
    mac.update(info);
    mac.update(ByteView(&counter, 1));
    ++counter;
    secure_wipe(block);
    block = mac.finalize();
    std::copy_n(block.begin(), std::min(block.size(), out.size() - done),
                out.begin() + static_cast<std::ptrdiff_t>(done));
  }
  secure_wipe(block);
}

}  // namespace neuropuls::crypto
