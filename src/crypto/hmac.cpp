#include "crypto/hmac.hpp"

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

Bytes hkdf_extract(ByteView salt, ByteView ikm) {
  // Per RFC 5869 an absent salt is a string of zero bytes of hash length.
  static constexpr std::array<std::uint8_t, Sha256::kDigestSize> kZeroSalt{};
  return hmac_sha256(salt.empty() ? ByteView(kZeroSalt) : salt, ikm);
}

Bytes hkdf_expand(ByteView prk, ByteView info, std::size_t length) {
  constexpr std::size_t kHashLen = Sha256::kDigestSize;
  if (length > 255 * kHashLen) {
    throw std::invalid_argument("hkdf_expand: length too large");
  }
  Bytes okm;
  okm.reserve(length);
  Bytes previous;  // ctlint:secret the last OKM block
  std::uint8_t counter = 1;
  while (okm.size() < length) {
    HmacSha256 mac(prk);
    mac.update(previous);
    mac.update(info);
    mac.update(ByteView(&counter, 1));
    secure_wipe(previous);
    previous = mac.finalize();
    const std::size_t take =
        std::min(kHashLen, length - okm.size());
    okm.insert(okm.end(), previous.begin(), previous.begin() + static_cast<std::ptrdiff_t>(take));
    ++counter;
  }
  secure_wipe(previous);
  return okm;
}

Bytes hkdf(ByteView salt, ByteView ikm, ByteView info, std::size_t length) {
  Bytes prk = hkdf_extract(salt, ikm);  // ctlint:secret
  Bytes okm = hkdf_expand(prk, info, length);
  secure_wipe(prk);
  return okm;
}

}  // namespace neuropuls::crypto
