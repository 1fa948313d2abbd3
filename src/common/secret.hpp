// Taint type for secret byte buffers.
//
// Every long-lived secret in the stack — fuzzy-extractor root keys, EKE
// session keys, channel direction keys, rotating CRP responses, the
// accelerator device key — is held in a `SecretBytes` instead of a plain
// `crypto::Bytes`. The wrapper turns the repo's secret-hygiene rules from
// convention into compile errors:
//
//   * `operator==`/`!=` are deleted: comparing secrets with short-circuit
//     equality is a timing oracle. The only sanctioned comparison is the
//     constant-time `ct_equal` overloads below.
//   * Copies are explicit (`clone()`): a secret cannot silently multiply
//     across the heap via pass-by-value.
//   * The destructor (and move-assignment over a live secret) wipes the
//     buffer through `crypto::secure_wipe`'s compiler barrier, so freed
//     heap slots never keep key residue.
//   * Reading the bytes requires a visible `reveal()` call — the audit
//     point `tools/ctlint` keys on.
//
// `SecretVector<T>` is the same self-wiping guarantee for a transient
// plaintext of non-byte elements (the accelerator's decrypted input and
// its inference output).
//
// The static lint (`tools/ctlint`) closes the remaining gap: it flags
// `==`/`memcmp`/`std::equal` on buffers carrying the lint's secret
// annotation that have NOT been migrated to these types yet.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "crypto/bytes.hpp"

namespace neuropuls::common {

class SecretBytes {
 public:
  SecretBytes() noexcept = default;

  /// Takes ownership of existing key material. Explicit so a plain buffer
  /// never becomes secret-typed by accident; the moved-from vector is left
  /// empty, so no second copy of the secret survives at the call site.
  explicit SecretBytes(crypto::Bytes data) noexcept : data_(std::move(data)) {}

  /// Explicit copy from a view (e.g. adopting a sub-span of a message).
  static SecretBytes copy_of(crypto::ByteView data) {
    return SecretBytes(crypto::Bytes(data.begin(), data.end()));
  }

  SecretBytes(SecretBytes&& other) noexcept : data_(std::move(other.data_)) {
    other.data_.clear();
  }

  SecretBytes& operator=(SecretBytes&& other) noexcept {
    if (this != &other) {
      wipe();
      data_ = std::move(other.data_);
      other.data_.clear();
    }
    return *this;
  }

  // Implicit copies are forbidden; duplicating a secret must be visible.
  SecretBytes(const SecretBytes&) = delete;
  SecretBytes& operator=(const SecretBytes&) = delete;

  /// The explicit duplicate, for handing one secret to two owners.
  SecretBytes clone() const { return copy_of(data_); }

  ~SecretBytes() { wipe(); }

  // Equality on secrets is a timing oracle; use `ct_equal` below.
  bool operator==(const SecretBytes&) const = delete;
  bool operator!=(const SecretBytes&) const = delete;

  /// The single sanctioned read path. The name is the point: every use of
  /// the raw bytes is grep-able and auditable.
  crypto::ByteView reveal() const noexcept {
    return crypto::ByteView(data_);
  }

  std::size_t size() const noexcept { return data_.size(); }
  bool empty() const noexcept { return data_.empty(); }

  /// Early wipe (e.g. rejecting a handshake): zeroises through the
  /// compiler barrier and empties the buffer.
  void wipe() noexcept { crypto::secure_wipe(data_); }

 private:
  crypto::Bytes data_;
};

/// Move-in, read-only holder of a transient plaintext vector that wipes
/// it through `crypto::secure_wipe` on destruction, so every exit of the
/// owning scope, normal or by exception, zeroises it. Not copyable; the
/// contents are read through `reveal()`, as with SecretBytes.
template <typename T>
class SecretVector {
 public:
  explicit SecretVector(std::vector<T> values) noexcept
      : values_(std::move(values)) {}

  SecretVector(const SecretVector&) = delete;
  SecretVector& operator=(const SecretVector&) = delete;

  ~SecretVector() { crypto::secure_wipe(values_); }

  const std::vector<T>& reveal() const noexcept { return values_; }

 private:
  std::vector<T> values_;
};

/// Constant-time comparisons — the only way secrets compare.
inline bool ct_equal(const SecretBytes& a, const SecretBytes& b) noexcept {
  return crypto::ct_equal(a.reveal(), b.reveal());
}
inline bool ct_equal(const SecretBytes& a, crypto::ByteView b) noexcept {
  return crypto::ct_equal(a.reveal(), b);
}
inline bool ct_equal(crypto::ByteView a, const SecretBytes& b) noexcept {
  return crypto::ct_equal(a, b.reveal());
}

}  // namespace neuropuls::common
