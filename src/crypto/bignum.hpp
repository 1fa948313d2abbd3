// Arbitrary-precision unsigned integers with constant-time Montgomery
// modular exponentiation.
//
// Section IV of the paper proposes an EKE-based Authentication and Key
// Agreement protocol on top of the PUF CRP ("see the CRP as a low-entropy
// shared secret … use the well-established and secure EKE protocol") and
// explicitly notes it is "computationally more expensive". The expensive
// part is modular exponentiation in a 2048-bit MODP group; this module
// provides exactly the arithmetic needed for that — no more — so the
// bench in `bench/bench_aka_eke` can quantify the cost gap against the
// lightweight HSC-IoT authentication.
//
// Limbs are 64-bit, little-endian (limb 0 is least significant). Values are
// kept normalised: no trailing zero limbs, and zero is an empty vector.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "crypto/bytes.hpp"
#include "crypto/montgomery_kernels.hpp"

namespace neuropuls::crypto {

class BigUint {
 public:
  BigUint() = default;
  explicit BigUint(std::uint64_t value);

  /// Parses big-endian hex (whitespace tolerated, for readable constants).
  static BigUint from_hex(std::string_view hex);

  /// Parses a big-endian byte string (network/protocol order).
  static BigUint from_bytes_be(ByteView bytes);

  /// Big-endian bytes, left-padded with zeros to at least `min_len`.
  Bytes to_bytes_be(std::size_t min_len = 0) const;

  std::string to_hex() const;

  bool is_zero() const noexcept { return limbs_.empty(); }
  bool is_odd() const noexcept { return !limbs_.empty() && (limbs_[0] & 1); }

  /// Number of significant bits (0 for zero).
  std::size_t bit_length() const noexcept;

  /// Bit i, counting from the least-significant bit.
  bool bit(std::size_t i) const noexcept;

  // Comparison: negative / zero / positive like strcmp.
  static int compare(const BigUint& a, const BigUint& b) noexcept;
  bool operator==(const BigUint& other) const noexcept {
    return limbs_ == other.limbs_;
  }
  bool operator<(const BigUint& other) const noexcept {
    return compare(*this, other) < 0;
  }
  bool operator<=(const BigUint& other) const noexcept {
    return compare(*this, other) <= 0;
  }
  bool operator>(const BigUint& other) const noexcept {
    return compare(*this, other) > 0;
  }
  bool operator>=(const BigUint& other) const noexcept {
    return compare(*this, other) >= 0;
  }

  BigUint operator+(const BigUint& other) const;
  /// Throws std::underflow_error when other > *this.
  BigUint operator-(const BigUint& other) const;
  BigUint operator*(const BigUint& other) const;
  BigUint operator<<(std::size_t bits) const;
  BigUint operator>>(std::size_t bits) const;

  struct DivMod;
  /// Knuth algorithm D. Throws std::domain_error on division by zero.
  static DivMod divmod(const BigUint& numerator, const BigUint& denominator);

  BigUint operator%(const BigUint& modulus) const;
  BigUint operator/(const BigUint& denom) const;

  /// (this * other) mod modulus, via divmod (slow path; Montgomery below
  /// is the fast path for repeated work).
  BigUint mulmod(const BigUint& other, const BigUint& modulus) const;

  const std::vector<std::uint64_t>& limbs() const noexcept { return limbs_; }

  /// Zeroes the limbs with `secure_wipe`, then makes the value zero. For
  /// values that hold secrets, such as DH exponents.
  void wipe() noexcept;

 private:
  void normalize() noexcept;
  friend class MontgomeryCtx;
  friend class FixedBaseComb;
  std::vector<std::uint64_t> limbs_;
};

struct BigUint::DivMod {
  BigUint quotient;
  BigUint remainder;
};

inline BigUint BigUint::operator%(const BigUint& modulus) const {
  return divmod(*this, modulus).remainder;
}
inline BigUint BigUint::operator/(const BigUint& denom) const {
  return divmod(*this, denom).quotient;
}

/// Widest modulus `MontgomeryCtx` accepts, in limbs (4096 bits). `modexp`
/// keeps all of its scratch on the stack, sized by this bound.
inline constexpr std::size_t kMaxMontLimbs = 64;

/// Precomputed Montgomery context for a fixed odd modulus. Amortises the
/// setup across the hundreds of multiplications inside one modexp.
///
/// Constant-time contract: for a given modulus, `modexp`'s sequence of
/// operations and memory accesses depends only on the exponent's limb
/// count, never on its bits or on the base. The exponent is scanned in
/// fixed 5-bit windows over its full limb width; every window costs five
/// squarings and one multiply, and reads its table entry by a masked scan
/// of all 32 entries. Products and squarings both end in a masked,
/// branch-free final subtraction, and the squaring's rows are a function
/// of the modulus width alone. All scratch lives on the stack and is
/// wiped before `modexp` returns.
///
/// Kernel dispatch: for 24- and 32-limb moduli (the RFC 3526 1536- and
/// 2048-bit groups) on an x86-64 CPU with BMI2 and ADX, checked once by
/// CPUID, each product row and each squaring runs on unrolled
/// mulx/adcx/adox rows. Every other width and CPU uses the portable CIOS
/// row and the portable squaring, which are also the references the fast
/// kernels are tested against. All give identical bits.
class MontgomeryCtx {
 public:
  /// Throws std::invalid_argument unless modulus is odd, > 1 and at most
  /// kMaxMontLimbs limbs wide.
  explicit MontgomeryCtx(BigUint modulus);

  /// base^exponent mod modulus, in constant time per the contract above.
  BigUint modexp(const BigUint& base, const BigUint& exponent) const;

  const BigUint& modulus() const noexcept { return modulus_; }

 private:
  friend class FixedBaseComb;
  // Montgomery product and square of n-limb values below N; `t` is
  // 2n+1 limbs of scratch and `out` may alias an input.
  void mul(const std::uint64_t* a, const std::uint64_t* b, std::uint64_t* t,
           std::uint64_t* out) const noexcept;
  void sqr(const std::uint64_t* a, std::uint64_t* t,
           std::uint64_t* out) const noexcept;
  // out = x * R mod N for the `len` limbs at x, a value below N.
  void to_mont(const std::uint64_t* x, std::size_t len, std::uint64_t* t,
               std::uint64_t* out) const noexcept;
  // result = acc * R^-1 mod N; `one` is n limbs of scratch. result must
  // have capacity for n limbs, so this does not allocate.
  void from_mont(std::uint64_t* acc, std::uint64_t* one, std::uint64_t* t,
                 BigUint& result) const;

  BigUint modulus_;
  std::vector<std::uint64_t> r2_;  // R^2 mod N, n_ limbs
  std::uint64_t n0_inv_ = 0;       // -N^-1 mod 2^64
  std::size_t n_ = 0;              // limb count
  detail::MontRow row_ = nullptr;  // product-row kernel for n_
  detail::MontSqr sqr_ = nullptr;  // squaring kernel for n_
};

/// base^x mod N for one base fixed in advance, such as a DH generator: a
/// Lim–Lee comb (HAC Algorithm 14.109) with kTeeth teeth over exponents of
/// up to `exponent_limbs` limbs. Entry j of its public table, built once,
/// is the product of base^(2^(k*spacing)) over the set bits k of j, with
/// spacing = ceil(64 * exponent_limbs / kTeeth). A call then costs
/// spacing - 1 squarings and spacing - 1 multiplies: 84 products for a
/// 256-bit exponent, against about 345 for `MontgomeryCtx::modexp`. Six
/// teeth measured fastest at 2048 bits (DESIGN.md "Modexp"): more teeth
/// shorten the column loop but double the table every column scans.
///
/// Constant-time contract, as for `modexp`: the sequence of operations
/// and memory accesses is the same for every exponent the comb accepts.
/// Each column reads its entry by a masked scan of all 2^kTeeth entries,
/// every product ends in the masked final subtraction, and the stack
/// scratch, the exponent's copy included, is wiped before `pow` returns.
class FixedBaseComb {
 public:
  static constexpr std::size_t kTeeth = 6;
  static constexpr std::size_t kEntries = std::size_t{1} << kTeeth;

  /// Throws std::invalid_argument unless 1 <= exponent_limbs <=
  /// kMaxMontLimbs.
  FixedBaseComb(MontgomeryCtx ctx, const BigUint& base,
                std::size_t exponent_limbs);

  /// base^exponent mod N. Throws std::invalid_argument when the exponent
  /// is wider than the comb's exponent_limbs.
  BigUint pow(const BigUint& exponent) const;

  /// The Montgomery context of the comb's modulus, for variable-base
  /// `modexp` under the same modulus.
  const MontgomeryCtx& ctx() const noexcept { return ctx_; }

 private:
  MontgomeryCtx ctx_;
  std::size_t exponent_limbs_;
  std::size_t spacing_ = 0;           // exponent bits between teeth
  std::vector<std::uint64_t> table_;  // kEntries entries, Montgomery form
};

/// base^exponent mod modulus through MontgomeryCtx. Returns zero for
/// modulus 1; throws std::domain_error for a zero modulus and
/// std::invalid_argument for an even or over-wide one.
BigUint modexp(const BigUint& base, const BigUint& exponent,
               const BigUint& modulus);

}  // namespace neuropuls::crypto
