#include "crypto/bignum.hpp"

#include <algorithm>
#include <cctype>
#include <stdexcept>

#include "crypto/block_kernels.hpp"

namespace neuropuls::crypto {

using u128 = unsigned __int128;

BigUint::BigUint(std::uint64_t value) {
  if (value != 0) limbs_.push_back(value);
}

void BigUint::normalize() noexcept {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
}

BigUint BigUint::from_hex(std::string_view hex) {
  BigUint out;
  for (char c : hex) {
    if (std::isspace(static_cast<unsigned char>(c))) continue;
    int nibble;
    if (c >= '0' && c <= '9') nibble = c - '0';
    else if (c >= 'a' && c <= 'f') nibble = c - 'a' + 10;
    else if (c >= 'A' && c <= 'F') nibble = c - 'A' + 10;
    else throw std::invalid_argument("BigUint::from_hex: non-hex character");
    out = (out << 4) + BigUint(static_cast<std::uint64_t>(nibble));
  }
  return out;
}

BigUint BigUint::from_bytes_be(ByteView bytes) {
  BigUint out;
  out.limbs_.assign((bytes.size() + 7) / 8, 0);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    // Byte i (from the most significant end) lands at bit position
    // 8*(size-1-i) from the least significant end.
    const std::size_t bit = 8 * (bytes.size() - 1 - i);
    out.limbs_[bit / 64] |= static_cast<std::uint64_t>(bytes[i])
                            << (bit % 64);
  }
  out.normalize();
  return out;
}

Bytes BigUint::to_bytes_be(std::size_t min_len) const {
  const std::size_t bits = bit_length();
  const std::size_t natural = (bits + 7) / 8;
  const std::size_t len = std::max(natural, std::max<std::size_t>(min_len, 1));
  Bytes out(len, 0);
  for (std::size_t i = 0; i < natural; ++i) {
    const std::size_t bit = 8 * i;
    out[len - 1 - i] =
        static_cast<std::uint8_t>(limbs_[bit / 64] >> (bit % 64));
  }
  return out;
}

std::string BigUint::to_hex() const {
  if (limbs_.empty()) return "0";
  static const char* digits = "0123456789abcdef";
  std::string out;
  bool leading = true;
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    for (int shift = 60; shift >= 0; shift -= 4) {
      const int nibble = static_cast<int>((limbs_[i] >> shift) & 0xF);
      if (leading && nibble == 0) continue;
      leading = false;
      out.push_back(digits[nibble]);
    }
  }
  return out;
}

std::size_t BigUint::bit_length() const noexcept {
  if (limbs_.empty()) return 0;
  const std::uint64_t top = limbs_.back();
  std::size_t bits = (limbs_.size() - 1) * 64;
  return bits + (64 - static_cast<std::size_t>(__builtin_clzll(top)));
}

bool BigUint::bit(std::size_t i) const noexcept {
  const std::size_t limb = i / 64;
  if (limb >= limbs_.size()) return false;
  return (limbs_[limb] >> (i % 64)) & 1;
}

int BigUint::compare(const BigUint& a, const BigUint& b) noexcept {
  if (a.limbs_.size() != b.limbs_.size()) {
    return a.limbs_.size() < b.limbs_.size() ? -1 : 1;
  }
  for (std::size_t i = a.limbs_.size(); i-- > 0;) {
    if (a.limbs_[i] != b.limbs_[i]) return a.limbs_[i] < b.limbs_[i] ? -1 : 1;
  }
  return 0;
}

BigUint BigUint::operator+(const BigUint& other) const {
  BigUint out;
  const std::size_t n = std::max(limbs_.size(), other.limbs_.size());
  out.limbs_.assign(n + 1, 0);
  std::uint64_t carry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t a = i < limbs_.size() ? limbs_[i] : 0;
    const std::uint64_t b = i < other.limbs_.size() ? other.limbs_[i] : 0;
    const u128 sum = static_cast<u128>(a) + b + carry;
    out.limbs_[i] = static_cast<std::uint64_t>(sum);
    carry = static_cast<std::uint64_t>(sum >> 64);
  }
  out.limbs_[n] = carry;
  out.normalize();
  return out;
}

BigUint BigUint::operator-(const BigUint& other) const {
  if (*this < other) {
    throw std::underflow_error("BigUint subtraction underflow");
  }
  BigUint out;
  out.limbs_.assign(limbs_.size(), 0);
  std::uint64_t borrow = 0;
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    const std::uint64_t b = i < other.limbs_.size() ? other.limbs_[i] : 0;
    const u128 lhs = static_cast<u128>(limbs_[i]);
    const u128 rhs = static_cast<u128>(b) + borrow;
    if (lhs >= rhs) {
      out.limbs_[i] = static_cast<std::uint64_t>(lhs - rhs);
      borrow = 0;
    } else {
      out.limbs_[i] =
          static_cast<std::uint64_t>((static_cast<u128>(1) << 64) + lhs - rhs);
      borrow = 1;
    }
  }
  out.normalize();
  return out;
}

BigUint BigUint::operator*(const BigUint& other) const {
  if (limbs_.empty() || other.limbs_.empty()) return BigUint{};
  BigUint out;
  out.limbs_.assign(limbs_.size() + other.limbs_.size(), 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    std::uint64_t carry = 0;
    for (std::size_t j = 0; j < other.limbs_.size(); ++j) {
      const u128 cur = static_cast<u128>(limbs_[i]) * other.limbs_[j] +
                       out.limbs_[i + j] + carry;
      out.limbs_[i + j] = static_cast<std::uint64_t>(cur);
      carry = static_cast<std::uint64_t>(cur >> 64);
    }
    out.limbs_[i + other.limbs_.size()] += carry;
  }
  out.normalize();
  return out;
}

BigUint BigUint::operator<<(std::size_t bits) const {
  if (limbs_.empty() || bits == 0) {
    BigUint out = *this;
    return out;
  }
  const std::size_t limb_shift = bits / 64;
  const std::size_t bit_shift = bits % 64;
  BigUint out;
  out.limbs_.assign(limbs_.size() + limb_shift + 1, 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    out.limbs_[i + limb_shift] |= limbs_[i] << bit_shift;
    if (bit_shift != 0) {
      out.limbs_[i + limb_shift + 1] |= limbs_[i] >> (64 - bit_shift);
    }
  }
  out.normalize();
  return out;
}

BigUint BigUint::operator>>(std::size_t bits) const {
  const std::size_t limb_shift = bits / 64;
  if (limb_shift >= limbs_.size()) return BigUint{};
  const std::size_t bit_shift = bits % 64;
  BigUint out;
  out.limbs_.assign(limbs_.size() - limb_shift, 0);
  for (std::size_t i = 0; i < out.limbs_.size(); ++i) {
    out.limbs_[i] = limbs_[i + limb_shift] >> bit_shift;
    if (bit_shift != 0 && i + limb_shift + 1 < limbs_.size()) {
      out.limbs_[i] |= limbs_[i + limb_shift + 1] << (64 - bit_shift);
    }
  }
  out.normalize();
  return out;
}

BigUint::DivMod BigUint::divmod(const BigUint& numerator,
                                const BigUint& denominator) {
  if (denominator.is_zero()) {
    throw std::domain_error("BigUint division by zero");
  }
  if (numerator < denominator) {
    return {BigUint{}, numerator};
  }
  if (denominator.limbs_.size() == 1) {
    // Single-limb fast path.
    const std::uint64_t d = denominator.limbs_[0];
    BigUint quotient;
    quotient.limbs_.assign(numerator.limbs_.size(), 0);
    u128 rem = 0;
    for (std::size_t i = numerator.limbs_.size(); i-- > 0;) {
      const u128 cur = (rem << 64) | numerator.limbs_[i];
      quotient.limbs_[i] = static_cast<std::uint64_t>(cur / d);
      rem = cur % d;
    }
    quotient.normalize();
    return {quotient, BigUint(static_cast<std::uint64_t>(rem))};
  }

  // Knuth algorithm D. Normalise so the divisor's top limb has its MSB set.
  const std::size_t shift =
      static_cast<std::size_t>(__builtin_clzll(denominator.limbs_.back()));
  const BigUint u = numerator << shift;
  const BigUint v = denominator << shift;
  const std::size_t n = v.limbs_.size();
  const std::size_t m = u.limbs_.size() >= n ? u.limbs_.size() - n : 0;

  std::vector<std::uint64_t> un(u.limbs_);
  un.resize(u.limbs_.size() + 1, 0);
  const std::vector<std::uint64_t>& vn = v.limbs_;

  BigUint quotient;
  quotient.limbs_.assign(m + 1, 0);

  for (std::size_t j = m + 1; j-- > 0;) {
    // Estimate the quotient digit from the top two limbs.
    const u128 top = (static_cast<u128>(un[j + n]) << 64) | un[j + n - 1];
    u128 qhat = top / vn[n - 1];
    u128 rhat = top % vn[n - 1];
    while (qhat > ~static_cast<std::uint64_t>(0) ||
           (n >= 2 &&
            qhat * vn[n - 2] > ((rhat << 64) | un[j + n - 2]))) {
      --qhat;
      rhat += vn[n - 1];
      if (rhat > ~static_cast<std::uint64_t>(0)) break;
    }

    // Multiply-subtract qhat * v from u[j .. j+n].
    u128 borrow = 0;
    u128 carry = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const u128 product = qhat * vn[i] + carry;
      carry = product >> 64;
      const std::uint64_t p_lo = static_cast<std::uint64_t>(product);
      const u128 sub = static_cast<u128>(un[i + j]) - p_lo - borrow;
      un[i + j] = static_cast<std::uint64_t>(sub);
      borrow = (sub >> 64) ? 1 : 0;
    }
    const u128 sub = static_cast<u128>(un[j + n]) - carry - borrow;
    un[j + n] = static_cast<std::uint64_t>(sub);

    if (sub >> 64) {
      // qhat was one too large; add v back once.
      --qhat;
      u128 c = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const u128 s = static_cast<u128>(un[i + j]) + vn[i] + c;
        un[i + j] = static_cast<std::uint64_t>(s);
        c = s >> 64;
      }
      un[j + n] += static_cast<std::uint64_t>(c);
    }
    quotient.limbs_[j] = static_cast<std::uint64_t>(qhat);
  }
  quotient.normalize();

  BigUint remainder;
  remainder.limbs_.assign(un.begin(), un.begin() + static_cast<std::ptrdiff_t>(n));
  remainder.normalize();
  remainder = remainder >> shift;
  return {quotient, remainder};
}

void BigUint::wipe() noexcept {
  secure_wipe(limbs_);
  limbs_.clear();
}

BigUint BigUint::mulmod(const BigUint& other, const BigUint& modulus) const {
  return (*this * other) % modulus;
}

// ---- Montgomery ------------------------------------------------------------

namespace {

// Hides a mask's value from the optimizer so the selects built on it stay
// branch-free arithmetic instead of being turned back into jumps.
inline std::uint64_t value_barrier(std::uint64_t x) noexcept {
#if defined(__GNUC__) || defined(__clang__)
  asm("" : "+r"(x));
#endif
  return x;
}

// All-ones when a == b, else zero, without a branch.
inline std::uint64_t eq_mask(std::uint64_t a, std::uint64_t b) noexcept {
  const std::uint64_t d = a ^ b;
  return value_barrier(((d | (0 - d)) >> 63) - 1);
}

#if defined(__x86_64__)

// The row t[0..N+1] += x*y on two carry chains: adcx adds each low product
// word into t[j], adox adds the previous high word into the same t[j]. mulx,
// mov and lea leave both flags alone, so the chains survive the unrolled
// body. Each repetition covers two limbs, alternating the high-word
// register; the last two limbs absorb the final high word and both carries.
template <std::size_t N>
__attribute__((target("bmi2,adx"))) void mont_row_adx_n(
    std::uint64_t* t, std::uint64_t x, const std::uint64_t* y,
    std::size_t) noexcept {
  static_assert(N % 2 == 0, "the body is unrolled two limbs at a time");
  std::uint64_t lo, hi_odd, zero;
  std::uint64_t hi_even = 0;
  asm volatile(
      "xorl %k[zero], %k[zero]\n\t"  // zero = 0; clears CF and OF
      ".rept %c[pairs]\n\t"
      "mulxq (%[y]), %[lo], %[hi_odd]\n\t"
      "adcxq (%[t]), %[lo]\n\t"
      "adoxq %[hi_even], %[lo]\n\t"
      "movq %[lo], (%[t])\n\t"
      "mulxq 8(%[y]), %[lo], %[hi_even]\n\t"
      "adcxq 8(%[t]), %[lo]\n\t"
      "adoxq %[hi_odd], %[lo]\n\t"
      "movq %[lo], 8(%[t])\n\t"
      "leaq 16(%[y]), %[y]\n\t"
      "leaq 16(%[t]), %[t]\n\t"
      ".endr\n\t"
      "movq (%[t]), %[lo]\n\t"
      "adcxq %[zero], %[lo]\n\t"
      "adoxq %[hi_even], %[lo]\n\t"
      "movq %[lo], (%[t])\n\t"
      "movq 8(%[t]), %[lo]\n\t"
      "adcxq %[zero], %[lo]\n\t"
      "adoxq %[zero], %[lo]\n\t"
      "movq %[lo], 8(%[t])\n\t"
      : [t] "+r"(t), [y] "+r"(y), [lo] "=&r"(lo), [hi_odd] "=&r"(hi_odd),
        [zero] "=&r"(zero), [hi_even] "+&r"(hi_even)
      : "d"(x), [pairs] "i"(N / 2)
      : "cc", "memory");
}

#endif  // __x86_64__

}  // namespace

namespace detail {

void mont_row_portable(std::uint64_t* t, std::uint64_t x,
                       const std::uint64_t* y, std::size_t n) noexcept {
  std::uint64_t carry = 0;
  for (std::size_t j = 0; j < n; ++j) {
    const u128 cur = static_cast<u128>(x) * y[j] + t[j] + carry;
    t[j] = static_cast<std::uint64_t>(cur);
    carry = static_cast<std::uint64_t>(cur >> 64);
  }
  const u128 top = static_cast<u128>(t[n]) + carry;
  t[n] = static_cast<std::uint64_t>(top);
  t[n + 1] += static_cast<std::uint64_t>(top >> 64);
}

MontRow mont_row_adx(std::size_t n) noexcept {
#if defined(__x86_64__)
  if (cpu_features().bmi2_adx) {
    if (n == 24) return &mont_row_adx_n<24>;
    if (n == 32) return &mont_row_adx_n<32>;
  }
#endif
  (void)n;
  return nullptr;
}

std::uint64_t mont_n0_inv(std::uint64_t n0) noexcept {
  // Newton iteration doubles the correct low bits each step: 1 -> 64.
  std::uint64_t inv = 1;
  for (int i = 0; i < 6; ++i) {
    inv *= 2 - n0 * inv;
  }
  return ~inv + 1;  // negate mod 2^64
}

void mont_mul(MontRow row, const std::uint64_t* a, const std::uint64_t* b,
              const std::uint64_t* modulus, std::uint64_t n0_inv,
              std::size_t n, std::uint64_t* t, std::uint64_t* out) noexcept {
  // CIOS with a sliding accumulator: limb i of `a` adds a[i]*b at t+i, then
  // m*N clears t[i]. Nothing is shifted; after n limbs t[n..2n] holds
  // (a*b + M*N) / R < 2N, and every partial sum fits the row's n+2 limbs.
  std::fill(t, t + 2 * n + 1, std::uint64_t{0});
  for (std::size_t i = 0; i < n; ++i) {
    row(t + i, a[i], b, n);
    row(t + i, t[i] * n0_inv, modulus, n);
  }

  // Masked final subtraction: always form t - N (into the spent low half),
  // keep it when the top limb is set or the subtraction did not borrow.
  const std::uint64_t* r = t + n;
  std::uint64_t borrow = 0;
  for (std::size_t j = 0; j < n; ++j) {
    const u128 d = static_cast<u128>(r[j]) - modulus[j] - borrow;
    t[j] = static_cast<std::uint64_t>(d);
    borrow = static_cast<std::uint64_t>(d >> 64) & 1;
  }
  const std::uint64_t keep_diff = value_barrier(0 - (r[n] | (borrow ^ 1)));
  for (std::size_t j = 0; j < n; ++j) {
    out[j] = (t[j] & keep_diff) | (r[j] & ~keep_diff);
  }
}

}  // namespace detail

MontgomeryCtx::MontgomeryCtx(BigUint modulus) : modulus_(std::move(modulus)) {
  if (!modulus_.is_odd() || modulus_ <= BigUint(1)) {
    throw std::invalid_argument("MontgomeryCtx: modulus must be odd and > 1");
  }
  n_ = modulus_.limbs().size();
  if (n_ > kMaxMontLimbs) {
    throw std::invalid_argument("MontgomeryCtx: modulus wider than 4096 bits");
  }
  n0_inv_ = detail::mont_n0_inv(modulus_.limbs_[0]);

  // R^2 mod N with R = 2^(64*n): one general reduction at setup time.
  const BigUint r2 = (BigUint(1) << (2 * 64 * n_)) % modulus_;
  r2_ = r2.limbs();
  r2_.resize(n_, 0);

  row_ = detail::mont_row_adx(n_);
  if (row_ == nullptr) row_ = &detail::mont_row_portable;
}

BigUint MontgomeryCtx::modexp(const BigUint& base,
                              const BigUint& exponent) const {
  constexpr std::size_t kWindowBits = 5;
  constexpr std::size_t kTableSize = std::size_t{1} << kWindowBits;
  const std::size_t n = n_;
  // Everything that allocates comes first, so nothing can throw once the
  // scratch holds secrets and skip the wipe.
  const BigUint reduced = base % modulus_;
  BigUint result;
  result.limbs_.reserve(n);

  // Stack scratch, wiped below: it holds powers of the base and, for DH,
  // the running value of g^xy.
  std::uint64_t scratch[2 * kMaxMontLimbs + 1];     // ctlint:secret(scratch)
  std::uint64_t table[kTableSize * kMaxMontLimbs];  // ctlint:secret(table)
  std::uint64_t acc[kMaxMontLimbs];                 // ctlint:secret(acc)
  std::uint64_t sel[kMaxMontLimbs];                 // ctlint:secret(sel)
  const auto mul = [&](const std::uint64_t* a, const std::uint64_t* b,
                       std::uint64_t* out) {
    detail::mont_mul(row_, a, b, modulus_.limbs_.data(), n0_inv_, n, scratch,
                     out);
  };

  // table[k] = base^k * R mod N: entry 0 is R mod N (one), entry 1 the
  // base, each further entry one multiply by the base.
  std::fill(sel, sel + n, std::uint64_t{0});
  sel[0] = 1;
  mul(sel, r2_.data(), table);
  std::fill(sel, sel + n, std::uint64_t{0});
  std::copy(reduced.limbs_.begin(), reduced.limbs_.end(), sel);
  mul(sel, r2_.data(), table + n);
  for (std::size_t k = 2; k < kTableSize; ++k) {
    mul(table + (k - 1) * n, table + n, table + k * n);
  }

  // Fixed windows over the exponent's full limb width, most significant
  // first; bits past the top limb read as zero. Only the bit positions
  // steer control flow, never the bits.
  const std::vector<std::uint64_t>& e = exponent.limbs_;
  const std::size_t bits = e.size() * 64;
  std::copy(table, table + n, acc);
  for (std::size_t pos = (bits + kWindowBits - 1) / kWindowBits * kWindowBits;
       pos > 0; pos -= kWindowBits) {
    for (std::size_t s = 0; s < kWindowBits; ++s) mul(acc, acc, acc);
    std::uint64_t window = 0;
    for (std::size_t b = 0; b < kWindowBits; ++b) {
      const std::size_t i = pos - kWindowBits + b;
      if (i < bits) window |= ((e[i / 64] >> (i % 64)) & 1) << b;
    }
    // Masked scan: touch every entry, keep the one that matches.
    std::fill(sel, sel + n, std::uint64_t{0});
    for (std::size_t k = 0; k < kTableSize; ++k) {
      const std::uint64_t take = eq_mask(k, window);
      const std::uint64_t* entry = table + k * n;
      for (std::size_t j = 0; j < n; ++j) sel[j] |= entry[j] & take;
    }
    mul(acc, sel, acc);
  }

  // Out of Montgomery form: multiply by plain one.
  std::fill(sel, sel + n, std::uint64_t{0});
  sel[0] = 1;
  mul(acc, sel, acc);
  result.limbs_.assign(acc, acc + n);
  result.normalize();

  crypto::secure_wipe(scratch, sizeof(scratch));
  crypto::secure_wipe(table, sizeof(table));
  crypto::secure_wipe(acc, sizeof(acc));
  crypto::secure_wipe(sel, sizeof(sel));
  return result;
}

BigUint modexp(const BigUint& base, const BigUint& exponent,
               const BigUint& modulus) {
  if (modulus.is_zero()) {
    throw std::domain_error("modexp: zero modulus");
  }
  if (modulus == BigUint(1)) return BigUint{};
  return MontgomeryCtx(modulus).modexp(base, exponent);
}

}  // namespace neuropuls::crypto
