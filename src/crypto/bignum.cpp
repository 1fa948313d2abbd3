#include "crypto/bignum.hpp"

#include <algorithm>
#include <cctype>
#include <stdexcept>
#include <utility>

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

// t[0..L-1] += x*y[0..L-1] on two carry chains, any L >= 1: adcx adds
// each low product word into t[j], adox adds the previous high word into
// the same t[j]. mulx, mov and lea leave both flags alone, so the chains
// survive the unrolled body. Each repetition covers two limbs,
// alternating the high-word register, and one more limb follows when L is
// odd. Returns the carry word out of t[L-1]: the last high word plus both
// carries, which fits one word because t + x*y < 2^(64(L+1)). Inlined, so
// a squaring's rows run back to back without calls.
template <std::size_t L>
__attribute__((target("bmi2,adx"), always_inline)) inline std::uint64_t
mul_add_adx_n(std::uint64_t* t, std::uint64_t x,
              const std::uint64_t* y) noexcept {
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
      ".if %c[odd]\n\t"
      "mulxq (%[y]), %[lo], %[hi_odd]\n\t"
      "adcxq (%[t]), %[lo]\n\t"
      "adoxq %[hi_even], %[lo]\n\t"
      "movq %[lo], (%[t])\n\t"
      "movq %[hi_odd], %[hi_even]\n\t"
      ".endif\n\t"
      "adcxq %[zero], %[hi_even]\n\t"
      "adoxq %[zero], %[hi_even]\n\t"
      : [t] "+r"(t), [y] "+r"(y), [lo] "=&r"(lo), [hi_odd] "=&r"(hi_odd),
        [zero] "=&r"(zero), [hi_even] "+&r"(hi_even)
      : "d"(x), [pairs] "i"(L / 2), [odd] "i"(L % 2)
      : "cc", "memory");
  return hi_even;
}

// Cross products of an N-limb square, one unrolled row per limb: row I
// adds a[I] * a[I+1..N-1] into t[2I+1..I+N-1], and its carry word lands
// in t[I+N], which no earlier row reached. t[0..2N-1] starts at zero.
template <std::size_t N, std::size_t... I>
__attribute__((target("bmi2,adx"), always_inline)) inline void
sqr_cross_adx(std::uint64_t* t, const std::uint64_t* a,
              std::index_sequence<I...>) noexcept {
  ((t[I + N] = mul_add_adx_n<N - 1 - I>(t + 2 * I + 1, a[I], a + I + 1)),
   ...);
}

// t = 2t + the diagonal squares a[i]^2 at t[2i]: adcx doubles each limb
// of t on the CF chain while adox adds the squares on the OF chain.
template <std::size_t N>
__attribute__((target("bmi2,adx"), always_inline)) inline void
sqr_diagonal_adx(std::uint64_t* t, const std::uint64_t* a) noexcept {
  std::uint64_t lo, hi, even, odd;
  asm volatile(
      "xorl %k[lo], %k[lo]\n\t"  // clears CF and OF
      ".rept %c[limbs]\n\t"
      "movq (%[a]), %%rdx\n\t"
      "mulxq %%rdx, %[lo], %[hi]\n\t"
      "movq (%[t]), %[even]\n\t"
      "movq 8(%[t]), %[odd]\n\t"
      "adcxq %[even], %[even]\n\t"
      "adoxq %[lo], %[even]\n\t"
      "adcxq %[odd], %[odd]\n\t"
      "adoxq %[hi], %[odd]\n\t"
      "movq %[even], (%[t])\n\t"
      "movq %[odd], 8(%[t])\n\t"
      "leaq 8(%[a]), %[a]\n\t"
      "leaq 16(%[t]), %[t]\n\t"
      ".endr\n\t"
      : [t] "+r"(t), [a] "+r"(a), [lo] "=&r"(lo), [hi] "=&r"(hi),
        [even] "=&r"(even), [odd] "=&r"(odd)
      : [limbs] "i"(N)
      : "rdx", "cc", "memory");
}

// The product row t[0..N+1] += x*y for mont_mul.
template <std::size_t N>
__attribute__((target("bmi2,adx"))) void mont_row_adx_n(
    std::uint64_t* t, std::uint64_t x, const std::uint64_t* y,
    std::size_t) noexcept {
  const u128 top = static_cast<u128>(t[N]) + mul_add_adx_n<N>(t, x, y);
  t[N] = static_cast<std::uint64_t>(top);
  t[N + 1] += static_cast<std::uint64_t>(top >> 64);
}

#endif  // __x86_64__

// t[0..len-1] += x*y[0..len-1]; returns the carry word out of t[len-1].
std::uint64_t mul_add_portable(std::uint64_t* t, std::uint64_t x,
                               const std::uint64_t* y,
                               std::size_t len) noexcept {
  std::uint64_t carry = 0;
  for (std::size_t j = 0; j < len; ++j) {
    const u128 cur = static_cast<u128>(x) * y[j] + t[j] + carry;
    t[j] = static_cast<std::uint64_t>(cur);
    carry = static_cast<std::uint64_t>(cur >> 64);
  }
  return carry;
}

// out = r - N when `top` (r's bit 64n) is set or r >= N, else r, with the
// choice made by a mask, not a branch. `diff` is n limbs of scratch that
// must not overlap r.
void masked_final_sub(const std::uint64_t* r, std::uint64_t top,
                      const std::uint64_t* modulus, std::size_t n,
                      std::uint64_t* diff, std::uint64_t* out) noexcept {
  std::uint64_t borrow = 0;
  for (std::size_t j = 0; j < n; ++j) {
    const u128 d = static_cast<u128>(r[j]) - modulus[j] - borrow;
    diff[j] = static_cast<std::uint64_t>(d);
    borrow = static_cast<std::uint64_t>(d >> 64) & 1;
  }
  const std::uint64_t keep_diff = value_barrier(0 - (top | (borrow ^ 1)));
  for (std::size_t j = 0; j < n; ++j) {
    out[j] = (diff[j] & keep_diff) | (r[j] & ~keep_diff);
  }
}

// Montgomery reduction of the 2n-limb square in t, on a mul-add row
// `reduce_row(t, m)` that adds m*N into t[0..n-1] and returns the carry
// word. Row i clears t[i]; its carry word and the running carry bit go
// into t[i+n], and that sum carries at most one bit on. Then
// (a^2 + M*N) / R < 2N needs one masked subtraction.
template <class ReduceRow>
inline void sqr_reduce(const ReduceRow& reduce_row,
                       const std::uint64_t* modulus, std::uint64_t n0_inv,
                       std::size_t n, std::uint64_t* t,
                       std::uint64_t* out) noexcept {
  std::uint64_t top = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t word = reduce_row(t + i, t[i] * n0_inv);
    const u128 s = static_cast<u128>(t[i + n]) + word + top;
    t[i + n] = static_cast<std::uint64_t>(s);
    top = static_cast<std::uint64_t>(s >> 64);
  }
  masked_final_sub(t + n, top, modulus, n, t, out);
}

#if defined(__x86_64__)

template <std::size_t N>
__attribute__((target("bmi2,adx"))) void mont_sqr_adx_n(
    const std::uint64_t* a, const std::uint64_t* modulus,
    std::uint64_t n0_inv, std::size_t, std::uint64_t* t,
    std::uint64_t* out) noexcept {
  std::fill(t, t + 2 * N, std::uint64_t{0});
  sqr_cross_adx<N>(t, a, std::make_index_sequence<N - 1>{});
  sqr_diagonal_adx<N>(t, a);
  const auto reduce_row = [modulus](std::uint64_t* row, std::uint64_t m)
      __attribute__((target("bmi2,adx"))) {
    return mul_add_adx_n<N>(row, m, modulus);
  };
  sqr_reduce(reduce_row, modulus, n0_inv, N, t, out);
}

#endif  // __x86_64__

// out = table[index], where the table holds `count` entries of n limbs,
// read by a masked scan of every entry so the access pattern does not
// depend on the index. Four limbs at a time gather across all entries in
// registers, which halves the cost of a row-by-row scan.
void masked_select(const std::uint64_t* table, std::size_t count,
                   std::size_t n, std::uint64_t index,
                   std::uint64_t* out) noexcept {
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    std::uint64_t o0 = 0, o1 = 0, o2 = 0, o3 = 0;
    for (std::size_t k = 0; k < count; ++k) {
      const std::uint64_t take = eq_mask(k, index);
      const std::uint64_t* entry = table + k * n + j;
      o0 |= entry[0] & take;
      o1 |= entry[1] & take;
      o2 |= entry[2] & take;
      o3 |= entry[3] & take;
    }
    out[j] = o0;
    out[j + 1] = o1;
    out[j + 2] = o2;
    out[j + 3] = o3;
  }
  for (; j < n; ++j) {
    std::uint64_t o = 0;
    for (std::size_t k = 0; k < count; ++k) {
      o |= table[k * n + j] & eq_mask(k, index);
    }
    out[j] = o;
  }
}

}  // namespace

namespace detail {

void mont_row_portable(std::uint64_t* t, std::uint64_t x,
                       const std::uint64_t* y, std::size_t n) noexcept {
  const u128 top = static_cast<u128>(t[n]) + mul_add_portable(t, x, y, n);
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

  // Masked final subtraction into the spent low half.
  masked_final_sub(t + n, t[2 * n], modulus, n, t, out);
}

void mont_sqr_portable(const std::uint64_t* a, const std::uint64_t* modulus,
                       std::uint64_t n0_inv, std::size_t n, std::uint64_t* t,
                       std::uint64_t* out) noexcept {
  // Cross products a[i]*a[j], i < j, as in sqr_cross_adx.
  std::fill(t, t + 2 * n, std::uint64_t{0});
  for (std::size_t i = 0; i + 1 < n; ++i) {
    t[i + n] = mul_add_portable(t + 2 * i + 1, a[i], a + i + 1, n - 1 - i);
  }
  // Double them and add the diagonal: t = a^2.
  std::uint64_t shifted_out = 0, carry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const u128 sq = static_cast<u128>(a[i]) * a[i];
    const std::uint64_t lo = t[2 * i], hi = t[2 * i + 1];
    const u128 s0 = static_cast<u128>((lo << 1) | shifted_out) +
                    static_cast<std::uint64_t>(sq) + carry;
    const u128 s1 = static_cast<u128>((hi << 1) | (lo >> 63)) +
                    static_cast<std::uint64_t>(sq >> 64) +
                    static_cast<std::uint64_t>(s0 >> 64);
    shifted_out = hi >> 63;
    t[2 * i] = static_cast<std::uint64_t>(s0);
    t[2 * i + 1] = static_cast<std::uint64_t>(s1);
    carry = static_cast<std::uint64_t>(s1 >> 64);
  }
  const auto reduce_row = [modulus, n](std::uint64_t* row, std::uint64_t m) {
    return mul_add_portable(row, m, modulus, n);
  };
  sqr_reduce(reduce_row, modulus, n0_inv, n, t, out);
}

MontSqr mont_sqr_adx(std::size_t n) noexcept {
#if defined(__x86_64__)
  if (cpu_features().bmi2_adx) {
    if (n == 24) return &mont_sqr_adx_n<24>;
    if (n == 32) return &mont_sqr_adx_n<32>;
  }
#endif
  (void)n;
  return nullptr;
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
  sqr_ = detail::mont_sqr_adx(n_);
  if (sqr_ == nullptr) sqr_ = &detail::mont_sqr_portable;
}

void MontgomeryCtx::mul(const std::uint64_t* a, const std::uint64_t* b,
                        std::uint64_t* t, std::uint64_t* out) const noexcept {
  detail::mont_mul(row_, a, b, modulus_.limbs_.data(), n0_inv_, n_, t, out);
}

void MontgomeryCtx::sqr(const std::uint64_t* a, std::uint64_t* t,
                        std::uint64_t* out) const noexcept {
  sqr_(a, modulus_.limbs_.data(), n0_inv_, n_, t, out);
}

void MontgomeryCtx::to_mont(const std::uint64_t* x, std::size_t len,
                            std::uint64_t* t,
                            std::uint64_t* out) const noexcept {
  std::fill(out, out + n_, std::uint64_t{0});
  std::copy(x, x + len, out);
  mul(out, r2_.data(), t, out);
}

void MontgomeryCtx::from_mont(std::uint64_t* acc, std::uint64_t* one,
                              std::uint64_t* t, BigUint& result) const {
  std::fill(one, one + n_, std::uint64_t{0});
  one[0] = 1;
  mul(acc, one, t, acc);
  result.limbs_.assign(acc, acc + n_);
  result.normalize();
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

  // table[k] = base^k * R mod N: entry 0 is R mod N (one), entry 1 the
  // base; an even entry squares its half, an odd one multiplies by the
  // base.
  const std::uint64_t one = 1;
  to_mont(&one, 1, scratch, table);
  to_mont(reduced.limbs_.data(), reduced.limbs_.size(), scratch, table + n);
  for (std::size_t k = 2; k < kTableSize; ++k) {
    if (k % 2 == 0) {
      sqr(table + (k / 2) * n, scratch, table + k * n);
    } else {
      mul(table + (k - 1) * n, table + n, scratch, table + k * n);
    }
  }

  // Fixed windows over the exponent's full limb width, most significant
  // first; bits past the top limb read as zero. Only the bit positions
  // steer control flow, never the bits.
  const std::vector<std::uint64_t>& e = exponent.limbs_;
  const std::size_t bits = e.size() * 64;
  std::copy(table, table + n, acc);
  for (std::size_t pos = (bits + kWindowBits - 1) / kWindowBits * kWindowBits;
       pos > 0; pos -= kWindowBits) {
    for (std::size_t s = 0; s < kWindowBits; ++s) sqr(acc, scratch, acc);
    std::uint64_t window = 0;
    for (std::size_t b = 0; b < kWindowBits; ++b) {
      const std::size_t i = pos - kWindowBits + b;
      if (i < bits) window |= ((e[i / 64] >> (i % 64)) & 1) << b;
    }
    masked_select(table, kTableSize, n, window, sel);
    mul(acc, sel, scratch, acc);
  }

  from_mont(acc, sel, scratch, result);
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

// ---- Fixed-base comb -------------------------------------------------------

FixedBaseComb::FixedBaseComb(MontgomeryCtx ctx, const BigUint& base,
                             std::size_t exponent_limbs)
    : ctx_(std::move(ctx)), exponent_limbs_(exponent_limbs) {
  if (exponent_limbs_ == 0 || exponent_limbs_ > kMaxMontLimbs) {
    throw std::invalid_argument("FixedBaseComb: exponent limbs out of range");
  }
  const std::size_t n = ctx_.n_;
  spacing_ = (64 * exponent_limbs_ + kTeeth - 1) / kTeeth;

  // The base and its powers are public, so set-up uses heap scratch.
  std::vector<std::uint64_t> t(2 * n + 1);
  table_.assign(kEntries * n, 0);
  const std::uint64_t one = 1;
  ctx_.to_mont(&one, 1, t.data(), table_.data());
  // Entry 2^k is base^(2^(k*spacing)): the previous tooth squared
  // `spacing` times. Any other entry j multiplies entry j without its
  // lowest set bit by the entry of that bit.
  const BigUint reduced = base % ctx_.modulus_;
  ctx_.to_mont(reduced.limbs_.data(), reduced.limbs_.size(), t.data(),
               table_.data() + n);
  for (std::size_t k = 1; k < kTeeth; ++k) {
    std::uint64_t* tooth = table_.data() + (std::size_t{1} << k) * n;
    std::copy_n(table_.data() + (std::size_t{1} << (k - 1)) * n, n, tooth);
    for (std::size_t s = 0; s < spacing_; ++s) {
      ctx_.sqr(tooth, t.data(), tooth);
    }
  }
  for (std::size_t j = 3; j < kEntries; ++j) {
    const std::size_t low = j & (0 - j);
    if (low == j) continue;
    ctx_.mul(table_.data() + (j ^ low) * n, table_.data() + low * n, t.data(),
             table_.data() + j * n);
  }
}

BigUint FixedBaseComb::pow(const BigUint& exponent) const {
  const std::size_t n = ctx_.n_;
  const std::vector<std::uint64_t>& e = exponent.limbs_;
  if (e.size() > exponent_limbs_) {
    throw std::invalid_argument("FixedBaseComb::pow: exponent too wide");
  }
  BigUint result;
  result.limbs_.reserve(n);

  std::uint64_t x[kMaxMontLimbs];          // ctlint:secret(x)
  std::uint64_t scratch[2 * kMaxMontLimbs + 1];  // ctlint:secret(scratch)
  std::uint64_t acc[kMaxMontLimbs];        // ctlint:secret(acc)
  std::uint64_t sel[kMaxMontLimbs];        // ctlint:secret(sel)
  std::fill(x, x + exponent_limbs_, std::uint64_t{0});
  std::copy(e.begin(), e.end(), x);

  // Column c gathers bit k*spacing + c of the exponent into bit k of its
  // table index, for each tooth k; columns run from the most significant.
  // The first column starts the accumulator, every later one costs one
  // squaring and one multiply. Bits past the exponent width read as zero.
  const std::size_t bits = 64 * exponent_limbs_;
  for (std::size_t col = spacing_; col-- > 0;) {
    std::uint64_t index = 0;
    for (std::size_t k = 0; k < kTeeth; ++k) {
      const std::size_t i = k * spacing_ + col;
      if (i < bits) index |= ((x[i / 64] >> (i % 64)) & 1) << k;
    }
    if (col + 1 == spacing_) {
      masked_select(table_.data(), kEntries, n, index, acc);
      continue;
    }
    ctx_.sqr(acc, scratch, acc);
    masked_select(table_.data(), kEntries, n, index, sel);
    ctx_.mul(acc, sel, scratch, acc);
  }

  ctx_.from_mont(acc, sel, scratch, result);
  crypto::secure_wipe(x, sizeof(x));
  crypto::secure_wipe(scratch, sizeof(scratch));
  crypto::secure_wipe(acc, sizeof(acc));
  crypto::secure_wipe(sel, sizeof(sel));
  return result;
}

}  // namespace neuropuls::crypto
