// Montgomery product and squaring kernels behind `MontgomeryCtx`, exposed
// so tests can pin the x86-64 mulx/adx kernels against the portable
// references on the same inputs. This is not a runtime switch:
// `MontgomeryCtx` picks its kernels itself, once per modulus.
#pragma once

#include <cstddef>
#include <cstdint>

namespace neuropuls::crypto::detail {

/// One product row: t[0..n+1] += x * y[0..n-1]. The caller guarantees the
/// sum fits in n+2 limbs.
using MontRow = void (*)(std::uint64_t* t, std::uint64_t x,
                         const std::uint64_t* y, std::size_t n) noexcept;

/// Portable row over unsigned __int128; any n >= 1.
void mont_row_portable(std::uint64_t* t, std::uint64_t x,
                       const std::uint64_t* y, std::size_t n) noexcept;

/// The mulx/adcx/adox row unrolled for exactly n limbs, or nullptr when
/// there is none: n is not 24 or 32, the target is not x86-64, or CPUID
/// reports no BMI2/ADX.
MontRow mont_row_adx(std::size_t n) noexcept;

/// -N^-1 mod 2^64 for an odd low limb n0.
std::uint64_t mont_n0_inv(std::uint64_t n0) noexcept;

/// Montgomery product a*b*R^-1 mod N with R = 2^(64n), built from two
/// `row` calls per limb of `a` and a masked final subtraction. a and b
/// must be below N. `t` is 2n+1 limbs of scratch; `out` may alias a or b.
void mont_mul(MontRow row, const std::uint64_t* a, const std::uint64_t* b,
              const std::uint64_t* modulus, std::uint64_t n0_inv,
              std::size_t n, std::uint64_t* t, std::uint64_t* out) noexcept;

/// Montgomery square a*a*R^-1 mod N, bit-identical to mont_mul(a, a). It
/// forms the 2n-limb square from the n(n-1)/2 distinct cross products,
/// doubled, plus the n diagonal squares, then runs n reduction rows and a
/// masked final subtraction. a must be below N. `t` is 2n+1 limbs of
/// scratch; `out` may alias a.
using MontSqr = void (*)(const std::uint64_t* a, const std::uint64_t* modulus,
                         std::uint64_t n0_inv, std::size_t n,
                         std::uint64_t* t, std::uint64_t* out) noexcept;

/// Portable squaring over unsigned __int128; any n >= 1.
void mont_sqr_portable(const std::uint64_t* a, const std::uint64_t* modulus,
                       std::uint64_t n0_inv, std::size_t n, std::uint64_t* t,
                       std::uint64_t* out) noexcept;

/// The squaring on unrolled mulx/adcx/adox rows for exactly n limbs, or
/// nullptr under the same conditions as mont_row_adx.
MontSqr mont_sqr_adx(std::size_t n) noexcept;

}  // namespace neuropuls::crypto::detail
