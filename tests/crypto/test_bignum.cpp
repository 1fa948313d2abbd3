// BigUint arithmetic and Montgomery modexp tests, including the RFC 3526
// groups and DH key agreement used by the EKE AKA service.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/alloc_probe.hpp"
#include "crypto/bignum.hpp"
#include "crypto/dh.hpp"
#include "crypto/montgomery_kernels.hpp"
#include "crypto/prng.hpp"
#include "crypto/sha256.hpp"

NEUROPULS_DEFINE_ALLOC_PROBE()

namespace neuropuls::crypto {
namespace {

TEST(BigUint, HexRoundTrip) {
  const auto x = BigUint::from_hex("deadbeefcafebabe0123456789abcdef00");
  EXPECT_EQ(x.to_hex(), "deadbeefcafebabe0123456789abcdef00");
  EXPECT_EQ(BigUint{}.to_hex(), "0");
  EXPECT_EQ(BigUint(0x1234).to_hex(), "1234");
}

TEST(BigUint, BytesRoundTrip) {
  const Bytes raw = from_hex("0102030405060708090a0b0c0d");
  const auto x = BigUint::from_bytes_be(raw);
  EXPECT_EQ(x.to_bytes_be(raw.size()), raw);
  // Leading zeros are restored by padding.
  const Bytes padded = x.to_bytes_be(16);
  EXPECT_EQ(padded.size(), 16u);
  EXPECT_EQ(padded[0], 0);
  EXPECT_EQ(padded[3], 0x01);
}

TEST(BigUint, BitLength) {
  EXPECT_EQ(BigUint{}.bit_length(), 0u);
  EXPECT_EQ(BigUint(1).bit_length(), 1u);
  EXPECT_EQ(BigUint(0xFF).bit_length(), 8u);
  EXPECT_EQ((BigUint(1) << 64).bit_length(), 65u);
}

TEST(BigUint, AdditionCarries) {
  const auto max64 = BigUint::from_hex("ffffffffffffffff");
  EXPECT_EQ((max64 + BigUint(1)).to_hex(), "10000000000000000");
}

TEST(BigUint, SubtractionBorrows) {
  const auto x = BigUint::from_hex("10000000000000000");
  EXPECT_EQ((x - BigUint(1)).to_hex(), "ffffffffffffffff");
}

TEST(BigUint, SubtractionUnderflowThrows) {
  EXPECT_THROW(BigUint(1) - BigUint(2), std::underflow_error);
}

TEST(BigUint, MultiplicationCrossLimb) {
  const auto a = BigUint::from_hex("ffffffffffffffff");
  EXPECT_EQ((a * a).to_hex(), "fffffffffffffffe0000000000000001");
  EXPECT_TRUE((a * BigUint{}).is_zero());
}

TEST(BigUint, ShiftRoundTrip) {
  const auto x = BigUint::from_hex("123456789abcdef0fedcba9876543210");
  EXPECT_EQ(((x << 37) >> 37), x);
  EXPECT_EQ((x >> 200).to_hex(), "0");
}

TEST(BigUint, DivModSingleLimb) {
  const auto x = BigUint::from_hex("123456789abcdef00");
  const auto [q, r] = BigUint::divmod(x, BigUint(1000));
  EXPECT_EQ(q * BigUint(1000) + r, x);
  EXPECT_TRUE(r < BigUint(1000));
}

TEST(BigUint, DivModMultiLimbIdentity) {
  rng::Xoshiro256 rng(42);
  for (int trial = 0; trial < 200; ++trial) {
    Bytes nbytes(1 + rng.uniform_int(48));
    Bytes dbytes(1 + rng.uniform_int(24));
    for (auto& b : nbytes) b = static_cast<std::uint8_t>(rng.next());
    for (auto& b : dbytes) b = static_cast<std::uint8_t>(rng.next());
    const auto n = BigUint::from_bytes_be(nbytes);
    const auto d = BigUint::from_bytes_be(dbytes);
    if (d.is_zero()) continue;
    const auto [q, r] = BigUint::divmod(n, d);
    EXPECT_EQ(q * d + r, n);
    EXPECT_TRUE(r < d);
  }
}

TEST(BigUint, DivisionByZeroThrows) {
  EXPECT_THROW(BigUint::divmod(BigUint(1), BigUint{}), std::domain_error);
}

TEST(Modexp, SmallKnownValues) {
  // 3^7 mod 10 = 2187 mod 10 = 7
  EXPECT_EQ(modexp(BigUint(3), BigUint(7), BigUint(10+1)).to_hex(),
            BigUint(2187 % 11).to_hex());
  // Fermat: a^(p-1) = 1 mod p for prime p.
  EXPECT_EQ(modexp(BigUint(5), BigUint(100002), BigUint(100003)).to_hex(), "1");
  // Exponent zero.
  EXPECT_EQ(modexp(BigUint(12345), BigUint{}, BigUint(97)).to_hex(), "1");
  // Modulus one collapses everything to zero.
  EXPECT_TRUE(modexp(BigUint(5), BigUint(5), BigUint(1)).is_zero());
}

TEST(Modexp, MatchesNaiveOnRandomOddModuli) {
  rng::Xoshiro256 rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    const std::uint64_t m = (rng.next() >> 16) | 1;  // odd, 48-bit
    if (m <= 2) continue;
    const std::uint64_t b = rng.next() % m;
    const std::uint64_t e = rng.next() % 1000;
    // Naive repeated multiplication with __int128.
    unsigned __int128 acc = 1;
    for (std::uint64_t i = 0; i < e; ++i) acc = (acc * b) % m;
    const auto got = modexp(BigUint(b), BigUint(e), BigUint(m));
    EXPECT_EQ(got.to_hex(), BigUint(static_cast<std::uint64_t>(acc)).to_hex());
  }
}

TEST(Modexp, EvenModulusRejected) {
  // Every protocol modulus is an odd prime; there is no even-modulus path.
  EXPECT_THROW(modexp(BigUint(7), BigUint(5), BigUint(12)),
               std::invalid_argument);
}

TEST(Montgomery, RejectsEvenModulus) {
  EXPECT_THROW(MontgomeryCtx(BigUint(10)), std::invalid_argument);
  EXPECT_THROW(MontgomeryCtx(BigUint(1)), std::invalid_argument);
}

TEST(Montgomery, RejectsOverWideModulus) {
  const BigUint widest = (BigUint(1) << (64 * kMaxMontLimbs)) - BigUint(1);
  EXPECT_NO_THROW(MontgomeryCtx{widest});
  EXPECT_THROW(MontgomeryCtx((widest << 1) + BigUint(1)),
               std::invalid_argument);
}

// ---- Kernel pinning ---------------------------------------------------------

using Limbs = std::vector<std::uint64_t>;

Limbs padded(const BigUint& x, std::size_t n) {
  Limbs out = x.limbs();
  out.resize(n, 0);
  return out;
}

BigUint from_limbs(const Limbs& limbs) {
  Bytes be;
  for (std::size_t i = limbs.size(); i-- > 0;) append_u64_be(be, limbs[i]);
  return BigUint::from_bytes_be(be);
}

// Reference: square-and-multiply over the slow divmod path.
BigUint modexp_by_mulmod(const BigUint& base, const BigUint& exponent,
                         const BigUint& modulus) {
  BigUint acc = BigUint(1) % modulus;
  const BigUint b = base % modulus;
  for (std::size_t i = exponent.bit_length(); i-- > 0;) {
    acc = acc.mulmod(acc, modulus);
    if (exponent.bit(i)) acc = acc.mulmod(b, modulus);
  }
  return acc;
}

// Square-and-multiply over detail::mont_mul with a chosen row kernel, so
// the known answers below pin each kernel on its own.
BigUint modexp_with_row(detail::MontRow row, const BigUint& base,
                        const BigUint& exponent, const BigUint& modulus) {
  const std::size_t n = modulus.limbs().size();
  const Limbs mod = modulus.limbs();
  const std::uint64_t n0_inv = detail::mont_n0_inv(mod[0]);
  Limbs t(2 * n + 1), one(n, 0);
  one[0] = 1;
  const std::size_t r_bits = 64 * n;
  Limbs acc = padded((BigUint(1) << r_bits) % modulus, n);
  const Limbs b = padded((base << r_bits) % modulus, n);
  for (std::size_t i = exponent.bit_length(); i-- > 0;) {
    detail::mont_mul(row, acc.data(), acc.data(), mod.data(), n0_inv, n,
                     t.data(), acc.data());
    if (exponent.bit(i)) {
      detail::mont_mul(row, acc.data(), b.data(), mod.data(), n0_inv, n,
                       t.data(), acc.data());
    }
  }
  detail::mont_mul(row, acc.data(), one.data(), mod.data(), n0_inv, n,
                   t.data(), acc.data());
  return from_limbs(acc);
}

// Random value below `modulus` (same width, top limb kept under N's).
Limbs random_below(const Limbs& modulus, rng::Xoshiro256& rng) {
  Limbs out(modulus.size());
  for (auto& limb : out) limb = rng.next();
  out.back() = modulus.back() == 0 ? 0 : rng.next() % modulus.back();
  return out;
}

// The CIOS accumulator before the final subtraction: the limbs t[n..2n].
Limbs unreduced_product(detail::MontRow row, const Limbs& a, const Limbs& b,
                        const Limbs& modulus) {
  const std::size_t n = modulus.size();
  const std::uint64_t n0_inv = detail::mont_n0_inv(modulus[0]);
  Limbs t(2 * n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    row(t.data() + i, a[i], b.data(), n);
    row(t.data() + i, t[i] * n0_inv, modulus.data(), n);
  }
  return Limbs(t.begin() + static_cast<std::ptrdiff_t>(n), t.end());
}

TEST(MontKernel, AdxMatchesPortableOnRandomOperands) {
  rng::Xoshiro256 rng(2048);
  for (const std::size_t n : {std::size_t{24}, std::size_t{32}}) {
    const detail::MontRow adx = detail::mont_row_adx(n);
    if (adx == nullptr) GTEST_SKIP() << "CPU lacks BMI2/ADX";
    // Moduli: the RFC 3526 prime of this width, random odd ones, and
    // random odd ones whose upper limbs are all ones (the MODP shape).
    std::vector<Limbs> moduli;
    moduli.push_back(padded(
        n == 24 ? DhGroup::modp1536().prime : DhGroup::modp2048().prime, n));
    for (int k = 0; k < 4; ++k) {
      Limbs m(n);
      for (auto& limb : m) limb = rng.next();
      m[0] |= 1;
      m.back() |= std::uint64_t{1} << 63;
      moduli.push_back(m);
      for (std::size_t j = n / 2; j < n; ++j) m[j] = ~std::uint64_t{0};
      moduli.push_back(m);
    }
    std::size_t over_n = 0;  // products that needed the subtraction
    Limbs t(2 * n + 1), fast(n), slow(n);
    for (int pair = 0; pair < 10000; ++pair) {
      const Limbs& mod = moduli[static_cast<std::size_t>(pair) % moduli.size()];
      const BigUint modulus = from_limbs(mod);
      Limbs a = random_below(mod, rng);
      Limbs b = random_below(mod, rng);
      if (pair % 7 == 0) a = padded(modulus - BigUint(1), n);
      if (pair % 11 == 0) b = padded(modulus - BigUint(1), n);

      const Limbs unreduced = unreduced_product(adx, a, b, mod);
      ASSERT_EQ(unreduced, unreduced_product(&detail::mont_row_portable, a,
                                             b, mod));
      if (from_limbs(unreduced) >= modulus) ++over_n;

      const std::uint64_t n0_inv = detail::mont_n0_inv(mod[0]);
      detail::mont_mul(adx, a.data(), b.data(), mod.data(), n0_inv, n,
                       t.data(), fast.data());
      detail::mont_mul(&detail::mont_row_portable, a.data(), b.data(),
                       mod.data(), n0_inv, n, t.data(), slow.data());
      ASSERT_EQ(fast, slow) << "n=" << n << " pair=" << pair;
      ASSERT_LT(from_limbs(fast), modulus);
    }
    EXPECT_GT(over_n, 0u) << "no product exercised the final subtraction";
  }
}

TEST(MontKernel, EveryWidthMatchesMulmodReference) {
  rng::Xoshiro256 rng(64);
  for (std::size_t n = 1; n <= kMaxMontLimbs; ++n) {
    Limbs m(n);
    for (auto& limb : m) limb = rng.next();
    m[0] |= 1;
    m.back() |= std::uint64_t{1} << 63;
    const BigUint modulus = from_limbs(m);
    const BigUint base = from_limbs(random_below(m, rng));
    const BigUint exponent = from_limbs({rng.next(), rng.next()});
    EXPECT_EQ(MontgomeryCtx(modulus).modexp(base, exponent),
              modexp_by_mulmod(base, exponent, modulus))
        << "n=" << n;
  }
}

// Pins a squaring kernel to the product kernel of the same family on
// a*a: random values below the modulus, N - 1, and values just under it.
void expect_square_matches_product(detail::MontSqr sqr, detail::MontRow row,
                                   std::size_t n, rng::Xoshiro256& rng) {
  std::vector<Limbs> moduli;
  if (n == 24) moduli.push_back(padded(DhGroup::modp1536().prime, n));
  if (n == 32) moduli.push_back(padded(DhGroup::modp2048().prime, n));
  for (int k = 0; k < 3; ++k) {
    Limbs m(n);
    for (auto& limb : m) limb = rng.next();
    m[0] |= 1;
    m.back() |= std::uint64_t{1} << 63;
    moduli.push_back(m);
    for (std::size_t j = n / 2; j < n; ++j) m[j] = ~std::uint64_t{0};
    moduli.push_back(m);
  }
  std::size_t over_n = 0;  // squares that needed the final subtraction
  Limbs t(2 * n + 1), sq(n), product(n);
  for (int pair = 0; pair < 2000; ++pair) {
    const Limbs& mod = moduli[static_cast<std::size_t>(pair) % moduli.size()];
    const BigUint modulus = from_limbs(mod);
    Limbs a = random_below(mod, rng);
    if (pair % 7 == 0) a = padded(modulus - BigUint(1), n);
    if (pair % 13 == 0) a = padded(modulus - BigUint(rng.next() % 1000 + 2), n);
    const std::uint64_t n0_inv = detail::mont_n0_inv(mod[0]);
    detail::mont_mul(row, a.data(), a.data(), mod.data(), n0_inv, n, t.data(),
                     product.data());
    // In place, as modexp calls it.
    sq = a;
    sqr(sq.data(), mod.data(), n0_inv, n, t.data(), sq.data());
    ASSERT_EQ(sq, product) << "n=" << n << " pair=" << pair;
    ASSERT_LT(from_limbs(sq), modulus);
    // The square before reduction's subtraction: (a^2 + M*N) / R >= N?
    if (from_limbs(unreduced_product(row, a, a, mod)) >= modulus) ++over_n;
  }
  EXPECT_GT(over_n, 0u) << "no square exercised the final subtraction";
}

TEST(MontKernel, SquaringMatchesProductOnEachKernel) {
  rng::Xoshiro256 rng(4096);
  const std::size_t widths[] = {24, 32};
  for (const std::size_t n : widths) {
    expect_square_matches_product(&detail::mont_sqr_portable,
                                  &detail::mont_row_portable, n, rng);
  }
  for (const std::size_t n : widths) {
    const detail::MontSqr sqr = detail::mont_sqr_adx(n);
    const detail::MontRow row = detail::mont_row_adx(n);
    ASSERT_EQ(sqr == nullptr, row == nullptr);
    if (sqr == nullptr) GTEST_SKIP() << "CPU lacks BMI2/ADX";
    expect_square_matches_product(sqr, row, n, rng);
  }
}

TEST(MontKernel, PortableSquaringMatchesProductAtOtherWidths) {
  rng::Xoshiro256 rng(7);
  for (const std::size_t n : {std::size_t{1}, std::size_t{7}, kMaxMontLimbs}) {
    EXPECT_EQ(detail::mont_sqr_adx(n), nullptr) << n;
    expect_square_matches_product(&detail::mont_sqr_portable,
                                  &detail::mont_row_portable, n, rng);
  }
}

// ---- Fixed-base comb --------------------------------------------------------

// 256-bit exponents at the edges of the comb: few set bits, all set, a
// set top bit over a zero low limb, and widths below the comb's.
std::vector<BigUint> edge_exponents() {
  return {
      BigUint{},
      BigUint(1),
      BigUint(2),
      BigUint::from_hex("80000000000000000000000000000000"
                        "00000000000000000000000000000001"),
      BigUint::from_hex("ffffffffffffffffffffffffffffffff"
                        "ffffffffffffffffffffffffffffffff"),
      BigUint::from_hex("80000000000000000000000000000000"
                        "000000000000000f0000000000000000"),
      BigUint::from_hex("ffffffffffffffff"),
      BigUint::from_hex("1" + std::string(63, '0')),
  };
}

TEST(FixedBaseComb, MatchesModexpOnModpGroups) {
  for (const DhGroup* group : {&DhGroup::modp1536(), &DhGroup::modp2048()}) {
    const MontgomeryCtx& ctx = group->comb.ctx();
    for (const BigUint& x : edge_exponents()) {
      EXPECT_EQ(group->comb.pow(x), ctx.modexp(group->generator, x))
          << group->prime_bytes << " x=" << x.to_hex();
    }
    rng::Xoshiro256 rng(group->prime_bytes);
    for (int i = 0; i < 1000; ++i) {
      Bytes be;
      for (int limb = 0; limb < 4; ++limb) append_u64_be(be, rng.next());
      const BigUint x = BigUint::from_bytes_be(be);
      ASSERT_EQ(group->comb.pow(x), ctx.modexp(group->generator, x))
          << group->prime_bytes << " x=" << x.to_hex();
    }
  }
}

TEST(FixedBaseComb, MatchesMulmodReferenceAtOtherWidths) {
  rng::Xoshiro256 rng(99);
  for (const std::size_t n : {std::size_t{1}, std::size_t{7}, kMaxMontLimbs}) {
    Limbs m(n);
    for (auto& limb : m) limb = rng.next();
    m[0] |= 1;
    m.back() |= std::uint64_t{1} << 63;
    const BigUint modulus = from_limbs(m);
    // A base wider than the modulus is reduced first.
    const BigUint base = from_limbs({rng.next(), rng.next()}) << (64 * n);
    for (const std::size_t exponent_limbs : {std::size_t{1}, std::size_t{3}}) {
      const FixedBaseComb comb(MontgomeryCtx(modulus), base, exponent_limbs);
      for (int i = 0; i < 4; ++i) {
        Limbs e(exponent_limbs);
        for (auto& limb : e) limb = rng.next();
        const BigUint x = from_limbs(e);
        EXPECT_EQ(comb.pow(x), modexp_by_mulmod(base, x, modulus))
            << "n=" << n << " limbs=" << exponent_limbs;
      }
    }
  }
}

TEST(FixedBaseComb, RejectsExponentsWiderThanItsTable) {
  const DhGroup& group = DhGroup::modp1536();
  EXPECT_THROW(group.comb.pow(BigUint(1) << 256), std::invalid_argument);
  EXPECT_THROW(FixedBaseComb(group.comb.ctx(), BigUint(2), 0),
               std::invalid_argument);
  EXPECT_THROW(FixedBaseComb(group.comb.ctx(), BigUint(2), kMaxMontLimbs + 1),
               std::invalid_argument);
}

// The comb allocates only its result, and modexp its result and the
// reduced base, both before any secret reaches their stack scratch: the
// counts are small and do not depend on the exponent.
TEST(FixedBaseComb, PowAndModexpAllocateOnlyBeforeTheirScratch) {
  const DhGroup& group = DhGroup::modp2048();
  const BigUint x = BigUint::from_hex(
      "9e3779b97f4a7c15f39cc0605cedc8341082276bf3a27251f86c6a11d0c18e95");
  const BigUint y = BigUint::from_hex("8" + std::string(62, '0') + "1");
  const BigUint peer = group.comb.pow(BigUint(12345));
  const auto allocations_of = [](const auto& fn) {
    const auto before = common::alloc_probe::allocations();
    const BigUint value = fn();
    EXPECT_FALSE(value.is_zero());
    return common::alloc_probe::allocations() - before;
  };
  EXPECT_EQ(allocations_of([&] { return group.comb.pow(x); }), 1u);
  EXPECT_EQ(allocations_of([&] { return group.comb.pow(y); }), 1u);
  const auto modexp_allocations =
      allocations_of([&] { return group.comb.ctx().modexp(peer, x); });
  EXPECT_LE(modexp_allocations, 3u);
  EXPECT_EQ(allocations_of([&] { return group.comb.ctx().modexp(peer, y); }),
            modexp_allocations);
}

struct KnownAnswer {
  const DhGroup& group;
  const char* exponent;
  const char* expected;  // pow(2, exponent, p), from Python
};

std::vector<KnownAnswer> modp_known_answers() {
  return {
      {DhGroup::modp1536(),
       "b7e151628aed2a6abf7158809cf4f3c762e7160f38b4da56a784d9045190cfef",
       "c388d077e42b620ce3e4aa99bf15b9766c960e769bc8e6d85d7b5e5636614ff3"
       "0b67f4c381224ed3ba01b2b7ed19225f98b58f59cd9bf089d3f4cd2af9ef3eda"
       "2147bc6eb31c266e1520a4a131dbbc9ca17e8838d4478ed43fb174bfb48020b1"
       "1c86f8019f72f6c9b5db6fae3796687fa8aeaa3e955c37fa321f1bc84cf5af27"
       "8424b825872d5d500ee5baa7e1a123565bc4ad7b59b8d7a0ed889f6c6b597d0c"
       "6aeec4940baf20d71e81ece5726c6d9664e51663d3f152b1f4e1199f47ebea82"},
      {DhGroup::modp2048(),
       "9e3779b97f4a7c15f39cc0605cedc8341082276bf3a27251f86c6a11d0c18e95",
       "b847c22eff9638f154163ba92cb50804d454569cb5fed08b7e9f226cdf8c232f"
       "0c00ffa4272dd43c6fa033cfd87d4f00f1fa92b62c0afab4e43aa05c860cbf61"
       "9558031433914d668b1ace5f5032e030110adf58719765f661c2a2e434173e0b"
       "27ae28d59aa0d837425fac37eea3d52eec30dd6a7926ef4616974d6b640f8520"
       "bad40b73cc5a0a9a8c472d3486efbcd7261e09a42fa205ebed08f6c016051aff"
       "90efda3133c76455b1bddd2ab91c314d2d66d63abb74526dca35c1a3c996597b"
       "9d579459668b2f839289c1ad7bec7a1fd551924e5931eb40875ecc6742262c64"
       "e4e8d50e20f5509e213a897e2662fe06ee5bd3e229c6369c89817f1a791db69a"},
  };
}

TEST(MontKernel, ModpKnownAnswersThroughModexp) {
  for (const auto& kat : modp_known_answers()) {
    const BigUint x = BigUint::from_hex(kat.exponent);
    EXPECT_EQ(modexp(kat.group.generator, x, kat.group.prime).to_hex(),
              kat.expected);
  }
}

// The portable row is checked on both answers before anything can skip,
// so a host without BMI2/ADX still checks the 2048-bit answer.
TEST(MontKernel, ModpKnownAnswersOnEachKernel) {
  const auto kats = modp_known_answers();
  for (const auto& kat : kats) {
    const BigUint x = BigUint::from_hex(kat.exponent);
    EXPECT_EQ(modexp_with_row(&detail::mont_row_portable, kat.group.generator,
                              x, kat.group.prime)
                  .to_hex(),
              kat.expected);
  }
  for (const auto& kat : kats) {
    const detail::MontRow adx =
        detail::mont_row_adx(kat.group.prime.limbs().size());
    if (adx == nullptr) GTEST_SKIP() << "CPU lacks BMI2/ADX";
    const BigUint x = BigUint::from_hex(kat.exponent);
    EXPECT_EQ(modexp_with_row(adx, kat.group.generator, x, kat.group.prime)
                  .to_hex(),
              kat.expected);
  }
}

TEST(Montgomery, LargeGroupSelfConsistency) {
  // (g^a)^b == (g^b)^a mod p in the 2048-bit group — exercises the full
  // Montgomery pipeline at protocol scale.
  const auto& group = DhGroup::modp2048();
  const auto a = BigUint::from_hex("0123456789abcdef0123456789abcdef"
                                   "0123456789abcdef0123456789abcdef");
  const auto b = BigUint::from_hex("fedcba9876543210fedcba9876543210"
                                   "fedcba9876543210fedcba9876543211");
  const auto ga = modexp(group.generator, a, group.prime);
  const auto gb = modexp(group.generator, b, group.prime);
  EXPECT_EQ(modexp(ga, b, group.prime), modexp(gb, a, group.prime));
}

TEST(Dh, GroupConstantsSane) {
  EXPECT_EQ(DhGroup::modp2048().prime.bit_length(), 2048u);
  EXPECT_EQ(DhGroup::modp1536().prime.bit_length(), 1536u);
  EXPECT_TRUE(DhGroup::modp2048().prime.is_odd());
  EXPECT_EQ(DhGroup::modp2048().prime_bytes, 256u);
}

TEST(Dh, KeyAgreement) {
  const auto& group = DhGroup::modp1536();  // smaller group: faster test
  ChaChaDrbg rng_a(bytes_of("alice")), rng_b(bytes_of("bob"));
  const auto alice = dh_generate(group, rng_a);
  const auto bob = dh_generate(group, rng_b);
  const Bytes s1 = dh_shared_secret(group, alice.secret, bob.public_value);
  const Bytes s2 = dh_shared_secret(group, bob.secret, alice.public_value);
  EXPECT_EQ(s1, s2);
  EXPECT_EQ(s1.size(), group.prime_bytes);
}

TEST(Dh, RejectsDegeneratePublicValues) {
  const auto& group = DhGroup::modp1536();
  EXPECT_FALSE(dh_public_is_valid(group, BigUint{}));
  EXPECT_FALSE(dh_public_is_valid(group, BigUint(1)));
  EXPECT_FALSE(dh_public_is_valid(group, group.prime - BigUint(1)));
  EXPECT_FALSE(dh_public_is_valid(group, group.prime));
  EXPECT_TRUE(dh_public_is_valid(group, BigUint(2)));
  EXPECT_THROW(dh_shared_secret(group, BigUint(5), BigUint(1)),
               std::runtime_error);
}

// Twenty seeded key pairs per group, each agreeing with the previous
// one's public value: one digest over every exponent, public value and
// shared secret pins dh_generate and dh_shared_secret byte for byte.
TEST(Dh, SeededKnownAnswers) {
  const std::pair<const DhGroup*, const char*> cases[] = {
      {&DhGroup::modp1536(),
       "4f02a6480cee3e038a0e8204857e3705daf1e91a9799c9655bcc0ab1838a68ba"},
      {&DhGroup::modp2048(),
       "ee059f247700ce7eebfa7c807071ead4a3db82bbc2d397e96dc1e4c86d520413"},
  };
  for (const auto& [group, expected] : cases) {
    Sha256 digest;
    DhKeyPair previous;
    for (int seed = 0; seed < 20; ++seed) {
      ChaChaDrbg rng(bytes_of("dh-kat-" + std::to_string(seed)));
      DhKeyPair pair = dh_generate(*group, rng);
      digest.update(pair.secret.to_bytes_be(32));
      digest.update(pair.public_value.to_bytes_be(group->prime_bytes));
      if (seed > 0) {
        digest.update(
            dh_shared_secret(*group, pair.secret, previous.public_value));
      }
      previous = std::move(pair);
    }
    EXPECT_EQ(to_hex(digest.finalize()), expected) << group->prime_bytes;
  }
}

TEST(Dh, DistinctSeedsDistinctKeys) {
  const auto& group = DhGroup::modp1536();
  ChaChaDrbg r1(bytes_of("s1")), r2(bytes_of("s2"));
  EXPECT_NE(dh_generate(group, r1).public_value.to_hex(),
            dh_generate(group, r2).public_value.to_hex());
}

}  // namespace
}  // namespace neuropuls::crypto
