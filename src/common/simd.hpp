// Portable SIMD layer for the photonic time-domain hot path.
//
// The lane-parallel engine packs W independent challenges' port fields as
// split-complex planes (separate re/im arrays, see
// photonic/field_block.hpp) and applies every scrambler op across all
// lanes at once. The kernels below are written as plain, dependency-free
// loops over `__restrict__` pointers so the compiler's auto-vectorizer
// turns them into SSE2/AVX2/NEON code on any target — no intrinsics are
// required for correctness, and the scalar fallback IS the same code.
//
// Bit-identity contract: each kernel performs, per lane, exactly the
// floating-point operation tree of the scalar `std::complex<double>` path
// it replaces (libstdc++ expands complex arithmetic to the same naive
// mul/add formulas for finite values). Terms of the form `0.0 * x` that
// the scalar complex formulas carry are dropped only where IEEE-754
// guarantees the same value up to the sign of an exact zero — and a zero's
// sign can never flip a response bit, because every readout goes through
// |E|^2 and a strict `> 0` threshold.
//
// FMA caveat: the identity argument counts *rounding steps*, so mul+add
// pairs must not be fused — fusion rounds the scalar complex-operator
// trees and these kernels differently (the dropped zero terms change what
// is fusable). The default x86-64 baseline has no FMA; the
// NEUROPULS_NATIVE build masks the FMA ISA off the photonic/puf targets
// (-mno-fma -mno-avx512f -ffp-contract=off) for exactly this reason —
// the ISA mask is needed because GCC turns std::complex multiplies into
// fused vfmaddsub even under -ffp-contract=off.
//
// Lane k of a block therefore produces
// the same fields as the circuit's scalar mode on item k, and the same
// response bytes at every block width; ctest asserts this
// (tests/photonic/test_field_block.cpp, test_parallel.cpp).
#pragma once

#include <cstddef>
#include <cstdlib>
#include <new>
#include <vector>

namespace neuropuls::simd {

#if defined(__GNUC__) || defined(__clang__)
#define NEUROPULS_RESTRICT __restrict__
#else
#define NEUROPULS_RESTRICT
#endif

/// Alignment of lane planes: one cache line, enough for AVX-512 loads.
inline constexpr std::size_t kLaneAlignment = 64;

/// Default lane-block width W: 8 doubles = one cache line per plane, two
/// AVX2 registers, four SSE2 registers. Chosen over the raw vector width
/// so the vectorized loops have unrolling headroom and tail blocks stay
/// rare for typical batch sizes.
inline constexpr std::size_t kDefaultLanes = 8;

/// Minimal aligned allocator so lane planes can live in std::vector while
/// starting on a kLaneAlignment boundary.
template <typename T>
struct AlignedAllocator {
  using value_type = T;

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    if (n == 0) return nullptr;
    void* p = ::operator new(n * sizeof(T), std::align_val_t{kLaneAlignment});
    return static_cast<T*>(p);
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t{kLaneAlignment});
  }

  template <typename U>
  bool operator==(const AlignedAllocator<U>&) const noexcept {
    return true;
  }
};

/// std::vector whose buffer starts on a kLaneAlignment boundary — the
/// storage type of every lane plane.
template <typename T>
using AlignedVector = std::vector<T, AlignedAllocator<T>>;

/// In-place multiply of each lane's complex value by the constant
/// (cr, ci): the per-port waveguide transfer rotation. Scalar equivalent:
/// `state[p] *= transfer` with re' = re*cr - im*ci, im' = re*ci + im*cr.
inline void complex_scale(double* NEUROPULS_RESTRICT re,
                          double* NEUROPULS_RESTRICT im, double cr, double ci,
                          std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    const double r = re[i] * cr - im[i] * ci;
    const double m = re[i] * ci + im[i] * cr;
    re[i] = r;
    im[i] = m;
  }
}

/// dst = src * (cr, ci) for every lane: the input fan-out tap applied to
/// the per-lane modulated carrier. Scalar equivalent:
/// `state[p] = modulated * taps[p]`.
inline void complex_fanout(const double* NEUROPULS_RESTRICT src_re,
                           const double* NEUROPULS_RESTRICT src_im, double cr,
                           double ci, double* NEUROPULS_RESTRICT dst_re,
                           double* NEUROPULS_RESTRICT dst_im,
                           std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    dst_re[i] = src_re[i] * cr - src_im[i] * ci;
    dst_im[i] = src_re[i] * ci + src_im[i] * cr;
  }
}

/// In-place 2x2 directional-coupler mix of port planes a and b across all
/// lanes, with through amplitude t and cross amplitude k (the cross path
/// carries the -i of evanescent coupling). Scalar equivalent:
///   s0 = t*a + (-ik)*b,  s1 = (-ik)*a + t*b.
inline void coupler_mix(double* NEUROPULS_RESTRICT are,
                        double* NEUROPULS_RESTRICT aim,
                        double* NEUROPULS_RESTRICT bre,
                        double* NEUROPULS_RESTRICT bim, double t, double k,
                        std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    const double s0r = t * are[i] + k * bim[i];
    const double s0i = t * aim[i] - k * bre[i];
    const double s1r = k * aim[i] + t * bre[i];
    const double s1i = t * bim[i] - k * are[i];
    are[i] = s0r;
    aim[i] = s0i;
    bre[i] = s1r;
    bim[i] = s1i;
  }
}

/// One all-pass ring time step across lanes, in place on the port planes.
/// `dre`/`dim` is the delay-line row holding the recirculating field
/// deposited `delay` steps ago (already scaled by the feedback factor on
/// insertion); it is overwritten with this step's circulating field.
/// Scalar equivalent (RingTimeDomain::step):
///   out  = t*in + (-ik)*ret
///   circ = (-ik)*in + t*ret
///   d[head] = (fr, fi) * circ
inline void ring_step(double* NEUROPULS_RESTRICT re,
                      double* NEUROPULS_RESTRICT im,
                      double* NEUROPULS_RESTRICT dre,
                      double* NEUROPULS_RESTRICT dim, double t, double k,
                      double fr, double fi, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    const double rr = dre[i];
    const double ri = dim[i];
    const double in_r = re[i];
    const double in_i = im[i];
    const double out_r = t * in_r + k * ri;
    const double out_i = t * in_i - k * rr;
    const double circ_r = k * in_i + t * rr;
    const double circ_i = t * ri - k * in_r;
    dre[i] = fr * circ_r - fi * circ_i;
    dim[i] = fr * circ_i + fi * circ_r;
    re[i] = out_r;
    im[i] = out_i;
  }
}

/// acc[i] += responsivity * |E_i|^2 + dark for every lane: the square-law
/// photodiode integrate step. Scalar equivalent:
/// `window_current += pd.mean_current(state)`.
inline void square_law_accumulate(const double* NEUROPULS_RESTRICT re,
                                  const double* NEUROPULS_RESTRICT im,
                                  double responsivity, double dark,
                                  double* NEUROPULS_RESTRICT acc,
                                  std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    acc[i] += responsivity * (re[i] * re[i] + im[i] * im[i]) + dark;
  }
}

}  // namespace neuropuls::simd
