// Structure-of-arrays field state for lane-parallel evaluation.
//
// A FieldBlock holds the port states of W *independent* challenges
// ("lanes") as separate re/im planes: plane layout is [port][lane], each
// plane kLaneAlignment-aligned and contiguous, so every scrambler op
// (coupler mix, waveguide rotation, ring update) streams through all W
// lanes of a port with unit stride — the layout the auto-vectorized
// kernels in common/simd.hpp want. The AoS PortVector
// (std::vector<std::complex<double>>) is the scalar circuit mode's
// representation; PhotonicPuf evaluates every challenge in a FieldBlock,
// a single one as a one-lane block.
//
// Lanes are fully independent: no op ever mixes lane i with lane j, only
// port planes within a lane. That is what makes lane results
// bit-identical to the scalar circuit mode (see common/simd.hpp).
#pragma once

#include <cstddef>
#include <stdexcept>

#include "common/simd.hpp"
#include "photonic/field.hpp"

namespace neuropuls::photonic {

class FieldBlock {
 public:
  /// A ports x lanes block, zero-initialised (all ports dark).
  FieldBlock(std::size_t ports, std::size_t lanes)
      : ports_(ports),
        lanes_(lanes),
        re_(ports * lanes, 0.0),
        im_(ports * lanes, 0.0) {
    if (ports == 0 || lanes == 0) {
      throw std::invalid_argument("FieldBlock: ports and lanes must be > 0");
    }
  }

  std::size_t ports() const noexcept { return ports_; }
  std::size_t lanes() const noexcept { return lanes_; }

  /// The re/im planes of one port: `lanes()` contiguous doubles.
  double* re(std::size_t port) noexcept { return re_.data() + port * lanes_; }
  double* im(std::size_t port) noexcept { return im_.data() + port * lanes_; }
  const double* re(std::size_t port) const noexcept {
    return re_.data() + port * lanes_;
  }
  const double* im(std::size_t port) const noexcept {
    return im_.data() + port * lanes_;
  }

  /// Scalar element access (tests and lane scatter/gather glue).
  Complex at(std::size_t port, std::size_t lane) const noexcept {
    return {re_[port * lanes_ + lane], im_[port * lanes_ + lane]};
  }
  void set(std::size_t port, std::size_t lane, Complex value) noexcept {
    re_[port * lanes_ + lane] = value.real();
    im_[port * lanes_ + lane] = value.imag();
  }

  /// Darkens every port of every lane.
  void clear() noexcept {
    for (auto& v : re_) v = 0.0;
    for (auto& v : im_) v = 0.0;
  }

 private:
  std::size_t ports_;
  std::size_t lanes_;
  simd::AlignedVector<double> re_;
  simd::AlignedVector<double> im_;
};

}  // namespace neuropuls::photonic
