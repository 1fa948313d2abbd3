// Passive photonic components: waveguides, directional couplers, phase
// shifters, Y-splitters, and Mach–Zehnder interferometers.
//
// Each component exposes its frequency-domain action on complex field
// amplitudes at a given wavelength and temperature. Together with the
// microring models in `ring.hpp` these are the building blocks of the
// "passive PUF architecture" block of Fig. 2 — the section that "separates
// the initial light beam in several different paths and scrambles them".
#pragma once

#include <array>

#include "photonic/constants.hpp"
#include "photonic/field.hpp"
#include "photonic/variation.hpp"

namespace neuropuls::photonic {

/// Operating point shared by all wavelength/temperature-dependent models.
struct OperatingPoint {
  double wavelength = kDefaultWavelength;      // metres
  double temperature = kReferenceTemperature;  // kelvin
};

/// A straight waveguide section: phase accumulation + propagation loss.
class Waveguide {
 public:
  /// `length` in metres, `loss_db_per_cm` in dB/cm.
  Waveguide(double length, double loss_db_per_cm = 2.0,
            double effective_index = kSoiEffectiveIndex,
            double group_index = kSoiGroupIndex);

  /// Applies the fabrication deviation of a concrete instance.
  void apply(const ComponentDeviation& deviation) noexcept;

  /// Complex field transfer factor at the operating point. The
  /// thermo-optic effect shifts the effective index by
  /// dn/dT * (T - T_ref).
  Complex transfer(const OperatingPoint& op) const noexcept;

  /// Group delay (s) — sets the ring round-trip time.
  double group_delay() const noexcept;

  double length() const noexcept { return length_; }
  double effective_index() const noexcept { return effective_index_; }

 private:
  double length_;
  double loss_db_per_cm_;
  double effective_index_;
  double group_index_;
};

/// Lossless 2x2 directional coupler with power coupling ratio kappa^2.
/// Transfer matrix: [through, cross; cross, through] with
/// through = sqrt(1 - kappa2), cross = -i * sqrt(kappa2).
class DirectionalCoupler {
 public:
  explicit DirectionalCoupler(double power_coupling_ratio = 0.5);

  void apply(const ComponentDeviation& deviation) noexcept;

  /// Applies the 2x2 matrix to a port pair.
  std::array<Complex, 2> couple(Complex in0, Complex in1) const noexcept;

  double power_coupling_ratio() const noexcept { return kappa2_; }

 private:
  double kappa2_;
};

/// 1x2 Y-junction splitter with excess loss; splits power evenly.
class YSplitter {
 public:
  explicit YSplitter(double excess_loss_db = 0.3);

  void apply(const ComponentDeviation& deviation) noexcept;

  std::array<Complex, 2> split(Complex in) const noexcept;

 private:
  double excess_loss_db_;
};

/// Unbalanced Mach–Zehnder interferometer: two couplers around two arms of
/// different lengths. The wavelength-dependent interference makes it a
/// spectral scrambling element.
class MachZehnder {
 public:
  MachZehnder(double arm_length_a, double arm_length_b,
              double coupling_in = 0.5, double coupling_out = 0.5,
              double loss_db_per_cm = 2.0);

  /// Applies one deviation to each internal element (4 sub-deviations are
  /// derived from the single seed deterministically by the caller passing
  /// distinct component indices; here one deviation perturbs both arms in
  /// an anti-correlated way, which is the dominant physical effect).
  void apply(const ComponentDeviation& deviation) noexcept;

  std::array<Complex, 2> transfer(const OperatingPoint& op, Complex in0,
                                  Complex in1) const noexcept;

 private:
  DirectionalCoupler input_coupler_;
  DirectionalCoupler output_coupler_;
  Waveguide arm_a_;
  Waveguide arm_b_;
};

}  // namespace neuropuls::photonic
