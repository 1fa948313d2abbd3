// Microring resonators — frequency-domain transfer and time-domain memory.
//
// The PUF architecture the consortium demonstrated (§II-A, ref. [12]) is a
// symmetric microring-resonator array: rings are the components whose
// resonance positions are exquisitely sensitive to fabrication (one
// nanometre of radius error detunes a resonance by tens of picometres),
// giving the device its fingerprint; and because a ring stores circulating
// energy for many round trips, it provides the "memory effects … mixing
// incoming signals in time with previous ones, similarly to what happens
// in reservoir computing" that the paper highlights.
//
// Two views of the same physics:
//   * `through()` / `drop()` — steady-state frequency response, used for
//     spectral PUF readout and the thermal-sensitivity experiments;
//   * `RingTimeDomain` — a sample-clocked recirculating delay model, used
//     when the modulated challenge stream (25 Gb/s in ref. [12]) must
//     interact with the ring's stored state.
#pragma once

#include <cstddef>
#include <vector>

#include "photonic/components.hpp"

namespace neuropuls::photonic {

/// Geometry + coupling description of one ring.
struct RingParameters {
  double radius = 10e-6;             // metres
  double power_coupling_in = 0.1;    // kappa^2 at the input bus
  double power_coupling_drop = 0.1;  // kappa^2 at the drop bus (add-drop)
  double loss_db_per_cm = 3.0;       // bend + scattering loss
  double effective_index = kSoiEffectiveIndex;
  double group_index = kSoiGroupIndex;
};

/// All-pass (single-bus) microring.
class MicroringAllPass {
 public:
  explicit MicroringAllPass(RingParameters params = {});

  void apply(const ComponentDeviation& deviation) noexcept;

  /// Complex through-port transfer at the operating point:
  ///   H = (t - a e^{-i phi}) / (1 - t a e^{-i phi})
  Complex through(const OperatingPoint& op) const noexcept;

  /// Round-trip phase at the operating point (radians, mod nothing).
  double round_trip_phase(const OperatingPoint& op) const noexcept;

  /// Single round-trip field attenuation a in (0, 1].
  double round_trip_amplitude() const noexcept;

  /// Round-trip (group) delay in seconds.
  double round_trip_delay() const noexcept;

  const RingParameters& params() const noexcept { return params_; }

 private:
  RingParameters params_;
};

/// Add-drop (two-bus) microring with through and drop responses.
class MicroringAddDrop {
 public:
  explicit MicroringAddDrop(RingParameters params = {});

  void apply(const ComponentDeviation& deviation) noexcept;

  Complex through(const OperatingPoint& op) const noexcept;
  Complex drop(const OperatingPoint& op) const noexcept;

  const RingParameters& params() const noexcept { return params_; }

 private:
  double round_trip_phase(const OperatingPoint& op) const noexcept;
  RingParameters params_;
};

/// The static (state-free) constants of a RingTimeDomain at one operating
/// point: everything except the circulating field. Computing these costs
/// trig/exp evaluations, so batch engines precompute them once per
/// (wavelength, temperature) and stamp out per-evaluation ring states
/// cheaply (see ScramblerTables in circuit.hpp).
struct RingTimeDomainConstants {
  double t = 1.0;                 // through amplitude sqrt(1 - kappa^2)
  double k = 0.0;                 // cross amplitude sqrt(kappa^2)
  Complex feedback{1.0, 0.0};     // a * e^{-i phi}
  std::size_t delay_samples = 1;  // round-trip delay in samples, >= 1

  /// Freezes `ring` at `op` for a given sample period. Throws
  /// std::invalid_argument when sample_period <= 0.
  static RingTimeDomainConstants of(const MicroringAllPass& ring,
                                    const OperatingPoint& op,
                                    double sample_period);
};

/// Time-domain all-pass ring clocked at the modulation sample rate.
///
/// The ring circumference maps to `delay_samples` of the input stream
/// (>= 1). Update per sample n:
///   out[n]      = t * in[n] - i k * ret[n]
///   circ[n]     = -i k * in[n] + t * ret[n]
///   ret[n]      = a * e^{-i phi} * circ[n - delay]
/// so past symbols persist in the circulating field — the reservoir-style
/// inter-symbol mixing the PUF exploits.
class RingTimeDomain {
 public:
  /// `sample_period` is the modulation sample duration (s); the delay in
  /// samples is round_trip_delay / sample_period, floored, min 1.
  RingTimeDomain(const MicroringAllPass& ring, const OperatingPoint& op,
                 double sample_period);

  /// Builds the state around precomputed constants (no trig/exp work).
  explicit RingTimeDomain(const RingTimeDomainConstants& constants);

  /// Processes one input sample, returns the through-port sample.
  Complex step(Complex in) noexcept;

  /// Clears the circulating state.
  void reset() noexcept;

  std::size_t delay_samples() const noexcept { return delay_line_.size(); }

 private:
  double t_;          // through amplitude sqrt(1 - kappa^2)
  double k_;          // cross amplitude sqrt(kappa^2)
  Complex feedback_;  // a * e^{-i phi}
  std::vector<Complex> delay_line_;
  std::size_t head_ = 0;
};

/// Lane-parallel counterpart of RingTimeDomain: one ring's recirculating
/// state for W independent lanes, stored as split-complex delay-line rows
/// of W doubles so one step updates every lane with unit stride. Per lane
/// it performs exactly the scalar step's operation tree (see
/// simd::ring_step), which keeps noiseless block evaluation bit-identical
/// to the serial path.
///
/// The block owns no memory: it steps over a caller-owned slice, so a
/// scrambler keeps every ring's rows in one buffer.
class RingTimeDomainBlock {
 public:
  /// Doubles of state one ring needs at `lanes` lanes: the real rows,
  /// then the imaginary rows, one row of `lanes` doubles per delay sample.
  static std::size_t state_size(const RingTimeDomainConstants& constants,
                                std::size_t lanes) noexcept {
    return 2 * constants.delay_samples * lanes;
  }

  /// `state` points at state_size(constants, lanes) zeroed doubles that
  /// outlive the block. Throws std::invalid_argument when lanes == 0.
  RingTimeDomainBlock(const RingTimeDomainConstants& constants,
                      std::size_t lanes, double* state);

  /// Steps every lane once, in place on the port planes (`re`/`im` are
  /// `lanes()` contiguous doubles).
  void step(double* re, double* im) noexcept;

  /// Clears the circulating state of every lane.
  void reset() noexcept;

  std::size_t lanes() const noexcept { return lanes_; }
  std::size_t delay_samples() const noexcept { return rows_; }

 private:
  double t_;
  double k_;
  double feedback_re_;
  double feedback_im_;
  std::size_t lanes_;
  std::size_t rows_;  // delay in samples
  std::size_t head_ = 0;
  double* delay_re_;  // [row][lane], then delay_im_ in the same slice
  double* delay_im_;
};

}  // namespace neuropuls::photonic
