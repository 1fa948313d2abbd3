// The passive scrambling circuit of Fig. 2.
//
// A multi-port interferometric mesh: alternating brick-wall layers of 2x2
// directional couplers (splitting the beam across paths), per-port
// waveguide sections of designed-pseudo-random length (relative phase),
// and per-port all-pass microrings (wavelength selectivity + memory).
// "The passive PUF architecture section separates the initial light beam
// in several different paths and scrambles them before the output. No
// active devices are present."
//
// The *design* is fixed by a design seed (identical for every device of a
// production run); the *device fingerprint* comes from the
// FabricationModel deviations layered on top — exactly the split between
// mask and process that makes a PUF unclonable-by-manufacturer.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/simd.hpp"
#include "photonic/components.hpp"
#include "photonic/field_block.hpp"
#include "photonic/ring.hpp"

namespace neuropuls::photonic {

struct ScramblerDesign {
  std::size_t ports = 8;
  std::size_t layers = 6;
  std::uint64_t design_seed = 0x4e455552'4f50554cULL;  // "NEUROPUL"
  // Deliberately long (spiralled) sections: with sigma(n_eff) ~ 4e-4 a
  // millimetre of waveguide accumulates a phase deviation of order pi, so
  // the interference pattern decorrelates completely between devices —
  // the layout choice that pushes inter-device HD to 50%.
  double waveguide_min_length = 0.5e-3;  // metres
  double waveguide_max_length = 2.5e-3;  // metres
  double ring_radius_min = 8e-6;
  double ring_radius_max = 12e-6;
  double coupler_ratio = 0.5;
  double loss_db_per_cm = 2.0;
  bool with_rings = true;  // disable for a memoryless (pure-mesh) ablation
};

/// One device instance of the scrambler: nominal design + this device's
/// fabrication deviations baked in.
class ScramblerCircuit {
 public:
  ScramblerCircuit(const ScramblerDesign& design,
                   const FabricationModel& fabrication);

  std::size_t ports() const noexcept { return design_.ports; }
  std::size_t layers() const noexcept { return design_.layers; }

  /// Steady-state frequency-domain evaluation: input amplitudes to output
  /// amplitudes at the operating point.
  /// Throws std::invalid_argument when input size != ports().
  PortVector evaluate(const OperatingPoint& op, const PortVector& in) const;

  /// The input fan-out tree of Fig. 2 ("separates the initial light beam
  /// in several different paths"): per-port complex coefficients that
  /// distribute a single source field across all ports, each path with a
  /// designed-random length and this device's fabrication deviation.
  PortVector input_coefficients(const OperatingPoint& op) const;

  /// Sum over layers of ring round-trip delays on the longest path — a
  /// bound on how long energy lingers in the circuit (the "< 100 ns"
  /// response-lifetime argument of §IV).
  double memory_depth_seconds() const noexcept;

  const ScramblerDesign& design() const noexcept { return design_; }
  const std::vector<std::vector<MicroringAllPass>>& rings() const noexcept {
    return rings_;
  }

 private:
  friend class ScramblerTables;

  ScramblerDesign design_;
  // Input fan-out paths, one per port.
  std::vector<Waveguide> input_taps_;
  // [layer][pair] couplers; [layer][port] waveguides and rings.
  std::vector<std::vector<DirectionalCoupler>> couplers_;
  std::vector<std::vector<Waveguide>> waveguides_;
  std::vector<std::vector<MicroringAllPass>> rings_;
};

/// The immutable transfer constants of a ScramblerCircuit frozen at one
/// (wavelength, temperature) operating point and sample period: coupler
/// t/k amplitudes, per-layer waveguide transfer factors, per-ring
/// time-domain constants, and the input fan-out coefficients.
///
/// Building these tables is the expensive part of starting a time-domain
/// evaluation (one complex exponential per waveguide and ring); they hold
/// no state, so one instance is safely shared — concurrently — by every
/// evaluation at the same operating point. PhotonicPuf caches one per
/// operating point and the batch engine reuses it across all work items.
class ScramblerTables {
 public:
  ScramblerTables(const ScramblerCircuit& circuit, const OperatingPoint& op,
                  double sample_period_s);

  std::size_t ports() const noexcept { return ports_; }
  std::size_t layers() const noexcept { return layers_; }
  bool with_rings() const noexcept { return with_rings_; }

  /// The circuit's input fan-out coefficients at the frozen operating
  /// point (same values as ScramblerCircuit::input_coefficients).
  const PortVector& input_coefficients() const noexcept { return taps_; }

 private:
  friend class TimeDomainScrambler;

  std::size_t ports_;
  std::size_t layers_;
  bool with_rings_;
  std::vector<std::vector<std::array<double, 2>>> coupler_tk_;  // {t, k}
  std::vector<std::vector<Complex>> waveguide_transfer_;
  std::vector<std::vector<RingTimeDomainConstants>> ring_constants_;
  PortVector taps_;
};

/// Sample-clocked evaluation of a ScramblerCircuit: the modulated challenge
/// stream flows through the mesh while the rings integrate state, so each
/// output sample depends on past input symbols (reservoir-style mixing).
///
/// The instance owns only the mutable ring state; the static constants
/// live in a (possibly shared) ScramblerTables. Instances are cheap to
/// stamp out from cached tables, which is what makes batched evaluation
/// win even single-threaded: a lane-parallel instance holds every ring's
/// delay lines in one aligned buffer. Move-only, because its ring blocks
/// point into that buffer.
///
/// Two execution modes share the tables:
///   * lane-parallel (lanes > 0): step_block on a FieldBlock of `lanes`
///     independent challenges, every op vectorized across lanes — the
///     mode PhotonicPuf runs, one lane for a single evaluation;
///   * scalar (lanes == 0): step_inplace/step on one PortVector — the
///     reference the physics tests and scramble_series use. Lane results
///     are bit-identical to it (common/simd.hpp documents the argument;
///     tests/photonic/test_field_block.cpp asserts it).
class TimeDomainScrambler {
 public:
  /// Freezes the static transfer constants at `op` and builds per-ring
  /// delay lines for the given sample period.
  TimeDomainScrambler(const ScramblerCircuit& circuit, const OperatingPoint& op,
                      double sample_period_s);

  /// Builds only the scalar ring state around precomputed shared tables.
  explicit TimeDomainScrambler(std::shared_ptr<const ScramblerTables> tables);

  TimeDomainScrambler(const TimeDomainScrambler&) = delete;
  TimeDomainScrambler& operator=(const TimeDomainScrambler&) = delete;
  TimeDomainScrambler(TimeDomainScrambler&&) noexcept = default;
  TimeDomainScrambler& operator=(TimeDomainScrambler&&) noexcept = default;

  /// Lane-parallel mode: builds block ring state for `lanes` independent
  /// challenges around precomputed shared tables. Throws
  /// std::invalid_argument when lanes == 0.
  TimeDomainScrambler(std::shared_ptr<const ScramblerTables> tables,
                      std::size_t lanes);

  /// Processes one time step in place: `state` holds one sample per port
  /// on entry and the per-port outputs on return. No allocation.
  void step_inplace(PortVector& state);

  /// Processes one time step: `in` has one sample per port.
  PortVector step(const PortVector& in);

  /// Processes one time step of every lane in place: coupler 2x2 mixes,
  /// waveguide phase rotations, and ring updates each applied across all
  /// lanes per op. Requires block dims (ports x lanes) to match; only
  /// valid on a lane-parallel instance. No allocation.
  void step_block(FieldBlock& block);

  /// Streams a single-port input (port 0 driven, others dark) and returns
  /// per-port output sample streams. Output vectors are sized up front and
  /// written by index; one scratch state is reused across samples, so the
  /// loop allocates nothing.
  std::vector<std::vector<Complex>> scramble_series(
      const std::vector<Complex>& port0_in);

  void reset() noexcept;

  std::size_t ports() const noexcept { return tables_->ports(); }

  /// Lane width of a lane-parallel instance; 0 for scalar instances.
  std::size_t lanes() const noexcept { return lanes_; }

  const ScramblerTables& tables() const noexcept { return *tables_; }

 private:
  std::shared_ptr<const ScramblerTables> tables_;
  std::size_t lanes_ = 0;  // 0 = scalar mode
  std::vector<std::vector<RingTimeDomain>> ring_states_;
  // Lane mode: ring (layer, port) is ring_blocks_[layer * ports + port],
  // stepping over its slice of ring_state_.
  std::vector<RingTimeDomainBlock> ring_blocks_;
  simd::AlignedVector<double> ring_state_;
};

/// Convenience factory for a shareable operating-point table set.
std::shared_ptr<const ScramblerTables> make_scrambler_tables(
    const ScramblerCircuit& circuit, const OperatingPoint& op,
    double sample_period_s);

}  // namespace neuropuls::photonic
