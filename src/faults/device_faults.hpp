// Deterministic device-fault model for the optoelectronic stack.
//
// The paper's security services assume a healthy PIC + ASIC, but SerIOS
// (PAPERS.md) argues resilience of optoelectronic primitives under device
// degradation is the gating deployment concern: photodiodes die or lose
// responsivity, laser power droops with age and bias drift, thermal
// transients flip marginal PUF bits, and phase shifters drift as they
// age. This module makes every one of those failures a
// first-class, *seeded* input: the model is a pure function of
// (config, seed, evaluation index, port), so the same seed reproduces the
// same fault schedule bit-for-bit — the determinism contract the chaos
// suite (tests/chaos) and DESIGN.md rely on.
//
// Layering: this header depends only on the PRNG primitives, so the
// photonic and PUF layers can consume it without cycles. The hooks live
// in `puf::PhotonicPuf::analog_block`, the PUF's one analog core
// (photodiode/laser/thermal/phase faults, noisy path only — the
// verifier-side noiseless model stays ideal by construction). Stuck ADC
// bits are not part of this model: the PUF thresholds photocurrents
// directly and has no ADC, so they are injected straight into
// `photonic::Adc` (`set_stuck_bits`, forwarded by
// `photonic::ReadoutChain`).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "crypto/prng.hpp"

namespace neuropuls::faults {

/// Photodiode degradation on one output port. `responsivity_scale`
/// multiplies the detected photocurrent: 0.0 models a dead diode, values
/// in (0, 1) a degraded one.
struct PhotodiodeFault {
  std::size_t port = 0;
  double responsivity_scale = 0.0;
};

/// Laser power droop: emitted power decays linearly with the evaluation
/// counter until it reaches `floor_scale` of nominal (aging / bias-drift
/// model; monotone, so a drooped device never recovers on its own).
struct LaserDroopFault {
  double droop_per_eval = 0.0;  // fractional power lost per evaluation
  double floor_scale = 0.5;     // never droops below this fraction
};

/// Thermal transient spikes: with `spike_probability` per evaluation the
/// die temperature jumps by `magnitude_kelvin` for exactly that
/// evaluation. The spike schedule is keyed on (seed, evaluation index) —
/// deterministic, order-independent, thread-safe.
struct ThermalTransientFault {
  double spike_probability = 0.0;
  double magnitude_kelvin = 0.0;
};

/// Phase-shifter aging: each port accumulates a slow phase drift,
/// `drift_rad_per_eval` per evaluation up to `max_drift_rad`, with a
/// seeded per-port direction/magnitude factor (real shifters age
/// independently).
struct PhaseAgingFault {
  double drift_rad_per_eval = 0.0;
  double max_drift_rad = 0.5;
};

struct DeviceFaultConfig {
  std::vector<PhotodiodeFault> photodiodes;
  LaserDroopFault laser_droop;
  ThermalTransientFault thermal;
  PhaseAgingFault phase_aging;
};

/// Population-level drift spread for fleet simulations (src/fleet):
/// every device draws its own aging/thermal parameters around the
/// population mean with a seeded relative spread, so a million-device
/// fleet ages heterogeneously but reproducibly. Rates are per simulated
/// *day* — the fleet layer feeds the day counter to DeviceFaultModel as
/// the evaluation index.
struct FleetDriftSpread {
  /// Mean fractional laser power lost per day (LaserDroopFault rate).
  double laser_droop_per_day = 0.0;
  double laser_droop_floor = 0.5;
  /// Thermal transient schedule: per-day spike probability + magnitude.
  double thermal_spike_probability = 0.0;
  double thermal_magnitude_kelvin = 0.0;
  /// Phase-shifter aging rate per day.
  double phase_drift_rad_per_day = 0.0;
  double phase_max_drift_rad = 0.5;
  /// Each device's rates are the mean scaled by an independent seeded
  /// uniform draw in [1 - relative_spread, 1 + relative_spread].
  double relative_spread = 0.0;
};

/// Derives device `device_index`'s fault configuration from the
/// population spread — a pure function of (spread, fleet_seed,
/// device_index), so any worker can rebuild any device's drift model
/// without coordination.
DeviceFaultConfig device_drift_config(const FleetDriftSpread& spread,
                                      std::uint64_t fleet_seed,
                                      std::uint64_t device_index);

/// Immutable, seeded fault oracle. All queries are pure functions of
/// (config, seed, arguments): no internal state advances, so concurrent
/// evaluations see the same schedule and batch evaluation keyed on the
/// evaluation counter stays bit-identical to the serial sequence.
class DeviceFaultModel {
 public:
  DeviceFaultModel(DeviceFaultConfig config, std::uint64_t seed);

  /// Multiplier on the photocurrent detected at `port` (1.0 = healthy).
  double photodiode_scale(std::size_t port) const noexcept;

  /// Multiplier on the laser output power for evaluation `eval_index`.
  double laser_scale(std::uint64_t eval_index) const noexcept;

  /// Additive die-temperature offset (K) for evaluation `eval_index`.
  double temperature_offset(std::uint64_t eval_index) const noexcept;

  /// Aging phase offset (radians) of the input path feeding `port` at
  /// evaluation `eval_index`.
  double phase_drift(std::uint64_t eval_index, std::size_t port) const noexcept;

  /// True when the configuration injects nothing — a quiet model attached
  /// to a device is bit-identical to no model at all (asserted in
  /// tests/faults).
  bool quiet() const noexcept;

  const DeviceFaultConfig& config() const noexcept { return config_; }
  std::uint64_t seed() const noexcept { return seed_; }

 private:
  DeviceFaultConfig config_;
  std::uint64_t seed_;
};

}  // namespace neuropuls::faults
