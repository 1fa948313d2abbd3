#include "faults/device_faults.hpp"

#include <algorithm>
#include <cmath>

namespace neuropuls::faults {

namespace {

// Domain-separation streams so the thermal-spike and phase-aging
// schedules never correlate even under the same root seed.
constexpr std::uint64_t kThermalStream = 0x7468726d;  // "thrm"
constexpr std::uint64_t kAgingStream = 0x6167696e;    // "agin"
constexpr std::uint64_t kFleetStream = 0x666c6565;    // "flee"

}  // namespace

DeviceFaultConfig device_drift_config(const FleetDriftSpread& spread,
                                      std::uint64_t fleet_seed,
                                      std::uint64_t device_index) {
  rng::Xoshiro256 rng(rng::derive_seed(
      rng::derive_seed(fleet_seed, kFleetStream), device_index));
  const double s = std::clamp(spread.relative_spread, 0.0, 1.0);
  // One independent draw per parameter, in a fixed order so adding a
  // parameter later does not reshuffle existing devices' draws.
  const double droop_factor = rng.uniform(1.0 - s, 1.0 + s);
  const double thermal_factor = rng.uniform(1.0 - s, 1.0 + s);
  const double phase_factor = rng.uniform(1.0 - s, 1.0 + s);
  DeviceFaultConfig config;
  config.laser_droop.droop_per_eval =
      spread.laser_droop_per_day * droop_factor;
  config.laser_droop.floor_scale = spread.laser_droop_floor;
  config.thermal.spike_probability =
      std::clamp(spread.thermal_spike_probability * thermal_factor, 0.0, 1.0);
  config.thermal.magnitude_kelvin = spread.thermal_magnitude_kelvin;
  config.phase_aging.drift_rad_per_eval =
      spread.phase_drift_rad_per_day * phase_factor;
  config.phase_aging.max_drift_rad = spread.phase_max_drift_rad;
  return config;
}

DeviceFaultModel::DeviceFaultModel(DeviceFaultConfig config, std::uint64_t seed)
    : config_(std::move(config)), seed_(seed) {}

double DeviceFaultModel::photodiode_scale(std::size_t port) const noexcept {
  double scale = 1.0;
  for (const auto& fault : config_.photodiodes) {
    if (fault.port == port) scale *= fault.responsivity_scale;
  }
  return scale;
}

double DeviceFaultModel::laser_scale(std::uint64_t eval_index) const noexcept {
  const LaserDroopFault& droop = config_.laser_droop;
  if (droop.droop_per_eval <= 0.0) return 1.0;
  const double drooped =
      1.0 - droop.droop_per_eval * static_cast<double>(eval_index);
  return std::max(droop.floor_scale, drooped);
}

double DeviceFaultModel::temperature_offset(
    std::uint64_t eval_index) const noexcept {
  const ThermalTransientFault& thermal = config_.thermal;
  if (thermal.spike_probability <= 0.0 || thermal.magnitude_kelvin == 0.0) {
    return 0.0;
  }
  // One decorrelated stream per evaluation index: the spike schedule is a
  // pure function of (seed, index), so concurrent / batched evaluations
  // agree with the serial sequence.
  rng::Xoshiro256 rng(
      rng::derive_seed(rng::derive_seed(seed_, kThermalStream), eval_index));
  return rng.bernoulli(thermal.spike_probability) ? thermal.magnitude_kelvin
                                                  : 0.0;
}

double DeviceFaultModel::phase_drift(std::uint64_t eval_index,
                                     std::size_t port) const noexcept {
  const PhaseAgingFault& aging = config_.phase_aging;
  if (aging.drift_rad_per_eval <= 0.0) return 0.0;
  const double drift =
      std::min(aging.drift_rad_per_eval * static_cast<double>(eval_index),
               aging.max_drift_rad);
  // Per-port direction/magnitude factor in [-1, 1]: shifters age
  // independently, and a uniform common-mode phase would cancel in the
  // square-law detector anyway.
  rng::Xoshiro256 rng(
      rng::derive_seed(rng::derive_seed(seed_, kAgingStream), port));
  return drift * rng.uniform(-1.0, 1.0);
}

bool DeviceFaultModel::quiet() const noexcept {
  const bool pd_quiet =
      std::all_of(config_.photodiodes.begin(), config_.photodiodes.end(),
                  [](const PhotodiodeFault& f) {
                    return f.responsivity_scale == 1.0;
                  });
  return pd_quiet && config_.laser_droop.droop_per_eval <= 0.0 &&
         (config_.thermal.spike_probability <= 0.0 ||
          config_.thermal.magnitude_kelvin == 0.0) &&
         config_.phase_aging.drift_rad_per_eval <= 0.0;
}

}  // namespace neuropuls::faults
