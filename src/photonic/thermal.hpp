// Thermal environment, photonic temperature sensing, and closed-loop
// temperature control.
//
// §II-B lists two hardware mitigations for PUF unreliability: "introducing
// a photonic sensor for temperature measurement and considering this
// additional parameter when evaluating the genuinity of the responses" and
// "hardware approaches based on the temperature controller". This module
// provides both, plus the ambient model that stresses them; the E11 bench
// sweeps ambient drift with the mitigation on and off.
#pragma once

#include <cstdint>

#include "crypto/prng.hpp"
#include "photonic/ring.hpp"

namespace neuropuls::photonic {

/// Ambient temperature process: slow drift (Ornstein–Uhlenbeck around the
/// ambient mean) plus fast white jitter.
class ThermalEnvironment {
 public:
  ThermalEnvironment(double mean_kelvin, double drift_sigma,
                     double jitter_sigma, std::uint64_t seed)
      : mean_(mean_kelvin),
        drift_sigma_(drift_sigma),
        jitter_sigma_(jitter_sigma),
        drift_(0.0),
        noise_(seed) {}

  /// Advances the process one step and returns the current temperature.
  double step() noexcept {
    // OU with relaxation 0.05 per step.
    drift_ += -0.05 * drift_ + noise_.next(0.0, drift_sigma_);
    return mean_ + drift_ + noise_.next(0.0, jitter_sigma_);
  }

  double mean() const noexcept { return mean_; }

 private:
  double mean_;
  double drift_sigma_;
  double jitter_sigma_;
  double drift_;
  rng::Gaussian noise_;
};

/// Photonic (ring-based) temperature sensor: converts the thermo-optic
/// resonance shift of a dedicated reference ring into a temperature
/// estimate with calibration-limited accuracy.
class PhotonicTemperatureSensor {
 public:
  /// `accuracy_kelvin` is the 1-sigma readout error.
  PhotonicTemperatureSensor(double accuracy_kelvin, std::uint64_t seed)
      : accuracy_(accuracy_kelvin), noise_(seed) {}

  /// Measures the true temperature with sensor noise.
  double read(double true_kelvin) noexcept {
    return true_kelvin + noise_.next(0.0, accuracy_);
  }

  double accuracy() const noexcept { return accuracy_; }

 private:
  double accuracy_;
  rng::Gaussian noise_;
};

/// Proportional thermal controller (heater + sensor loop): attenuates the
/// deviation between ambient and setpoint by its rejection ratio, limited
/// by sensor accuracy.
class TemperatureController {
 public:
  TemperatureController(double setpoint_kelvin, double rejection_ratio,
                        PhotonicTemperatureSensor sensor)
      : setpoint_(setpoint_kelvin),
        rejection_(rejection_ratio),
        sensor_(std::move(sensor)) {}

  /// Die temperature achieved when ambient is `ambient_kelvin`.
  double regulate(double ambient_kelvin) noexcept {
    const double measured = sensor_.read(ambient_kelvin);
    const double correction = (setpoint_ - measured) * rejection_;
    return ambient_kelvin + correction;
  }

  double setpoint() const noexcept { return setpoint_; }

 private:
  double setpoint_;
  double rejection_;  // in [0, 1): 0 = no control, 0.95 = 20x rejection
  PhotonicTemperatureSensor sensor_;
};

}  // namespace neuropuls::photonic
