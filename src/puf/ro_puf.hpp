// Ring-oscillator PUF — the delay-based electronic baseline, and the
// subject of the Fig. 3 experiment.
//
// Frequency model per oscillator i on device d:
//   f_{d,i} = f_nominal + layout_i + process_{d,i} + noise(measurement)
// `layout_i` is a *design-systematic* offset identical on every device —
// this is precisely what creates bit aliasing: an RO pair whose layout
// offsets differ strongly produces the same bit on every device, so its
// response carries no device entropy. `process_{d,i}` is the per-device
// mismatch the PUF lives on. The counter threshold of [13] (Gutierrez et
// al., IOLTS'23) filters pairs by measured count difference: small
// |Delta| = unreliable, large |Delta| = likely layout-dominated = aliased.
// `bench/bench_fig3_filtering` sweeps that threshold to regenerate Fig. 3.
#pragma once

#include <cstdint>
#include <vector>

#include "crypto/prng.hpp"
#include "puf/puf.hpp"

namespace neuropuls::puf {

struct RoPufConfig {
  std::size_t oscillators = 256;
  double nominal_frequency_hz = 200e6;
  double layout_sigma_hz = 1.5e5;   // design-systematic spread
  double process_sigma_hz = 2.0e5;  // device-specific spread
  double noise_sigma_hz = 3.0e4;    // per-measurement jitter
  double count_window_s = 100e-6;   // counter gating window
  double temperature = 300.0;
  double reference_temperature = 300.0;
  /// Frequency drop per kelvin (ROs slow when hot); affects all ROs almost
  /// equally, so pairs cancel most of it — "almost" is what hurts.
  double thermal_slope_hz_per_k = -4.0e4;
  double thermal_mismatch_fraction = 0.03;  // per-RO slope mismatch
  std::uint64_t design_seed = 0x524f2d504646ULL;  // "RO-PFF"
};

class RoPuf final : public Puf {
 public:
  RoPuf(RoPufConfig config, std::uint64_t device_seed);

  /// Challenge: 4 bytes = two 16-bit RO indices (big-endian). Response:
  /// 1 byte, LSB = (count_i > count_j).
  std::size_t challenge_bytes() const override { return 4; }
  std::size_t response_bytes() const override { return 1; }

  Response evaluate(const Challenge& challenge) override;
  Response evaluate_noiseless(const Challenge& challenge) const override;
  std::string name() const override { return "ro-puf"; }

  /// Counter value of oscillator `index` over the gating window (noisy).
  std::int64_t measure_count(std::size_t index);

  /// Noise-free expected count of oscillator `index`.
  std::int64_t expected_count(std::size_t index) const;

  /// Measured count difference for a pair — the analog quantity the
  /// Fig. 3 threshold filter operates on.
  std::int64_t count_difference(std::size_t i, std::size_t j) {
    return measure_count(i) - measure_count(j);
  }

  void set_temperature(double kelvin) noexcept {
    config_.temperature = kelvin;
  }

  /// Ages the device by `hours` (§V: "effects of aging"): transistor
  /// degradation slows every RO with per-oscillator mismatch, so pair
  /// frequency differences drift and marginal bits flip. Cumulative.
  void age(double hours);

  double age_hours() const noexcept { return age_hours_; }

 private:
  double frequency(std::size_t index) const;  // noise-free, at temperature

  RoPufConfig config_;
  std::vector<double> layout_offsets_;   // design-wide
  std::vector<double> process_offsets_;  // this device
  std::vector<double> thermal_slopes_;   // per-RO dF/dT
  std::vector<double> aging_offsets_;    // accumulated degradation
  rng::Gaussian noise_;
  rng::Gaussian aging_;
  double age_hours_ = 0.0;
};

/// Decodes a pair challenge.
struct RoPair {
  std::size_t i;
  std::size_t j;
};
RoPair decode_ro_challenge(const Challenge& challenge);
Challenge encode_ro_challenge(std::size_t i, std::size_t j);

}  // namespace neuropuls::puf
