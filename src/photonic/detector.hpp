// Receiver chain: photodiode → transimpedance amplifier → ADC.
//
// Fig. 2's output stage: "nonlinear devices such as photodiodes (PDs)
// that are sensitive not only to the amplitude but also to the phase of
// the light field due to the coherence of the approach. The ASIC then
// processes the responses through transimpedance amplifiers (TIAs) and
// analog-to-digital converters (ADCs)."
//
// The photodiode is the square-law element that converts the interfered
// complex field into photocurrent — because the field reaching it is a
// coherent superposition of many paths, the detected intensity encodes
// the phase structure of the circuit even though |·|^2 discards absolute
// phase. Shot, thermal, and dark-current noise set the reliability floor
// that the §II-B filtering techniques fight.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "crypto/prng.hpp"
#include "photonic/field.hpp"

namespace neuropuls::photonic {

struct PhotodiodeParameters {
  double responsivity = 1.0;       // A/W
  double dark_current = 10e-9;     // A
  double bandwidth_hz = 30e9;      // noise bandwidth
  double temperature = 300.0;      // K, for thermal noise
  double load_resistance = 50.0;   // ohms
};

/// Square-law detector with shot + thermal noise.
class Photodiode {
 public:
  Photodiode(PhotodiodeParameters params, std::uint64_t seed);

  /// Photocurrent (A) for one field sample, noise included.
  double detect(Complex field) noexcept;

  /// Noise-free photocurrent for a field sample.
  double mean_current(Complex field) const noexcept;

  /// Lane-parallel integrate step: acc[i] += mean_current({re[i], im[i]})
  /// for `n` lanes of one port's split-complex plane. Per lane this is the
  /// exact scalar mean_current() operation tree (simd::square_law_accumulate),
  /// so block accumulation stays bit-identical to the serial path.
  void accumulate_mean_block(const double* re, const double* im, double* acc,
                             std::size_t n) const noexcept;

  const PhotodiodeParameters& params() const noexcept { return params_; }

 private:
  PhotodiodeParameters params_;
  double thermal_sigma_;  // A, fixed by R, T, B
  rng::Gaussian noise_;
};

struct TiaParameters {
  double gain_ohms = 5e3;            // transimpedance
  double input_noise_a_rt_hz = 20e-12;  // input-referred current noise
  double bandwidth_fraction = 0.8;   // one-pole BW relative to sample rate
};

/// Transimpedance amplifier: current in, filtered voltage out.
class TransimpedanceAmplifier {
 public:
  TransimpedanceAmplifier(TiaParameters params, double sample_rate_hz,
                          std::uint64_t seed);

  /// Converts one photocurrent sample to an output voltage.
  double amplify(double current_a) noexcept;

  void reset() noexcept { state_ = 0.0; }

  const TiaParameters& params() const noexcept { return params_; }

 private:
  TiaParameters params_;
  double alpha_;
  double noise_sigma_a_;
  double state_ = 0.0;
  rng::Gaussian noise_;
};

struct AdcParameters {
  unsigned bits = 8;
  double full_scale_volts = 1.0;
  double offset_volts = 0.0;
};

/// Uniform quantizer with saturation.
class Adc {
 public:
  explicit Adc(AdcParameters params);

  /// Quantizes a voltage to a code in [0, 2^bits - 1].
  std::uint32_t quantize(double volts) const noexcept;

  /// Fault injection (stuck ADC bits): bits set in `or_mask` read as
  /// stuck-at-1, bits cleared in `and_mask` as stuck-at-0. The defaults
  /// (0, all-ones) are the identity, so an unconfigured Adc stays
  /// bit-identical to the pre-fault-model behaviour.
  void set_stuck_bits(std::uint32_t or_mask, std::uint32_t and_mask) noexcept {
    or_mask_ = or_mask;
    and_mask_ = and_mask;
  }

  std::uint32_t max_code() const noexcept { return max_code_; }

  const AdcParameters& params() const noexcept { return params_; }

 private:
  AdcParameters params_;
  std::uint32_t max_code_;
  std::uint32_t or_mask_ = 0;
  std::uint32_t and_mask_ = 0xFFFFFFFFu;
};

/// Full readout chain for one output port: PD → TIA → ADC, plus an
/// integrate-and-dump accumulator over a configurable window. Exposes both
/// the digital code and the analog photocurrent (the latter feeds the
/// §II-B photocurrent-amplitude filtering).
class ReadoutChain {
 public:
  ReadoutChain(PhotodiodeParameters pd, TiaParameters tia, AdcParameters adc,
               double sample_rate_hz, std::uint64_t seed);

  struct Window {
    double mean_current_a = 0.0;  // average photocurrent over the window
    double mean_volts = 0.0;      // average TIA output
    std::uint32_t code = 0;       // ADC code of the averaged voltage
  };

  /// Integrates `fields` (one port's samples) into a single readout.
  Window integrate(const std::vector<Complex>& fields) noexcept;

  /// Forwards stuck-bit fault masks to the chain's ADC.
  void set_adc_stuck_bits(std::uint32_t or_mask,
                          std::uint32_t and_mask) noexcept {
    adc_.set_stuck_bits(or_mask, and_mask);
  }

  void reset() noexcept { tia_.reset(); }

  const Adc& adc() const noexcept { return adc_; }

 private:
  Photodiode pd_;
  TransimpedanceAmplifier tia_;
  Adc adc_;
};

}  // namespace neuropuls::photonic
