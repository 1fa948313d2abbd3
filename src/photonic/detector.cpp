#include "photonic/detector.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "common/simd.hpp"
#include "photonic/constants.hpp"

namespace neuropuls::photonic {

Photodiode::Photodiode(PhotodiodeParameters params, std::uint64_t seed)
    : params_(params), noise_(seed) {
  if (params_.responsivity <= 0.0 || params_.bandwidth_hz <= 0.0 ||
      params_.load_resistance <= 0.0) {
    throw std::invalid_argument("Photodiode: non-positive parameter");
  }
  // Johnson noise: sigma^2 = 4 k T B / R.
  thermal_sigma_ = std::sqrt(4.0 * kBoltzmann * params_.temperature *
                             params_.bandwidth_hz / params_.load_resistance);
}

double Photodiode::mean_current(Complex field) const noexcept {
  return params_.responsivity * field_power(field) + params_.dark_current;
}

void Photodiode::accumulate_mean_block(const double* re, const double* im,
                                       double* acc,
                                       std::size_t n) const noexcept {
  simd::square_law_accumulate(re, im, params_.responsivity,
                              params_.dark_current, acc, n);
}

double Photodiode::detect(Complex field) noexcept {
  const double mean = mean_current(field);
  // Shot noise: sigma^2 = 2 q I B (Gaussian approximation, valid at the
  // photon fluxes of a milliwatt-class link).
  const double shot_sigma =
      std::sqrt(2.0 * kElectronCharge * mean * params_.bandwidth_hz);
  const double noisy = mean + noise_.next(0.0, shot_sigma) +
                       noise_.next(0.0, thermal_sigma_);
  return std::max(0.0, noisy);
}

TransimpedanceAmplifier::TransimpedanceAmplifier(TiaParameters params,
                                                 double sample_rate_hz,
                                                 std::uint64_t seed)
    : params_(params), noise_(seed) {
  if (sample_rate_hz <= 0.0 || params_.gain_ohms <= 0.0 ||
      params_.bandwidth_fraction <= 0.0 || params_.bandwidth_fraction > 1.0) {
    throw std::invalid_argument("TransimpedanceAmplifier: bad parameters");
  }
  alpha_ = 1.0 - std::exp(-2.0 * std::numbers::pi * params_.bandwidth_fraction);
  noise_sigma_a_ =
      params_.input_noise_a_rt_hz * std::sqrt(sample_rate_hz / 2.0);
}

double TransimpedanceAmplifier::amplify(double current_a) noexcept {
  const double noisy = current_a + noise_.next(0.0, noise_sigma_a_);
  state_ += alpha_ * (noisy - state_);
  return state_ * params_.gain_ohms;
}

Adc::Adc(AdcParameters params) : params_(params) {
  if (params_.bits == 0 || params_.bits > 16 ||
      params_.full_scale_volts <= 0.0) {
    throw std::invalid_argument("Adc: bits in [1,16], positive full scale");
  }
  max_code_ = (1u << params_.bits) - 1;
}

std::uint32_t Adc::quantize(double volts) const noexcept {
  const double normalized =
      (volts - params_.offset_volts) / params_.full_scale_volts;
  const double clamped = std::clamp(normalized, 0.0, 1.0);
  const auto code = static_cast<std::uint32_t>(
      std::lround(clamped * static_cast<double>(max_code_)));
  // Stuck-bit fault masks (identity by default), kept inside the code
  // range: a stuck-at-1 bit above the converter width is meaningless.
  return ((code | or_mask_) & and_mask_) & max_code_;
}

ReadoutChain::ReadoutChain(PhotodiodeParameters pd, TiaParameters tia,
                           AdcParameters adc, double sample_rate_hz,
                           std::uint64_t seed)
    : pd_(pd, rng::derive_seed(seed, 1)),
      tia_(tia, sample_rate_hz, rng::derive_seed(seed, 2)),
      adc_(adc) {}

ReadoutChain::Window ReadoutChain::integrate(
    const std::vector<Complex>& fields) noexcept {
  Window w;
  if (fields.empty()) return w;
  double current_sum = 0.0;
  double volt_sum = 0.0;
  for (const Complex& f : fields) {
    const double i = pd_.detect(f);
    current_sum += i;
    volt_sum += tia_.amplify(i);
  }
  w.mean_current_a = current_sum / static_cast<double>(fields.size());
  w.mean_volts = volt_sum / static_cast<double>(fields.size());
  w.code = adc_.quantize(w.mean_volts);
  return w;
}

}  // namespace neuropuls::photonic
