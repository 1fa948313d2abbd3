#include "photonic/ring.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "common/simd.hpp"

namespace neuropuls::photonic {

namespace {

double circumference(const RingParameters& p) noexcept {
  return 2.0 * std::numbers::pi * p.radius;
}

double ring_phase(const RingParameters& p, const OperatingPoint& op) noexcept {
  const double n_eff =
      p.effective_index +
      kSiliconThermoOptic * (op.temperature - kReferenceTemperature);
  return 2.0 * std::numbers::pi * n_eff * circumference(p) / op.wavelength;
}

double ring_amplitude(const RingParameters& p) noexcept {
  const double loss_db = p.loss_db_per_cm * circumference(p) * 100.0;
  return db_to_field_factor(loss_db);
}

void apply_deviation(RingParameters& p,
                     const ComponentDeviation& d) noexcept {
  p.effective_index += d.d_effective_index;
  p.group_index += d.d_group_index;
  p.radius *= (1.0 + d.d_radius_fraction);
  p.power_coupling_in =
      std::clamp(p.power_coupling_in + d.d_coupling_ratio, 1e-4, 1.0 - 1e-4);
  p.power_coupling_drop = std::clamp(
      p.power_coupling_drop - d.d_coupling_ratio / 2.0, 1e-4, 1.0 - 1e-4);
  p.loss_db_per_cm = std::max(0.0, p.loss_db_per_cm + d.d_loss_db);
}

void validate(const RingParameters& p) {
  if (p.radius <= 0.0) {
    throw std::invalid_argument("Ring: radius must be positive");
  }
  if (p.power_coupling_in <= 0.0 || p.power_coupling_in >= 1.0 ||
      p.power_coupling_drop <= 0.0 || p.power_coupling_drop >= 1.0) {
    throw std::invalid_argument("Ring: coupling ratios must be in (0, 1)");
  }
}

}  // namespace

MicroringAllPass::MicroringAllPass(RingParameters params) : params_(params) {
  validate(params_);
}

void MicroringAllPass::apply(const ComponentDeviation& deviation) noexcept {
  apply_deviation(params_, deviation);
}

double MicroringAllPass::round_trip_phase(
    const OperatingPoint& op) const noexcept {
  return ring_phase(params_, op);
}

double MicroringAllPass::round_trip_amplitude() const noexcept {
  return ring_amplitude(params_);
}

double MicroringAllPass::round_trip_delay() const noexcept {
  return params_.group_index * circumference(params_) / kSpeedOfLight;
}

Complex MicroringAllPass::through(const OperatingPoint& op) const noexcept {
  const double t = std::sqrt(1.0 - params_.power_coupling_in);
  const double a = round_trip_amplitude();
  const Complex phase = std::polar(1.0, -round_trip_phase(op));
  const Complex ae = a * phase;
  return (t - ae) / (1.0 - t * ae);
}

MicroringAddDrop::MicroringAddDrop(RingParameters params) : params_(params) {
  validate(params_);
}

void MicroringAddDrop::apply(const ComponentDeviation& deviation) noexcept {
  apply_deviation(params_, deviation);
}

double MicroringAddDrop::round_trip_phase(
    const OperatingPoint& op) const noexcept {
  return ring_phase(params_, op);
}

Complex MicroringAddDrop::through(const OperatingPoint& op) const noexcept {
  const double t1 = std::sqrt(1.0 - params_.power_coupling_in);
  const double t2 = std::sqrt(1.0 - params_.power_coupling_drop);
  const double a = ring_amplitude(params_);
  const Complex phase = std::polar(1.0, -round_trip_phase(op));
  return (t1 - t2 * a * phase) / (1.0 - t1 * t2 * a * phase);
}

Complex MicroringAddDrop::drop(const OperatingPoint& op) const noexcept {
  const double k1 = std::sqrt(params_.power_coupling_in);
  const double k2 = std::sqrt(params_.power_coupling_drop);
  const double t1 = std::sqrt(1.0 - params_.power_coupling_in);
  const double t2 = std::sqrt(1.0 - params_.power_coupling_drop);
  const double a = ring_amplitude(params_);
  // Half round trip to the drop coupler; the -k1*k2 prefactor carries the
  // two -i coupling factors ((-i)^2 = -1).
  const Complex half = std::sqrt(a) * std::polar(1.0, -round_trip_phase(op) / 2.0);
  const Complex full = a * std::polar(1.0, -round_trip_phase(op));
  return -k1 * k2 * half / (1.0 - t1 * t2 * full);
}

RingTimeDomainConstants RingTimeDomainConstants::of(
    const MicroringAllPass& ring, const OperatingPoint& op,
    double sample_period) {
  if (sample_period <= 0.0) {
    throw std::invalid_argument("RingTimeDomain: sample period must be > 0");
  }
  RingTimeDomainConstants c;
  const double kappa2 = ring.params().power_coupling_in;
  c.t = std::sqrt(1.0 - kappa2);
  c.k = std::sqrt(kappa2);
  c.feedback =
      ring.round_trip_amplitude() * std::polar(1.0, -ring.round_trip_phase(op));
  c.delay_samples = static_cast<std::size_t>(
      std::max(1.0, std::floor(ring.round_trip_delay() / sample_period)));
  return c;
}

RingTimeDomain::RingTimeDomain(const MicroringAllPass& ring,
                               const OperatingPoint& op, double sample_period)
    : RingTimeDomain(RingTimeDomainConstants::of(ring, op, sample_period)) {}

RingTimeDomain::RingTimeDomain(const RingTimeDomainConstants& constants)
    : t_(constants.t), k_(constants.k), feedback_(constants.feedback) {
  delay_line_.assign(constants.delay_samples, Complex{0.0, 0.0});
}

Complex RingTimeDomain::step(Complex in) noexcept {
  // ret[n] comes out of the delay line (state deposited `delay` steps ago,
  // already scaled by the feedback factor on insertion).
  const Complex ret = delay_line_[head_];
  const Complex minus_ik(0.0, -k_);
  const Complex out = t_ * in + minus_ik * ret;
  const Complex circ = minus_ik * in + t_ * ret;
  delay_line_[head_] = feedback_ * circ;
  head_ = (head_ + 1) % delay_line_.size();
  return out;
}

void RingTimeDomain::reset() noexcept {
  std::fill(delay_line_.begin(), delay_line_.end(), Complex{0.0, 0.0});
  head_ = 0;
}

RingTimeDomainBlock::RingTimeDomainBlock(
    const RingTimeDomainConstants& constants, std::size_t lanes,
    double* state)
    : t_(constants.t),
      k_(constants.k),
      feedback_re_(constants.feedback.real()),
      feedback_im_(constants.feedback.imag()),
      lanes_(lanes),
      rows_(constants.delay_samples),
      delay_re_(state),
      delay_im_(state + constants.delay_samples * lanes) {
  if (lanes == 0) {
    throw std::invalid_argument("RingTimeDomainBlock: lanes must be > 0");
  }
}

void RingTimeDomainBlock::step(double* re, double* im) noexcept {
  double* dre = delay_re_ + head_ * lanes_;
  double* dim = delay_im_ + head_ * lanes_;
  simd::ring_step(re, im, dre, dim, t_, k_, feedback_re_, feedback_im_,
                  lanes_);
  head_ = head_ + 1 == rows_ ? 0 : head_ + 1;
}

void RingTimeDomainBlock::reset() noexcept {
  std::fill(delay_re_, delay_re_ + 2 * rows_ * lanes_, 0.0);
  head_ = 0;
}

}  // namespace neuropuls::photonic
