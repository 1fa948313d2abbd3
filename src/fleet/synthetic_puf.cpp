#include "fleet/synthetic_puf.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "crypto/prng.hpp"
#include "metrics/streaming.hpp"

namespace neuropuls::fleet {

namespace {

constexpr std::uint64_t kResponseTag = 0x72657370'6f6e7365ULL;  // "response"
constexpr std::uint64_t kNoiseTag = 0x6e6f6973'65746167ULL;     // "noisetag"
constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ULL;

using metrics::mix64;
using rng::splitmix64_next;

}  // namespace

SyntheticPuf::SyntheticPuf(SyntheticPufParams params,
                           std::uint64_t device_seed,
                           faults::DeviceFaultConfig drift,
                           std::uint64_t drift_seed)
    : params_(params),
      device_seed_(device_seed),
      model_(std::move(drift), drift_seed) {
  if (params_.challenge_bytes == 0 || params_.challenge_bytes > 8) {
    throw std::invalid_argument("SyntheticPuf: challenge_bytes must be 1..8");
  }
  if (params_.response_bytes == 0) {
    throw std::invalid_argument("SyntheticPuf: response_bytes must be > 0");
  }
}

double SyntheticPuf::error_rate() const noexcept {
  double p = params_.base_error_rate;
  if (!model_.quiet()) {
    p += params_.aging_error_gain * (1.0 - model_.laser_scale(day_));
    p += params_.thermal_error_gain *
         std::abs(model_.temperature_offset(day_));
    p += params_.phase_error_gain * std::abs(model_.phase_drift(day_, 0));
  }
  return std::clamp(p, 0.0, 0.5);
}

void SyntheticPuf::evaluate_noiseless_into(std::uint64_t challenge,
                                           std::uint8_t* out) const noexcept {
  // Keyed-PRF response surface: a splitmix chain seeded by the device
  // key and the (avalanched) challenge. Distinct devices and distinct
  // challenges decorrelate fully — uniformity/uniqueness ~0.5 by
  // construction, which the streaming metrics verify on samples.
  std::uint64_t state =
      device_seed_ ^ kResponseTag ^ mix64(challenge * kGolden);
  std::size_t produced = 0;
  while (produced < params_.response_bytes) {
    const std::uint64_t word = splitmix64_next(state);
    const std::size_t take =
        std::min<std::size_t>(8, params_.response_bytes - produced);
    std::memcpy(out + produced, &word, take);
    produced += take;
  }
}

void SyntheticPuf::evaluate_into(std::uint64_t challenge,
                                 std::uint64_t reading,
                                 std::uint8_t* out) const noexcept {
  evaluate_noiseless_into(challenge, out);
  const double p = error_rate();
  // Quantise the flip probability to 8 bits: p8/256 per bit. The mask
  // is built word-wise by binary expansion — processing p8's bits from
  // LSB to MSB, OR-ing a fresh uniform word for a 1 bit and AND-ing for
  // a 0 bit leaves every mask bit set with probability exactly p8/256,
  // at 8 PRNG draws per 64 bits instead of one Bernoulli per bit.
  const auto p8 = static_cast<std::uint32_t>(std::lround(p * 256.0));
  if (p8 == 0) return;
  std::uint64_t state = device_seed_ ^ kNoiseTag ^
                        mix64(challenge * kGolden + reading) ^
                        (day_ * 0xda3e39cb94b95bdbULL);
  std::size_t produced = 0;
  while (produced < params_.response_bytes) {
    std::uint64_t mask = 0;
    for (std::uint32_t bit = 0; bit < 8; ++bit) {
      const std::uint64_t draw = splitmix64_next(state);
      mask = ((p8 >> bit) & 1u) != 0 ? (mask | draw) : (mask & draw);
    }
    const std::size_t take =
        std::min<std::size_t>(8, params_.response_bytes - produced);
    std::uint64_t word = 0;
    std::memcpy(&word, out + produced, take);
    word ^= mask;
    std::memcpy(out + produced, &word, take);
    produced += take;
  }
}

void SyntheticPuf::evaluate_noiseless_batch_into(
    const std::uint64_t* challenges, std::size_t n,
    std::uint8_t* out) const noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    evaluate_noiseless_into(challenges[i], out + i * params_.response_bytes);
  }
}

std::uint64_t SyntheticPuf::challenge_word(const puf::Challenge& challenge) {
  std::uint64_t word = 0;
  std::memcpy(&word, challenge.data(),
              std::min<std::size_t>(challenge.size(), 8));
  return word;
}

puf::Challenge SyntheticPuf::challenge_bytes_of(std::uint64_t word) const {
  puf::Challenge challenge(params_.challenge_bytes, 0);
  std::memcpy(challenge.data(), &word,
              std::min<std::size_t>(params_.challenge_bytes, 8));
  return challenge;
}

puf::Response SyntheticPuf::evaluate(const puf::Challenge& challenge) {
  if (challenge.size() != params_.challenge_bytes) {
    throw std::invalid_argument("SyntheticPuf: wrong challenge size");
  }
  puf::Response response(params_.response_bytes, 0);
  evaluate_into(challenge_word(challenge), ++reading_counter_,
                response.data());
  return response;
}

puf::Response SyntheticPuf::evaluate_noiseless(
    const puf::Challenge& challenge) const {
  if (challenge.size() != params_.challenge_bytes) {
    throw std::invalid_argument("SyntheticPuf: wrong challenge size");
  }
  puf::Response response(params_.response_bytes, 0);
  evaluate_noiseless_into(challenge_word(challenge), response.data());
  return response;
}

}  // namespace neuropuls::fleet
