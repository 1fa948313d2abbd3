#include "metrics/population.hpp"

#include "common/parallel.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace neuropuls::metrics {

double uniformity(crypto::ByteView response) {
  if (response.empty()) {
    throw std::invalid_argument("uniformity: empty response");
  }
  return static_cast<double>(crypto::popcount(response)) /
         (8.0 * static_cast<double>(response.size()));
}

namespace {

// Pairs (a, b), a < b, are ordered lexicographically and indexed by a
// linear pair index t in [0, n(n-1)/2). Anchor a owns the index range
// [S(a), S(a+1)) where S(a) = a(n-1) - a(a-1)/2 counts the pairs of all
// smaller anchors.
std::size_t pairs_before_anchor(std::size_t a, std::size_t n) {
  return a * (n - 1) - a * (a - 1) / 2;
}

// Inverts t -> anchor a (largest a with S(a) <= t): quadratic estimate
// via sqrt, then an exact fix-up walk for the rounding slop.
std::size_t anchor_of_pair_index(std::size_t t, std::size_t n) {
  const double nn = static_cast<double>(n);
  const double disc = (2.0 * nn - 1.0) * (2.0 * nn - 1.0) -
                      8.0 * static_cast<double>(t);
  double est = (2.0 * nn - 1.0 - std::sqrt(std::max(disc, 0.0))) / 2.0;
  auto a = static_cast<std::size_t>(std::max(est, 0.0));
  if (a >= n - 1) a = n - 2;
  while (a > 0 && pairs_before_anchor(a, n) > t) --a;
  while (a + 1 < n - 1 && pairs_before_anchor(a + 1, n) <= t) ++a;
  return a;
}

}  // namespace

double uniqueness(const std::vector<crypto::Bytes>& device_responses,
                  common::ThreadPool* pool) {
  const std::size_t devices = device_responses.size();
  if (devices < 2) {
    throw std::invalid_argument("uniqueness: need at least two devices");
  }
  const std::size_t pairs = devices * (devices - 1) / 2;
  // Per-anchor tasks are triangular (anchor 0 owns n-1 pairs, the last
  // anchor owns 1), so the first worker becomes the straggler. Instead
  // the linear pair-index space is cut into equal chunks. The chunk
  // count and boundaries depend only on the device count — never on the
  // thread count — and the chunk partial sums are reduced in fixed
  // chunk order, so the result is bit-identical at any thread count.
  const std::size_t chunks = std::min<std::size_t>(pairs, 128);
  std::vector<double> chunk_totals(chunks, 0.0);
  common::parallel_for(pool, chunks, [&](std::size_t c) {
    const std::size_t lo = pairs * c / chunks;
    const std::size_t hi = pairs * (c + 1) / chunks;
    if (lo >= hi) return;
    // One triangular inversion per chunk; then walk (a, b) forward.
    std::size_t a = anchor_of_pair_index(lo, devices);
    std::size_t b = a + 1 + (lo - pairs_before_anchor(a, devices));
    double total = 0.0;
    for (std::size_t t = lo; t < hi; ++t) {
      total += crypto::fractional_hamming_distance(device_responses[a],
                                                   device_responses[b]);
      if (++b == devices) {
        ++a;
        b = a + 1;
      }
    }
    chunk_totals[c] = total;
  });
  double total = 0.0;
  for (double chunk : chunk_totals) total += chunk;
  return total / static_cast<double>(pairs);
}

double reliability(const crypto::Bytes& reference,
                   const std::vector<crypto::Bytes>& readings) {
  if (readings.empty()) return 1.0;
  double total = 0.0;
  for (const auto& r : readings) {
    total += crypto::fractional_hamming_distance(reference, r);
  }
  return 1.0 - total / static_cast<double>(readings.size());
}

std::vector<double> bit_aliasing_probabilities(
    const std::vector<crypto::Bytes>& device_responses) {
  if (device_responses.empty()) {
    throw std::invalid_argument("bit_aliasing: no devices");
  }
  const std::size_t bits = device_responses.front().size() * 8;
  std::vector<double> p(bits, 0.0);
  for (const auto& response : device_responses) {
    if (response.size() * 8 != bits) {
      throw std::invalid_argument("bit_aliasing: length mismatch");
    }
    for (std::size_t b = 0; b < bits; ++b) {
      p[b] += (response[b / 8] >> (7 - b % 8)) & 1;
    }
  }
  for (auto& v : p) v /= static_cast<double>(device_responses.size());
  return p;
}

double binary_entropy(double p) {
  if (p <= 0.0 || p >= 1.0) return 0.0;
  return -p * std::log2(p) - (1.0 - p) * std::log2(1.0 - p);
}

std::vector<double> bit_aliasing_entropy(
    const std::vector<crypto::Bytes>& device_responses) {
  auto probs = bit_aliasing_probabilities(device_responses);
  for (auto& v : probs) v = binary_entropy(v);
  return probs;
}

double mean_aliasing_entropy(
    const std::vector<crypto::Bytes>& device_responses) {
  const auto h = bit_aliasing_entropy(device_responses);
  double sum = 0.0;
  for (double v : h) sum += v;
  return sum / static_cast<double>(h.size());
}

double min_entropy_per_bit(
    const std::vector<crypto::Bytes>& device_responses) {
  const auto probs = bit_aliasing_probabilities(device_responses);
  double sum = 0.0;
  for (double p : probs) {
    const double p_max = std::max(p, 1.0 - p);
    sum += -std::log2(p_max);
  }
  return sum / static_cast<double>(probs.size());
}

double bit_autocorrelation(crypto::ByteView response, std::size_t lag) {
  const std::size_t bits = response.size() * 8;
  if (lag == 0 || lag >= bits) {
    throw std::invalid_argument("bit_autocorrelation: bad lag");
  }
  auto bit_at = [&](std::size_t i) {
    return (response[i / 8] >> (7 - i % 8)) & 1;
  };
  // Map bits to +/-1 and correlate.
  double sum = 0.0;
  for (std::size_t i = 0; i + lag < bits; ++i) {
    sum += (bit_at(i) ? 1.0 : -1.0) * (bit_at(i + lag) ? 1.0 : -1.0);
  }
  return sum / static_cast<double>(bits - lag);
}

PopulationReport population_report(
    const std::vector<crypto::Bytes>& device_responses,
    const std::vector<std::vector<crypto::Bytes>>& repeat_readings) {
  PopulationReport report;
  report.uniqueness = uniqueness(device_responses);
  report.aliasing_entropy_mean = mean_aliasing_entropy(device_responses);
  report.min_entropy = min_entropy_per_bit(device_responses);

  double uni = 0.0;
  for (const auto& r : device_responses) uni += uniformity(r);
  report.uniformity_mean = uni / static_cast<double>(device_responses.size());

  if (!repeat_readings.empty()) {
    if (repeat_readings.size() != device_responses.size()) {
      throw std::invalid_argument(
          "population_report: readings/devices mismatch");
    }
    double rel = 0.0;
    for (std::size_t d = 0; d < device_responses.size(); ++d) {
      rel += reliability(device_responses[d], repeat_readings[d]);
    }
    report.reliability_mean = rel / static_cast<double>(device_responses.size());
  } else {
    report.reliability_mean = 1.0;
  }
  return report;
}

}  // namespace neuropuls::metrics
