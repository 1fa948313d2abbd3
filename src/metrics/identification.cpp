#include "metrics/identification.hpp"

#include "common/parallel.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace neuropuls::metrics {

namespace {

double fraction_above(const std::vector<double>& samples, double threshold) {
  double n = 0.0;
  for (double s : samples) n += (s > threshold);
  return n / static_cast<double>(samples.size());
}

double fraction_at_or_below(const std::vector<double>& samples,
                            double threshold) {
  double n = 0.0;
  for (double s : samples) n += (s <= threshold);
  return n / static_cast<double>(samples.size());
}

void require_samples(const std::vector<double>& intra,
                     const std::vector<double>& inter) {
  if (intra.empty() || inter.empty()) {
    throw std::invalid_argument("identification: empty sample set");
  }
}

}  // namespace

std::vector<RocPoint> roc_curve(const std::vector<double>& intra_distances,
                                const std::vector<double>& inter_distances,
                                std::size_t steps) {
  require_samples(intra_distances, inter_distances);
  if (steps < 2) {
    throw std::invalid_argument("roc_curve: need at least two steps");
  }
  std::vector<RocPoint> curve;
  curve.reserve(steps + 1);
  for (std::size_t i = 0; i <= steps; ++i) {
    RocPoint point;
    point.threshold = 0.5 * static_cast<double>(i) / static_cast<double>(steps);
    point.frr = fraction_above(intra_distances, point.threshold);
    point.far = fraction_at_or_below(inter_distances, point.threshold);
    curve.push_back(point);
  }
  return curve;
}

EerResult equal_error_rate(const std::vector<double>& intra_distances,
                           const std::vector<double>& inter_distances) {
  const auto curve = roc_curve(intra_distances, inter_distances, 200);
  // FRR decreases with threshold, FAR increases; find the crossing.
  EerResult best;
  double best_gap = 1e9;
  for (const auto& point : curve) {
    const double gap = std::fabs(point.far - point.frr);
    if (gap < best_gap) {
      best_gap = gap;
      best.eer = 0.5 * (point.far + point.frr);
      best.threshold = point.threshold;
    }
  }
  return best;
}

ZeroErrorWindow zero_error_window(const std::vector<double>& intra_distances,
                                  const std::vector<double>& inter_distances) {
  require_samples(intra_distances, inter_distances);
  const double max_intra =
      *std::max_element(intra_distances.begin(), intra_distances.end());
  const double min_inter =
      *std::min_element(inter_distances.begin(), inter_distances.end());
  ZeroErrorWindow window;
  if (max_intra < min_inter) {
    window.exists = true;
    window.low = max_intra;
    window.high = min_inter;
  }
  return window;
}

DistanceSamples gather_distance_samples(
    const std::vector<crypto::Bytes>& references,
    const std::vector<std::vector<crypto::Bytes>>& rereads,
    common::ThreadPool* pool) {
  const std::size_t devices = references.size();
  if (devices != rereads.size() || references.empty()) {
    throw std::invalid_argument(
        "gather_distance_samples: references/rereads mismatch");
  }
  // Prefix offsets per device keep every sample in the same slot the
  // former serial double loop produced it in, so the fan-out below is
  // bit-identical at any thread count.
  std::vector<std::size_t> intra_offset(devices + 1, 0);
  std::vector<std::size_t> inter_offset(devices + 1, 0);
  for (std::size_t d = 0; d < devices; ++d) {
    intra_offset[d + 1] = intra_offset[d] + rereads[d].size();
    inter_offset[d + 1] = inter_offset[d] + (devices - d - 1);
  }
  DistanceSamples samples;
  samples.intra.resize(intra_offset[devices]);
  samples.inter.resize(inter_offset[devices]);
  auto fill_device = [&](std::size_t d) {
    std::size_t slot = intra_offset[d];
    for (const auto& reading : rereads[d]) {
      samples.intra[slot++] =
          crypto::fractional_hamming_distance(references[d], reading);
    }
    slot = inter_offset[d];
    for (std::size_t other = d + 1; other < devices; ++other) {
      samples.inter[slot++] = crypto::fractional_hamming_distance(
          references[d], references[other]);
    }
  };
  common::parallel_for(pool, devices, fill_device);
  return samples;
}

}  // namespace neuropuls::metrics
