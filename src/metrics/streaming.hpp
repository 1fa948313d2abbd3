// Streaming population estimators for fleet-scale runs (ROADMAP item 3).
//
// The O(N^2) pairwise sweeps in population.hpp are exact but sized for
// bench populations of a few hundred devices. A million-device campaign
// needs bounded-memory equivalents:
//
//   * GkQuantileSketch — Greenwald–Khanna epsilon-approximate quantile
//     summary. Mergeable: worker-local sketches combine into one fleet
//     sketch. After k-way merge of same-eps sketches the rank error is
//     bounded by 2*eps (merge keeps every tuple; only add()/compress()
//     discard information).
//   * hash_sample — order-independent Bernoulli selection: a device is
//     in the sample iff a keyed mix of (seed, id) falls under the rate
//     threshold. The fleet layer picks its uniqueness cohort this way
//     and runs the exact pairwise metrics on it; the selected *set* is
//     independent of iteration order, so parallel workers agree without
//     coordination.
#pragma once

#include <cstdint>
#include <vector>

namespace neuropuls::metrics {

/// Stateless 64-bit finalizer (same avalanche core as splitmix64).
inline std::uint64_t mix64(std::uint64_t z) noexcept {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Order-independent Bernoulli(rate) selection of `id` under `seed`.
/// Every worker that evaluates the same (seed, id, rate) gets the same
/// answer, so a parallel sweep selects a schedule-independent set.
inline bool hash_sample(std::uint64_t seed, std::uint64_t id,
                        double rate) noexcept {
  if (rate >= 1.0) return true;
  if (rate <= 0.0) return false;
  const std::uint64_t h = mix64(seed ^ (id * 0x9e3779b97f4a7c15ULL));
  // Top 53 bits -> uniform double in [0, 1).
  const double u =
      static_cast<double>(h >> 11) * 0x1.0p-53;
  return u < rate;
}

/// Greenwald–Khanna epsilon-approximate quantile summary.
///
/// quantile(q) returns a value whose rank is within eps*count of
/// q*count for a sketch built by add() alone. merge() concatenates the
/// tuple lists without compressing, so merging is associative (the
/// merged tuple multiset is order-independent) and k-way merges of
/// same-eps sketches stay within 2*eps rank error; call compress()
/// afterwards to restore O((1/eps) log(eps n)) memory.
class GkQuantileSketch {
 public:
  explicit GkQuantileSketch(double eps);

  void add(double value);

  /// q in [0, 1]. Flushes the insert buffer. Throws on an empty sketch.
  double quantile(double q) const;

  /// Folds `other`'s tuples into this sketch (both buffers flushed).
  /// Associative and commutative; does not compress.
  void merge(const GkQuantileSketch& other);

  /// Re-establishes the space bound after merges. Rank error grows by
  /// at most eps per call on a merged sketch (documented bound after
  /// one merge round + one compress: 2*eps).
  void compress();

  std::uint64_t count() const noexcept { return count_ + buffer_.size(); }
  double eps() const noexcept { return eps_; }

  /// Number of stored tuples (after flushing) — memory footprint probe.
  std::size_t tuples() const;

 private:
  struct Tuple {
    double value;
    std::uint64_t g;      // rmin(i) - rmin(i-1)
    std::uint64_t delta;  // rmax(i) - rmin(i)
  };

  void flush() const;
  void insert_sorted(double value);

  double eps_;
  std::size_t buffer_limit_;
  // add() buffers then bulk-inserts; quantile() is logically const, so
  // the buffered state is mutable.
  mutable std::vector<double> buffer_;
  mutable std::vector<Tuple> tuples_;
  mutable std::uint64_t count_ = 0;
};

}  // namespace neuropuls::metrics
