// Streaming population estimators (ctest label: fleet).
//
// The fleet simulator's memory contract rests on three properties tested
// here against exact references:
//   * hash sampling is deterministic under a fixed seed (any worker, any
//     chunking selects the same sample),
//   * the GK sketch answers quantiles within its documented rank error
//     on a million-sample stream,
//   * GK merge is associative (merge defers compression), so worker-
//     local sketches combine to the same summary in any tree shape.
// Plus the chunked-parallel uniqueness rewrite: equal to the serial
// definition, bit-identical at any thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/parallel.hpp"
#include "crypto/prng.hpp"
#include "metrics/population.hpp"
#include "metrics/streaming.hpp"

namespace neuropuls::metrics {
namespace {

std::vector<double> splitmix_stream(std::uint64_t seed, std::size_t n) {
  std::vector<double> values(n);
  std::uint64_t state = seed;
  for (std::size_t i = 0; i < n; ++i) {
    values[i] = static_cast<double>(rng::splitmix64_next(state) >> 11) *
                0x1.0p-53;
  }
  return values;
}

TEST(HashSample, OrderAndChunkingIndependent) {
  // The selected set is a pure function of (seed, id): any iteration
  // order or partition of the id space agrees.
  std::vector<std::uint64_t> forward;
  std::vector<std::uint64_t> backward;
  for (std::uint64_t id = 0; id < 5000; ++id) {
    if (hash_sample(42, id, 0.05)) forward.push_back(id);
  }
  for (std::uint64_t id = 5000; id-- > 0;) {
    if (hash_sample(42, id, 0.05)) backward.push_back(id);
  }
  std::reverse(backward.begin(), backward.end());
  EXPECT_EQ(forward, backward);
  // ~250 expected; a factor-2 band catches rate bugs without flaking.
  EXPECT_GT(forward.size(), 125u);
  EXPECT_LT(forward.size(), 500u);
  // Rate endpoints.
  EXPECT_FALSE(hash_sample(42, 7, 0.0));
  EXPECT_TRUE(hash_sample(42, 7, 1.0));
}

TEST(GkQuantileSketch, ErrorBoundOnMillionSampleStream) {
  constexpr std::size_t kN = 1'000'000;
  constexpr double kEps = 0.01;
  std::vector<double> values = splitmix_stream(0x61AB5EED, kN);
  GkQuantileSketch sketch(kEps);
  for (const double v : values) sketch.add(v);
  ASSERT_EQ(sketch.count(), kN);

  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  for (const double q : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    const double answer = sketch.quantile(q);
    // Rank error, not value error: find the answer's true rank and
    // require it within eps*n of the requested rank (the GK guarantee).
    const auto rank = static_cast<double>(
        std::lower_bound(sorted.begin(), sorted.end(), answer) -
        sorted.begin());
    EXPECT_NEAR(rank, q * kN, kEps * kN) << "q=" << q;
  }
  // The summary stays sub-linear: O((1/eps) * log(eps*n)) tuples.
  EXPECT_LT(sketch.tuples(), 4000u);
}

TEST(GkQuantileSketch, MergeIsAssociative) {
  // Worker-local sketches over three disjoint sub-streams; (a+b)+c and
  // a+(b+c) must agree tuple-for-tuple because merge defers compression
  // (a sorted multiset union is order-independent).
  const std::vector<double> stream = splitmix_stream(0xC0FFEE, 30'000);
  auto build = [&](std::size_t lo, std::size_t hi) {
    GkQuantileSketch s(0.02);
    for (std::size_t i = lo; i < hi; ++i) s.add(stream[i]);
    return s;
  };
  const GkQuantileSketch a = build(0, 10'000);
  const GkQuantileSketch b = build(10'000, 20'000);
  const GkQuantileSketch c = build(20'000, 30'000);

  GkQuantileSketch left = a;
  left.merge(b);
  left.merge(c);
  GkQuantileSketch bc = b;
  bc.merge(c);
  GkQuantileSketch right = a;
  right.merge(bc);

  EXPECT_EQ(left.count(), 30'000u);
  EXPECT_EQ(left.count(), right.count());
  EXPECT_EQ(left.tuples(), right.tuples());
  // Merge keeps the whole tuple multiset, so the two association orders
  // agree exactly — every quantile on a fine grid is bit-identical.
  for (int i = 0; i <= 100; ++i) {
    const double q = i / 100.0;
    EXPECT_DOUBLE_EQ(left.quantile(q), right.quantile(q)) << "q=" << q;
  }

  // One merge round keeps the documented 2*eps rank guarantee.
  std::vector<double> sorted = stream;
  std::sort(sorted.begin(), sorted.end());
  left.compress();
  for (const double q : {0.1, 0.5, 0.9}) {
    const double answer = left.quantile(q);
    const auto rank = static_cast<double>(
        std::lower_bound(sorted.begin(), sorted.end(), answer) -
        sorted.begin());
    EXPECT_NEAR(rank, q * 30'000, 2 * 0.02 * 30'000) << "q=" << q;
  }
}

TEST(GkQuantileSketch, HandComputedSmallStream) {
  GkQuantileSketch s(0.1);
  for (const double v : {5.0, 1.0, 3.0, 2.0, 4.0}) s.add(v);
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 5.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 3.0);
  EXPECT_THROW(GkQuantileSketch(0.0), std::invalid_argument);
  EXPECT_THROW(GkQuantileSketch(0.1).quantile(0.5), std::invalid_argument);
}

// --- chunked-parallel uniqueness (metrics/population.cpp) ---

std::vector<crypto::Bytes> random_population(std::size_t devices,
                                             std::size_t bytes) {
  std::vector<crypto::Bytes> responses(devices);
  std::uint64_t state = 0xDECAF;
  for (auto& r : responses) {
    r.resize(bytes);
    for (auto& byte : r) {
      byte = static_cast<std::uint8_t>(rng::splitmix64_next(state));
    }
  }
  return responses;
}

double uniqueness_serial_reference(
    const std::vector<crypto::Bytes>& responses) {
  double total = 0.0;
  std::size_t pairs = 0;
  for (std::size_t a = 0; a < responses.size(); ++a) {
    for (std::size_t b = a + 1; b < responses.size(); ++b) {
      total += crypto::fractional_hamming_distance(responses[a],
                                                   responses[b]);
      ++pairs;
    }
  }
  return total / static_cast<double>(pairs);
}

TEST(Uniqueness, ChunkedMatchesSerialReference) {
  // Sizes straddle the chunk count (128): fewer pairs than chunks, the
  // 2-device edge, and a many-chunk population.
  for (const std::size_t devices : {2u, 3u, 9u, 17u, 100u}) {
    const auto population = random_population(devices, 16);
    EXPECT_NEAR(uniqueness(population),
                uniqueness_serial_reference(population), 1e-12)
        << devices << " devices";
  }
}

TEST(Uniqueness, BitIdenticalAcrossThreadCounts) {
  const auto population = random_population(120, 32);
  common::ThreadPool one(1);
  common::ThreadPool four(4);
  const double serial = uniqueness(population, &one);
  const double parallel = uniqueness(population, &four);
  // Chunk boundaries and the reduction order depend only on the device
  // count, so this is exact equality, not a tolerance.
  EXPECT_EQ(serial, parallel);
}

}  // namespace
}  // namespace neuropuls::metrics
