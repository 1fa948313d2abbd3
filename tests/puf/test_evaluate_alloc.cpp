// Heap-allocation budget of one PhotonicPuf::evaluate.
//
// A single evaluation builds a one-lane TimeDomainScrambler around the
// cached operating-point tables. The scrambler keeps every ring's delay
// line in one aligned buffer, so its ring state costs a fixed handful of
// allocations however many rings the design has. Before that, each ring
// owned two aligned vectors: 37 allocations per evaluate on the small
// config (12 rings) and 112 on the default config (48 rings). This
// binary installs the counting allocator (common/alloc_probe.hpp) and
// holds the count at least 23 and 95 below those figures.
#include <gtest/gtest.h>

#include <cstdint>

#include "common/alloc_probe.hpp"
#include "puf/photonic_puf.hpp"

NEUROPULS_DEFINE_ALLOC_PROBE()

namespace neuropuls::puf {
namespace {

using common::alloc_probe::allocations;

// Allocations of one warm evaluate(): the operating-point tables are
// cached by the first call, so the second one measures the steady state.
std::uint64_t evaluate_allocations(const PhotonicPufConfig& config) {
  PhotonicPuf puf(config, 5, 2);
  const Challenge challenge(puf.challenge_bytes(), 0xA5);
  (void)puf.evaluate(challenge);
  const std::uint64_t before = allocations();
  (void)puf.evaluate(challenge);
  return allocations() - before;
}

TEST(PhotonicEvaluateAlloc, SmallConfigSharesOneRingBuffer) {
  EXPECT_LE(evaluate_allocations(small_photonic_config()), 37u - 23u);
}

TEST(PhotonicEvaluateAlloc, DefaultConfigSharesOneRingBuffer) {
  EXPECT_LE(evaluate_allocations(PhotonicPufConfig{}), 112u - 95u);
}

}  // namespace
}  // namespace neuropuls::puf
