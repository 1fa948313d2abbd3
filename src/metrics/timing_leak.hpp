// Dudect-style timing-leak detector (Reparaz, Balasch, Verbauwhede:
// "dude, is my code constant time?").
//
// The static layer (`tools/ctlint`) and the taint type
// (`common/secret.hpp`) enforce the *form* of constant-time code; this
// harness checks the *behaviour*: run a target operation over two input
// classes — a fixed buffer vs fresh random bytes — in randomised
// interleaved order, and apply Welch's t-test to the two timing
// populations. A data-independent implementation keeps |t| small no
// matter how many samples accumulate; a secret-dependent branch or
// early-exit comparison drives |t| off to infinity with sample count.
//
// Used by `tests/metrics/test_timing_leak.cpp` and
// `bench/bench_timing_leak.cpp` against `crypto::ct_equal`, AES-CTR+CMAC
// tag verification, HMAC-SHA256 verification and MODP modexp over a
// secret exponent — plus the deliberately
// variable-time `variable_time_equal` control below, which the harness
// must flag (a leak detector that never fires is just a rubber stamp).
#pragma once

#include <cstdint>
#include <functional>

#include "crypto/bytes.hpp"

namespace neuropuls::metrics {

struct TimingLeakConfig {
  /// Timed invocations per class (the test interleaves 2x this total).
  std::size_t samples_per_class = 20000;
  /// Untimed warm-up invocations discarded before measurement.
  std::size_t warmup = 256;
  /// |t| above this reports a leak. 4.5 is the dudect convention
  /// (p < ~3.4e-6 under H0, so false alarms are negligible even over
  /// many CI runs).
  double threshold = 4.5;
  /// Slowest pooled fraction cropped before the test (both classes, one
  /// shared cutoff) — removes scheduler/interrupt outliers, which are
  /// class-independent and only mask real effects.
  double crop_quantile = 0.95;
  /// Seed for the class schedule and the random-class inputs.
  std::uint64_t seed = 1;
};

struct TimingLeakReport {
  double t_statistic = 0.0;   // Welch t, fixed minus random class
  double mean_fixed_ns = 0.0;
  double mean_random_ns = 0.0;
  std::size_t used_fixed = 0;   // samples surviving the crop
  std::size_t used_random = 0;
  double threshold = 0.0;
  bool leaking = false;  // |t| > threshold
};

/// The operation under test. Called once per sample with either the fixed
/// buffer or a fresh random buffer of the same length; any secret state it
/// compares against should be captured in the closure.
using TimingTarget = std::function<void(crypto::ByteView input)>;

/// Measures `target` over the two input classes. `fixed_input` defines the
/// fixed class (typically the one value that matches the captured secret,
/// so class separation maps onto match/mismatch paths) and its length sets
/// the random-class buffer length.
TimingLeakReport measure_timing_leak(const TimingTarget& target,
                                     crypto::ByteView fixed_input,
                                     const TimingLeakConfig& config = {});

/// Deliberately variable-time comparator: early-exits on the first
/// mismatching byte. Exists ONLY as the positive control for this harness
/// and must never be called on secrets — which ctlint enforces for
/// annotated buffers.
bool variable_time_equal(crypto::ByteView a, crypto::ByteView b) noexcept;

}  // namespace neuropuls::metrics
