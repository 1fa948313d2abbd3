// Shared plumbing of the end-to-end benchmark: options, the pass result a
// workload hands back, spans, and the timing PUF decorator.
//
// Every workload is a class whose constructor is the set-up (fabrication,
// enrollment, store open, pool start, keying, warm-up) and whose run() is
// the timed region. The traced run builds a second instance in
// Mode::kTraced; only then do the spans below read the clock, so the
// untraced pass that gives the end-to-end metrics runs the program's own
// code with nothing wrapped around it.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "puf/puf.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Scales the fixed amount of work a pass does (sized so a pass takes
  /// about this long on the reference host; see README.md).
  double seconds = 10.0;
  bool trace = false;
};

/// A named per-layer figure of the traced run (units: main.cpp's table).
struct LayerMetric {
  std::string name;
  double value = 0.0;
};

/// What one timed pass did. `violations` are security failures (a false
/// accept, mismatched keys, a wrong inference, a poisoned channel); any
/// nonzero value fails the run.
struct PassResult {
  /// Time before the first timed op: set-up plus warm-up.
  double setup_s = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t violations = 0;
  std::vector<double> latency_us;  // one per completed op
  /// The timed pass in segments: latency_us.size() at the end of each,
  /// and each one's wall time. The end-to-end figures are taken per
  /// segment (Summary in main.cpp), so a burst of load from outside the
  /// benchmark moves a few segments instead of the whole run.
  std::vector<std::size_t> segment_end;
  std::vector<double> segment_s;
  std::vector<LayerMetric> layers;  // filled only by traced passes
};

/// Closes the segment that began at `start` and starts the next one.
inline void end_segment(PassResult& out, Clock::time_point& start) {
  const Clock::time_point now = Clock::now();
  out.segment_end.push_back(out.latency_us.size());
  out.segment_s.push_back(static_cast<double>(ns_between(start, now)) / 1e9);
  start = now;
}

/// Accumulated duration of one span name. Thread-safe to add to; copying
/// (used to reset a workload's span set) is not.
struct SpanStat {
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> ns{0};

  SpanStat() = default;
  SpanStat(const SpanStat& other) { *this = other; }
  SpanStat& operator=(const SpanStat& other) noexcept {
    calls.store(other.calls.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
    ns.store(other.ns.load(std::memory_order_relaxed),
             std::memory_order_relaxed);
    return *this;
  }

  void add(std::uint64_t d) noexcept {
    calls.fetch_add(1, std::memory_order_relaxed);
    ns.fetch_add(d, std::memory_order_relaxed);
  }
  double mean_us() const noexcept {
    const std::uint64_t c = calls.load(std::memory_order_relaxed);
    return c == 0 ? 0.0
                  : static_cast<double>(ns.load(std::memory_order_relaxed)) /
                        1e3 / static_cast<double>(c);
  }
};

/// Thread-safe event counter, copyable like SpanStat.
struct Counter {
  std::atomic<std::uint64_t> value{0};

  Counter() = default;
  Counter(const Counter& other) { *this = other; }
  Counter& operator=(const Counter& other) noexcept {
    value.store(other.value.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
    return *this;
  }
  void add(std::uint64_t n = 1) noexcept {
    value.fetch_add(n, std::memory_order_relaxed);
  }
  double get() const noexcept {
    return static_cast<double>(value.load(std::memory_order_relaxed));
  }
};

/// Times its scope into `stat`; a null stat (untraced pass) reads no clock.
class Span {
 public:
  explicit Span(SpanStat* stat) : stat_(stat) {
    if (stat_ != nullptr) start_ = Clock::now();
  }
  ~Span() {
    if (stat_ != nullptr) stat_->add(ns_between(start_, Clock::now()));
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanStat* stat_;
  Clock::time_point start_{};
};

/// Pass-through puf::Puf that times and counts evaluate() calls.
class TimingPuf final : public neuropuls::puf::Puf {
 public:
  TimingPuf(neuropuls::puf::Puf& inner, SpanStat& stat)
      : inner_(inner), stat_(stat) {}
  std::size_t challenge_bytes() const override {
    return inner_.challenge_bytes();
  }
  std::size_t response_bytes() const override {
    return inner_.response_bytes();
  }
  neuropuls::puf::Response evaluate(
      const neuropuls::puf::Challenge& challenge) override {
    const Span span(&stat_);
    return inner_.evaluate(challenge);
  }
  neuropuls::puf::Response evaluate_noiseless(
      const neuropuls::puf::Challenge& challenge) const override {
    return inner_.evaluate_noiseless(challenge);
  }
  std::string name() const override { return inner_.name(); }

 private:
  neuropuls::puf::Puf& inner_;
  SpanStat& stat_;
};

inline double ratio(double num, double den) {
  return den == 0.0 ? 0.0 : num / den;
}

/// Seeded 64-bit mixer for deriving workload inputs from --seed.
inline std::uint64_t mix(std::uint64_t z) noexcept {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Units of work a pass runs: `per_second` on the reference host times
/// --seconds, rounded to whole segments of `segment` units (at least one).
inline std::size_t scaled(double per_second, const Options& options,
                          std::size_t segment) {
  const auto n = static_cast<std::size_t>(per_second * options.seconds /
                                          static_cast<double>(segment) + 0.5);
  return (n == 0 ? 1 : n) * segment;
}

/// Bytes in the regular files of `directory` (a durable store's WAL,
/// snapshots and manifest).
inline std::uintmax_t directory_bytes(const std::string& directory) {
  std::uintmax_t total = 0;
  for (const auto& entry : std::filesystem::directory_iterator(directory)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

/// Pool width: the host's CPUs, capped at four.
std::size_t worker_threads();

/// What a workload call does after its set-up.
enum class Mode {
  kSetupOnly,  // return right after set-up and warm-up (a set-up sample)
  kUntraced,   // timed pass with every span off: the end-to-end figures
  kTraced,     // timed pass with spans on: the per-layer figures
};

PassResult run_auth_storm(const Options& options, Mode mode);
PassResult run_secure_inference(const Options& options, Mode mode);
PassResult run_device_onboarding(const Options& options, Mode mode);
PassResult run_fleet_rotation(const Options& options, Mode mode);

}  // namespace perfbench
