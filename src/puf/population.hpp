// Concurrent fabrication + evaluation of photonic-PUF device fleets.
//
// Every population experiment in the paper's evaluation — intra/inter
// Hamming statistics (§II-A), identification error rates (§V), thermal
// screening — starts the same way: fabricate N devices from one wafer
// seed, evaluate them all on shared challenges, and hand the response
// matrix to the metrics layer. Fabricating a device is itself costly
// (median calibration runs `calibration_challenges` full time-domain
// evaluations), so both construction and evaluation fan out across the
// thread pool.
//
// Determinism contract: device d is always fabricated from
// (wafer_seed, first_device_index + d) and every evaluation derives its
// noise seed from that device's own counter block by item index, so the
// full response matrix is bit-identical at any thread count — including
// to the plain serial loops the benches used before batching existed.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "puf/photonic_puf.hpp"

namespace neuropuls::puf {

class PufPopulation {
 public:
  /// Fabricates (and median-calibrates) `device_count` devices
  /// concurrently on `pool` (global pool when nullptr). Device d uses
  /// device index `first_device_index + d`.
  PufPopulation(const PhotonicPufConfig& config, std::uint64_t wafer_seed,
                std::size_t device_count, common::ThreadPool* pool = nullptr,
                std::uint64_t first_device_index = 0);

  std::size_t size() const noexcept { return devices_.size(); }
  PhotonicPuf& device(std::size_t i) { return *devices_[i]; }
  const PhotonicPuf& device(std::size_t i) const { return *devices_[i]; }

  /// One noise-free (model) response per device, evaluated concurrently.
  std::vector<Response> evaluate_noiseless_all(const Challenge& challenge) const;

  /// `repeats` noisy re-readings per device (the reliability /
  /// identification re-read matrix), devices in parallel; each device's
  /// readings use its next `repeats` counter values in order.
  std::vector<std::vector<Response>> evaluate_repeats(
      const Challenge& challenge, std::size_t repeats);

 private:
  common::ThreadPool* pool_;  // nullptr = global pool
  std::vector<std::unique_ptr<PhotonicPuf>> devices_;
};

}  // namespace neuropuls::puf
