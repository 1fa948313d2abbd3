#include "puf/population.hpp"

#include "common/parallel.hpp"

#include <stdexcept>

namespace neuropuls::puf {

PufPopulation::PufPopulation(const PhotonicPufConfig& config,
                             std::uint64_t wafer_seed,
                             std::size_t device_count,
                             common::ThreadPool* pool,
                             std::uint64_t first_device_index)
    : pool_(pool), devices_(device_count) {
  if (device_count == 0) {
    throw std::invalid_argument("PufPopulation: need at least one device");
  }
  common::parallel_for(pool_, device_count, [&](std::size_t d) {
    devices_[d] = std::make_unique<PhotonicPuf>(
        config, wafer_seed, first_device_index + static_cast<std::uint64_t>(d));
  });
}

std::vector<Response> PufPopulation::evaluate_noiseless_all(
    const Challenge& challenge) const {
  std::vector<Response> responses(devices_.size());
  common::parallel_for(pool_, devices_.size(), [&](std::size_t d) {
    responses[d] = devices_[d]->evaluate_noiseless(challenge);
  });
  return responses;
}

std::vector<std::vector<Response>> PufPopulation::evaluate_repeats(
    const Challenge& challenge, std::size_t repeats) {
  std::vector<std::vector<Response>> readings(devices_.size());
  common::parallel_for(pool_, devices_.size(), [&](std::size_t d) {
    // evaluate_batch assigns this device's counter values by item index,
    // so the readings match a serial re-read loop bit for bit. The inner
    // batch call is already inside a parallel region, so its lane blocks
    // (kDefaultLanes challenges per SoA block) run serially on this
    // worker — the SIMD lane parallelism still applies within each block.
    readings[d] = devices_[d]->evaluate_batch(
        std::vector<Challenge>(repeats, challenge), pool_);
  });
  return readings;
}

}  // namespace neuropuls::puf
