#include "puf/photonic_puf.hpp"

#include "common/parallel.hpp"
#include "common/simd.hpp"
#include "crypto/chacha20.hpp"
#include "faults/device_faults.hpp"
#include "photonic/field_block.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace neuropuls::puf {

using photonic::Complex;
using photonic::OperatingPoint;

namespace {

// Upper bound on cached operating points. Thermal sweeps step the
// temperature, so a handful of entries keeps every sweep point hot
// without letting a long scan grow the cache unboundedly.
constexpr std::size_t kMaxOperatingTables = 8;

}  // namespace

PhotonicPuf::PhotonicPuf(PhotonicPufConfig config, std::uint64_t wafer_seed,
                         std::uint64_t device_index)
    : config_(config),
      circuit_(config.design,
               photonic::FabricationModel(wafer_seed, device_index,
                                          config.variation)),
      device_seed_(rng::derive_seed(wafer_seed, device_index)) {
  if (config_.challenge_bits == 0 || config_.challenge_bits % 8 != 0) {
    throw std::invalid_argument(
        "PhotonicPuf: challenge_bits must be a positive multiple of 8");
  }
  if (config_.design.ports % 2 != 0 || config_.design.ports < 2) {
    throw std::invalid_argument("PhotonicPuf: ports must be even");
  }
  if ((config_.challenge_bits * (config_.design.ports / 2)) % 8 != 0) {
    throw std::invalid_argument("PhotonicPuf: response bits not byte-aligned");
  }
  if (config_.samples_per_bit == 0 || config_.sample_rate_hz <= 0.0) {
    throw std::invalid_argument("PhotonicPuf: bad sampling parameters");
  }
  calibrate();
}

std::shared_ptr<const PhotonicPuf::OperatingTables>
PhotonicPuf::operating_tables(const OperatingPoint& op) const {
  {
    const common::MutexLock lock(tables_mutex_);
    for (auto it = tables_cache_.begin(); it != tables_cache_.end(); ++it) {
      if ((*it)->wavelength == op.wavelength &&
          (*it)->temperature == op.temperature) {
        auto hit = *it;
        // Move-to-front so sweeps evict the stalest point first.
        tables_cache_.erase(it);
        tables_cache_.insert(tables_cache_.begin(), hit);
        return hit;
      }
    }
  }
  // Build outside the lock: concurrent first touches of the same point may
  // build twice, but never block each other behind the (expensive)
  // per-layer transfer evaluation.
  auto built = std::make_shared<OperatingTables>();
  built->wavelength = op.wavelength;
  built->temperature = op.temperature;
  built->scrambler = photonic::make_scrambler_tables(
      circuit_, op, 1.0 / config_.sample_rate_hz);
  const common::MutexLock lock(tables_mutex_);
  tables_cache_.insert(tables_cache_.begin(), built);
  if (tables_cache_.size() > kMaxOperatingTables) {
    tables_cache_.resize(kMaxOperatingTables);
  }
  return built;
}

void PhotonicPuf::calibrate() {
  if (config_.calibration_challenges == 0) return;
  // Public calibration sequence (identical for every device; the
  // thresholds themselves are device-specific measurements and live with
  // the helper data). Medians are taken at the *enrollment* operating
  // point; later thermal drift moves the margins — the E11 effect.
  crypto::ChaChaDrbg calib_rng(crypto::bytes_of("np-phot-calib"));
  const std::size_t count = config_.calibration_challenges;
  std::vector<Challenge> challenges;
  challenges.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    challenges.push_back(calib_rng.generate(challenge_bytes()));
  }

  // Transpose as we go: each evaluation's slots scatter straight into one
  // flat slot-major buffer, so the per-slot medians run on contiguous
  // spans. With no thresholds yet, the core's margins are the raw current
  // differences.
  const std::size_t slots = response_bits();
  std::vector<double> slot_samples(slots * count);
  for_each_block(challenges.data(), count, /*noisy=*/false, 0,
                 config_.temperature, nullptr,
                 [&](std::size_t i, const double* margins) {
                   for (std::size_t slot = 0; slot < slots; ++slot) {
                     slot_samples[slot * count + i] = margins[slot];
                   }
                 });

  thresholds_.resize(slots);
  for (std::size_t slot = 0; slot < slots; ++slot) {
    const auto begin =
        slot_samples.begin() + static_cast<std::ptrdiff_t>(slot * count);
    const auto mid = begin + static_cast<std::ptrdiff_t>(count / 2);
    std::nth_element(begin, mid, begin + static_cast<std::ptrdiff_t>(count));
    thresholds_[slot] = *mid;
  }
}

void PhotonicPuf::analog_block(const Challenge* challenges, std::size_t w,
                               bool noisy, std::uint64_t first_counter,
                               double temperature, double* margins) const {
  if (w == 0) {
    throw std::invalid_argument("PhotonicPuf: empty lane block");
  }
  for (std::size_t lane = 0; lane < w; ++lane) {
    if (challenges[lane].size() != challenge_bytes()) {
      throw std::invalid_argument("PhotonicPuf: wrong challenge size");
    }
  }

  // Device faults perturb only the physical measurement path, never the
  // verifier-side model: a noiseless block always sees a healthy chip.
  const faults::DeviceFaultModel* fm = noisy ? fault_model_.get() : nullptr;
  if (fm != nullptr) {
    if (w != 1) {
      throw std::logic_error("PhotonicPuf: a faulted block has one lane");
    }
    temperature += fm->temperature_offset(first_counter);
  }

  const OperatingPoint op{config_.laser.wavelength, temperature};
  const std::size_t ports = config_.design.ports;
  const std::size_t pairs = ports / 2;
  const std::size_t spb = config_.samples_per_bit;
  const std::size_t bits = response_bits();

  // Per-lane source chains. The MZM is deterministic but stateful (one-
  // pole drive filter), so every lane carries its own; a noisy lane also
  // gets its own Laser and per-port Photodiodes, seeded from its
  // evaluation counter. The noiseless path replaces the laser with an
  // ideal constant carrier and needs one parameter-only detector.
  photonic::LaserParameters laser_params = config_.laser;
  laser_params.power_mw *= config_.laser_power_scale;
  const double ideal_amp = std::sqrt(laser_params.power_mw * 1e-3);
  std::vector<photonic::MachZehnderModulator> mzms(
      w, photonic::MachZehnderModulator(config_.modulator));
  std::vector<photonic::Laser> lasers;
  std::vector<photonic::Photodiode> pds;  // [lane * ports + port]
  if (noisy) {
    lasers.reserve(w);
    pds.reserve(w * ports);
    for (std::size_t lane = 0; lane < w; ++lane) {
      const std::uint64_t counter = first_counter + lane;
      const std::uint64_t seed = rng::derive_seed(device_seed_, counter);
      photonic::LaserParameters lane_params = laser_params;
      if (fm != nullptr) lane_params.power_mw *= fm->laser_scale(counter);
      lasers.emplace_back(lane_params, config_.sample_rate_hz,
                          rng::derive_seed(seed, 0x11));
      for (std::size_t p = 0; p < ports; ++p) {
        pds.emplace_back(config_.photodiode, rng::derive_seed(seed, 0x20 + p));
      }
    }
  }
  const photonic::Photodiode mean_pd(config_.photodiode, 0);

  // Static transfer constants come from the per-operating-point cache and
  // are shared across every concurrent evaluation; only the ring delay
  // lines (the scrambler's mutable state) are built per block. Phase-
  // shifter aging rotates each input tap.
  const auto tables = operating_tables(op);
  photonic::TimeDomainScrambler scrambler(tables->scrambler, w);
  const photonic::PortVector* taps = &tables->scrambler->input_coefficients();
  photonic::PortVector aged_taps;
  if (fm != nullptr) {
    aged_taps = *taps;
    for (std::size_t p = 0; p < ports; ++p) {
      aged_taps[p] *= std::polar(1.0, fm->phase_drift(first_counter, p));
    }
    taps = &aged_taps;
  }

  // SoA lane planes in one buffer: the per-sample modulated carriers, the
  // per-port integrate-and-dump accumulators ([port][lane]) and the per-
  // port photocurrent scale. A degraded photodiode scales its detected
  // current (the Photodiode ctor rejects responsivity <= 0, so a dead
  // diode is a post-detect 0.0); a healthy port's scale is 1.0, which
  // multiplies exactly.
  simd::AlignedVector<double> scratch((2 + ports) * w + ports);
  double* mod_re = scratch.data();
  double* mod_im = mod_re + w;
  double* window_current = mod_im + w;
  double* pd_scale = window_current + ports * w;
  for (std::size_t p = 0; p < ports; ++p) {
    pd_scale[p] = fm != nullptr ? fm->photodiode_scale(p) : 1.0;
  }
  photonic::FieldBlock block(ports, w);

  for (std::size_t window = 0; window < config_.challenge_bits; ++window) {
    std::fill(window_current, window_current + ports * w, 0.0);
    for (std::size_t s = 0; s < spb; ++s) {
      for (std::size_t lane = 0; lane < w; ++lane) {
        const bool bit =
            (challenges[lane][window / 8] >> (7 - window % 8)) & 1;
        const Complex carrier =
            noisy ? lasers[lane].sample() : Complex{ideal_amp, 0.0};
        const Complex modulated = mzms[lane].modulate(carrier, bit);
        mod_re[lane] = modulated.real();
        mod_im[lane] = modulated.imag();
      }
      // Fig. 2: the modulated beam is first split across all paths; the
      // scrambler then transforms the block in place.
      for (std::size_t p = 0; p < ports; ++p) {
        simd::complex_fanout(mod_re, mod_im, (*taps)[p].real(),
                             (*taps)[p].imag(), block.re(p), block.im(p), w);
      }
      scrambler.step_block(block);
      for (std::size_t p = 0; p < ports; ++p) {
        double* acc = window_current + p * w;
        if (noisy) {
          for (std::size_t lane = 0; lane < w; ++lane) {
            acc[lane] +=
                pds[lane * ports + p].detect(block.at(p, lane)) * pd_scale[p];
          }
        } else {
          mean_pd.accumulate_mean_block(block.re(p), block.im(p), acc, w);
        }
      }
    }

    for (std::size_t lane = 0; lane < w; ++lane) {
      for (std::size_t pair = 0; pair < pairs; ++pair) {
        const std::size_t slot = window * pairs + pair;
        const double threshold =
            thresholds_.empty() ? 0.0 : thresholds_[slot];
        margins[lane * bits + slot] =
            (window_current[2 * pair * w + lane] -
             window_current[(2 * pair + 1) * w + lane]) /
                static_cast<double>(spb) -
            threshold;
      }
    }
  }
}

template <typename Sink>
void PhotonicPuf::for_each_block(const Challenge* challenges,
                                 std::size_t count, bool noisy,
                                 std::uint64_t first_counter,
                                 double temperature, common::ThreadPool* pool,
                                 const Sink& sink) const {
  // A thermal spike moves one evaluation's operating point, so a faulted
  // noisy run evaluates one lane per block. Lane j of block b is item
  // b*W + j, so seeds bind to item index, never to scheduling order.
  const std::size_t lanes =
      noisy && fault_model_ ? 1 : simd::kDefaultLanes;
  const std::size_t bits = response_bits();
  const std::size_t blocks = (count + lanes - 1) / lanes;
  const auto run = [&](std::size_t blk) {
    const std::size_t begin = blk * lanes;
    const std::size_t n = std::min(lanes, count - begin);
    std::vector<double> margins(n * bits);
    analog_block(challenges + begin, n, noisy, first_counter + begin,
                 temperature, margins.data());
    for (std::size_t j = 0; j < n; ++j) sink(begin + j, &margins[j * bits]);
  };
  if (blocks == 1) {
    run(0);
  } else {
    common::parallel_for(pool, blocks, run);
  }
}

Response PhotonicPuf::threshold_bits(const double* margins) const {
  Response out(response_bytes(), 0);
  for (std::size_t bit = 0; bit < response_bits(); ++bit) {
    if (margins[bit] > 0.0) {
      out[bit / 8] |= static_cast<std::uint8_t>(1u << (7 - bit % 8));
    }
  }
  return out;
}

std::vector<Response> PhotonicPuf::respond(const Challenge* challenges,
                                           std::size_t count, bool noisy,
                                           std::uint64_t first_counter,
                                           double temperature,
                                           common::ThreadPool* pool) const {
  std::vector<Response> responses(count);
  for_each_block(challenges, count, noisy, first_counter, temperature, pool,
                 [&](std::size_t i, const double* margins) {
                   responses[i] = threshold_bits(margins);
                 });
  return responses;
}

Response PhotonicPuf::evaluate(const Challenge& challenge) {
  const std::uint64_t counter =
      eval_counter_.fetch_add(1, std::memory_order_relaxed) + 1;
  return std::move(
      respond(&challenge, 1, /*noisy=*/true, counter, config_.temperature,
              nullptr)
          .front());
}

std::vector<Response> PhotonicPuf::evaluate_batch(
    const std::vector<Challenge>& challenges, common::ThreadPool* pool) {
  // Reserve one counter value per item up front; item i always gets
  // base + i + 1 regardless of which thread runs it or when, making the
  // batch bit-identical to the equivalent serial evaluate() sequence.
  const std::uint64_t base = eval_counter_.fetch_add(
      challenges.size(), std::memory_order_relaxed);
  return respond(challenges.data(), challenges.size(), /*noisy=*/true,
                 base + 1, config_.temperature, pool);
}

std::vector<Response> PhotonicPuf::evaluate_noiseless_batch(
    const std::vector<Challenge>& challenges, common::ThreadPool* pool) const {
  return respond(challenges.data(), challenges.size(), /*noisy=*/false, 0,
                 config_.temperature, pool);
}

Response PhotonicPuf::evaluate_noiseless(const Challenge& challenge) const {
  return evaluate_noiseless_at(challenge, config_.temperature);
}

Response PhotonicPuf::evaluate_noiseless_at(const Challenge& challenge,
                                            double temperature_kelvin) const {
  return std::move(respond(&challenge, 1, /*noisy=*/false, 0,
                           temperature_kelvin, nullptr)
                       .front());
}

std::vector<std::vector<double>> PhotonicPuf::evaluate_analog(
    const Challenge& challenge, bool noisy) {
  const std::uint64_t counter =
      noisy ? eval_counter_.fetch_add(1, std::memory_order_relaxed) + 1 : 0;
  const std::size_t pairs = config_.design.ports / 2;
  std::vector<std::vector<double>> rows(config_.challenge_bits);
  for_each_block(&challenge, 1, noisy, counter, config_.temperature, nullptr,
                 [&](std::size_t, const double* margins) {
                   for (std::size_t w = 0; w < rows.size(); ++w) {
                     rows[w].assign(margins + w * pairs,
                                    margins + (w + 1) * pairs);
                   }
                 });
  return rows;
}

double PhotonicPuf::response_throughput_bps() const noexcept {
  const double bits = static_cast<double>(response_bits());
  return bits / interrogation_time_s();
}

double PhotonicPuf::interrogation_time_s() const noexcept {
  const double challenge_duration =
      static_cast<double>(config_.challenge_bits * config_.samples_per_bit) /
      config_.sample_rate_hz;
  return challenge_duration + circuit_.memory_depth_seconds();
}

PhotonicPufConfig small_photonic_config() {
  PhotonicPufConfig cfg;
  cfg.design.ports = 4;
  cfg.design.layers = 3;
  cfg.challenge_bits = 16;
  cfg.calibration_challenges = 31;
  return cfg;
}

}  // namespace neuropuls::puf
