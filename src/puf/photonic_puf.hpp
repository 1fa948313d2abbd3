// The photonic PUF of Fig. 2, end to end.
//
// Pipeline per evaluation (matching the figure left to right):
//   challenge bits -> ASIC drive -> MZM modulates the CW telecom laser
//   -> passive scrambler mesh (couplers + designed-random waveguides +
//      microrings with fabrication-unique resonances, time-domain so ring
//      memory mixes past bits into present ones)
//   -> photodiode array (square law: amplitude AND phase collapse into
//      intensity because the paths are coherent)
//   -> integrate-and-dump per bit window -> differential thresholding
//      into response bits. The figure's TIA and ADC are standalone models
//      (photonic::ReadoutChain); thresholding the photocurrent difference
//      needs neither.
//
// Every evaluation runs on one analog core, the lane-block engine of
// photonic/field_block.hpp: batches and calibration are chunked into
// blocks of simd::kDefaultLanes challenges, and a single evaluation is a
// one-lane block.
//
// Response format: for each challenge bit window w and each port pair
// (2p, 2p+1), one bit = [current difference I_{2p} - I_{2p+1}] above that
// slot's *calibrated threshold*. Differential readout self-references the
// laser power (the same reason RO PUFs compare oscillator pairs); the
// per-slot threshold is the median current difference over a public set
// of calibration challenges, measured once at enrollment — the §II-B
// "threshold dependent on the amplitude of the photocurrent read at the
// PD". Calibration removes the static interferometric offset of each
// port pair, so every response bit is decided by the *challenge-dependent*
// interference (the pairwise-parity structure that resists linear
// modelling attacks, cf. Bosworth et al. [29]); the margins
// (difference - threshold) are exposed for the §II-B amplitude filtering.
//
// The default modulation is coherent phase encoding (0/pi per challenge
// bit at one sample per bit, 25 GS/s): each output window then mixes the
// current symbol with ring-delayed copies of previous ones, and the
// square-law detector turns those into challenge-bit parities weighted by
// fabrication-unique phases.
//
// The same object serves as:
//   * strong PUF — arbitrary challenges (2^challenge_bits space);
//   * weak PUF — a fixed enrollment challenge for key generation;
//   * verifier-side model — `evaluate_noiseless()` is the "model of the
//     pPUF available to the Verifier" that §III-B's attestation assumes.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "photonic/circuit.hpp"
#include "photonic/detector.hpp"
#include "photonic/source.hpp"
#include "puf/puf.hpp"

namespace neuropuls::common {
class ThreadPool;
}  // namespace neuropuls::common

namespace neuropuls::faults {
class DeviceFaultModel;
}  // namespace neuropuls::faults

namespace neuropuls::puf {

struct PhotonicPufConfig {
  photonic::ScramblerDesign design;  // ports/layers/design seed
  std::size_t challenge_bits = 64;
  std::size_t samples_per_bit = 1;
  double sample_rate_hz = 25e9;  // ref. [12]: 25 Gbit/s demonstrator
  photonic::LaserParameters laser;
  photonic::ModulatorParameters modulator{
      /*extinction_ratio_db=*/0.01,  // near-constant amplitude (null-biased
                                     // push-pull: chirp-free phase keying)
      /*insertion_loss_db=*/4.0,
      /*bandwidth_fraction=*/1.0,
      /*phase_modulation=*/true};  // coherent 0/pi challenge encoding
  /// Median-calibration challenge count (0 disables calibration and
  /// reverts to raw zero-threshold differential readout).
  std::size_t calibration_challenges = 63;
  photonic::PhotodiodeParameters photodiode;
  double temperature = photonic::kReferenceTemperature;
  /// Laser-power alteration factor (1.0 = nominal). §IV studies attacks
  /// that "alter laser power levels to produce responses that provide
  /// insights into the inner working mechanisms".
  double laser_power_scale = 1.0;
  photonic::VariationSigmas variation{};
};

class PhotonicPuf final : public Puf {
 public:
  /// `wafer_seed` + `device_index` fix this device's fabrication draw.
  PhotonicPuf(PhotonicPufConfig config, std::uint64_t wafer_seed,
              std::uint64_t device_index);

  std::size_t challenge_bytes() const override {
    return (config_.challenge_bits + 7) / 8;
  }
  std::size_t response_bytes() const override {
    return response_bits() / 8;
  }
  std::size_t response_bits() const {
    return config_.challenge_bits * (config_.design.ports / 2);
  }

  Response evaluate(const Challenge& challenge) override;
  Response evaluate_noiseless(const Challenge& challenge) const override;
  std::string name() const override { return "photonic-puf"; }

  /// Noisy batch evaluation across the pool (global pool when `pool` is
  /// nullptr). Deterministic: work item i consumes noise-seed counter
  /// base + i + 1 where `base` is the counter value on entry, assigned by
  /// *index* rather than completion order — so the result is bit-identical
  /// to calling evaluate() on each challenge in sequence, at any thread
  /// count. The counter block is reserved atomically, so concurrent
  /// batches/evaluations never reuse a seed.
  std::vector<Response> evaluate_batch(const std::vector<Challenge>& challenges,
                                       common::ThreadPool* pool = nullptr);

  /// Model-path (deterministic) batch evaluation across the pool.
  std::vector<Response> evaluate_noiseless_batch(
      const std::vector<Challenge>& challenges,
      common::ThreadPool* pool = nullptr) const;

  /// Temperature-compensated model evaluation (§II-B: "introducing a
  /// photonic sensor for temperature measurement and considering this
  /// additional parameter when evaluating the genuinity of the
  /// responses"): the verifier evaluates its model at the device's
  /// sensor-reported temperature instead of the enrollment temperature,
  /// cancelling the common-mode thermo-optic drift.
  Response evaluate_noiseless_at(const Challenge& challenge,
                                 double temperature_kelvin) const;

  /// Analog readout margins: (current difference - calibrated threshold)
  /// in amperes, one row per challenge-bit window, one column per port
  /// pair. The response bit is margin > 0; |margin| is the §II-B
  /// filtering quantity. `noisy=false` gives the ideal model's values.
  std::vector<std::vector<double>> evaluate_analog(const Challenge& challenge,
                                                   bool noisy);

  /// Bits per evaluation / second of interrogation: the "inherent speed"
  /// §III-B relies on ("at least 5 Gb/s").
  double response_throughput_bps() const noexcept;

  /// Interrogation time of one evaluation (challenge duration + memory
  /// flush) — §IV: "the response is present ... below 100 ns".
  double interrogation_time_s() const noexcept;

  void set_temperature(double kelvin) noexcept {
    config_.temperature = kelvin;
  }
  void set_laser_power_scale(double scale) noexcept {
    config_.laser_power_scale = scale;
  }

  /// Attaches (or clears, with nullptr) a deterministic device-fault
  /// model (faults::DeviceFaultModel). Faults perturb only the *noisy*
  /// measurement path — the verifier-side noiseless model stays ideal —
  /// and are keyed on the evaluation counter, so batch evaluation remains
  /// bit-identical to the serial sequence. A quiet model (all fault
  /// families inactive) is bit-identical to no model at all.
  void set_fault_model(std::shared_ptr<const faults::DeviceFaultModel> model) {
    fault_model_ = std::move(model);
  }
  const std::shared_ptr<const faults::DeviceFaultModel>& fault_model()
      const noexcept {
    return fault_model_;
  }

  const PhotonicPufConfig& config() const noexcept { return config_; }

 private:
  // Static per-operating-point constants of the analog chain: scrambler
  // transfer tables + input fan-out taps. Immutable once built, so one
  // instance is shared by every (possibly concurrent) evaluation at that
  // (wavelength, temperature); rebuilding them per call used to dominate
  // the single-evaluation cost.
  struct OperatingTables {
    double wavelength = 0.0;
    double temperature = 0.0;
    std::shared_ptr<const photonic::ScramblerTables> scrambler;
  };

  std::shared_ptr<const OperatingTables> operating_tables(
      const photonic::OperatingPoint& op) const;

  // The analog core. Evaluates `lanes` challenges as one lane block
  // through the SoA FieldBlock engine (a single evaluation is a one-lane
  // block) and writes lane j's margins — current difference minus the
  // calibrated threshold, window-major, response_bits() doubles — to
  // margins + j * response_bits(). A noisy lane j is evaluation-counter
  // value first_counter + j: its Laser and per-port Photodiodes are seeded
  // from that value, and the attached fault model's laser droop, tap phase
  // drift, photodiode scale and thermal offset are read at it. A thermal
  // offset moves the block's operating point, so a faulted noisy block
  // must have one lane. Noiseless (model) blocks never see faults.
  void analog_block(const Challenge* challenges, std::size_t lanes,
                    bool noisy, std::uint64_t first_counter,
                    double temperature, double* margins) const;
  // The one lane-block loop: chunks `count` challenges into blocks of
  // kDefaultLanes (one lane when a fault model is attached to a noisy
  // run), runs the blocks across `pool` (global pool when nullptr; a
  // single block runs on the caller) and calls sink(i, margins_of_item_i)
  // for every item. Item i is counter value first_counter + i.
  template <typename Sink>
  void for_each_block(const Challenge* challenges, std::size_t count,
                      bool noisy, std::uint64_t first_counter,
                      double temperature, common::ThreadPool* pool,
                      const Sink& sink) const;
  Response threshold_bits(const double* margins) const;
  // Responses of `count` challenges through the lane-block loop.
  std::vector<Response> respond(const Challenge* challenges,
                                std::size_t count, bool noisy,
                                std::uint64_t first_counter,
                                double temperature,
                                common::ThreadPool* pool) const;
  void calibrate();

  PhotonicPufConfig config_;
  photonic::ScramblerCircuit circuit_;
  std::uint64_t device_seed_;
  // Noise-seed counter. Atomically reserved (one value per evaluate()
  // call, a contiguous block per evaluate_batch()) so concurrent
  // evaluations can never reuse a noise seed.
  std::atomic<std::uint64_t> eval_counter_{0};
  // Most-recently-used operating-point tables (thermal sweeps move the
  // temperature, so this is a tiny keyed cache, not a single slot).
  mutable common::Mutex tables_mutex_;
  mutable std::vector<std::shared_ptr<const OperatingTables>> tables_cache_
      NP_GUARDED_BY(tables_mutex_);
  // Median current difference of every (window, pair) slot from
  // enrollment calibration, window-major; empty when calibration is
  // disabled.
  std::vector<double> thresholds_;
  // Optional device-fault oracle (faults::DeviceFaultModel); null =
  // healthy device. Shared-const so concurrent evaluations read it
  // without synchronisation.
  std::shared_ptr<const faults::DeviceFaultModel> fault_model_;
};

/// A PhotonicPufConfig sized for fast unit tests (4 ports, short
/// challenges) — shared by tests and examples.
PhotonicPufConfig small_photonic_config();

}  // namespace neuropuls::puf
