// fleet_rotation: key rotation campaigns over a durable CRP store.
//
// fleet::FleetSimulator runs over a sharded puf::CrpDatabase with group
// commit and durable takes, in a temporary directory, on a pool no wider
// than the host. Set-up enrolls the fleet and runs one warm-up sweep; the
// timed part repeats run_rotation_sweep(). Each sweep authenticates every
// device on the session engine, durably inserts its next-generation CRP,
// syncs, and takes the old CRP by key, so store writes (insert_batch,
// sync, fsync-waiting take) sit beside auth_storm's reads. An op is one
// rotated device. The fleet is one wave wide, so every device of a sweep
// completes when the sweep does: its latency is the sweep's duration.
#include <stdexcept>

#include "common/io.hpp"
#include "common/parallel.hpp"
#include "fleet/fleet.hpp"
#include "perfbench.hpp"
#include "puf/crp_db.hpp"

namespace perfbench {
namespace {

using namespace neuropuls;

constexpr std::size_t kDevices = 256;
constexpr double kSweepsPerSecond = 43.0;
constexpr std::size_t kSegmentSweeps = 10;

puf::CrpDurabilityOptions durability(const std::string& directory) {
  puf::CrpDurabilityOptions options;
  options.directory = directory;  // group commit, durable takes
  return options;
}

fleet::FleetConfig fleet_config(std::uint64_t seed, common::ThreadPool& pool) {
  fleet::FleetConfig config;
  config.devices = kDevices;
  config.generations = 2;
  config.wave_size = kDevices;
  config.seed = seed;
  config.uniqueness_sample_target = 0;
  config.pool = &pool;
  return config;
}

class FleetRotation {
 public:
  FleetRotation(const Options& options, bool traced)
      : traced_(traced),
        store_dir_("perfbench-fleet"),
        store_(8, durability(store_dir_.path())),
        pool_(worker_threads()),
        fleet_(fleet_config(mix(options.seed ^ 0xF1EE7ULL), pool_), store_) {
    fleet_.enroll();
    PassResult warm;
    sweep(warm);
    if (warm.failed != 0 || warm.violations != 0) {
      throw std::runtime_error("fleet_rotation: warm-up sweep failed");
    }
  }

  void sweep(PassResult& out) {
    const Clock::time_point start = Clock::now();
    const fleet::CampaignReport report = fleet_.run_rotation_sweep();
    const double sweep_us =
        static_cast<double>(ns_between(start, Clock::now())) / 1e3;
    const std::size_t keyless = fleet_.count_keyless();
    out.attempted += kDevices;
    const std::size_t done = std::min(report.rotated, report.converged);
    out.failed += kDevices - std::min(done, kDevices);
    out.latency_us.insert(out.latency_us.end(), done, sweep_us);
    if (keyless != 0) ++out.violations;
    keyless_ += keyless;
    rotated_ += report.rotated;
    attempts_sum_ += report.mean_attempts;
    ticks_p50_sum_ += report.poll_ticks.quantile(0.5);
    sweep_s_sum_ += sweep_us / 1e6;
  }

  void run(std::size_t sweeps, PassResult& out) {
    const puf::CrpStoreStats before = store_.lock_stats();
    const std::uintmax_t wal_before = directory_bytes(store_dir_.path());
    keyless_ = rotated_ = 0;
    attempts_sum_ = ticks_p50_sum_ = sweep_s_sum_ = 0.0;
    out.latency_us.reserve(sweeps * kDevices);
    Clock::time_point segment = Clock::now();
    for (std::size_t s = 0; s < sweeps; ++s) {
      sweep(out);
      if ((s + 1) % kSegmentSweeps == 0) end_segment(out, segment);
    }
    if (!traced_) return;
    const puf::CrpStoreStats after = store_.lock_stats();
    const double n = static_cast<double>(sweeps);
    out.layers = {
        {"fleet.sweep_s", sweep_s_sum_ / n},
        {"fleet.rotated", static_cast<double>(rotated_)},
        {"fleet.mean_attempts", attempts_sum_ / n},
        {"fleet.keyless", static_cast<double>(keyless_)},
        {"fleet.poll_ticks_p50", ticks_p50_sum_ / n},
        {"puf.crp_db.wal_bytes_per_op",
         ratio(static_cast<double>(directory_bytes(store_dir_.path()) -
                                   wal_before),
               static_cast<double>(rotated_))},
        {"puf.crp_db.take_steals",
         static_cast<double>(after.take_steals - before.take_steals)},
        {"puf.crp_db.contended_pct",
         100.0 * ratio(static_cast<double>(after.contended - before.contended),
                       static_cast<double>(after.acquisitions -
                                           before.acquisitions))},
    };
  }

 private:
  bool traced_;
  common::io::TempDir store_dir_;
  puf::CrpDatabase store_;
  common::ThreadPool pool_;
  fleet::FleetSimulator fleet_;
  std::size_t keyless_ = 0;
  std::size_t rotated_ = 0;
  double attempts_sum_ = 0.0;
  double ticks_p50_sum_ = 0.0;
  double sweep_s_sum_ = 0.0;
};

}  // namespace

PassResult run_fleet_rotation(const Options& options, Mode mode) {
  const Clock::time_point start = Clock::now();
  FleetRotation workload(options, mode == Mode::kTraced);
  PassResult out;
  out.setup_s = static_cast<double>(ns_between(start, Clock::now())) / 1e9;
  if (mode != Mode::kSetupOnly) {
    workload.run(scaled(kSweepsPerSecond, options, kSegmentSweeps), out);
  }
  return out;
}

}  // namespace perfbench
