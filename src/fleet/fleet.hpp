// Fleet-scale campaign simulator (ROADMAP item 3).
//
// The paper's verifier is fleet-facing: one infrastructure endpoint
// serving a million PUF edge devices through their whole lifecycle —
// enrollment at manufacturing, routine re-authentication, key rotation,
// quarantine and re-enrollment of degrading devices, revocation of
// decommissioned ones. This module drives that lifecycle end-to-end
// against the real production stack: synthetic hardware-speed PUFs
// (synthetic_puf.hpp), the sharded durable CrpDatabase, and the
// work-stealing SessionEngine running genuine mutual-auth handshakes.
//
// Memory model — the hard constraint at this scale. The simulator never
// materialises the fleet: per-device persistent state is one 12-byte
// cursor record (generation window + health flags), and everything else
// is derived on demand as a pure function of (fleet_seed, device_id):
// challenges, device PUF seeds, drift configurations. Enrollment
// streams through bounded staging chunks into CrpDatabase::insert_batch
// so peak memory is O(chunk), not O(fleet); campaigns run in bounded
// waves of live session fixtures through one reused SessionEngine (its
// arena resets between waves). Population statistics use the streaming
// estimators of metrics/streaming.hpp: order-independent hash-sampling
// for inter-device uniqueness and mergeable GK sketches for session
// latency, so a 1M-device run holds kilobytes of metric state. An
// optional byte budget is asserted against the process high-water mark
// every chunk — the simulator fails loudly the moment the bounded-
// memory promise breaks, rather than quietly paging.
//
// Key rotation — crash safety. A rotation retires a device's oldest
// CRP and provisions a fresh one. The sweep orders each wave as: batch
// durable insert of all new CRPs -> sync() barrier -> one take_batch()
// of the wave's old CRPs. A verifier crash at any byte therefore leaves
// every device with at least one live CRP (the WAL records inserts
// before takes reach stable storage), and the durable-take guarantee
// means a consumed CRP is never re-issued. recover_state()/resume_rotation()
// rebuild the cursor window from the recovered store and finish any
// half-done rotations — the chaos suite crash-sweeps this path byte by
// byte (tests/chaos/test_fleet_crash.cpp).
#pragma once

#include <cstdint>
#include <vector>

#include "faults/device_faults.hpp"
#include "faults/faulty_channel.hpp"
#include "fleet/synthetic_puf.hpp"
#include "metrics/streaming.hpp"
#include "puf/crp_db.hpp"

namespace neuropuls::common {
class ThreadPool;
}  // namespace neuropuls::common

namespace neuropuls::fleet {

struct FleetConfig {
  std::size_t devices = 1000;
  /// CRPs harvested per device at enrollment (the initial CRP plus
  /// spares, generations [0, generations)).
  std::size_t generations = 2;
  /// Devices per enrollment staging chunk — the O(chunk) memory knob.
  std::size_t enroll_chunk = 8192;
  /// Sessions in flight per campaign wave (bounds live fixtures).
  std::size_t wave_size = 512;
  std::uint64_t seed = 0xF1EE75EEDULL;
  SyntheticPufParams puf;
  /// Population drift: per-device aging parameters spread around these
  /// means (device_drift_config).
  faults::FleetDriftSpread drift;
  /// Fraction of devices whose channel runs through a seeded
  /// FaultyChannel during campaigns (hash-selected, deterministic).
  double faulty_device_rate = 0.0;
  faults::LinkFaultRates fault_rates;
  /// Devices sampled (order-independently) for the enrollment
  /// uniqueness estimate; 0 disables sampling.
  std::size_t uniqueness_sample_target = 256;
  /// Process byte budget asserted per chunk/wave against the alloc
  /// probe (when active) and VmHWM; 0 = unchecked. Violations throw.
  std::size_t memory_budget_bytes = 0;
  /// Worker pool; nullptr = the process-global pool.
  common::ThreadPool* pool = nullptr;
};

/// Process memory snapshot from /proc/self/status (zeros when absent).
struct MemoryProbe {
  std::size_t vm_rss_bytes = 0;
  std::size_t vm_hwm_bytes = 0;
  static MemoryProbe read();
};

struct EnrollReport {
  std::size_t devices = 0;
  std::size_t crps = 0;
  double seconds = 0.0;
  /// Mean pairwise fractional HD over the hash-sampled responses (~0.5
  /// for a healthy population); 0 when fewer than 2 devices sampled.
  double uniqueness_estimate = 0.0;
  std::size_t sampled_devices = 0;
  std::size_t peak_rss_bytes = 0;
};

struct CampaignReport {
  std::size_t sessions = 0;
  std::size_t converged = 0;
  std::size_t failed = 0;
  /// Sessions skipped because the device had no live CRP to serve.
  std::size_t skipped = 0;
  /// Rotation sweeps: devices that advanced a generation.
  std::size_t rotated = 0;
  double seconds = 0.0;
  double mean_attempts = 0.0;
  /// Per-session poll-tick latency, merged from per-wave sketches.
  metrics::GkQuantileSketch poll_ticks{0.01};
};

struct ResumeReport {
  /// Devices whose rotation had fully committed before the crash.
  std::size_t already_rotated = 0;
  /// Devices found mid-rotation (new CRP durable, old not yet taken):
  /// the take was completed.
  std::size_t finished_takes = 0;
  /// Devices whose new CRP never reached the store: rotation redone.
  std::size_t redone = 0;
  /// Devices with no live CRP at all — must be 0; the crash-safety
  /// invariant the chaos suite asserts.
  std::size_t keyless = 0;
};

class FleetSimulator {
 public:
  /// `db` is borrowed and must outlive the simulator. Open it with
  /// durability configured to exercise the WAL-bound enrollment path.
  FleetSimulator(FleetConfig config, puf::CrpDatabase& db);

  /// Streams the whole fleet's CRPs into the store through bounded
  /// parallel staging chunks; one durability barrier at the end.
  EnrollReport enroll();

  /// The pre-fleet idiom as a baseline: one virtual evaluate() + one
  /// insert() per CRP and a durability sync() per device, serially.
  /// bench_fleet reports the ratio (acceptance: batch path >= 5x).
  EnrollReport enroll_naive_serial();

  /// `sessions` mutual-auth handshakes round-robin across the fleet in
  /// bounded waves. Outcomes feed CRP health (failures quarantine).
  CampaignReport run_auth_campaign(std::size_t sessions);

  /// Rotates every authenticable device one generation: authenticate
  /// with the oldest CRP, then durable-insert the next-generation CRP,
  /// sync, and take the wave's old ones in one batch (crash-safe
  /// ordering).
  CampaignReport run_rotation_sweep();

  /// Rebuilds every device's generation window from the (recovered)
  /// store. `generation_limit` bounds the scan — pass the highest
  /// generation any campaign may have reached.
  void recover_state(std::uint32_t generation_limit);

  /// Completes half-done rotations after a crash + recover_state().
  ResumeReport resume_rotation();

  /// Consumes every live CRP of `count` devices starting at `first` and
  /// marks them revoked (never again served by campaigns). Returns the
  /// number of CRPs consumed.
  std::size_t run_revocation_sweep(std::size_t first, std::size_t count);

  /// Evicts quarantined CRPs and harvests one fresh-generation
  /// replacement per affected device (fresh challenge — the old pair
  /// may be compromised). Returns the number of devices re-enrolled.
  std::size_t reenroll_quarantined();

  /// Advances simulated time; device error rates drift accordingly.
  void advance_days(std::uint64_t days) noexcept { day_ += days; }
  std::uint64_t day() const noexcept { return day_; }

  // --- derived/pure per-device queries (any thread) ---
  std::uint64_t challenge_word(std::size_t device,
                               std::uint32_t generation) const noexcept;
  puf::Challenge challenge_of(std::size_t device,
                              std::uint32_t generation) const;
  /// Rebuilds device `device`'s PUF (response surface + drift model) —
  /// bit-identical on every call.
  SyntheticPuf make_device(std::size_t device) const;

  std::size_t device_count() const noexcept { return states_.size(); }
  std::uint32_t oldest_generation(std::size_t device) const {
    return states_[device].oldest;
  }
  std::uint32_t next_generation(std::size_t device) const {
    return states_[device].next;
  }
  bool revoked(std::size_t device) const {
    return (states_[device].flags & kRevoked) != 0;
  }
  /// Devices with no live CRP in [oldest, next) — 0 in a healthy fleet.
  std::size_t count_keyless() const;

  const FleetConfig& config() const noexcept { return config_; }

 private:
  static constexpr std::uint8_t kRevoked = 0x1;

  struct DeviceState {
    std::uint32_t oldest = 0;  // lowest live generation
    std::uint32_t next = 0;    // next unharvested generation
    std::uint8_t flags = 0;
  };

  struct WaveOutcome {
    std::size_t converged = 0;
    std::size_t failed = 0;
    std::size_t skipped = 0;
    double attempts_sum = 0.0;
  };

  std::uint64_t device_seed(std::size_t device) const noexcept;
  bool device_faulty(std::size_t device) const noexcept;
  /// Advances `oldest` past consumed/quarantined generations.
  void refresh_cursor(std::size_t device);
  /// Generation `generation`'s challenge and noiseless response of
  /// `puf` (device `device`): the enrollment harvest.
  puf::Crp harvest(const SyntheticPuf& puf, std::size_t device,
                   std::uint32_t generation) const;
  /// Durably inserts `replacements` (one per entry of `devices`), syncs,
  /// then consumes each device's oldest CRP and advances its window.
  void commit_rotation(const std::vector<std::size_t>& devices,
                       std::vector<puf::Crp> replacements);
  void check_memory_budget(const char* where) const;
  common::ThreadPool& pool() const;

  /// Runs one wave of auth sessions for `wave` device ids; appends
  /// converged device ids to `rotate_out` when non-null (rotation
  /// sweeps). Latency lands in the per-wave sketch `wave_ticks`.
  WaveOutcome run_wave(const std::vector<std::size_t>& wave,
                       std::uint64_t campaign_nonce,
                       metrics::GkQuantileSketch& wave_ticks,
                       std::vector<std::size_t>* rotate_out);

  FleetConfig config_;
  puf::CrpDatabase& db_;
  std::vector<DeviceState> states_;
  crypto::Bytes device_memory_;
  crypto::Bytes memory_hash_;
  std::uint64_t day_ = 0;
  std::uint64_t campaign_counter_ = 0;
};

}  // namespace neuropuls::fleet
