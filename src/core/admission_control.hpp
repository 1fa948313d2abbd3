// Admission control for a fleet-facing verifier under hostile load.
//
// ROADMAP item 4: a public verifier endpoint gets attacked, not just
// used. This layer sits between session submission and the
// core::SessionEngine runtimes and decides, *before any per-session
// allocation happens*, whether a session may enter the system:
//
//   1. Rate: a per-client token bucket, keyed by SipHash-2-4 of the
//      client id. The client table is fixed-size and open-addressed with
//      LRU eviction inside a small probe window, so an attacker minting
//      fresh client ids can churn the table but never grow it. Buckets
//      refill lazily from an explicit virtual clock (advance()) — no
//      wall-clock reads, so floods replay deterministically in tests.
//   2. Memory: a per-session cost cap and a global charged-bytes budget.
//      A session declares its cost (arena record + helper data + frame
//      buffers) at admission; the controller rejects before the engine
//      builds anything (reject-before-alloc), charges on admit, and
//      releases on completion. peak_charged_bytes is the provable
//      high-water mark the chaos tests pin against the budget.
//   3. Half-open accounting: every admitted-but-incomplete session holds
//      a slot in a fixed table. A client at its per-client cap evicts its
//      *own* oldest half-open session; a full table evicts the globally
//      oldest — pastel's orphan-pool discipline. One client can never pin
//      the table, and the victim is reported so the engine can kill it.
//
// Malformed/oversized frames a session saw (SessionReport::
// malformed_frames) are charged back to the sender's bucket via
// note_malformed() when the engine retires the session, so a client that
// floods garbage rate-limits itself out of future admissions.
//
// Threading: every method is safe from any engine worker. All state sits
// behind one leaf mutex (admission_mutex_ — below every engine lock in
// the canonical order, see common/mutex.hpp); the admit/complete fast
// paths are allocation-free (all tables are preallocated in the
// constructor), which tools/ctlint's admission-alloc pass enforces.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"

namespace neuropuls::core {

struct AdmissionConfig {
  /// Client-bucket table slots (rounded up to a power of two). The table
  /// never grows: excess client cardinality causes LRU eviction, not
  /// allocation.
  std::size_t client_slots = 1024;
  /// Token bucket depth: admissions a quiet client may burst.
  std::uint32_t bucket_capacity = 8;
  /// Virtual ticks per token refilled (advance() supplies the ticks).
  std::uint32_t refill_every_ticks = 1;
  /// Tokens burned per malformed/oversized frame attributed to a client.
  std::uint32_t malformed_token_cost = 1;
  /// Global charged-bytes ceiling across all half-open sessions.
  std::size_t global_budget_bytes = 8u << 20;
  /// Largest cost a single session may declare.
  std::size_t session_budget_bytes = 64u << 10;
  /// Half-open session table capacity (the hard concurrency ceiling the
  /// memory budget is accounted against).
  std::size_t half_open_slots = 256;
  /// Half-open sessions one client may hold before its oldest is evicted.
  std::size_t half_open_per_client = 4;
  /// SipHash key for client-id hashing. Deterministic default so tests
  /// reproduce; a deployment seeds it per-process so an attacker cannot
  /// precompute probe-window collisions.
  std::array<std::uint8_t, 16> hash_key{
      0x4e, 0x50, 0x2d, 0x61, 0x64, 0x6d, 0x69, 0x74,
      0x2d, 0x6b, 0x65, 0x79, 0x2d, 0x76, 0x31, 0x00};
};

enum class AdmitDecision : std::uint8_t {
  kAdmitted,
  kShedRateLimited,  // client bucket empty
  kShedMemory,       // session or global byte budget exceeded
};

struct AdmitResult {
  AdmitDecision decision = AdmitDecision::kShedRateLimited;
  /// True when admitting this session evicted a half-open victim; the
  /// caller must kill the session whose handle is below.
  bool evicted = false;
  std::size_t evicted_handle = 0;
};

struct AdmissionStats {
  std::uint64_t admitted = 0;
  std::uint64_t shed_rate_limited = 0;
  std::uint64_t shed_memory = 0;
  std::uint64_t evicted_half_open = 0;
  std::uint64_t malformed = 0;       // frames charged via note_malformed
  std::uint64_t clients_evicted = 0; // LRU evictions in the client table
  std::size_t half_open = 0;         // current half-open sessions
  std::size_t charged_bytes = 0;     // current charged memory
  std::size_t peak_charged_bytes = 0;
};

/// See file comment. One controller fronts one engine's runs; handles are
/// the engine's submission indices and must be complete()d (idempotent)
/// when the session retires, so the table drains between runs.
class AdmissionController {
 public:
  explicit AdmissionController(AdmissionConfig config = {});

  /// Advances the virtual refill clock. Deterministic: buckets only
  /// refill through this, never through wall time.
  void advance(std::uint64_t ticks) NP_EXCLUDES(admission_mutex_);

  /// Full admission decision for a session `client_id` wants to open,
  /// costing `cost_bytes` of budget, identified by `handle`. Order:
  /// rate bucket, per-session cap, global budget, half-open table (which
  /// may evict). On kAdmitted one token is consumed and the bytes are
  /// charged; on any shed, nothing is.
  AdmitResult try_admit(std::uint64_t client_id, std::size_t handle,
                        std::size_t cost_bytes) NP_EXCLUDES(admission_mutex_);

  /// Releases `handle`'s half-open slot and charged bytes. Idempotent —
  /// eviction may already have freed it.
  void complete(std::size_t handle) NP_EXCLUDES(admission_mutex_);

  /// Charges `frames` malformed/oversized frames to `client_id`'s bucket
  /// (saturating at empty). The sender of garbage pays in future
  /// admissions, exactly like pastel's misbehavior accounting.
  void note_malformed(std::uint64_t client_id, std::uint64_t frames)
      NP_EXCLUDES(admission_mutex_);

  AdmissionStats stats() const NP_EXCLUDES(admission_mutex_);
  const AdmissionConfig& config() const noexcept { return config_; }

 private:
  struct ClientSlot {
    bool used = false;
    std::uint64_t tag = 0;        // full SipHash of the client id
    std::uint32_t tokens = 0;
    std::uint64_t last_refill = 0;  // virtual tick of the last refill
    std::uint64_t last_used = 0;    // LRU stamp (monotone use counter)
  };
  struct HalfOpenSlot {
    bool used = false;
    std::uint64_t client_tag = 0;
    std::size_t handle = 0;
    std::uint64_t admit_seq = 0;  // monotone: smallest == oldest
    std::size_t cost_bytes = 0;
  };

  static constexpr std::size_t kProbeWindow = 8;

  std::uint64_t hash_client(std::uint64_t client_id) const noexcept;
  /// Finds or (LRU-evicting) creates the bucket for `tag`, refilled to
  /// the current virtual tick.
  ClientSlot& bucket_for(std::uint64_t tag) NP_REQUIRES(admission_mutex_);
  void refill(ClientSlot& slot) NP_REQUIRES(admission_mutex_);
  void release_slot(HalfOpenSlot& slot) NP_REQUIRES(admission_mutex_);

  AdmissionConfig config_;
  std::size_t client_mask_ = 0;

  mutable common::Mutex admission_mutex_;
  std::vector<ClientSlot> clients_ NP_GUARDED_BY(admission_mutex_);
  std::vector<HalfOpenSlot> half_open_ NP_GUARDED_BY(admission_mutex_);
  std::uint64_t now_ NP_GUARDED_BY(admission_mutex_) = 0;
  std::uint64_t use_seq_ NP_GUARDED_BY(admission_mutex_) = 0;
  std::uint64_t admit_seq_ NP_GUARDED_BY(admission_mutex_) = 0;
  std::size_t open_count_ NP_GUARDED_BY(admission_mutex_) = 0;
  AdmissionStats stats_ NP_GUARDED_BY(admission_mutex_);
};

}  // namespace neuropuls::core
