// Challenge–response-pair database — the verifier-side storage of the
// classical Suh/Devadas authentication scheme (§III-A's baseline).
//
// The paper's argument for HSC-IoT is scalability: "existing strategies
// require the Verifier to store a large database of CRPs for each device
// ... this protocol only needs one CRP to be known by the Verifier at any
// point." This class implements the heavyweight baseline so that
// `bench/bench_auth` can measure the storage/lookup gap quantitatively,
// including one-time-use semantics (each CRP is consumed at
// authentication to prevent replay).
//
// Concurrency: a fleet-scale verifier serves many authentication sessions
// at once (core::SessionEngine), so the store is lock-striped into N
// shards keyed by the SipHash of the raw challenge bytes — the same hash
// the per-shard index already computes. Every public operation is
// thread-safe; operations on different shards never contend, and
// contention that does happen is counted (`lock_stats`) so
// `bench/bench_server` can plot ops/sec against shard count. A CRP is
// consumed by its challenge only (take / take_batch): the verifier always
// knows which CRP it is retiring, so the store keeps no take order.
//
// Durability (opt-in via CrpDurabilityOptions): every mutation appends
// one record to a per-shard write-ahead log before the call returns.
// Records are encoded under the shard lock (so per-shard WAL order is
// exactly mutation order) into an in-memory pending buffer; a single
// background writer drains those buffers, coalescing many records into
// one write+fsync — the group commit that keeps the log at memory speed.
// Group commit is the only write path: a caller that wants each operation
// on stable storage before the next calls sync() after it.
// All file I/O happens on the writer thread, strictly outside every
// shard lock; shard locks stay leaves in the canonical lock order, and
// the ctlint `blocking-under-lock` pass enforces that no write/fsync
// call sneaks into a critical section. Every take waits, holding no
// shard lock, until its record is on stable storage before handing out
// the CRP, which is what makes the paper's one-time-use guarantee
// survive a crash: a consumed CRP is never re-issued and never
// resurrected. take_batch logs a batch of keyed takes under one lock
// per touched shard and then makes that wait once for all of them, so
// a crash in mid-batch leaves each shard's log holding a prefix of that
// shard's takes, none of which any caller has seen. Cold start replays
// snapshot + WAL per shard in parallel over common::parallel;
// a store reopens only with the shard count its manifest records.
// With no directory configured, nothing here runs — the in-memory store
// behaves bit-identically to the pre-durability class.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "crypto/chacha20.hpp"
#include "crypto/siphash.hpp"
#include "puf/puf.hpp"

namespace neuropuls::puf {

struct Crp {
  Challenge challenge;
  Response response;
};

namespace detail {

/// Transparent SipHash-2-4 hasher over raw challenge bytes: the CRP index
/// hashes the challenge buffer directly instead of materialising a hex
/// string per insert/lookup (half the key storage, zero encode work). The
/// key is a fixed public constant — the index is verifier-local simulation
/// state, not an adversarial-input hash table.
struct ChallengeHash {
  using is_transparent = void;
  std::size_t operator()(crypto::ByteView bytes) const noexcept {
    static constexpr std::array<std::uint8_t, 16> kKey = {
        'n', 'p', '-', 'c', 'r', 'p', '-', 'i',
        'n', 'd', 'e', 'x', '-', 'k', 'e', 'y'};
    return static_cast<std::size_t>(crypto::siphash24(kKey, bytes));
  }
};

/// Transparent byte-wise equality matching ChallengeHash (Challenge and
/// ByteView arguments both land on the ByteView overload).
struct ChallengeEqual {
  using is_transparent = void;
  bool operator()(crypto::ByteView a, crypto::ByteView b) const noexcept {
    return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
  }
};

}  // namespace detail

/// Per-CRP health counters maintained by the verifier: authentication
/// outcomes against this CRP. A run of consecutive failures marks the
/// CRP quarantined — it stops being served by take/lookup (the
/// response may be rotting on a degraded device, or the pair may be under
/// active attack) until evicted or the database is re-enrolled.
struct CrpHealth {
  std::uint32_t successes = 0;
  std::uint32_t failures = 0;
  std::uint32_t consecutive_failures = 0;
  bool quarantined = false;
};

namespace wal {
struct Manifest;
struct RecordView;
}  // namespace wal

/// Opt-in durability configuration for CrpDatabase. An empty directory
/// keeps the store purely in memory (the pre-durability behaviour, zero
/// overhead on every path).
struct CrpDurabilityOptions {
  /// Store directory (created if missing). Holds per-shard WAL and
  /// snapshot files plus a checksummed MANIFEST; empty = in-memory only.
  std::string directory;
};

/// What recovery found on disk at construction (zeros for fresh or
/// in-memory stores) — the crash tests and the cold-start bench read
/// this to assert which path ran.
struct CrpRecoveryStats {
  /// Generation the store is live on after open.
  std::uint64_t generation = 0;
  std::uint64_t snapshot_entries = 0;
  std::uint64_t wal_records = 0;
  /// Torn bytes dropped from WAL tails (crash evidence; 0 after a clean
  /// shutdown).
  std::uint64_t torn_bytes = 0;
};

/// Aggregate store statistics across shards, so bench/bench_server can
/// print the store's contention picture. `contended` counts acquisitions
/// that found the shard mutex already held — the signal that the shard
/// count is too low for the offered concurrency.
struct CrpStoreStats {
  std::uint64_t acquisitions = 0;
  std::uint64_t contended = 0;
  /// CRPs consumed by take/take_batch.
  std::uint64_t takes = 0;
  /// Always 0: a keyed take goes to its challenge's shard, so no take
  /// is ever served past its start shard. Kept only because perfbench
  /// reports it as `puf.crp_db.take_steals`.
  std::uint64_t take_steals = 0;
};

class CrpDatabase {
 public:
  /// `shards` fixes the stripe count for the lifetime of the store
  /// (clamped to >= 1).
  explicit CrpDatabase(std::size_t shards = 1);

  /// Durable store: recovers existing state from `durability.directory`
  /// (snapshot + parallel per-shard WAL replay) and starts the
  /// group-commit writer. Throws wal::CrpStoreError when the on-disk
  /// state is damaged beyond the torn-tail case, or when `shards`
  /// differs from the shard count in the manifest — the store fails
  /// cleanly, writing nothing, rather than half-opening. With an empty
  /// directory this is exactly the in-memory constructor.
  CrpDatabase(std::size_t shards, CrpDurabilityOptions durability);

  /// Clean shutdown: drains and fsyncs every pending WAL record, so a
  /// destructed store recovers with torn_bytes == 0.
  ~CrpDatabase();

  CrpDatabase(const CrpDatabase&) = delete;
  CrpDatabase& operator=(const CrpDatabase&) = delete;

  /// Enrolls `count` CRPs by driving the PUF with challenges from `rng`
  /// and returns their challenges in draw order, the keys to take them by.
  /// Each response is majority-voted over `readings` evaluations. A
  /// challenge already in the store is drawn again, so every enrolled
  /// CRP is new; throws std::invalid_argument when `count` exceeds the
  /// free challenge space (all challenges of the PUF's width minus the
  /// CRPs already stored). The PUF itself is not thread-safe, so
  /// enrollment stays a serial operation (inserts synchronise with
  /// concurrent readers as usual).
  std::vector<Challenge> enroll(Puf& puf, std::size_t count,
                                crypto::ChaChaDrbg& rng, unsigned readings = 5);

  /// Inserts one externally produced CRP. A challenge that is already
  /// stored is skipped (no entry, no WAL record): a live challenge maps
  /// to exactly one CRP, or one-time use would break.
  void insert(Crp crp);

  /// Inserts a batch of externally produced CRPs with one lock
  /// acquisition and one WAL hand-off per touched shard — the fleet
  /// enrollment path, where per-CRP insert() would pay the lock and
  /// writer-wakeup cost a million times over. Already-stored challenges
  /// (including repeats within the batch) are skipped as in insert().
  void insert_batch(std::vector<Crp> crps);

  /// Consumes the CRP for a specific challenge (one-time use): a batch
  /// of one. Returns std::nullopt when the challenge is unknown or
  /// quarantined. This is the rotation primitive: a campaign retires a
  /// device's old CRP by key after its replacement is durably inserted,
  /// so a crash between the two steps leaves the device with at least
  /// one live CRP, never zero.
  std::optional<Crp> take(const Challenge& challenge);

  /// Consumes the CRPs for many challenges with one lock acquisition and
  /// one WAL hand-off per touched shard, then one durable wait for all
  /// the take records. Result i is the CRP taken for challenges[i], or
  /// std::nullopt when that challenge is unknown, quarantined, or
  /// repeats an earlier one in the batch; such a challenge logs no
  /// record. Nothing returns before every take record is on stable
  /// storage; a crash before that leaves a prefix of each shard's takes.
  std::vector<std::optional<Crp>> take_batch(
      std::span<const Challenge> challenges);

  /// Looks up the enrolled response for a challenge without consuming it.
  /// Quarantined CRPs are not served.
  std::optional<Response> lookup(const Challenge& challenge) const;

  /// Consecutive failures at which a CRP is quarantined (default 3).
  /// Configure before concurrent use; the threshold itself is not
  /// lock-protected.
  void set_quarantine_threshold(std::uint32_t threshold) noexcept {
    quarantine_threshold_ = threshold == 0 ? 1 : threshold;
  }

  /// Records an authentication outcome against a stored CRP. Unknown
  /// challenges are ignored (the CRP may have been consumed/evicted).
  /// A success resets the consecutive-failure run; a failure extends it
  /// and quarantines the CRP at the threshold.
  void record_success(const Challenge& challenge);
  void record_failure(const Challenge& challenge);

  /// Health counters for a stored challenge.
  std::optional<CrpHealth> health(const Challenge& challenge) const;

  /// Number of currently quarantined CRPs.
  std::size_t quarantined() const noexcept;

  /// Removes every quarantined CRP; returns how many were evicted.
  std::size_t evict_quarantined();

  std::size_t size() const noexcept {
    return size_.load(std::memory_order_relaxed);
  }
  bool empty() const noexcept { return size() == 0; }

  std::size_t shard_count() const noexcept { return shards_.size(); }

  /// Entries currently stored in shard `shard` (for balance diagnostics).
  std::size_t shard_size(std::size_t shard) const;

  /// Aggregate lock acquisition/contention and take counters across all
  /// shards.
  CrpStoreStats lock_stats() const;

  /// Verifier storage footprint in bytes (challenges + responses).
  std::size_t storage_bytes() const noexcept;

  /// Durability barrier: blocks until every record appended before the
  /// call is on stable storage. No-op for in-memory stores.
  void sync();

  /// Compacts the live state into a new snapshot generation and trims
  /// the WAL (runs on the writer thread; this call blocks until the
  /// manifest for the new generation is committed). No-op in memory.
  void snapshot();

  /// True when the store persists to disk.
  bool durable() const noexcept { return wal_ != nullptr; }

  /// What recovery found at construction (zeros for fresh/in-memory).
  CrpRecoveryStats recovery_stats() const noexcept;

 private:
  struct Entry {
    Crp crp;
    CrpHealth health;
  };

  /// One lock stripe: its own entries vector + challenge index, guarded
  /// by one mutex; removal swaps the last entry into the freed slot.
  /// Shard locks are LEAVES in the
  /// canonical lock order: nothing is ever acquired while one is held.
  struct Shard {
    mutable common::Mutex mutex;
    std::vector<Entry> entries NP_GUARDED_BY(mutex);
    // challenge bytes -> entries position, keyed on the raw buffer with a
    // SipHash transparent hasher (heterogeneous lookup: ByteView probes
    // need no Challenge copy).
    std::unordered_map<Challenge, std::size_t, detail::ChallengeHash,
                       detail::ChallengeEqual>
        index NP_GUARDED_BY(mutex);
    mutable std::atomic<std::uint64_t> acquisitions{0};
    mutable std::atomic<std::uint64_t> contended{0};
    mutable std::atomic<std::uint64_t> takes{0};
    /// WAL records encoded but not yet handed to the writer. Encoding
    /// under the shard mutex — in the same critical section as the
    /// mutation — is what pins per-shard WAL order to apply order; the
    /// writer swaps the buffer out under the same lock and does all
    /// file I/O with no lock held. Unused (empty) in memory-only mode.
    crypto::Bytes wal_pending NP_GUARDED_BY(mutex);
    /// Per-shard record sequence number; starts at 1, monotonic across
    /// snapshot generations. Recovery replays records above the
    /// snapshot's sequence and resumes from the highest seen.
    std::uint64_t wal_seq NP_GUARDED_BY(mutex) = 0;
  };

  /// Scoped shard lock that counts the acquisition and whether it
  /// contended (try-first via MutexLock's contention-reporting
  /// constructor). A scoped class — rather than a function returning a
  /// lock — because Clang's capability analysis tracks constructor
  /// acquisition but cannot follow a capability through a return value.
  class NP_SCOPED_CAPABILITY ShardLock {
   public:
    explicit ShardLock(const Shard& shard) NP_ACQUIRE(shard.mutex)
        : lock_(shard.mutex, contended_) {
      shard.acquisitions.fetch_add(1, std::memory_order_relaxed);
      if (contended_) {
        shard.contended.fetch_add(1, std::memory_order_relaxed);
      }
    }
    ShardLock(const ShardLock&) = delete;
    ShardLock& operator=(const ShardLock&) = delete;
    ~ShardLock() NP_RELEASE() {}

   private:
    bool contended_ = false;  // written by lock_'s constructor
    common::MutexLock lock_;
  };

  Shard& shard_for(crypto::ByteView challenge) noexcept;
  const Shard& shard_for(crypto::ByteView challenge) const noexcept;
  std::size_t shard_index_for(crypto::ByteView challenge) const noexcept;

  static void remove_at(Shard& shard, std::size_t pos)
      NP_REQUIRES(shard.mutex);
  static void compact(Shard& shard, std::size_t pos) NP_REQUIRES(shard.mutex);

  // --- durability machinery (crp_db.cpp; all no-ops when wal_ is null) ---

  /// Records one critical section logged into a shard's pending buffer:
  /// the highest sequence number and the bytes awaiting hand-off.
  struct Logged {
    std::uint64_t seq = 0;
    std::size_t bytes = 0;
  };

  /// Stores `crp` unless its challenge is already live; logs the insert
  /// record. Returns whether an entry was added.
  bool insert_locked(Shard& shard, Crp& crp, Logged& logged)
      NP_REQUIRES(shard.mutex);
  /// Consumes the entry at `pos` (a one-time use) and logs the take
  /// record.
  Crp take_locked(Shard& shard, std::size_t pos, Logged& logged)
      NP_REQUIRES(shard.mutex);
  /// The health-update body behind record_success/record_failure.
  void record_outcome(const Challenge& challenge, bool success);

  /// The one write step under the shard lock: numbers the next record,
  /// lets `encode(out, seq)` append it to the shard's pending buffer and
  /// adds its bytes to `logged`. Does nothing in memory.
  template <typename Encode>
  void wal_log(Shard& shard, Logged& logged, Encode&& encode)
      NP_REQUIRES(shard.mutex);

  /// Per-replay-task tallies, merged into CrpRecoveryStats.
  struct ReplayCounts;
  /// Writer-thread state + group-commit handshake; lives behind a
  /// pointer so the in-memory store pays nothing and the header stays
  /// free of file/thread types.
  struct WalState;

  /// The one hand-off after the shard lock is released: accounts the
  /// logged bytes and wakes the writer on a batch boundary. No-op when
  /// nothing was logged.
  void wal_after_append(const Logged& logged);
  /// The durable wait, taking no shard lock: blocks until the durable
  /// sequence of shard i reaches `target[i]` for every shard, then
  /// throws wal::CrpStoreError if the writer failed. No-op in memory.
  void wal_await(std::span<const std::uint64_t> target);
  void wal_writer_main();
  void wal_flush_pending(std::vector<crypto::Bytes>& scratch);
  void wal_rotate_and_snapshot();
  void wal_write_snapshot_files(std::uint64_t generation);
  void wal_cleanup_stale();
  /// Replays every shard; returns whether the store must roll forward
  /// to a fresh generation (interrupted snapshot or torn tail).
  bool wal_recover(const wal::Manifest& manifest);
  ReplayCounts wal_replay_shard(std::size_t shard_index,
                                std::uint64_t generation);
  void apply_recovered_insert(Shard& shard, crypto::ByteView challenge,
                              crypto::ByteView response,
                              const CrpHealth& health)
      NP_REQUIRES(shard.mutex);
  void apply_recovered_record(Shard& shard, const wal::RecordView& record)
      NP_REQUIRES(shard.mutex);

  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<WalState> wal_;
  std::atomic<std::size_t> size_{0};
  std::uint32_t quarantine_threshold_ = 3;
};

}  // namespace neuropuls::puf
