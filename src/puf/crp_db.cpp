#include "puf/crp_db.hpp"

#include <chrono>
#include <initializer_list>
#include <stdexcept>
#include <thread>

#include "common/arena.hpp"
#include "common/io.hpp"
#include "common/parallel.hpp"
#include "crypto/chacha20.hpp"
#include "puf/crp_wal.hpp"

namespace neuropuls::puf {

namespace io = common::io;

struct CrpDatabase::ReplayCounts {
  std::uint64_t snapshot_entries = 0;
  std::uint64_t wal_records = 0;
  std::uint64_t torn_bytes = 0;
  /// A next-generation log was found: a snapshot was interrupted.
  bool orphan = false;
};

/// Group-commit writer state. The handshake mutex is held only for
/// flag/sequence bookkeeping — never across file I/O or a shard lock —
/// and shard locks stay leaves: the writer releases the shard lock
/// (after swapping the pending buffer out) before it touches a file.
struct CrpDatabase::WalState {
  std::string dir;
  CrpRecoveryStats recovery;

  // Writer-thread-owned after the writer starts (the constructor fills
  // them in before, which the thread launch orders).
  std::uint64_t generation = 0;
  std::vector<io::File> files;

  common::Mutex mutex;
  /// Wakes the writer: pending work, a sync/snapshot request, or stop.
  common::CondVar writer_cv;
  /// Wakes sync()/take_batch/snapshot() waiters after a writer round.
  common::CondVar done_cv;
  /// Highest record sequence per shard known to be on stable storage.
  std::vector<std::uint64_t> durable_seq NP_GUARDED_BY(mutex);
  bool sync_requested NP_GUARDED_BY(mutex) = false;
  bool snapshot_requested NP_GUARDED_BY(mutex) = false;
  std::uint64_t snapshots_done NP_GUARDED_BY(mutex) = 0;
  bool stop NP_GUARDED_BY(mutex) = false;
  /// Writer-side failure (I/O error) propagated to durable waiters.
  std::string error NP_GUARDED_BY(mutex);
  /// Un-flushed record bytes across all shards — a wakeup/batching hint
  /// (the buffers themselves are under the shard locks).
  std::atomic<std::size_t> pending_bytes{0};
  std::thread writer;
};

namespace {

/// Pending bytes at which the writer flushes immediately instead of
/// waiting out the coalescing window.
constexpr std::size_t kBatchBytes = 256 * 1024;
/// How long the writer lets a non-full batch gather company before
/// flushing anyway (bounds the durability lag of inserts and health
/// updates; sync() is the explicit barrier).
constexpr std::chrono::microseconds kFlushInterval{200};

/// Reads a whole file into `arena` and returns a view of it. Recovery
/// stages every WAL/snapshot image this way: the decoded records are
/// zero-copy views into the arena, which outlives the replay loop and
/// frees everything at once.
crypto::ByteView read_into_arena(common::Arena& arena,
                                 const std::string& path) {
  const io::File file = io::File::open_read(path);
  const std::size_t size = static_cast<std::size_t>(file.size());
  auto* data = static_cast<std::uint8_t*>(arena.allocate(size, 1));
  file.read_exact(0, {data, size});
  return {data, size};
}

/// Items grouped by shard: shard s's items are
/// order[offsets[s], offsets[s + 1]), in input order.
struct ShardGroups {
  std::vector<std::size_t> order;
  std::vector<std::size_t> offsets;
};

/// Counting sort (no per-shard vectors): one pass counts shard
/// occupancy, a prefix sum turns the counts into scatter offsets, and a
/// stable scatter fills the grouped order that drives one locked pass
/// per touched shard.
template <typename ShardOf>
ShardGroups group_by_shard(std::size_t items, std::size_t shards,
                           ShardOf shard_of) {
  std::vector<std::size_t> shard(items);
  ShardGroups groups{std::vector<std::size_t>(items),
                     std::vector<std::size_t>(shards + 1, 0)};
  for (std::size_t i = 0; i < items; ++i) {
    shard[i] = shard_of(i);
    ++groups.offsets[shard[i] + 1];
  }
  for (std::size_t s = 0; s < shards; ++s) {
    groups.offsets[s + 1] += groups.offsets[s];
  }
  std::vector<std::size_t> cursor(groups.offsets.begin(),
                                  groups.offsets.end() - 1);
  for (std::size_t i = 0; i < items; ++i) {
    groups.order[cursor[shard[i]]++] = i;
  }
  return groups;
}

}  // namespace

CrpDatabase::CrpDatabase(std::size_t shards) {
  const std::size_t count = shards == 0 ? 1 : shards;
  shards_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

CrpDatabase::CrpDatabase(std::size_t shards, CrpDurabilityOptions durability)
    : CrpDatabase(shards) {
  if (durability.directory.empty()) return;  // in-memory store, unchanged
  wal_ = std::make_unique<WalState>();
  WalState& w = *wal_;
  w.dir = std::move(durability.directory);
  io::create_directories(w.dir);

  const std::string manifest = wal::manifest_path(w.dir);
  bool roll_forward = false;
  if (!io::file_exists(manifest)) {
    // A manifest-less directory with store files in it is a damaged
    // store, not a fresh one — refuse rather than guess a layout.
    if (!io::list_files(w.dir).empty()) {
      throw wal::CrpStoreError("crp store: no manifest in non-empty " +
                               w.dir);
    }
    io::atomic_write_file(
        manifest,
        wal::encode_manifest(
            wal::Manifest{0, static_cast<std::uint32_t>(shards_.size())}));
  } else {
    const wal::Manifest m = wal::decode_manifest(io::read_file(manifest));
    w.generation = m.generation;
    roll_forward = wal_recover(m);
  }
  if (roll_forward) {
    // Interrupted snapshot or torn tail: compact everything we just
    // replayed into a fresh generation before going live, so no live
    // log is ever appended to after damage. Skip *two* generations —
    // an interrupted snapshot leaves orphan, possibly torn, gen+1 logs
    // whose records the fresh snapshot already holds; none of them may
    // become a live log.
    const std::uint64_t fresh = w.generation + 2;
    wal_write_snapshot_files(fresh);
    io::atomic_write_file(
        manifest,
        wal::encode_manifest(wal::Manifest{
            fresh, static_cast<std::uint32_t>(shards_.size())}));
    w.generation = fresh;
  }
  w.recovery.generation = w.generation;
  wal_cleanup_stale();

  w.files.reserve(shards_.size());
  std::vector<std::uint64_t> replayed_seq(shards_.size(), 0);
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    w.files.push_back(
        io::File::open_append(wal::wal_path(w.dir, i, w.generation)));
    const ShardLock lock(*shards_[i]);
    replayed_seq[i] = shards_[i]->wal_seq;
  }
  // The open may have just created the live logs: make their directory
  // entries durable before a take fsyncs a record into one of them.
  io::sync_directory(w.dir);
  {
    // Everything replayed is on stable storage already; starting the
    // durable watermark below wal_seq would deadlock the first sync().
    common::MutexLock lock(w.mutex);
    w.durable_seq = std::move(replayed_seq);
  }
  w.writer = std::thread([this] { wal_writer_main(); });
}

CrpDatabase::~CrpDatabase() {
  if (!wal_) return;
  {
    common::MutexLock lock(wal_->mutex);
    wal_->stop = true;
    wal_->writer_cv.notify_one();
  }
  if (wal_->writer.joinable()) wal_->writer.join();
}

CrpDatabase::Shard& CrpDatabase::shard_for(
    crypto::ByteView challenge) noexcept {
  return *shards_[detail::ChallengeHash{}(challenge) % shards_.size()];
}

const CrpDatabase::Shard& CrpDatabase::shard_for(
    crypto::ByteView challenge) const noexcept {
  return *shards_[detail::ChallengeHash{}(challenge) % shards_.size()];
}

std::size_t CrpDatabase::shard_index_for(
    crypto::ByteView challenge) const noexcept {
  return detail::ChallengeHash{}(challenge) % shards_.size();
}

std::vector<Challenge> CrpDatabase::enroll(Puf& puf, std::size_t count,
                                          crypto::ChaChaDrbg& rng,
                                          unsigned readings) {
  const std::size_t width = puf.challenge_bytes();
  if (width < 8) {
    // Narrow challenges: redrawing duplicates would never finish once the
    // request outgrows what is left of the space.
    const std::uint64_t space = std::uint64_t{1} << (8 * width);
    if (count > space - std::min<std::uint64_t>(space, size())) {
      throw std::invalid_argument(
          "CrpDatabase::enroll: count exceeds the free challenge space");
    }
  }
  std::vector<Challenge> challenges;
  challenges.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Crp crp;
    do {
      crp.challenge = rng.generate(width);
    } while (health(crp.challenge).has_value());
    crp.response = enroll_majority(puf, crp.challenge, readings | 1);
    challenges.push_back(crp.challenge);
    insert(std::move(crp));
  }
  return challenges;
}

template <typename Encode>
void CrpDatabase::wal_log(Shard& shard, Logged& logged, Encode&& encode) {
  if (!wal_) return;
  logged.seq = ++shard.wal_seq;
  const std::size_t before = shard.wal_pending.size();
  encode(shard.wal_pending, logged.seq);
  logged.bytes += shard.wal_pending.size() - before;
}

bool CrpDatabase::insert_locked(Shard& shard, Crp& crp, Logged& logged) {
  if (!shard.index.try_emplace(crp.challenge, shard.entries.size()).second) {
    return false;
  }
  wal_log(shard, logged, [&crp](crypto::Bytes& out, std::uint64_t seq) {
    wal::append_insert_record(out, seq, crp.challenge, crp.response);
  });
  shard.entries.push_back(Entry{std::move(crp), CrpHealth{}});
  return true;
}

void CrpDatabase::insert(Crp crp) {
  Shard& shard = shard_for(crp.challenge);
  Logged logged;
  {
    const ShardLock lock(shard);
    if (insert_locked(shard, crp, logged)) {
      size_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  wal_after_append(logged);
}

void CrpDatabase::insert_batch(std::vector<Crp> crps) {
  if (crps.empty()) return;
  const ShardGroups groups =
      group_by_shard(crps.size(), shards_.size(), [&](std::size_t i) {
        return shard_index_for(crps[i].challenge);
      });
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const std::size_t first = groups.offsets[s];
    const std::size_t last = groups.offsets[s + 1];
    if (first == last) continue;
    Shard& shard = *shards_[s];
    // One hand-off covers the whole shard group; the highest sequence
    // stands in for every record below it.
    Logged logged;
    {
      const ShardLock lock(shard);
      shard.entries.reserve(shard.entries.size() + (last - first));
      std::size_t added = 0;
      for (std::size_t g = first; g < last; ++g) {
        if (insert_locked(shard, crps[groups.order[g]], logged)) ++added;
      }
      size_.fetch_add(added, std::memory_order_relaxed);
    }
    wal_after_append(logged);
  }
}

void CrpDatabase::remove_at(Shard& shard, std::size_t pos) {
  shard.index.erase(shard.entries[pos].crp.challenge);
  compact(shard, pos);
}

// Swap-with-back removal of a slot whose index entry is already erased.
void CrpDatabase::compact(Shard& shard, std::size_t pos) {
  if (pos != shard.entries.size() - 1) {
    shard.entries[pos] = std::move(shard.entries.back());
    shard.index[shard.entries[pos].crp.challenge] = pos;
  }
  shard.entries.pop_back();
}

Crp CrpDatabase::take_locked(Shard& shard, std::size_t pos, Logged& logged) {
  // Erase the index entry before moving the CRP out: the challenge is the
  // map key, so erasing after the move would probe with a moved-from
  // (empty) buffer and strand a stale index entry.
  shard.index.erase(shard.entries[pos].crp.challenge);
  Crp crp = std::move(shard.entries[pos].crp);
  compact(shard, pos);
  size_.fetch_sub(1, std::memory_order_relaxed);
  shard.takes.fetch_add(1, std::memory_order_relaxed);
  wal_log(shard, logged, [&crp](crypto::Bytes& out, std::uint64_t seq) {
    wal::append_take_record(out, seq, crp.challenge);
  });
  return crp;
}

std::optional<Crp> CrpDatabase::take(const Challenge& challenge) {
  return std::move(take_batch({&challenge, 1}).front());
}

std::vector<std::optional<Crp>> CrpDatabase::take_batch(
    std::span<const Challenge> challenges) {
  std::vector<std::optional<Crp>> taken(challenges.size());
  const ShardGroups groups =
      group_by_shard(challenges.size(), shards_.size(), [&](std::size_t i) {
        return shard_index_for(crypto::ByteView{challenges[i]});
      });
  // Per shard, the highest take sequence logged: the one durable wait
  // below covers every record at or under it.
  std::vector<std::uint64_t> target(shards_.size(), 0);
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const std::size_t first = groups.offsets[s];
    const std::size_t last = groups.offsets[s + 1];
    if (first == last) continue;
    Shard& shard = *shards_[s];
    Logged logged;
    {
      const ShardLock lock(shard);
      for (std::size_t g = first; g < last; ++g) {
        const std::size_t i = groups.order[g];
        // Unknown, quarantined, or taken earlier in this batch: no record.
        const auto it = shard.index.find(crypto::ByteView{challenges[i]});
        if (it == shard.index.end()) continue;
        if (shard.entries[it->second].health.quarantined) continue;
        taken[i] = take_locked(shard, it->second, logged);
      }
    }
    wal_after_append(logged);
    target[s] = logged.seq;
  }
  // The one-time-use invariant: hand out no CRP until every take record
  // of the batch is on stable storage.
  wal_await(target);
  return taken;
}

std::optional<Response> CrpDatabase::lookup(const Challenge& challenge) const {
  const Shard& shard = shard_for(crypto::ByteView{challenge});
  const ShardLock lock(shard);
  const auto it = shard.index.find(crypto::ByteView{challenge});
  if (it == shard.index.end()) return std::nullopt;
  const Entry& entry = shard.entries[it->second];
  if (entry.health.quarantined) return std::nullopt;
  return entry.crp.response;
}

void CrpDatabase::record_success(const Challenge& challenge) {
  record_outcome(challenge, true);
}

void CrpDatabase::record_failure(const Challenge& challenge) {
  record_outcome(challenge, false);
}

void CrpDatabase::record_outcome(const Challenge& challenge, bool success) {
  Shard& shard = shard_for(crypto::ByteView{challenge});
  Logged logged;
  {
    const ShardLock lock(shard);
    const auto it = shard.index.find(crypto::ByteView{challenge});
    if (it == shard.index.end()) return;
    CrpHealth& health = shard.entries[it->second].health;
    if (success) {
      ++health.successes;
      health.consecutive_failures = 0;
    } else {
      ++health.failures;
      ++health.consecutive_failures;
      if (health.consecutive_failures >= quarantine_threshold_) {
        health.quarantined = true;
      }
    }
    // The record carries the *resulting* counters, so replay is exact
    // whatever quarantine threshold a later run configures.
    wal_log(shard, logged, [&](crypto::Bytes& out, std::uint64_t seq) {
      wal::append_health_record(out, seq, challenge, health);
    });
  }
  wal_after_append(logged);
}

std::optional<CrpHealth> CrpDatabase::health(const Challenge& challenge) const {
  const Shard& shard = shard_for(crypto::ByteView{challenge});
  const ShardLock lock(shard);
  const auto it = shard.index.find(crypto::ByteView{challenge});
  if (it == shard.index.end()) return std::nullopt;
  return shard.entries[it->second].health;
}

std::size_t CrpDatabase::quarantined() const noexcept {
  std::size_t count = 0;
  for (const auto& shard : shards_) {
    const ShardLock lock(*shard);
    for (const Entry& entry : shard->entries) {
      if (entry.health.quarantined) ++count;
    }
  }
  return count;
}

std::size_t CrpDatabase::evict_quarantined() {
  std::size_t evicted = 0;
  for (std::size_t index = 0; index < shards_.size(); ++index) {
    Shard& shard = *shards_[index];
    Logged logged;
    {
      const ShardLock lock(shard);
      for (std::size_t i = shard.entries.size(); i-- > 0;) {
        if (!shard.entries[i].health.quarantined) continue;
        wal_log(shard, logged, [&](crypto::Bytes& out, std::uint64_t seq) {
          wal::append_evict_record(out, seq, shard.entries[i].crp.challenge);
        });
        remove_at(shard, i);
        ++evicted;
      }
    }
    wal_after_append(logged);
  }
  size_.fetch_sub(evicted, std::memory_order_relaxed);
  return evicted;
}

std::size_t CrpDatabase::shard_size(std::size_t shard) const {
  const Shard& stripe = *shards_[shard % shards_.size()];
  const ShardLock lock(stripe);
  return stripe.entries.size();
}

CrpStoreStats CrpDatabase::lock_stats() const {
  CrpStoreStats stats;
  for (const auto& shard : shards_) {
    stats.acquisitions += shard->acquisitions.load(std::memory_order_relaxed);
    stats.contended += shard->contended.load(std::memory_order_relaxed);
    stats.takes += shard->takes.load(std::memory_order_relaxed);
  }
  return stats;
}

std::size_t CrpDatabase::storage_bytes() const noexcept {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    const ShardLock lock(*shard);
    for (const Entry& entry : shard->entries) {
      total += entry.crp.challenge.size() + entry.crp.response.size();
    }
  }
  return total;
}

// ---------------------------------------------------------------------------
// Durability: append-side handshake.

void CrpDatabase::wal_after_append(const Logged& logged) {
  if (logged.bytes == 0) return;
  WalState& w = *wal_;
  const std::size_t bytes = logged.bytes;
  const std::size_t before =
      w.pending_bytes.fetch_add(bytes, std::memory_order_relaxed);
  const bool first_pending = before == 0;
  const bool batch_full =
      before < kBatchBytes && before + bytes >= kBatchBytes;
  if (first_pending || batch_full) {
    // Taking the handshake mutex for the notify closes the window where
    // the writer has checked its predicate but not yet gone to sleep.
    common::MutexLock lock(w.mutex);
    w.writer_cv.notify_one();
  }
}

void CrpDatabase::wal_await(std::span<const std::uint64_t> target) {
  if (!wal_) return;
  WalState& w = *wal_;
  common::MutexLock lock(w.mutex);
  for (;;) {
    bool reached = true;
    for (std::size_t i = 0; i < target.size() && reached; ++i) {
      reached = w.durable_seq[i] >= target[i];
    }
    if (reached || w.stop) break;
    // Re-arm each round: the writer consumes the flag per flush and more
    // of the awaited bytes may still be pending.
    w.sync_requested = true;
    w.writer_cv.notify_one();
    w.done_cv.wait(w.mutex);
  }
  if (!w.error.empty()) throw wal::CrpStoreError(w.error);
}

void CrpDatabase::sync() {
  if (!wal_) return;
  std::vector<std::uint64_t> target(shards_.size(), 0);
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const ShardLock lock(*shards_[i]);
    target[i] = shards_[i]->wal_seq;
  }
  wal_await(target);
}

void CrpDatabase::snapshot() {
  if (!wal_) return;
  WalState& w = *wal_;
  common::MutexLock lock(w.mutex);
  const std::uint64_t before = w.snapshots_done;
  w.snapshot_requested = true;
  w.writer_cv.notify_one();
  while (w.snapshots_done == before && !w.stop) {
    w.done_cv.wait(w.mutex);
  }
  if (!w.error.empty()) throw wal::CrpStoreError(w.error);
}

CrpRecoveryStats CrpDatabase::recovery_stats() const noexcept {
  return wal_ ? wal_->recovery : CrpRecoveryStats{};
}

// ---------------------------------------------------------------------------
// Durability: the group-commit writer.

void CrpDatabase::wal_writer_main() {
  WalState& w = *wal_;
  std::vector<crypto::Bytes> scratch(shards_.size());
  for (;;) {
    bool stopping = false;
    bool want_snapshot = false;
    {
      common::MutexLock lock(w.mutex);
      while (!w.stop && !w.sync_requested && !w.snapshot_requested &&
             w.pending_bytes.load(std::memory_order_relaxed) == 0) {
        w.writer_cv.wait(w.mutex);
      }
      if (!w.stop && !w.sync_requested && !w.snapshot_requested &&
          w.pending_bytes.load(std::memory_order_relaxed) < kBatchBytes) {
        // Coalescing window: give concurrent appenders a chance to fill
        // the batch before paying for the fsync. This wait — not the
        // fsync — is the whole of group commit's latency cost.
        w.writer_cv.wait_for(w.mutex, kFlushInterval);
      }
      stopping = w.stop;
      want_snapshot = w.snapshot_requested;
      w.snapshot_requested = false;
      w.sync_requested = false;
    }
    bool did_snapshot = false;
    try {
      wal_flush_pending(scratch);
      if (want_snapshot) {
        wal_rotate_and_snapshot();
        did_snapshot = true;
      }
    } catch (const std::exception& e) {
      common::MutexLock lock(w.mutex);
      w.error = e.what();
      w.stop = true;
      w.done_cv.notify_all();
      return;
    }
    {
      common::MutexLock lock(w.mutex);
      if (did_snapshot) ++w.snapshots_done;
      w.done_cv.notify_all();
      if (stopping &&
          w.pending_bytes.load(std::memory_order_relaxed) == 0) {
        return;  // drained: clean shutdown leaves no torn tail
      }
    }
  }
}

void CrpDatabase::wal_flush_pending(std::vector<crypto::Bytes>& scratch) {
  WalState& w = *wal_;
  std::vector<std::uint64_t> high(shards_.size(), 0);
  std::size_t drained = 0;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    Shard& shard = *shards_[i];
    crypto::Bytes& batch = scratch[i];
    batch.clear();
    {
      // Swap the pending buffer out under the shard lock (the buffers
      // trade capacities, so steady state never reallocates here), then
      // do every file operation with no lock held.
      const ShardLock lock(shard);
      if (!shard.wal_pending.empty()) {
        batch.swap(shard.wal_pending);
        high[i] = shard.wal_seq;
      }
    }
    if (batch.empty()) continue;
    drained += batch.size();
    w.files[i].write_all(batch);
  }
  if (drained == 0) return;
  w.pending_bytes.fetch_sub(drained, std::memory_order_relaxed);
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (!scratch[i].empty()) w.files[i].sync();
  }
  common::MutexLock lock(w.mutex);
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (high[i] > w.durable_seq[i]) w.durable_seq[i] = high[i];
  }
}

void CrpDatabase::wal_rotate_and_snapshot() {
  WalState& w = *wal_;
  const std::uint64_t next = w.generation + 1;
  // (1) Rotate: fresh logs for the next generation. Appenders only ever
  // touch the in-memory pending buffers, so swapping the files here is
  // writer-local; records still pending flush into the new logs with
  // sequences the snapshot below already covers (replay skips them).
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    w.files[i] = io::File::open_append(wal::wal_path(w.dir, i, next));
  }
  io::sync_directory(w.dir);
  // (2) Capture each shard *after* the rotation point and publish the
  // snapshot files atomically.
  wal_write_snapshot_files(next);
  // (3) Commit: the manifest rename is the atomic switch — a crash
  // before it recovers from the old generation (plus the orphan new-gen
  // logs), a crash after it recovers from the new one.
  io::atomic_write_file(
      wal::manifest_path(w.dir),
      wal::encode_manifest(
          wal::Manifest{next, static_cast<std::uint32_t>(shards_.size())}));
  w.generation = next;
  // (4) Everything from older generations is now redundant.
  wal_cleanup_stale();
}

void CrpDatabase::wal_write_snapshot_files(std::uint64_t generation) {
  WalState& w = *wal_;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    Shard& shard = *shards_[i];
    crypto::Bytes image;
    {
      // Entries are serialised in storage order, so a recovered shard
      // has the same layout. Encoding under the lock is memory-only
      // work; the file write below happens outside it.
      const ShardLock lock(shard);
      wal::SnapshotBuilder builder(
          static_cast<std::uint32_t>(i),
          static_cast<std::uint32_t>(shards_.size()), shard.wal_seq);
      for (const Entry& entry : shard.entries) {
        builder.add(entry.crp.challenge, entry.crp.response, entry.health);
      }
      image = builder.finish();
    }
    io::atomic_write_file(wal::snapshot_path(w.dir, i, generation), image);
  }
}

void CrpDatabase::wal_cleanup_stale() {
  WalState& w = *wal_;
  std::vector<std::string> keep;
  keep.push_back(wal::manifest_path(w.dir));
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    keep.push_back(wal::wal_path(w.dir, i, w.generation));
    keep.push_back(wal::snapshot_path(w.dir, i, w.generation));
  }
  for (const std::string& name : io::list_files(w.dir)) {
    const std::string path = w.dir + "/" + name;
    if (std::find(keep.begin(), keep.end(), path) == keep.end()) {
      io::remove_file(path);
    }
  }
}

// ---------------------------------------------------------------------------
// Durability: cold-start recovery.

void CrpDatabase::apply_recovered_insert(Shard& shard,
                                         crypto::ByteView challenge,
                                         crypto::ByteView response,
                                         const CrpHealth& health) {
  if (shard.index.find(challenge) != shard.index.end()) {
    throw wal::CrpStoreError("recovery: duplicate challenge in store");
  }
  Crp crp;
  crp.challenge.assign(challenge.begin(), challenge.end());
  crp.response.assign(response.begin(), response.end());
  shard.index[crp.challenge] = shard.entries.size();
  shard.entries.push_back(Entry{std::move(crp), health});
  size_.fetch_add(1, std::memory_order_relaxed);
}

void CrpDatabase::apply_recovered_record(Shard& shard,
                                         const wal::RecordView& record) {
  switch (record.type) {
    case wal::RecordType::kInsert:
      apply_recovered_insert(shard, record.challenge, record.response,
                             CrpHealth{});
      break;
    case wal::RecordType::kTake:
    case wal::RecordType::kEvict: {
      const auto it = shard.index.find(record.challenge);
      if (it == shard.index.end()) {
        throw wal::CrpStoreError(
            "recovery: take/evict record for unknown challenge");
      }
      // remove_at reproduces the live path's swap-with-back compaction,
      // so the recovered entry order matches a never-restarted store.
      remove_at(shard, it->second);
      size_.fetch_sub(1, std::memory_order_relaxed);
      break;
    }
    case wal::RecordType::kHealth: {
      const auto it = shard.index.find(record.challenge);
      if (it == shard.index.end()) {
        throw wal::CrpStoreError(
            "recovery: health record for unknown challenge");
      }
      shard.entries[it->second].health = record.health;
      break;
    }
  }
}

CrpDatabase::ReplayCounts CrpDatabase::wal_replay_shard(
    std::size_t shard_index, std::uint64_t generation) {
  WalState& w = *wal_;
  ReplayCounts counts;
  common::Arena arena;

  // Stage + decode everything first (no locks held during file reads),
  // then apply. The decoded views alias the arena images.
  std::uint64_t base_seq = 0;
  std::vector<wal::SnapshotEntryView> entries;
  const std::string snap = wal::snapshot_path(w.dir, shard_index, generation);
  if (io::file_exists(snap)) {
    const wal::SnapshotView view =
        wal::decode_snapshot(read_into_arena(arena, snap));
    if (view.shard_index != shard_index ||
        view.shard_count != shards_.size()) {
      throw wal::CrpStoreError("snapshot: header does not match manifest");
    }
    base_seq = view.wal_seq;
    entries = view.entries;
  }

  std::vector<wal::RecordView> records;
  std::uint64_t last_seq = base_seq;
  for (const std::uint64_t gen : {generation, generation + 1}) {
    const std::string path = wal::wal_path(w.dir, shard_index, gen);
    if (!io::file_exists(path)) continue;
    if (gen != generation) counts.orphan = true;  // interrupted snapshot
    wal::WalDecodeResult decoded = wal::decode_wal(read_into_arena(arena, path));
    counts.torn_bytes += decoded.torn_bytes;
    for (const wal::RecordView& record : decoded.records) {
      if (record.seq <= base_seq) continue;  // snapshot already covers it
      if (record.seq <= last_seq) {
        throw wal::CrpStoreError("wal: sequence overlap across generations");
      }
      last_seq = record.seq;
      records.push_back(record);
    }
  }
  counts.snapshot_entries = entries.size();
  counts.wal_records = records.size();

  // This task owns its shard outright; one lock acquisition replays it.
  Shard& shard = *shards_[shard_index];
  const ShardLock lock(shard);
  for (const wal::SnapshotEntryView& entry : entries) {
    apply_recovered_insert(shard, entry.challenge, entry.response,
                           entry.health);
  }
  for (const wal::RecordView& record : records) {
    apply_recovered_record(shard, record);
  }
  shard.wal_seq = last_seq;
  return counts;
}

bool CrpDatabase::wal_recover(const wal::Manifest& manifest) {
  WalState& w = *wal_;
  if (manifest.shard_count != shards_.size()) {
    throw wal::CrpStoreError(
        "crp store: opened with " + std::to_string(shards_.size()) +
        " shards, manifest records " + std::to_string(manifest.shard_count));
  }
  // Fan the per-shard replays across the pool: shard files are
  // independent and each task only ever locks its own shard.
  std::vector<ReplayCounts> per_shard(shards_.size());
  common::parallel_for(shards_.size(), [&](std::size_t i) {
    per_shard[i] = wal_replay_shard(i, manifest.generation);
  });
  ReplayCounts total;
  for (const ReplayCounts& counts : per_shard) {
    total.snapshot_entries += counts.snapshot_entries;
    total.wal_records += counts.wal_records;
    total.torn_bytes += counts.torn_bytes;
    total.orphan = total.orphan || counts.orphan;
  }
  w.recovery.snapshot_entries = total.snapshot_entries;
  w.recovery.wal_records = total.wal_records;
  w.recovery.torn_bytes = total.torn_bytes;
  // A torn tail means the live WAL file ends in a partial record. The
  // append fd would write the next record after that garbage, wedging
  // the *next* recovery on a mid-file corruption — so compact to a
  // fresh generation instead of appending to a damaged log.
  return total.orphan || total.torn_bytes != 0;
}

}  // namespace neuropuls::puf
