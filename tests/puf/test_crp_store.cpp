// Durable CrpDatabase (ctest labels: io, concurrency, chaos): group-commit
// WAL round trips, snapshot compaction, refusing a reopen at a different
// shard count or an old manifest layout, post-recovery contents equal to
// a never-restarted store's, lock_stats across restarts, fsync-per-op as
// insert + sync(), one CRP per live challenge, and take_batch's records
// on disk before it returns. The
// crash-point sweeps (truncation / corruption at every byte) live in
// tests/chaos/test_crp_crash.cpp; this file covers the clean-shutdown
// and happy-path recovery contracts.
#include <gtest/gtest.h>

#include <array>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/io.hpp"
#include "crypto/siphash.hpp"
#include "puf/arbiter_puf.hpp"
#include "puf/crp_db.hpp"
#include "puf/crp_wal.hpp"

namespace neuropuls::puf {
namespace {

namespace io = common::io;

Crp make_crp(std::uint32_t i) {
  Crp crp;
  crp.challenge = {static_cast<std::uint8_t>(i),
                   static_cast<std::uint8_t>(i >> 8),
                   static_cast<std::uint8_t>(i >> 16),
                   static_cast<std::uint8_t>(i >> 24),
                   0x5A, 0xC3, 0x0F, 0x99};
  crp.response = {static_cast<std::uint8_t>(i * 7 + 1),
                  static_cast<std::uint8_t>(i * 13 + 5)};
  return crp;
}

CrpDurabilityOptions durable_in(const std::string& dir) {
  CrpDurabilityOptions options;
  options.directory = dir;
  return options;
}

/// The challenges of make_crp(i) for i in [first, last).
std::vector<Challenge> challenges_in(std::uint32_t first, std::uint32_t last) {
  std::vector<Challenge> challenges;
  for (std::uint32_t i = first; i < last; ++i) {
    challenges.push_back(make_crp(i).challenge);
  }
  return challenges;
}

/// Takes every challenge the test inserted from both stores, one keyed
/// batch each, and requires the same outcome per challenge: the same
/// CRPs served, the same ones refused (consumed, evicted or
/// quarantined), and the same number left behind.
void expect_same_takes(CrpDatabase& recovered, CrpDatabase& reference,
                       const std::vector<Challenge>& inserted) {
  const std::vector<std::optional<Crp>> a = recovered.take_batch(inserted);
  const std::vector<std::optional<Crp>> b = reference.take_batch(inserted);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].has_value(), b[i].has_value()) << "challenge " << i;
    if (a[i].has_value()) {
      EXPECT_EQ(a[i]->response, b[i]->response);
    }
  }
  EXPECT_EQ(recovered.size(), reference.size());
}

TEST(CrpStore, EmptyDirectoryOptionsStayInMemory) {
  CrpDatabase db(4, CrpDurabilityOptions{});
  EXPECT_FALSE(db.durable());
  db.insert(make_crp(1));
  EXPECT_EQ(db.size(), 1u);
  db.sync();      // no-ops, must not throw
  db.snapshot();
  EXPECT_EQ(db.recovery_stats().wal_records, 0u);
}

TEST(CrpStore, WalReplayRoundTripsStateAndHealth) {
  const io::TempDir dir("np-crp-store");
  constexpr std::uint32_t kCount = 32;
  std::set<Challenge> taken;
  std::vector<Challenge> survivors;
  {
    CrpDatabase db(4, durable_in(dir.path()));
    ASSERT_TRUE(db.durable());
    for (std::uint32_t i = 0; i < kCount; ++i) db.insert(make_crp(i));
    for (const auto& crp : db.take_batch(challenges_in(0, 5))) {
      ASSERT_TRUE(crp.has_value());
      taken.insert(crp->challenge);
    }
    // Health targets must still be in the store (updates on consumed
    // challenges are no-ops), so pick them from the survivors.
    for (std::uint32_t i = 0; i < kCount && survivors.size() < 2; ++i) {
      const Challenge challenge = make_crp(i).challenge;
      if (db.lookup(challenge).has_value()) survivors.push_back(challenge);
    }
    ASSERT_EQ(survivors.size(), 2u);
    db.record_success(survivors[0]);
    db.record_success(survivors[0]);
    db.record_failure(survivors[1]);
  }  // clean shutdown drains + fsyncs the WAL

  CrpDatabase db(4, durable_in(dir.path()));
  EXPECT_EQ(db.size(), kCount - 5);
  const CrpRecoveryStats stats = db.recovery_stats();
  EXPECT_EQ(stats.torn_bytes, 0u) << "clean shutdown must leave no torn tail";
  EXPECT_EQ(stats.wal_records, kCount + 5 + 3);
  for (const Challenge& challenge : taken) {
    EXPECT_FALSE(db.lookup(challenge).has_value())
        << "consumed CRP resurrected by replay";
  }
  const auto healthy = db.health(survivors[0]);
  ASSERT_TRUE(healthy.has_value());
  EXPECT_EQ(healthy->successes, 2u);
  const auto failing = db.health(survivors[1]);
  ASSERT_TRUE(failing.has_value());
  EXPECT_EQ(failing->failures, 1u);
  EXPECT_EQ(failing->consecutive_failures, 1u);
}

TEST(CrpStore, QuarantineStateSurvivesRestartIndependentOfThreshold) {
  const io::TempDir dir("np-crp-store");
  {
    CrpDatabase db(1, durable_in(dir.path()));
    db.set_quarantine_threshold(2);
    for (std::uint32_t i = 0; i < 4; ++i) db.insert(make_crp(i));
    db.record_failure(make_crp(2).challenge);
    db.record_failure(make_crp(2).challenge);  // quarantined at 2
    EXPECT_EQ(db.quarantined(), 1u);
  }
  // Health records carry resulting counters, so replay under the default
  // (higher) threshold must still reproduce the quarantine flag.
  CrpDatabase db(1, durable_in(dir.path()));
  EXPECT_EQ(db.quarantined(), 1u);
  EXPECT_FALSE(db.lookup(make_crp(2).challenge).has_value());
}

TEST(CrpStore, SnapshotCompactsWalAndPreservesState) {
  const io::TempDir dir("np-crp-store");
  constexpr std::uint32_t kCount = 24;
  {
    CrpDatabase db(2, durable_in(dir.path()));
    for (std::uint32_t i = 0; i < kCount; ++i) db.insert(make_crp(i));
    ASSERT_TRUE(db.take(make_crp(0).challenge).has_value());
    db.snapshot();
    // Post-snapshot mutations land in the new generation's WAL.
    db.insert(make_crp(100));
  }
  CrpDatabase db(2, durable_in(dir.path()));
  EXPECT_EQ(db.size(), kCount);  // 24 - 1 take + 1 late insert
  const CrpRecoveryStats stats = db.recovery_stats();
  EXPECT_GE(stats.generation, 1u);
  EXPECT_EQ(stats.snapshot_entries, kCount - 1);
  EXPECT_EQ(stats.wal_records, 1u) << "snapshot should have trimmed the WAL";
}

TEST(CrpStore, RecoveryRejectsDifferentShardCount) {
  const io::TempDir dir("np-crp-store");
  constexpr std::uint32_t kCount = 48;
  {
    CrpDatabase db(4, durable_in(dir.path()));
    for (std::uint32_t i = 0; i < kCount; ++i) db.insert(make_crp(i));
    ASSERT_TRUE(db.take(make_crp(0).challenge).has_value());
  }
  const std::vector<std::string> files_before = io::list_files(dir.path());
  const crypto::Bytes manifest_before =
      io::read_file(wal::manifest_path(dir.path()));
  try {
    CrpDatabase db(2, durable_in(dir.path()));
    ADD_FAILURE() << "a 2-shard open of a 4-shard store must throw";
  } catch (const wal::CrpStoreError& e) {
    // The error names both counts.
    const std::string what = e.what();
    EXPECT_NE(what.find("2 shards"), std::string::npos) << what;
    EXPECT_NE(what.find("records 4"), std::string::npos) << what;
  }
  // The refused open wrote nothing: same files, same manifest.
  EXPECT_EQ(io::list_files(dir.path()), files_before);
  EXPECT_EQ(io::read_file(wal::manifest_path(dir.path())), manifest_before);

  CrpDatabase db(4, durable_in(dir.path()));
  EXPECT_EQ(db.size(), kCount - 1);
  std::size_t found = 0;
  for (std::uint32_t i = 0; i < kCount; ++i) {
    if (db.lookup(make_crp(i).challenge).has_value()) ++found;
  }
  EXPECT_EQ(found, kCount - 1);
}

// With one shard, a store that went through quarantine-driven
// compaction, eviction, restart, and replay must hold exactly the CRPs
// of a never-restarted store fed the same operations.
TEST(CrpStore, SingleShardPostRecoveryTakeOrderMatchesNeverRestarted) {
  const io::TempDir dir("np-crp-store");
  CrpDatabase reference(1);  // in-memory twin, never restarted
  {
    CrpDatabase db(1, durable_in(dir.path()));
    for (CrpDatabase* store : {&db, &reference}) {
      store->set_quarantine_threshold(2);
      for (std::uint32_t i = 0; i < 10; ++i) store->insert(make_crp(i));
      // Quarantine two entries mid-vector, evict them (swap-with-back
      // compaction reorders the tail), take a couple, insert more.
      for (int r = 0; r < 2; ++r) {
        store->record_failure(make_crp(3).challenge);
        store->record_failure(make_crp(6).challenge);
      }
      EXPECT_EQ(store->evict_quarantined(), 2u);
      EXPECT_TRUE(store->take(make_crp(0).challenge).has_value());
      EXPECT_TRUE(store->take(make_crp(9).challenge).has_value());
      for (std::uint32_t i = 20; i < 24; ++i) store->insert(make_crp(i));
    }
  }
  CrpDatabase recovered(1, durable_in(dir.path()));
  EXPECT_EQ(recovered.size(), reference.size());
  std::vector<Challenge> inserted = challenges_in(0, 10);
  for (Challenge& late : challenges_in(20, 24)) {
    inserted.push_back(std::move(late));
  }
  expect_same_takes(recovered, reference, inserted);
}

// Same regression through a snapshot+WAL boundary.
TEST(CrpStore, TakeOrderSurvivesSnapshotBoundary) {
  const io::TempDir dir("np-crp-store");
  CrpDatabase reference(1);
  {
    CrpDatabase db(1, durable_in(dir.path()));
    for (CrpDatabase* store : {&db, &reference}) {
      for (std::uint32_t i = 0; i < 12; ++i) store->insert(make_crp(i));
      EXPECT_TRUE(store->take(make_crp(4).challenge).has_value());
    }
    db.snapshot();
    for (CrpDatabase* store : {&db, &reference}) {
      EXPECT_TRUE(store->take(make_crp(11).challenge).has_value());
      for (std::uint32_t i = 30; i < 33; ++i) store->insert(make_crp(i));
    }
  }
  CrpDatabase recovered(1, durable_in(dir.path()));
  std::vector<Challenge> inserted = challenges_in(0, 12);
  for (Challenge& late : challenges_in(30, 33)) {
    inserted.push_back(std::move(late));
  }
  expect_same_takes(recovered, reference, inserted);
}

// lock_stats are process-local diagnostics: a restart resets them.
TEST(CrpStore, LockStatsResetAcrossRecovery) {
  const io::TempDir dir("np-crp-store");
  {
    CrpDatabase db(4, durable_in(dir.path()));
    for (std::uint32_t i = 0; i < 16; ++i) db.insert(make_crp(i));
    for (const auto& crp : db.take_batch(challenges_in(0, 8))) {
      ASSERT_TRUE(crp.has_value());
    }
    EXPECT_EQ(db.lock_stats().takes, 8u);
    EXPECT_EQ(db.lock_stats().take_steals, 0u);
  }
  CrpDatabase db(4, durable_in(dir.path()));
  const CrpStoreStats stats = db.lock_stats();
  EXPECT_EQ(stats.takes, 0u) << "takes counter must not replay";
  EXPECT_EQ(stats.take_steals, 0u);
  ASSERT_TRUE(db.take(make_crp(8).challenge).has_value());
  EXPECT_EQ(db.lock_stats().takes, 1u);
}

TEST(CrpStore, FsyncPerOpModeIsDurableWithoutSync) {
  // Fsync-per-op is `op; sync();` on the group-commit store. No closing
  // snapshot: every op already waited for its fsync.
  const io::TempDir dir("np-crp-store");
  {
    CrpDatabase db(2, durable_in(dir.path()));
    for (std::uint32_t i = 0; i < 8; ++i) {
      db.insert(make_crp(i));
      db.sync();
    }
    ASSERT_TRUE(db.take(make_crp(6).challenge).has_value());
    db.sync();
  }
  CrpDatabase db(2, durable_in(dir.path()));
  EXPECT_EQ(db.size(), 7u);
  EXPECT_EQ(db.recovery_stats().wal_records, 9u);
}

TEST(CrpStore, LiveChallengeIsStoredAndTakenOnce) {
  // A second CRP for a live challenge would be handed out twice (one-time
  // use broken) and would brick the next open on a duplicate replay.
  const io::TempDir dir("np-crp-store");
  const Crp first = make_crp(3);
  Crp second = make_crp(3);
  second.response = {0xEE, 0xEE};
  {
    CrpDatabase db(1, durable_in(dir.path()));
    db.insert(first);
    db.insert(second);
    db.insert_batch({second, make_crp(4), make_crp(4)});
    EXPECT_EQ(db.size(), 2u);
    EXPECT_EQ(db.lookup(first.challenge), first.response);
  }
  {
    CrpDatabase db(1, durable_in(dir.path()));
    EXPECT_EQ(db.recovery_stats().wal_records, 2u);
    EXPECT_EQ(db.size(), 2u);
    ASSERT_TRUE(db.take(first.challenge).has_value());
    EXPECT_FALSE(db.take(first.challenge).has_value());
    ASSERT_TRUE(db.take(make_crp(4).challenge).has_value());
    EXPECT_FALSE(db.take(make_crp(4).challenge).has_value());
  }
  CrpDatabase reopened(1, durable_in(dir.path()));
  EXPECT_TRUE(reopened.empty());

  // enroll() redraws taken challenges and refuses a request larger than
  // what is left of an 8-bit challenge space instead of looping. The
  // challenges it returns are the keys of exactly the CRPs it stored.
  ArbiterPuf puf(ArbiterPufConfig{8}, 5);
  crypto::ChaChaDrbg rng(crypto::bytes_of("dup"));
  CrpDatabase db;
  std::vector<Challenge> enrolled = db.enroll(puf, 200, rng);
  for (Challenge& more : db.enroll(puf, 56, rng)) {
    enrolled.push_back(std::move(more));
  }
  EXPECT_EQ(db.size(), 256u);
  EXPECT_EQ(std::set<Challenge>(enrolled.begin(), enrolled.end()).size(), 256u);
  EXPECT_THROW(db.enroll(puf, 1, rng), std::invalid_argument);
  for (const auto& crp : db.take_batch(enrolled)) {
    EXPECT_TRUE(crp.has_value());
  }
  EXPECT_TRUE(db.empty());
}

TEST(CrpStore, SyncIsADurabilityBarrier) {
  const io::TempDir dir("np-crp-store");
  CrpDatabase db(1, durable_in(dir.path()));
  for (std::uint32_t i = 0; i < 6; ++i) db.insert(make_crp(i));
  db.sync();
  // The WAL file must already hold all six records, while the store is
  // still open (no destructor drain involved).
  const std::string wal_file = wal::wal_path(dir.path(), 0, 0);
  ASSERT_TRUE(io::file_exists(wal_file));
  const auto decoded = wal::decode_wal(io::read_file(wal_file));
  EXPECT_EQ(decoded.records.size(), 6u);
  EXPECT_EQ(decoded.torn_bytes, 0u);
}

TEST(CrpStore, KeyedTakeConsumesExactlyOnce) {
  CrpDatabase db(4);
  for (std::uint32_t i = 0; i < 12; ++i) db.insert(make_crp(i));
  const Challenge target = make_crp(7).challenge;

  const std::optional<Crp> taken = db.take(target);
  ASSERT_TRUE(taken.has_value());
  EXPECT_EQ(taken->challenge, target);
  EXPECT_EQ(taken->response, make_crp(7).response);
  EXPECT_EQ(db.size(), 11u);
  // One-time use: the same key never serves twice, alone or in a batch
  // with every other stored challenge.
  EXPECT_FALSE(db.take(target).has_value());
  EXPECT_FALSE(db.lookup(target).has_value());
  std::size_t drained = 0;
  for (const auto& crp : db.take_batch(challenges_in(0, 12))) {
    if (!crp.has_value()) continue;
    EXPECT_NE(crp->challenge, target);
    ++drained;
  }
  EXPECT_EQ(drained, 11u);
  EXPECT_TRUE(db.empty());
  // Unknown keys are a clean miss.
  EXPECT_FALSE(db.take(make_crp(99).challenge).has_value());
}

TEST(CrpStore, KeyedTakeRefusesQuarantined) {
  CrpDatabase db(2);
  db.set_quarantine_threshold(1);
  for (std::uint32_t i = 0; i < 4; ++i) db.insert(make_crp(i));
  db.record_failure(make_crp(2).challenge);
  EXPECT_FALSE(db.take(make_crp(2).challenge).has_value());
  // Still present (quarantined, not consumed): eviction finds it.
  EXPECT_TRUE(db.health(make_crp(2).challenge).has_value());
  EXPECT_EQ(db.evict_quarantined(), 1u);
}

TEST(CrpStore, KeyedTakeIsDurable) {
  const io::TempDir dir("np-crp-store");
  {
    CrpDatabase db(2, durable_in(dir.path()));
    for (std::uint32_t i = 0; i < 8; ++i) db.insert(make_crp(i));
    ASSERT_TRUE(db.take(make_crp(3).challenge).has_value());
    ASSERT_TRUE(db.take(make_crp(5).challenge).has_value());
  }
  CrpDatabase db(2, durable_in(dir.path()));
  EXPECT_EQ(db.size(), 6u);
  // The consumed pairs stay consumed across recovery.
  EXPECT_FALSE(db.health(make_crp(3).challenge).has_value());
  EXPECT_FALSE(db.health(make_crp(5).challenge).has_value());
  EXPECT_TRUE(db.lookup(make_crp(4).challenge).has_value());
}

// take_batch's one durable wait, checked without a crash: the moment the
// call returns, while the store is still open, every shard's log on
// disk must already hold a take record for each CRP it handed out, and
// none for a challenge it refused.
TEST(CrpStore, TakeBatchRecordsAreOnDiskWhenItReturns) {
  const io::TempDir dir("np-crp-store");
  constexpr std::size_t kShards = 4;
  CrpDatabase db(kShards, durable_in(dir.path()));
  db.set_quarantine_threshold(1);
  constexpr std::uint32_t kStored = 32;
  constexpr std::uint32_t kTaken = 24;
  for (std::uint32_t i = 0; i < kStored; ++i) db.insert(make_crp(i));
  db.record_failure(make_crp(30).challenge);  // quarantined
  db.sync();  // nothing pending: only the batch's records are in flight

  std::vector<Challenge> batch;
  for (std::uint32_t i = 0; i < kTaken; ++i) {
    batch.push_back(make_crp(i).challenge);
  }
  batch.push_back(make_crp(99).challenge);  // unknown
  batch.push_back(make_crp(30).challenge);  // quarantined
  batch.push_back(make_crp(2).challenge);   // repeated
  const std::vector<std::optional<Crp>> taken = db.take_batch(batch);

  std::multiset<Challenge> on_disk;
  for (std::size_t shard = 0; shard < kShards; ++shard) {
    // The decoded records are views into `image`.
    const crypto::Bytes image =
        io::read_file(wal::wal_path(dir.path(), shard, 0));
    const auto decoded = wal::decode_wal(image);
    std::size_t shard_takes = 0;
    for (const wal::RecordView& record : decoded.records) {
      if (record.type != wal::RecordType::kTake) continue;
      on_disk.emplace(record.challenge.begin(), record.challenge.end());
      ++shard_takes;
    }
    EXPECT_GT(shard_takes, 0u) << "batch must span shard " << shard;
  }

  ASSERT_EQ(taken.size(), batch.size());
  std::multiset<Challenge> handed_out;
  for (std::uint32_t i = 0; i < kTaken; ++i) {
    ASSERT_TRUE(taken[i].has_value()) << "challenge " << i;
    EXPECT_EQ(taken[i]->challenge, batch[i]);
    EXPECT_EQ(taken[i]->response, make_crp(i).response);
    handed_out.insert(taken[i]->challenge);
  }
  EXPECT_FALSE(taken[kTaken].has_value()) << "unknown challenge taken";
  EXPECT_FALSE(taken[kTaken + 1].has_value()) << "quarantined challenge taken";
  EXPECT_FALSE(taken[kTaken + 2].has_value()) << "repeated challenge retaken";
  EXPECT_EQ(on_disk, handed_out)
      << "a take record is missing from disk or names a refused challenge";
  EXPECT_EQ(db.size(), kStored - kTaken);
  EXPECT_TRUE(db.health(make_crp(30).challenge).has_value());
}

TEST(CrpStore, InsertBatchMatchesSerialInsertsAndIsDurable) {
  // Batch inserts across shards land exactly like serial inserts and
  // replay after a restart.
  const io::TempDir batch_dir("np-crp-store-batch");
  std::vector<Crp> batch;
  for (std::uint32_t i = 0; i < 20; ++i) batch.push_back(make_crp(i));
  {
    CrpDatabase db(4, durable_in(batch_dir.path()));
    db.insert_batch(std::move(batch));
    EXPECT_EQ(db.size(), 20u);
  }
  CrpDatabase recovered(4, durable_in(batch_dir.path()));
  EXPECT_EQ(recovered.size(), 20u);

  CrpDatabase reference(4);
  for (std::uint32_t i = 0; i < 20; ++i) reference.insert(make_crp(i));
  expect_same_takes(recovered, reference, challenges_in(0, 20));
}

TEST(CrpStore, InsertBatchEmptyIsANoOp) {
  CrpDatabase db(4);
  db.insert_batch({});
  EXPECT_TRUE(db.empty());
}

TEST(CrpStore, DirectoryWithFilesButNoManifestFailsCleanly) {
  const io::TempDir dir("np-crp-store");
  io::atomic_write_file(dir.path() + "/shard-0000-000000.wal",
                        crypto::Bytes{1, 2, 3});
  EXPECT_THROW(CrpDatabase(1, durable_in(dir.path())), wal::CrpStoreError);
}

TEST(CrpStore, CorruptManifestFailsCleanly) {
  const io::TempDir dir("np-crp-store");
  { CrpDatabase db(1, durable_in(dir.path())); db.insert(make_crp(1)); }
  crypto::Bytes manifest = io::read_file(wal::manifest_path(dir.path()));
  manifest[manifest.size() / 2] ^= 0xFF;
  io::atomic_write_file(wal::manifest_path(dir.path()), manifest);
  EXPECT_THROW(CrpDatabase(1, durable_in(dir.path())), wal::CrpStoreError);
}

// A manifest in the old layout (version 1, which carried an 8-byte take
// cursor after the shard count) with a valid checksum: the store must
// refuse it cleanly and write nothing, not misread the layout.
TEST(CrpStore, OldLayoutManifestFailsCleanly) {
  const io::TempDir dir("np-crp-store");
  { CrpDatabase db(1, durable_in(dir.path())); db.insert(make_crp(1)); }
  const std::string path = wal::manifest_path(dir.path());
  const crypto::Bytes current = io::read_file(path);
  static constexpr std::array<std::uint8_t, 16> kWalKey = {
      'n', 'p', '-', 'c', 'r', 'p', '-', 'w',
      'a', 'l', '-', 'c', 'k', 's', 'u', 'm'};
  // The checksum recipe, pinned on the current manifest first.
  const crypto::ByteView current_body =
      crypto::ByteView(current).first(current.size() - 8);
  ASSERT_EQ(crypto::siphash24(kWalKey, current_body),
            crypto::get_u64_be(crypto::ByteView(current).last(8)));

  crypto::Bytes old(current.begin(), current.begin() + 8);  // magic
  crypto::append_u32_be(old, 1);   // version 1
  crypto::append_u64_be(old, 0);   // generation
  crypto::append_u32_be(old, 1);   // shard count
  crypto::append_u64_be(old, 7);   // take cursor
  crypto::append_u64_be(old, crypto::siphash24(kWalKey, old));
  io::atomic_write_file(path, old);

  const std::vector<std::string> files_before = io::list_files(dir.path());
  EXPECT_THROW(CrpDatabase(1, durable_in(dir.path())), wal::CrpStoreError);
  EXPECT_EQ(io::list_files(dir.path()), files_before);
  EXPECT_EQ(io::read_file(path), old);
}

}  // namespace
}  // namespace neuropuls::puf
