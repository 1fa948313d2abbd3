// Crash-point sweep for the durable CRP store (ctest labels: chaos, io).
//
// The crash model of an append-only single-writer log is "the file ends
// early": a power cut preserves some prefix of the bytes. So the sweep
// builds one pristine store image, then re-opens a copy truncated at
// EVERY byte offset — record boundaries and mid-record alike — and
// checks the recovered state against a record-driven oracle:
//
//   * a CRP whose take record survived the crash is never re-issued
//     (the one-time-use invariant the paper's protocol rests on),
//   * a CRP whose take record was torn off IS served again — the taker
//     never saw it, take() blocks until the record is on disk,
//   * quarantine flags replay exactly (health records carry resulting
//     counters), and torn tails are counted, never fatal,
//   * a cut inside one take_batch keeps exactly the batch's takes
//     before the cut, as the same oracle predicts.
//
// Damage that is NOT a crash prefix — a byte flipped in the middle of
// the log, a corrupted or misplaced snapshot, a corrupted manifest —
// must fail cleanly with CrpStoreError instead of silently resurrecting
// consumed CRPs, so the corruption sweep flips every byte of the image
// and expects a throw.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/io.hpp"
#include "crypto/bytes.hpp"
#include "crypto/sha256.hpp"
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
  crp.response = {static_cast<std::uint8_t>(i * 7 + 1)};
  return crp;
}

std::uint32_t read_u32_be(const crypto::Bytes& image, std::size_t offset) {
  return (static_cast<std::uint32_t>(image[offset]) << 24) |
         (static_cast<std::uint32_t>(image[offset + 1]) << 16) |
         (static_cast<std::uint32_t>(image[offset + 2]) << 8) |
         static_cast<std::uint32_t>(image[offset + 3]);
}

void write_file(const std::string& path, crypto::ByteView data) {
  io::File file = io::File::create_truncate(path);
  file.write_all(data);
}

/// Each record's end offset in a whole-record WAL image, from the
/// (pristine) length fields — the framing walked independently of
/// decode_wal.
std::vector<std::size_t> record_ends_of(const crypto::Bytes& image) {
  std::vector<std::size_t> ends;
  std::size_t offset = 0;
  while (offset + wal::kRecordHeaderBytes <= image.size()) {
    offset += wal::kRecordHeaderBytes + read_u32_be(image, offset);
    ends.push_back(offset);
  }
  EXPECT_EQ(offset, image.size()) << "clean image must be whole records";
  return ends;
}

/// Records wholly inside the first `cut` bytes; everything after is torn.
std::size_t records_within(const std::vector<std::size_t>& record_ends,
                           std::size_t cut) {
  std::size_t survivors = 0;
  while (survivors < record_ends.size() && record_ends[survivors] <= cut) {
    ++survivors;
  }
  return survivors;
}

/// Record-driven oracle: the expected store contents after replaying the
/// first `count` records of the pristine log. Ground truth comes from
/// the records themselves (the take record names the consumed
/// challenge), so the oracle needs no model of take()'s scan order.
struct Oracle {
  struct EntryState {
    bool quarantined = false;
  };
  std::map<crypto::Bytes, EntryState> present;
  std::set<crypto::Bytes> consumed;  // take records within the prefix

  void apply(const wal::RecordView& record) {
    const crypto::Bytes challenge(record.challenge.begin(),
                                  record.challenge.end());
    switch (record.type) {
      case wal::RecordType::kInsert:
        ASSERT_TRUE(present.emplace(challenge, EntryState{}).second);
        break;
      case wal::RecordType::kTake:
        ASSERT_EQ(present.erase(challenge), 1u);
        consumed.insert(challenge);
        break;
      case wal::RecordType::kHealth:
        present.at(challenge).quarantined = record.health.quarantined;
        break;
      case wal::RecordType::kEvict:
        ASSERT_EQ(present.erase(challenge), 1u);
        break;
    }
  }

  std::size_t quarantined_count() const {
    std::size_t n = 0;
    for (const auto& [challenge, state] : present) n += state.quarantined;
    return n;
  }
};

/// The recovered store against the oracle: its size, its quarantine
/// count, and, for every challenge the log ever inserted, presence
/// exactly when the oracle holds it.
void expect_matches_oracle(const CrpDatabase& db, const Oracle& oracle,
                           const std::vector<wal::RecordView>& records) {
  EXPECT_EQ(db.size(), oracle.present.size());
  EXPECT_EQ(db.quarantined(), oracle.quarantined_count());
  for (const wal::RecordView& record : records) {
    if (record.type != wal::RecordType::kInsert) continue;
    const crypto::Bytes challenge(record.challenge.begin(),
                                  record.challenge.end());
    EXPECT_EQ(db.health(challenge).has_value(),
              oracle.present.count(challenge) == 1)
        << (oracle.consumed.count(challenge)
                ? "consumed CRP resurrected"
                : "stored CRP lost or phantom CRP appeared");
  }
}

/// The shared pristine image: one single-shard store driven through
/// inserts, a quarantine-and-evict, a quarantine-that-stays, health
/// updates, and takes (the log ends mid-story on a take record, so the
/// truncation sweep's tail offsets are exactly the "killed mid-take()"
/// case). Built once, reused by every sweep.
class CrpCrashTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    state_ = new SharedState();
    SharedState& s = *state_;
    {
      CrpDurabilityOptions options;
      options.directory = s.source.path();
      CrpDatabase db(1, options);
      db.set_quarantine_threshold(2);
      for (std::uint32_t i = 0; i < 24; ++i) db.insert(make_crp(i));
      db.record_failure(make_crp(5).challenge);
      db.record_failure(make_crp(5).challenge);  // quarantined
      ASSERT_EQ(db.evict_quarantined(), 1u);
      db.record_failure(make_crp(9).challenge);
      db.record_failure(make_crp(9).challenge);  // quarantined, kept
      db.record_success(make_crp(11).challenge);
      for (int t = 0; t < 3; ++t) ASSERT_TRUE(db.take().has_value());
    }  // clean close: the image on disk is complete and torn-free

    s.manifest = io::read_file(wal::manifest_path(s.source.path()));
    s.image = io::read_file(wal::wal_path(s.source.path(), 0, 0));

    s.record_ends = record_ends_of(s.image);
    // 24 inserts + 5 health + 1 evict + 3 takes:
    ASSERT_EQ(s.record_ends.size(), 33u);

    s.records = wal::decode_wal(s.image).records;
    ASSERT_EQ(s.records.size(), s.record_ends.size());
    ASSERT_EQ(s.records.back().type, wal::RecordType::kTake);
  }

  static void TearDownTestSuite() {
    delete state_;
    state_ = nullptr;
  }

  struct SharedState {
    io::TempDir source{"np-crp-crash-src"};
    crypto::Bytes manifest;
    crypto::Bytes image;  // records reference this — keep it alive
    std::vector<std::size_t> record_ends;
    std::vector<wal::RecordView> records;
  };
  static SharedState* state_;

  /// Stages a copy of the pristine store whose WAL is `wal_image`.
  static void stage(const std::string& dir, crypto::ByteView wal_image) {
    write_file(wal::manifest_path(dir), state_->manifest);
    write_file(wal::wal_path(dir, 0, 0), wal_image);
  }

  static CrpDurabilityOptions open_options(const std::string& dir) {
    CrpDurabilityOptions options;
    options.directory = dir;
    return options;
  }
};

CrpCrashTest::SharedState* CrpCrashTest::state_ = nullptr;

TEST_F(CrpCrashTest, TruncationAtEveryByteRecoversExactPrefix) {
  const SharedState& s = *state_;
  for (std::size_t cut = 0; cut <= s.image.size(); ++cut) {
    SCOPED_TRACE("truncated to " + std::to_string(cut) + " bytes");
    const std::size_t survivors = records_within(s.record_ends, cut);
    const std::size_t valid = survivors == 0 ? 0 : s.record_ends[survivors - 1];
    Oracle oracle;
    for (std::size_t r = 0; r < survivors; ++r) oracle.apply(s.records[r]);
    if (::testing::Test::HasFatalFailure()) return;

    const io::TempDir dir("np-crp-crash");
    stage(dir.path(), {s.image.data(), cut});
    CrpDatabase db(1, open_options(dir.path()));

    const CrpRecoveryStats stats = db.recovery_stats();
    EXPECT_EQ(stats.wal_records, survivors);
    EXPECT_EQ(stats.torn_bytes, cut - valid);
    expect_matches_oracle(db, oracle, s.records);
  }
}

// A crash inside one take_batch. The batch's take records close a
// single-shard log, so every byte cut among them is a crash before the
// batch's durable wait returned: recovery must equal the record-driven
// oracle for the surviving prefix — takes that reached disk stay
// consumed, the rest are served again, none twice.
TEST_F(CrpCrashTest, TruncationInsideTakeBatchRecoversExactPrefix) {
  const io::TempDir source("np-crp-crash-batch");
  {
    CrpDatabase db(1, open_options(source.path()));
    db.set_quarantine_threshold(1);
    for (std::uint32_t i = 0; i < 10; ++i) db.insert(make_crp(i));
    db.record_failure(make_crp(3).challenge);  // quarantined
    // Unknown (99), quarantined (3) and repeated (2) challenges log no
    // take record: five takes remain.
    std::vector<Challenge> batch;
    for (const std::uint32_t i : {1u, 2u, 99u, 3u, 4u, 2u, 6u, 7u}) {
      batch.push_back(make_crp(i).challenge);
    }
    const auto taken = db.take_batch(batch);
    ASSERT_EQ(std::count_if(taken.begin(), taken.end(),
                            [](const auto& crp) { return crp.has_value(); }),
              5);
  }
  const crypto::Bytes manifest =
      io::read_file(wal::manifest_path(source.path()));
  const crypto::Bytes image = io::read_file(wal::wal_path(source.path(), 0, 0));
  const std::vector<std::size_t> record_ends = record_ends_of(image);
  const std::vector<wal::RecordView> records = wal::decode_wal(image).records;
  // 10 inserts + 1 health + the batch's 5 takes.
  ASSERT_EQ(records.size(), 16u);
  ASSERT_EQ(record_ends.size(), records.size());
  constexpr std::size_t kBatchFirst = 11;
  for (std::size_t r = kBatchFirst; r < records.size(); ++r) {
    ASSERT_EQ(records[r].type, wal::RecordType::kTake);
  }

  for (std::size_t cut = record_ends[kBatchFirst - 1]; cut <= image.size();
       ++cut) {
    SCOPED_TRACE("truncated to " + std::to_string(cut) + " bytes");
    const std::size_t survivors = records_within(record_ends, cut);
    Oracle oracle;
    for (std::size_t r = 0; r < survivors; ++r) oracle.apply(records[r]);
    if (::testing::Test::HasFatalFailure()) return;

    const io::TempDir dir("np-crp-crash");
    write_file(wal::manifest_path(dir.path()), manifest);
    write_file(wal::wal_path(dir.path(), 0, 0), {image.data(), cut});
    CrpDatabase db(1, open_options(dir.path()));
    EXPECT_EQ(db.recovery_stats().wal_records, survivors);
    EXPECT_EQ(db.recovery_stats().torn_bytes,
              cut - record_ends[survivors - 1]);
    expect_matches_oracle(db, oracle, records);

    std::set<crypto::Bytes> issued;
    while (const auto crp = db.take()) {
      EXPECT_TRUE(issued.insert(crp->challenge).second)
          << "CRP double-issued in one run";
      EXPECT_EQ(oracle.consumed.count(crp->challenge), 0u)
          << "CRP consumed before the crash was issued again";
    }
    EXPECT_EQ(issued.size(), oracle.present.size() - 1)
        << "every live CRP but the quarantined one is served";
  }
}

// The double-issue check, drained end to end: every take() the recovered
// store serves must come from the oracle's servable set — never a
// challenge whose take record survived the crash — and must drain that
// set completely. Sampled at every record boundary plus a mid-record
// offset each, which covers all state transitions of the byte sweep.
TEST_F(CrpCrashTest, NoDoubleIssueAcrossRecovery) {
  const SharedState& s = *state_;
  std::vector<std::size_t> cuts{0, 7};
  for (std::size_t r = 0; r < s.record_ends.size(); ++r) {
    cuts.push_back(s.record_ends[r]);       // after record r
    cuts.push_back(s.record_ends[r] - 5);   // inside record r
  }
  for (const std::size_t cut : cuts) {
    SCOPED_TRACE("truncated to " + std::to_string(cut) + " bytes");
    const std::size_t survivors = records_within(s.record_ends, cut);
    Oracle oracle;
    for (std::size_t r = 0; r < survivors; ++r) oracle.apply(s.records[r]);
    if (::testing::Test::HasFatalFailure()) return;
    std::set<crypto::Bytes> servable;
    for (const auto& [challenge, entry] : oracle.present) {
      if (!entry.quarantined) servable.insert(challenge);
    }

    const io::TempDir dir("np-crp-crash");
    stage(dir.path(), {s.image.data(), cut});
    CrpDatabase db(1, open_options(dir.path()));
    std::set<crypto::Bytes> issued;
    while (const auto crp = db.take()) {
      EXPECT_TRUE(issued.insert(crp->challenge).second)
          << "CRP double-issued in one run";
      EXPECT_EQ(oracle.consumed.count(crp->challenge), 0u)
          << "CRP consumed before the crash was issued again";
    }
    EXPECT_EQ(issued, servable);
  }
}

// Regression for the append-after-torn-tail hazard: recovery that
// dropped a torn tail must not keep appending to the damaged file (the
// garbage would sit mid-log and wedge the NEXT recovery). The store
// rolls forward to a fresh generation instead, so crash -> recover ->
// mutate -> reopen round trips.
TEST_F(CrpCrashTest, ReopenAfterTornTailAndNewWrites) {
  const SharedState& s = *state_;
  for (const std::size_t cut :
       {s.image.size() - 1, s.image.size() - 20, s.record_ends[4] + 3}) {
    SCOPED_TRACE("truncated to " + std::to_string(cut) + " bytes");
    const io::TempDir dir("np-crp-crash");
    stage(dir.path(), {s.image.data(), cut});
    std::size_t recovered_size = 0;
    {
      CrpDatabase db(1, open_options(dir.path()));
      EXPECT_GT(db.recovery_stats().torn_bytes, 0u);
      recovered_size = db.size();
      db.insert(make_crp(500));
    }
    CrpDatabase db(1, open_options(dir.path()));
    EXPECT_EQ(db.recovery_stats().torn_bytes, 0u)
        << "roll-forward must leave a whole-record log";
    EXPECT_EQ(db.size(), recovered_size + 1);
    EXPECT_TRUE(db.lookup(make_crp(500).challenge).has_value());
  }
}

TEST_F(CrpCrashTest, ByteFlipAnywhereFailsCleanly) {
  const SharedState& s = *state_;
  for (std::size_t offset = 0; offset < s.image.size(); ++offset) {
    SCOPED_TRACE("flipped byte at offset " + std::to_string(offset));
    crypto::Bytes damaged = s.image;
    damaged[offset] ^= 0x01;
    const io::TempDir dir("np-crp-crash");
    stage(dir.path(), damaged);
    // All bytes are present, so this is damage-after-durability, not a
    // crash prefix; truncating at the flip could resurrect any CRP
    // consumed later in the log. The store must refuse to open.
    EXPECT_THROW(CrpDatabase(1, open_options(dir.path())),
                 wal::CrpStoreError);
  }
}

TEST_F(CrpCrashTest, SnapshotDamageFailsCleanly) {
  // A separate store whose state lives in a snapshot generation.
  const io::TempDir source("np-crp-crash-snap");
  {
    CrpDurabilityOptions options;
    options.directory = source.path();
    CrpDatabase db(1, options);
    for (std::uint32_t i = 0; i < 16; ++i) db.insert(make_crp(i));
    db.snapshot();
  }
  const std::string snap_path = wal::snapshot_path(source.path(), 0, 1);
  ASSERT_TRUE(io::file_exists(snap_path));
  const crypto::Bytes snap = io::read_file(snap_path);

  for (std::size_t offset = 0; offset < snap.size(); offset += 11) {
    SCOPED_TRACE("flipped snapshot byte at offset " + std::to_string(offset));
    crypto::Bytes damaged = snap;
    damaged[offset] ^= 0x80;
    write_file(snap_path, damaged);
    CrpDurabilityOptions options;
    options.directory = source.path();
    EXPECT_THROW(CrpDatabase(1, options), wal::CrpStoreError);
  }
  // Unlike a WAL, a snapshot is written atomically — it is never
  // legitimately truncated, so a short file is corruption too.
  write_file(snap_path, {snap.data(), snap.size() / 2});
  {
    CrpDurabilityOptions options;
    options.directory = source.path();
    EXPECT_THROW(CrpDatabase(1, options), wal::CrpStoreError);
  }
  // Restore the pristine snapshot: the store must open again (the sweep
  // damaged only the copy on disk, nothing latched).
  write_file(snap_path, snap);
  CrpDurabilityOptions options;
  options.directory = source.path();
  CrpDatabase db(1, options);
  EXPECT_EQ(db.size(), 16u);
}

// The snapshot trailer has no key, so a recomputed trailer makes any
// header pass the checksum. An entry count the file cannot hold must
// still be corruption, not a huge allocation.
TEST_F(CrpCrashTest, SnapshotEntryCountBeyondFileFailsCleanly) {
  wal::SnapshotBuilder builder(0, 1, 0);
  builder.add(make_crp(1).challenge, make_crp(1).response, CrpHealth{});
  builder.add(make_crp(2).challenge, make_crp(2).response, CrpHealth{});
  crypto::Bytes image = builder.finish();
  ASSERT_EQ(wal::decode_snapshot(image).entries.size(), 2u);

  // Header: magic, shard index, shard count, WAL seq, then the count.
  constexpr std::size_t kCountOffset = wal::kSnapshotMagicBytes + 4 + 4 + 8;
  for (const std::uint64_t count : {std::uint64_t{3}, std::uint64_t{1} << 40}) {
    SCOPED_TRACE("entry count " + std::to_string(count));
    crypto::Bytes damaged = image;
    crypto::put_u64_be({damaged.data() + kCountOffset, 8}, count);
    const std::size_t body = damaged.size() - crypto::Sha256::kDigestSize;
    const auto digest = crypto::Sha256::digest({damaged.data(), body});
    std::copy(digest.begin(), digest.end(), damaged.begin() + body);
    EXPECT_THROW(wal::decode_snapshot(damaged), wal::CrpStoreError);
  }
}

// Two valid snapshots in each other's place: every trailer checks out,
// so only the header's shard index can tell the store they are swapped.
TEST_F(CrpCrashTest, SwappedShardSnapshotsFailCleanly) {
  const io::TempDir source("np-crp-crash-swap");
  CrpDurabilityOptions options;
  options.directory = source.path();
  {
    CrpDatabase db(2, options);
    for (std::uint32_t i = 0; i < 16; ++i) db.insert(make_crp(i));
    db.snapshot();
  }
  const std::string snap0 = wal::snapshot_path(source.path(), 0, 1);
  const std::string snap1 = wal::snapshot_path(source.path(), 1, 1);
  const crypto::Bytes image0 = io::read_file(snap0);
  const crypto::Bytes image1 = io::read_file(snap1);
  write_file(snap0, image1);
  write_file(snap1, image0);
  EXPECT_THROW(CrpDatabase(2, options), wal::CrpStoreError);

  write_file(snap0, image0);
  write_file(snap1, image1);
  CrpDatabase db(2, options);
  EXPECT_EQ(db.size(), 16u);
}

}  // namespace
}  // namespace neuropuls::puf
