// Crash-point sweep for fleet key rotation (ctest labels: chaos, fleet, io).
//
// A rotation sweep retires each device's generation-0 CRP after durably
// inserting its generation-1 replacement (insert -> sync -> take, per
// wave). The crash model is the WAL's: the verifier dies and the log
// ends early at an arbitrary byte. The sweep builds one pristine image
// of a fleet that enrolled and then fully rotated, truncates a copy at
// EVERY byte offset inside the rotation suffix, reopens, and drives
// recover_state() + resume_rotation(). The oracle (in the style of
// test_crp_crash):
//
//   * no device is ever keyless — at every cut each device recovers
//     with at least one live CRP, because replacements hit stable
//     storage before the old pair is consumed,
//   * no CRP double-issue — a challenge whose take record survived the
//     crash is absent from the recovered store and never served again,
//   * resume_rotation classifies every device into exactly one of
//     {already rotated, finish the take, redo the rotation} and leaves
//     the fleet in the fully-rotated end state, after which the whole
//     fleet still authenticates.
//
// A two-shard variant cuts each shard's log independently, so a wave's
// take_batch can reach disk on one shard and not on the other.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/io.hpp"
#include "fleet/fleet.hpp"
#include "puf/crp_db.hpp"
#include "puf/crp_wal.hpp"

namespace neuropuls::fleet {
namespace {

namespace io = common::io;

constexpr std::size_t kDevices = 12;

FleetConfig crash_config() {
  FleetConfig config;
  config.devices = kDevices;
  config.generations = 1;
  config.wave_size = 4;  // several insert/take groups in the rotation log
  return config;
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

/// Each record's end offset in a whole-record WAL image.
std::vector<std::size_t> record_ends_of(const crypto::Bytes& image) {
  std::vector<std::size_t> ends;
  std::size_t offset = 0;
  while (offset + puf::wal::kRecordHeaderBytes <= image.size()) {
    offset += puf::wal::kRecordHeaderBytes + read_u32_be(image, offset);
    ends.push_back(offset);
  }
  EXPECT_EQ(offset, image.size()) << "clean image must be whole records";
  return ends;
}

puf::CrpDurabilityOptions open_options(const std::string& dir) {
  puf::CrpDurabilityOptions options;
  options.directory = dir;
  return options;
}

class FleetCrashTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    state_ = new SharedState();
    SharedState& s = *state_;
    {
      puf::CrpDatabase db(1, open_options(s.source.path()));
      FleetSimulator fleet(crash_config(), db);
      fleet.enroll();
      const CampaignReport sweep = fleet.run_rotation_sweep();
      ASSERT_EQ(sweep.rotated, kDevices);
      ASSERT_EQ(fleet.count_keyless(), 0u);
    }  // clean close: whole records, torn-free

    s.manifest = io::read_file(puf::wal::manifest_path(s.source.path()));
    s.image = io::read_file(puf::wal::wal_path(s.source.path(), 0, 0));

    s.record_ends = record_ends_of(s.image);
    s.records = puf::wal::decode_wal(s.image).records;
    ASSERT_EQ(s.records.size(), s.record_ends.size());

    // The enrollment prefix: the first kDevices insert records. Crashes
    // inside it model a death during manufacturing intake, not mid-
    // rotation — the sweep starts at its end.
    std::size_t inserts = 0;
    s.enroll_end = 0;
    for (std::size_t r = 0; r < s.records.size(); ++r) {
      if (s.records[r].type == puf::wal::RecordType::kInsert) {
        ++inserts;
        if (inserts == kDevices) {
          s.enroll_end = s.record_ends[r];
          break;
        }
      }
    }
    ASSERT_GT(s.enroll_end, 0u);
    ASSERT_LT(s.enroll_end, s.image.size());
  }

  static void TearDownTestSuite() {
    delete state_;
    state_ = nullptr;
  }

  struct SharedState {
    io::TempDir source{"np-fleet-crash-src"};
    crypto::Bytes manifest;
    crypto::Bytes image;  // records reference this — keep it alive
    std::vector<std::size_t> record_ends;
    std::vector<puf::wal::RecordView> records;
    std::size_t enroll_end = 0;
  };
  static SharedState* state_;

  static void stage(const std::string& dir, crypto::ByteView wal_image) {
    write_file(puf::wal::manifest_path(dir), state_->manifest);
    write_file(puf::wal::wal_path(dir, 0, 0), wal_image);
  }

  /// Challenges whose take record survives in the first `cut` bytes.
  static std::set<crypto::Bytes> consumed_within(std::size_t cut) {
    const SharedState& s = *state_;
    std::set<crypto::Bytes> consumed;
    for (std::size_t r = 0;
         r < s.record_ends.size() && s.record_ends[r] <= cut; ++r) {
      if (s.records[r].type == puf::wal::RecordType::kTake) {
        consumed.emplace(s.records[r].challenge.begin(),
                         s.records[r].challenge.end());
      }
    }
    return consumed;
  }
};

FleetCrashTest::SharedState* FleetCrashTest::state_ = nullptr;

TEST_F(FleetCrashTest, ResumeAtEveryByteLeavesNoDeviceKeyless) {
  const SharedState& s = *state_;
  for (std::size_t cut = s.enroll_end; cut <= s.image.size(); ++cut) {
    SCOPED_TRACE("truncated to " + std::to_string(cut) + " bytes");
    const std::set<crypto::Bytes> consumed = consumed_within(cut);

    const io::TempDir dir("np-fleet-crash");
    stage(dir.path(), {s.image.data(), cut});
    puf::CrpDatabase db(1, open_options(dir.path()));
    FleetSimulator fleet(crash_config(), db);
    fleet.recover_state(3);

    // Double-issue half of the oracle, before resume touches anything:
    // a take that reached stable storage is permanent.
    for (const crypto::Bytes& challenge : consumed) {
      ASSERT_FALSE(db.health(challenge).has_value())
          << "consumed CRP resurrected by recovery";
    }

    const ResumeReport resume = fleet.resume_rotation();
    EXPECT_EQ(resume.keyless, 0u) << "device left keyless by the crash";
    EXPECT_EQ(resume.already_rotated + resume.finished_takes + resume.redone,
              kDevices);
    EXPECT_EQ(fleet.count_keyless(), 0u);

    // Resume completes the sweep: every device sits at the rotated end
    // state with exactly its generation-1 CRP live.
    EXPECT_EQ(db.size(), kDevices);
    for (std::size_t device = 0; device < kDevices; ++device) {
      EXPECT_EQ(fleet.oldest_generation(device), 1u);
      EXPECT_EQ(fleet.next_generation(device), 2u);
      EXPECT_FALSE(db.lookup(fleet.challenge_of(device, 0)).has_value());
      EXPECT_TRUE(db.lookup(fleet.challenge_of(device, 1)).has_value());
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST_F(FleetCrashTest, FleetAuthenticatesAfterCrashRecoverResume) {
  // Full end-to-end at three representative cuts: mid first rotation
  // wave, a record boundary in the middle, and one byte short of clean.
  const SharedState& s = *state_;
  const std::vector<std::size_t> cuts{
      s.enroll_end + 7, s.record_ends[s.record_ends.size() / 2],
      s.image.size() - 1};
  for (const std::size_t cut : cuts) {
    SCOPED_TRACE("truncated to " + std::to_string(cut) + " bytes");
    const io::TempDir dir("np-fleet-crash");
    stage(dir.path(), {s.image.data(), cut});
    puf::CrpDatabase db(1, open_options(dir.path()));
    FleetSimulator fleet(crash_config(), db);
    fleet.recover_state(3);
    const ResumeReport resume = fleet.resume_rotation();
    ASSERT_EQ(resume.keyless, 0u);

    const CampaignReport report = fleet.run_auth_campaign(kDevices);
    EXPECT_EQ(report.converged, kDevices);
    EXPECT_EQ(report.failed, 0u);
    EXPECT_EQ(report.skipped, 0u);
  }
}

TEST_F(FleetCrashTest, RecoveredStoreNeverDoubleIssues) {
  // Drain the recovered store by keyed takes at every record boundary:
  // each served CRP must be fresh (never among the pre-crash consumed
  // set) and each challenge serves at most once.
  const SharedState& s = *state_;
  for (const std::size_t end : s.record_ends) {
    if (end < s.enroll_end) continue;
    SCOPED_TRACE("truncated to " + std::to_string(end) + " bytes");
    const std::set<crypto::Bytes> consumed = consumed_within(end);

    const io::TempDir dir("np-fleet-crash");
    stage(dir.path(), {s.image.data(), end});
    puf::CrpDatabase db(1, open_options(dir.path()));
    FleetSimulator fleet(crash_config(), db);
    fleet.recover_state(3);

    std::set<crypto::Bytes> issued;
    for (std::size_t device = 0; device < kDevices; ++device) {
      for (std::uint32_t g = 0; g < 3; ++g) {
        const puf::Challenge challenge = fleet.challenge_of(device, g);
        if (const auto crp = db.take(challenge)) {
          EXPECT_TRUE(issued.insert(crp->challenge).second)
              << "CRP double-issued in one run";
          EXPECT_EQ(consumed.count(crp->challenge), 0u)
              << "CRP consumed before the crash was issued again";
        }
      }
    }
    // Drained completely: takes + pre-crash consumptions cover every
    // insert record in the surviving prefix.
    std::size_t inserted = 0;
    for (std::size_t r = 0;
         r < s.record_ends.size() && s.record_ends[r] <= end; ++r) {
      if (s.records[r].type == puf::wal::RecordType::kInsert) ++inserted;
    }
    EXPECT_EQ(issued.size() + consumed.size(), inserted);
  }
}

// Two shards: a wave's takes land in both logs under one take_batch
// durable wait, so each log can lose a different suffix of them. Each
// shard's WAL is cut independently, at every pair of record boundaries
// in the rotation suffixes. The store's barriers bound which pairs a
// crash can leave: sync() after each wave's inserts, and take_batch's
// durable wait after its takes, split the rotation into epochs, and a
// record of one epoch reaches disk only after every record of the
// epochs before it. A pair that keeps a later epoch's record while
// dropping an earlier one (in either log) is not a crash and is
// skipped. At every other pair no device is keyless, no consumed CRP
// is served again, and resume_rotation ends with the fleet rotated.
TEST(FleetCrashTwoShards, ResumeAtEveryPairOfRecordBoundaries) {
  constexpr std::size_t kShards = 2;
  constexpr int kEnrollment = -1;
  const FleetConfig config = crash_config();
  const io::TempDir source("np-fleet-crash-2s-src");
  std::map<crypto::Bytes, std::pair<std::size_t, std::uint32_t>> owner;
  {
    puf::CrpDatabase db(kShards, open_options(source.path()));
    FleetSimulator fleet(config, db);
    fleet.enroll();
    ASSERT_EQ(fleet.run_rotation_sweep().rotated, kDevices);
    for (std::size_t device = 0; device < kDevices; ++device) {
      for (std::uint32_t g = 0; g < 2; ++g) {
        owner[fleet.challenge_of(device, g)] = {device, g};
      }
    }
  }
  const crypto::Bytes manifest =
      io::read_file(puf::wal::manifest_path(source.path()));

  struct ShardLog {
    crypto::Bytes image;  // records reference this — keep it alive
    std::vector<std::size_t> ends;
    std::vector<puf::wal::RecordView> records;
    std::vector<int> epoch;  // per record; kEnrollment before rotation
    std::size_t rotation_first = 0;
  };
  std::array<ShardLog, kShards> logs;
  for (std::size_t shard = 0; shard < kShards; ++shard) {
    ShardLog& log = logs[shard];
    log.image = io::read_file(puf::wal::wal_path(source.path(), shard, 0));
    log.ends = record_ends_of(log.image);
    log.records = puf::wal::decode_wal(log.image).records;
    ASSERT_EQ(log.records.size(), log.ends.size());
    for (const puf::wal::RecordView& record : log.records) {
      const auto [device, generation] = owner.at(
          crypto::Bytes(record.challenge.begin(), record.challenge.end()));
      const bool enrolled =
          record.type == puf::wal::RecordType::kInsert && generation == 0;
      const int wave = static_cast<int>(device / config.wave_size);
      log.epoch.push_back(
          enrolled ? kEnrollment
                   : 2 * wave + (record.type == puf::wal::RecordType::kTake));
    }
    ASSERT_TRUE(std::is_sorted(log.epoch.begin(), log.epoch.end()))
        << "shard " << shard << " log is not in barrier order";
    log.rotation_first = static_cast<std::size_t>(
        std::count(log.epoch.begin(), log.epoch.end(), kEnrollment));
    ASSERT_LT(log.rotation_first, log.records.size());
  }

  std::size_t crashes = 0;
  std::size_t inside_take_batch = 0;
  std::array<std::size_t, kShards> keep{};
  for (keep[0] = logs[0].rotation_first; keep[0] <= logs[0].records.size();
       ++keep[0]) {
    for (keep[1] = logs[1].rotation_first;
         keep[1] <= logs[1].records.size(); ++keep[1]) {
      SCOPED_TRACE("shard 0 keeps " + std::to_string(keep[0]) +
                   " records, shard 1 keeps " + std::to_string(keep[1]));
      int latest_kept = kEnrollment;
      int earliest_lost = std::numeric_limits<int>::max();
      std::set<crypto::Bytes> consumed;
      for (std::size_t shard = 0; shard < kShards; ++shard) {
        const ShardLog& log = logs[shard];
        for (std::size_t r = 0; r < log.records.size(); ++r) {
          if (r >= keep[shard]) {
            earliest_lost = std::min(earliest_lost, log.epoch[r]);
            continue;
          }
          latest_kept = std::max(latest_kept, log.epoch[r]);
          if (log.records[r].type == puf::wal::RecordType::kTake) {
            consumed.emplace(log.records[r].challenge.begin(),
                             log.records[r].challenge.end());
          }
        }
      }
      if (latest_kept > earliest_lost) continue;  // no crash leaves this
      ++crashes;
      // Odd epochs are take_batch waves: the crash fell inside one.
      if (latest_kept % 2 == 1 && earliest_lost == latest_kept) {
        ++inside_take_batch;
      }

      const io::TempDir dir("np-fleet-crash");
      write_file(puf::wal::manifest_path(dir.path()), manifest);
      for (std::size_t shard = 0; shard < kShards; ++shard) {
        const ShardLog& log = logs[shard];
        write_file(puf::wal::wal_path(dir.path(), shard, 0),
                   {log.image.data(), log.ends[keep[shard] - 1]});
      }
      puf::CrpDatabase db(kShards, open_options(dir.path()));
      FleetSimulator fleet(config, db);
      fleet.recover_state(3);
      for (const crypto::Bytes& challenge : consumed) {
        ASSERT_FALSE(db.health(challenge).has_value())
            << "consumed CRP resurrected by recovery";
      }

      const ResumeReport resume = fleet.resume_rotation();
      EXPECT_EQ(resume.keyless, 0u) << "device left keyless by the crash";
      // Exactly the devices whose take survived count as rotated: resume
      // retakes none of them, so no CRP is served twice.
      EXPECT_EQ(resume.already_rotated, consumed.size());
      EXPECT_EQ(resume.already_rotated + resume.finished_takes + resume.redone,
                kDevices);
      EXPECT_EQ(fleet.count_keyless(), 0u);
      EXPECT_EQ(db.size(), kDevices);
      for (std::size_t device = 0; device < kDevices; ++device) {
        EXPECT_EQ(fleet.oldest_generation(device), 1u);
        EXPECT_EQ(fleet.next_generation(device), 2u);
        EXPECT_FALSE(db.lookup(fleet.challenge_of(device, 0)).has_value());
        EXPECT_TRUE(db.lookup(fleet.challenge_of(device, 1)).has_value());
      }
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  EXPECT_GT(inside_take_batch, 0u) << "no cut fell inside a take_batch";
  EXPECT_GT(crashes, inside_take_batch);
}

}  // namespace
}  // namespace neuropuls::fleet
