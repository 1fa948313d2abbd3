// Sharded CrpDatabase (ctest label: concurrency): the lock-striped store
// must lose no CRP, duplicate no CRP, and keep health/quarantine
// bookkeeping exact under concurrent takers/inserters — and the default
// single-shard configuration must reproduce the serial class's take()
// order bit-for-bit. The concurrency tests here are the ones the
// `scripts/check.sh reactor` flavor runs under ThreadSanitizer.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <thread>
#include <vector>

#include "puf/crp_db.hpp"

namespace neuropuls::puf {
namespace {

Crp make_crp(std::uint32_t i) {
  Crp crp;
  crp.challenge = {static_cast<std::uint8_t>(i), static_cast<std::uint8_t>(i >> 8),
                   static_cast<std::uint8_t>(i >> 16),
                   static_cast<std::uint8_t>(i >> 24),
                   0x5A, 0xC3, 0x0F, 0x99};
  crp.response = {static_cast<std::uint8_t>(i * 7 + 1)};
  return crp;
}

TEST(CrpShards, SingleShardPreservesSerialTakeOrder) {
  CrpDatabase db;  // default: one shard, the serial-compatible mode
  EXPECT_EQ(db.shard_count(), 1u);
  for (std::uint32_t i = 0; i < 6; ++i) db.insert(make_crp(i));
  // The serial class scanned its entries vector from the back, and
  // compaction swaps the last entry into the freed slot; with six inserts
  // and no quarantine that yields strict LIFO order.
  for (std::uint32_t i = 6; i-- > 0;) {
    const auto crp = db.take();
    ASSERT_TRUE(crp.has_value());
    EXPECT_EQ(crp->challenge, make_crp(i).challenge) << "position " << i;
  }
  EXPECT_FALSE(db.take().has_value());
}

TEST(CrpShards, ShardedStoreSpreadsAndDrainsCompletely) {
  CrpDatabase db(4);
  EXPECT_EQ(db.shard_count(), 4u);
  constexpr std::uint32_t kCount = 64;
  std::set<Challenge> inserted;
  for (std::uint32_t i = 0; i < kCount; ++i) {
    Crp crp = make_crp(i);
    inserted.insert(crp.challenge);
    db.insert(std::move(crp));
  }
  EXPECT_EQ(db.size(), kCount);
  std::size_t across_shards = 0;
  std::size_t populated = 0;
  for (std::size_t s = 0; s < db.shard_count(); ++s) {
    across_shards += db.shard_size(s);
    if (db.shard_size(s) > 0) ++populated;
  }
  EXPECT_EQ(across_shards, kCount);
  EXPECT_GT(populated, 1u);  // SipHash spreads 64 keys past one stripe

  std::set<Challenge> taken;
  while (const auto crp = db.take()) {
    EXPECT_TRUE(taken.insert(crp->challenge).second) << "duplicate take";
  }
  EXPECT_EQ(taken, inserted);
  EXPECT_TRUE(db.empty());
}

TEST(CrpShards, LookupAndHealthAreShardLocal) {
  CrpDatabase db(8);
  db.set_quarantine_threshold(2);
  for (std::uint32_t i = 0; i < 32; ++i) db.insert(make_crp(i));
  const Crp probe = make_crp(17);
  ASSERT_TRUE(db.lookup(probe.challenge).has_value());
  EXPECT_EQ(*db.lookup(probe.challenge), probe.response);

  db.record_failure(probe.challenge);
  db.record_failure(probe.challenge);
  EXPECT_FALSE(db.lookup(probe.challenge).has_value());  // quarantined
  EXPECT_EQ(db.quarantined(), 1u);
  EXPECT_EQ(db.evict_quarantined(), 1u);
  EXPECT_EQ(db.size(), 31u);
  EXPECT_FALSE(db.health(probe.challenge).has_value());
}

// Concurrent takers against a shared store: every CRP is taken exactly
// once (one-time-use is a security property, not just bookkeeping).
TEST(CrpShardsConcurrency, ParallelTakeLosesAndDuplicatesNothing) {
  constexpr std::uint32_t kCount = 512;
  constexpr unsigned kThreads = 4;
  CrpDatabase db(8);
  std::set<Challenge> inserted;
  for (std::uint32_t i = 0; i < kCount; ++i) {
    Crp crp = make_crp(i);
    inserted.insert(crp.challenge);
    db.insert(std::move(crp));
  }

  std::vector<std::vector<Challenge>> taken(kThreads);
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&db, &taken, t] {
      while (const auto crp = db.take()) {
        taken[t].push_back(crp->challenge);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  std::set<Challenge> all;
  std::size_t total = 0;
  for (const auto& per_thread : taken) {
    total += per_thread.size();
    for (const auto& challenge : per_thread) {
      EXPECT_TRUE(all.insert(challenge).second) << "duplicate take";
    }
  }
  EXPECT_EQ(total, kCount);
  EXPECT_EQ(all, inserted);
  EXPECT_TRUE(db.empty());
  const auto stats = db.lock_stats();
  EXPECT_GT(stats.acquisitions, 0u);
  EXPECT_LE(stats.contended, stats.acquisitions);
}

// Mixed traffic: two inserter threads race two takers plus a
// health-recording thread. Accounting must balance exactly.
TEST(CrpShardsConcurrency, MixedInsertTakeRecordStaysConsistent) {
  constexpr std::uint32_t kPreload = 128;
  constexpr std::uint32_t kPerInserter = 128;
  CrpDatabase db(8);
  for (std::uint32_t i = 0; i < kPreload; ++i) db.insert(make_crp(i));

  std::vector<std::vector<Challenge>> taken(2);
  std::vector<std::thread> threads;
  for (std::uint32_t t = 0; t < 2; ++t) {
    threads.emplace_back([&db, t] {
      for (std::uint32_t i = 0; i < kPerInserter; ++i) {
        db.insert(make_crp(kPreload + t * kPerInserter + i));
      }
    });
  }
  for (unsigned t = 0; t < 2; ++t) {
    threads.emplace_back([&db, &taken, t] {
      // Bounded pulls, not drain-until-empty: inserters are still running.
      for (std::uint32_t i = 0; i < kPreload; ++i) {
        if (const auto crp = db.take()) taken[t].push_back(crp->challenge);
      }
    });
  }
  threads.emplace_back([&db] {
    const Challenge target = make_crp(3).challenge;
    for (int i = 0; i < 64; ++i) {
      db.record_failure(target);
      db.record_success(target);
    }
  });
  for (auto& thread : threads) thread.join();

  std::set<Challenge> all;
  for (const auto& per_thread : taken) {
    for (const auto& challenge : per_thread) {
      EXPECT_TRUE(all.insert(challenge).second) << "duplicate take";
    }
  }
  EXPECT_EQ(db.size() + all.size(), kPreload + 2 * kPerInserter);
  std::size_t across_shards = 0;
  for (std::size_t s = 0; s < db.shard_count(); ++s) {
    across_shards += db.shard_size(s);
  }
  EXPECT_EQ(across_shards, db.size());
}

// Round-robin fairness of take(): the cursor must spread successive
// takers across stripes instead of draining shard 0 first. With every
// shard populated, the first kShards takes must land on kShards distinct
// shards without a single cross-shard steal.
TEST(CrpShards, TakeCursorVisitsAllShardsRoundRobin) {
  constexpr std::size_t kShards = 4;
  CrpDatabase db(kShards);
  for (std::uint32_t i = 0; i < 64; ++i) db.insert(make_crp(i));
  for (std::size_t s = 0; s < kShards; ++s) {
    ASSERT_GT(db.shard_size(s), 0u) << "fixture must populate every shard";
  }
  for (std::size_t s = 0; s < kShards; ++s) ASSERT_TRUE(db.take().has_value());
  const auto first_round = db.lock_stats();
  ASSERT_EQ(first_round.shard_takes.size(), kShards);
  EXPECT_EQ(first_round.takes, kShards);
  EXPECT_EQ(first_round.take_steals, 0u)
      << "with all shards populated, no take should probe past its start";
  for (std::size_t s = 0; s < kShards; ++s) {
    EXPECT_EQ(first_round.shard_takes[s], 1u) << "shard " << s;
  }
  // Drain the rest: per-shard takes must account for exactly the CRPs
  // each shard held, and once shards start emptying the cursor probes
  // onward — those probes are the only source of take_steals.
  while (db.take().has_value()) {
  }
  const auto drained = db.lock_stats();
  EXPECT_EQ(drained.takes, 64u);
  EXPECT_LE(drained.take_steals, drained.takes);
}

// Starvation regression under concurrent takers: when a striped store is
// drained by racing threads, every populated shard must serve takes — no
// shard may sit untouched while others empty — and the per-shard counts
// must balance exactly against what each shard held.
TEST(CrpShardsConcurrency, ConcurrentTakersStarveNoShard) {
  constexpr std::uint32_t kCount = 512;
  constexpr unsigned kThreads = 4;
  CrpDatabase db(8);
  for (std::uint32_t i = 0; i < kCount; ++i) db.insert(make_crp(i));
  std::vector<std::size_t> initial(db.shard_count());
  for (std::size_t s = 0; s < db.shard_count(); ++s) {
    initial[s] = db.shard_size(s);
  }

  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&db] {
      while (db.take().has_value()) {
      }
    });
  }
  for (auto& thread : threads) thread.join();
  ASSERT_TRUE(db.empty());

  const auto stats = db.lock_stats();
  ASSERT_EQ(stats.shard_takes.size(), db.shard_count());
  EXPECT_EQ(stats.takes, kCount);
  std::uint64_t across = 0;
  for (std::size_t s = 0; s < db.shard_count(); ++s) {
    // Exactness, not just non-starvation: a shard serves precisely the
    // CRPs it held, so lost/double takes cannot hide in the aggregate.
    EXPECT_EQ(stats.shard_takes[s], initial[s]) << "shard " << s;
    if (initial[s] > 0) {
      EXPECT_GT(stats.shard_takes[s], 0u) << "starved shard " << s;
    }
    across += stats.shard_takes[s];
  }
  EXPECT_EQ(across, stats.takes);
  EXPECT_LE(stats.take_steals, stats.takes);
}

// Concurrent failure recording on one challenge: the counters are guarded
// by the shard lock, so exactly the recorded total must land.
TEST(CrpShardsConcurrency, ConcurrentFailuresQuarantineExactly) {
  CrpDatabase db(4);
  db.set_quarantine_threshold(1000000);  // count, don't quarantine
  db.insert(make_crp(7));
  const Challenge target = make_crp(7).challenge;
  constexpr unsigned kThreads = 4;
  constexpr std::uint32_t kPerThread = 250;
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&db, &target] {
      for (std::uint32_t i = 0; i < kPerThread; ++i) db.record_failure(target);
    });
  }
  for (auto& thread : threads) thread.join();
  const auto health = db.health(target);
  ASSERT_TRUE(health.has_value());
  EXPECT_EQ(health->failures, kThreads * kPerThread);
  EXPECT_EQ(health->consecutive_failures, kThreads * kPerThread);
  EXPECT_FALSE(health->quarantined);
}

}  // namespace
}  // namespace neuropuls::puf
