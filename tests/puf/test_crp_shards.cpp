// Sharded CrpDatabase (ctest label: concurrency): the lock-striped store
// must lose no CRP, duplicate no CRP, and keep health/quarantine
// bookkeeping exact under concurrent keyed takers and inserters. The
// concurrency tests here are the ones the `scripts/check.sh reactor`
// flavor runs under ThreadSanitizer.
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

  const std::vector<Challenge> keys(inserted.begin(), inserted.end());
  std::set<Challenge> taken;
  for (const auto& crp : db.take_batch(keys)) {
    ASSERT_TRUE(crp.has_value());
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

// Concurrent keyed takers against a shared store: four threads run
// take_batch over overlapping challenge sets, so every CRP is asked for
// by two threads at once, and still every CRP is handed out exactly once
// in total (one-time use is a security property, not just bookkeeping).
TEST(CrpShardsConcurrency, ParallelTakeLosesAndDuplicatesNothing) {
  constexpr std::uint32_t kCount = 512;
  constexpr unsigned kThreads = 4;
  constexpr std::uint32_t kWindow = kCount / 2;  // each CRP in two windows
  constexpr std::uint32_t kBatch = 32;
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
      // Thread t asks for [t * kCount / kThreads, + kWindow) mod kCount,
      // in batches of kBatch.
      const std::uint32_t start = t * (kCount / kThreads);
      for (std::uint32_t off = 0; off < kWindow; off += kBatch) {
        std::vector<Challenge> batch;
        for (std::uint32_t i = off; i < off + kBatch; ++i) {
          batch.push_back(make_crp((start + i) % kCount).challenge);
        }
        const auto crps = db.take_batch(batch);
        for (std::size_t i = 0; i < crps.size(); ++i) {
          if (!crps[i].has_value()) continue;
          EXPECT_EQ(crps[i]->challenge, batch[i]);
          taken[t].push_back(crps[i]->challenge);
        }
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
  EXPECT_EQ(stats.takes, kCount);
  EXPECT_EQ(stats.take_steals, 0u);
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
      // Both takers race for every preloaded challenge by key.
      for (std::uint32_t i = 0; i < kPreload; ++i) {
        if (const auto crp = db.take(make_crp(i).challenge)) {
          taken[t].push_back(crp->challenge);
        }
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
  EXPECT_EQ(all.size(), kPreload) << "a preloaded CRP was lost";
  EXPECT_EQ(db.size() + all.size(), kPreload + 2 * kPerInserter);
  std::size_t across_shards = 0;
  for (std::size_t s = 0; s < db.shard_count(); ++s) {
    across_shards += db.shard_size(s);
  }
  EXPECT_EQ(across_shards, db.size());
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
