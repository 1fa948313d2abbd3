// E15 — durable CRP store: group-commit throughput and cold-start
// recovery at memory speed.
//
// Two questions, both quantitative:
//
//   1. What does durability cost on the mutation path? The naive design
//      fsyncs once per operation (insert + sync()); the group-commit WAL
//      coalesces a batch of records into one write+fsync. The table
//      prints both as ops/sec plus the ratio — the layer's reason to
//      exist is that the ratio is large (>= 10x on every medium we've
//      measured).
//
//   2. How fast does a verifier come back after a restart? Cold start
//      replays snapshot + WAL per shard over common::parallel; the
//      table sweeps shard count for a pure-WAL start (every record
//      re-applied) and a snapshot start (compacted image, empty WAL),
//      in CRPs/sec.
//
// Timing cases (merged into BENCH_baseline.json for bench_regress.py):
//   * BM_CrpStoreGroupCommit          — durable insert stream, group commit
//   * BM_CrpStoreFsyncPerOp           — same stream, sync() per insert
//   * BM_CrpStoreRecoveryWal/{1..8}   — cold start from WAL only
//   * BM_CrpStoreRecoverySnapshot/{1..8} — cold start from snapshot
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>

#include "bench_util.hpp"
#include "common/io.hpp"
#include "puf/crp_db.hpp"

namespace {

namespace io = neuropuls::common::io;
using neuropuls::puf::Crp;
using neuropuls::puf::CrpDatabase;
using neuropuls::puf::CrpDurabilityOptions;

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

/// Populates a fresh durable store with `count` CRPs and closes it
/// cleanly; when `snapshot` is set the WAL is compacted first, so the
/// next open is a pure snapshot start (wal_records == 0).
void build_store(const std::string& dir, std::size_t shards,
                 std::uint32_t count, bool snapshot) {
  CrpDatabase db(shards, durable_in(dir));
  for (std::uint32_t i = 0; i < count; ++i) db.insert(make_crp(i));
  if (snapshot) db.snapshot();
}

/// Durable insert stream; `sync_each` waits for every insert's fsync
/// (the fsync-per-op baseline) instead of one barrier at the end.
double timed_ops_per_sec(bool sync_each, std::uint32_t ops) {
  const io::TempDir dir("np-bench-crp-store");
  CrpDatabase db(1, durable_in(dir.path()));
  const auto start = std::chrono::steady_clock::now();
  for (std::uint32_t i = 0; i < ops; ++i) {
    db.insert(make_crp(i));
    if (sync_each) db.sync();
  }
  db.sync();
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  return static_cast<double>(ops) / elapsed.count();
}

double timed_recovery_crps_per_sec(std::size_t shards, std::uint32_t count,
                                   bool snapshot) {
  const io::TempDir dir("np-bench-crp-store");
  build_store(dir.path(), shards, count, snapshot);
  const auto start = std::chrono::steady_clock::now();
  const CrpDatabase db(shards, durable_in(dir.path()));
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  if (db.size() != count) std::abort();  // the bench must replay everything
  return static_cast<double>(count) / elapsed.count();
}

void print_tables() {
  neuropuls::bench::banner(
      "E15", "durable CRP store: group commit + parallel recovery");

  constexpr std::uint32_t kOps = 2048;
  const double group = timed_ops_per_sec(false, kOps);
  // fsync-per-op pays a full flush round trip per insert — keep the
  // sample small enough to stay polite on slow media.
  const double naive = timed_ops_per_sec(true, kOps / 8);
  std::printf("\n  durable insert throughput (1 shard, %u ops)\n", kOps);
  std::printf("  %-22s %14s\n", "mode", "ops/sec");
  std::printf("  %-22s %14.0f\n", "group-commit WAL", group);
  std::printf("  %-22s %14.0f\n", "insert + sync()", naive);
  std::printf("  group-commit speedup: %.1fx %s\n", group / naive,
              group / naive >= 10.0 ? "(>= 10x target met)"
                                    : "(below 10x target!)");

  constexpr std::uint32_t kEntries = 16384;
  std::printf("\n  cold-start recovery (%u CRPs, CRPs/sec)\n", kEntries);
  std::printf("  %-8s %16s %16s\n", "shards", "WAL replay", "snapshot");
  for (const std::size_t shards : {1, 2, 4, 8}) {
    const double walrate =
        timed_recovery_crps_per_sec(shards, kEntries, false);
    const double snaprate =
        timed_recovery_crps_per_sec(shards, kEntries, true);
    std::printf("  %-8zu %16.0f %16.0f\n", shards, walrate, snaprate);
  }
  neuropuls::bench::note(
      "replay is per-shard over common::parallel; shard scaling needs cores");
}

void BM_CrpStoreGroupCommit(benchmark::State& state) {
  constexpr std::uint32_t kOps = 512;
  for (auto _ : state) {
    state.PauseTiming();
    const io::TempDir dir("np-bench-crp-store");
    state.ResumeTiming();
    CrpDatabase db(1, durable_in(dir.path()));
    for (std::uint32_t i = 0; i < kOps; ++i) db.insert(make_crp(i));
    db.sync();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kOps);
}
// Real time: the caller blocks on the writer thread's fsyncs.
BENCHMARK(BM_CrpStoreGroupCommit)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_CrpStoreFsyncPerOp(benchmark::State& state) {
  constexpr std::uint32_t kOps = 64;
  for (auto _ : state) {
    state.PauseTiming();
    const io::TempDir dir("np-bench-crp-store");
    state.ResumeTiming();
    CrpDatabase db(1, durable_in(dir.path()));
    for (std::uint32_t i = 0; i < kOps; ++i) {
      db.insert(make_crp(i));
      db.sync();
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kOps);
}
BENCHMARK(BM_CrpStoreFsyncPerOp)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void run_recovery_case(benchmark::State& state, bool snapshot) {
  const auto shards = static_cast<std::size_t>(state.range(0));
  constexpr std::uint32_t kEntries = 8192;
  const io::TempDir dir("np-bench-crp-store");
  build_store(dir.path(), shards, kEntries, snapshot);
  for (auto _ : state) {
    const CrpDatabase db(shards, durable_in(dir.path()));
    benchmark::DoNotOptimize(db.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kEntries);
}

void BM_CrpStoreRecoveryWal(benchmark::State& state) {
  run_recovery_case(state, false);
}
BENCHMARK(BM_CrpStoreRecoveryWal)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_CrpStoreRecoverySnapshot(benchmark::State& state) {
  run_recovery_case(state, true);
}
BENCHMARK(BM_CrpStoreRecoverySnapshot)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

NEUROPULS_BENCH_MAIN(print_tables)
