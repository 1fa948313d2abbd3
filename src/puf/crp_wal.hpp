// Record/snapshot/manifest codec for the durable CRP store.
//
// `puf::CrpDatabase` persists every mutation as one append-only record in
// a per-shard write-ahead log, and periodically compacts a shard into a
// snapshot file. This header is the pure format layer: byte-exact
// encoders and decoders, no file descriptors, no locks — crp_db.cpp owns
// the I/O scheduling (group commit, rotation) and common/io.hpp owns the
// syscalls. Keeping the codec separate lets the crash-point tests
// decode, truncate, and corrupt WAL images byte-by-byte without a store.
//
// WAL record framing (all integers big-endian):
//
//   u32  payload_len
//   u32  payload_len ^ kLenCheck     (self-checking length: a torn tail
//                                     and a flipped length byte must be
//                                     distinguishable — see below)
//   u64  SipHash-2-4(payload)
//   payload:
//     u8   type          (kInsert / kTake / kHealth / kEvict)
//     u64  seq           (per-shard, monotonically increasing from 1)
//     u32  challenge_len, challenge bytes
//     kInsert: u32 response_len, response bytes
//     kHealth: u32 successes, u32 failures, u32 consecutive, u8 quarantined
//
// Torn tail vs corruption: a crash during an append leaves a *prefix* of
// the record (the file is append-only, single-writer), so a record whose
// verified length extends past end-of-file is a torn tail — recovery
// drops it and succeeds. A record whose bytes are all present but whose
// length check or checksum fails was damaged *after* it was durable;
// silently truncating there could resurrect consumed CRPs recorded later
// in the log, so recovery fails cleanly (CrpStoreError) instead.
//
// Health records carry the *resulting* counters, not the event, so
// replay is exact even when the quarantine threshold changes between
// runs.
//
// Snapshot format: magic, shard index, shard count at write, the WAL
// sequence number the state covers, the entries in storage order
// (preserving take() scan order across a restart), and a SHA-256
// trailer over everything before it. Manifest: generation + shard count
// + take cursor, SipHash-checksummed, committed by atomic rename.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "crypto/bytes.hpp"
#include "puf/crp_db.hpp"

namespace neuropuls::puf::wal {

/// Thrown by decoders on corruption and by CrpDatabase when recovery or
/// the WAL writer fails. "Fails cleanly": the store never half-opens.
class CrpStoreError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

enum class RecordType : std::uint8_t {
  kInsert = 1,   // challenge + response enter the store
  kTake = 2,     // challenge consumed (one-time use)
  kHealth = 3,   // resulting health counters incl. quarantine flag
  kEvict = 4,    // quarantined challenge removed
};

inline constexpr std::size_t kRecordHeaderBytes = 16;
inline constexpr std::uint32_t kLenCheck = 0xA5C35A3C;
inline constexpr std::size_t kMaxRecordBytes = 1u << 20;

/// One decoded record. The byte views alias the caller's WAL image —
/// replay copies them into the store, so the image only needs to outlive
/// the replay loop (recovery keeps it in an arena).
struct RecordView {
  RecordType type = RecordType::kInsert;
  std::uint64_t seq = 0;
  crypto::ByteView challenge;
  crypto::ByteView response;  // kInsert only
  CrpHealth health;           // kHealth only
};

/// Appends one framed record to `out` (the group-commit pending buffer).
void append_insert_record(crypto::Bytes& out, std::uint64_t seq,
                          crypto::ByteView challenge,
                          crypto::ByteView response);
void append_take_record(crypto::Bytes& out, std::uint64_t seq,
                        crypto::ByteView challenge);
void append_health_record(crypto::Bytes& out, std::uint64_t seq,
                          crypto::ByteView challenge, const CrpHealth& health);
void append_evict_record(crypto::Bytes& out, std::uint64_t seq,
                         crypto::ByteView challenge);

struct WalDecodeResult {
  std::vector<RecordView> records;
  /// Torn-tail bytes dropped at end-of-file (crash evidence; 0 on a
  /// cleanly closed log).
  std::size_t torn_bytes = 0;
};

/// Decodes a whole WAL image. Drops a torn tail; throws CrpStoreError on
/// mid-image corruption (see the framing notes above).
WalDecodeResult decode_wal(crypto::ByteView image);

// ---------------------------------------------------------------------------
// Snapshots.

inline constexpr std::size_t kSnapshotMagicBytes = 8;

/// Streaming snapshot encoder: header up front, one add() per entry in
/// storage order, SHA-256 trailer sealed by finish().
class SnapshotBuilder {
 public:
  SnapshotBuilder(std::uint32_t shard_index, std::uint32_t shard_count,
                  std::uint64_t wal_seq);

  void add(crypto::ByteView challenge, crypto::ByteView response,
           const CrpHealth& health);

  /// Seals the entry count and checksum; the builder is then exhausted.
  crypto::Bytes finish();

 private:
  std::uint32_t shard_index_;
  std::uint32_t shard_count_;
  std::uint64_t wal_seq_;
  crypto::Bytes buffer_;  // entry stream only; header built by finish()
  std::uint64_t entries_ = 0;
};

struct SnapshotEntryView {
  crypto::ByteView challenge;
  crypto::ByteView response;
  CrpHealth health;
};

struct SnapshotView {
  std::uint32_t shard_index = 0;
  std::uint32_t shard_count = 0;
  std::uint64_t wal_seq = 0;
  std::vector<SnapshotEntryView> entries;  // views into the caller's image
};

/// Decodes and verifies a snapshot image. Throws CrpStoreError on any
/// mismatch (magic, structure, SHA-256 trailer).
SnapshotView decode_snapshot(crypto::ByteView image);

// ---------------------------------------------------------------------------
// Manifest.

struct Manifest {
  std::uint64_t generation = 0;
  std::uint32_t shard_count = 0;
  /// take() round-robin cursor at the last snapshot; recovery restores
  /// the cursor deterministically as this value plus one per replayed
  /// take record.
  std::uint64_t take_cursor = 0;
};

crypto::Bytes encode_manifest(const Manifest& manifest);
Manifest decode_manifest(crypto::ByteView image);  // throws CrpStoreError

// ---------------------------------------------------------------------------
// On-disk layout.

std::string manifest_path(const std::string& dir);
std::string wal_path(const std::string& dir, std::size_t shard,
                     std::uint64_t generation);
std::string snapshot_path(const std::string& dir, std::size_t shard,
                          std::uint64_t generation);

}  // namespace neuropuls::puf::wal
