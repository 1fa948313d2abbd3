#include "puf/crp_wal.hpp"

#include <cstdio>

#include "crypto/sha256.hpp"
#include "crypto/siphash.hpp"

namespace neuropuls::puf::wal {

namespace {

// Framing key for the per-record SipHash. Like the CRP index hash key this
// is a fixed public constant: the checksum defends against torn and bit-
// rotted storage, not an adversary with write access to the WAL.
constexpr std::array<std::uint8_t, 16> kWalKey = {
    'n', 'p', '-', 'c', 'r', 'p', '-', 'w',
    'a', 'l', '-', 'c', 'k', 's', 'u', 'm'};

constexpr std::uint8_t kSnapshotMagic[kSnapshotMagicBytes] = {
    'N', 'P', 'S', 'N', 'A', 'P', '0', '1'};
constexpr std::uint8_t kManifestMagic[8] = {'N', 'P', 'C', 'R',
                                            'P', 'M', 'A', 'N'};
constexpr std::uint32_t kManifestVersion = 2;

void append_health_fields(crypto::Bytes& out, const CrpHealth& health) {
  crypto::append_u32_be(out, health.successes);
  crypto::append_u32_be(out, health.failures);
  crypto::append_u32_be(out, health.consecutive_failures);
  out.push_back(health.quarantined ? 1 : 0);
}

/// Seals a record whose payload occupies out[payload_start..end): writes
/// the length, length check, and payload checksum into the 16 header
/// bytes reserved just before payload_start.
void seal_record(crypto::Bytes& out, std::size_t header_start) {
  const std::size_t payload_start = header_start + kRecordHeaderBytes;
  const auto len = static_cast<std::uint32_t>(out.size() - payload_start);
  const crypto::ByteView payload{out.data() + payload_start, len};
  crypto::put_u32_be({out.data() + header_start, 4}, len);
  crypto::put_u32_be({out.data() + header_start + 4, 4}, len ^ kLenCheck);
  crypto::put_u64_be({out.data() + header_start + 8, 8},
                     crypto::siphash24(kWalKey, payload));
}

std::size_t begin_record(crypto::Bytes& out, RecordType type,
                         std::uint64_t seq, crypto::ByteView challenge) {
  const std::size_t header_start = out.size();
  out.resize(out.size() + kRecordHeaderBytes);  // sealed by seal_record
  out.push_back(static_cast<std::uint8_t>(type));
  crypto::append_u64_be(out, seq);
  crypto::append_u32_be(out, static_cast<std::uint32_t>(challenge.size()));
  out.insert(out.end(), challenge.begin(), challenge.end());
  return header_start;
}

/// Cursor over a payload or snapshot body; all read_* throw CrpStoreError
/// past the end so malformed structure surfaces as corruption, never UB.
struct Reader {
  crypto::ByteView data;
  std::size_t pos = 0;
  const char* what;

  [[noreturn]] void fail() const {
    throw CrpStoreError(std::string(what) + ": truncated structure");
  }
  crypto::ByteView read_bytes(std::size_t n) {
    if (data.size() - pos < n) fail();
    const crypto::ByteView view = data.subspan(pos, n);
    pos += n;
    return view;
  }
  std::uint8_t read_u8() { return read_bytes(1)[0]; }
  std::uint32_t read_u32() { return crypto::get_u32_be(read_bytes(4)); }
  std::uint64_t read_u64() { return crypto::get_u64_be(read_bytes(8)); }
  CrpHealth read_health() {
    CrpHealth health;
    health.successes = read_u32();
    health.failures = read_u32();
    health.consecutive_failures = read_u32();
    health.quarantined = read_u8() != 0;
    return health;
  }
  bool done() const noexcept { return pos == data.size(); }
};

RecordView parse_payload(crypto::ByteView payload) {
  Reader reader{payload, 0, "wal record"};
  RecordView record;
  const std::uint8_t type = reader.read_u8();
  if (type < static_cast<std::uint8_t>(RecordType::kInsert) ||
      type > static_cast<std::uint8_t>(RecordType::kEvict)) {
    throw CrpStoreError("wal record: unknown type " + std::to_string(type));
  }
  record.type = static_cast<RecordType>(type);
  record.seq = reader.read_u64();
  record.challenge = reader.read_bytes(reader.read_u32());
  switch (record.type) {
    case RecordType::kInsert:
      record.response = reader.read_bytes(reader.read_u32());
      break;
    case RecordType::kHealth:
      record.health = reader.read_health();
      break;
    case RecordType::kTake:
    case RecordType::kEvict:
      break;
  }
  if (!reader.done()) {
    throw CrpStoreError("wal record: trailing bytes in payload");
  }
  return record;
}

}  // namespace

void append_insert_record(crypto::Bytes& out, std::uint64_t seq,
                          crypto::ByteView challenge,
                          crypto::ByteView response) {
  const std::size_t start = begin_record(out, RecordType::kInsert, seq,
                                         challenge);
  crypto::append_u32_be(out, static_cast<std::uint32_t>(response.size()));
  out.insert(out.end(), response.begin(), response.end());
  seal_record(out, start);
}

void append_take_record(crypto::Bytes& out, std::uint64_t seq,
                        crypto::ByteView challenge) {
  seal_record(out, begin_record(out, RecordType::kTake, seq, challenge));
}

void append_health_record(crypto::Bytes& out, std::uint64_t seq,
                          crypto::ByteView challenge, const CrpHealth& health) {
  const std::size_t start = begin_record(out, RecordType::kHealth, seq,
                                         challenge);
  append_health_fields(out, health);
  seal_record(out, start);
}

void append_evict_record(crypto::Bytes& out, std::uint64_t seq,
                         crypto::ByteView challenge) {
  seal_record(out, begin_record(out, RecordType::kEvict, seq, challenge));
}

WalDecodeResult decode_wal(crypto::ByteView image) {
  WalDecodeResult result;
  std::size_t pos = 0;
  while (pos < image.size()) {
    const std::size_t remaining = image.size() - pos;
    if (remaining < kRecordHeaderBytes) break;  // torn header at the tail
    const std::uint32_t len = crypto::get_u32_be(image.subspan(pos, 4));
    const std::uint32_t check = crypto::get_u32_be(image.subspan(pos + 4, 4));
    if ((len ^ kLenCheck) != check) {
      // The self-checking length survived in full but does not verify:
      // this is damage, not a torn append.
      throw CrpStoreError("wal: corrupt record length at offset " +
                          std::to_string(pos));
    }
    if (len > kMaxRecordBytes) {
      throw CrpStoreError("wal: implausible record length at offset " +
                          std::to_string(pos));
    }
    if (remaining < kRecordHeaderBytes + len) break;  // torn payload
    const crypto::ByteView payload =
        image.subspan(pos + kRecordHeaderBytes, len);
    const std::uint64_t sum =
        crypto::get_u64_be(image.subspan(pos + 8, 8));
    if (crypto::siphash24(kWalKey, payload) != sum) {
      throw CrpStoreError("wal: record checksum mismatch at offset " +
                          std::to_string(pos));
    }
    RecordView record = parse_payload(payload);
    if (!result.records.empty() && record.seq <= result.records.back().seq) {
      throw CrpStoreError("wal: non-monotonic sequence at offset " +
                          std::to_string(pos));
    }
    result.records.push_back(record);
    pos += kRecordHeaderBytes + len;
  }
  result.torn_bytes = image.size() - pos;
  return result;
}

SnapshotBuilder::SnapshotBuilder(std::uint32_t shard_index,
                                 std::uint32_t shard_count,
                                 std::uint64_t wal_seq)
    : shard_index_(shard_index),
      shard_count_(shard_count),
      wal_seq_(wal_seq) {}

void SnapshotBuilder::add(crypto::ByteView challenge,
                          crypto::ByteView response, const CrpHealth& health) {
  crypto::append_u32_be(buffer_, static_cast<std::uint32_t>(challenge.size()));
  buffer_.insert(buffer_.end(), challenge.begin(), challenge.end());
  crypto::append_u32_be(buffer_, static_cast<std::uint32_t>(response.size()));
  buffer_.insert(buffer_.end(), response.begin(), response.end());
  append_health_fields(buffer_, health);
  ++entries_;
}

crypto::Bytes SnapshotBuilder::finish() {
  crypto::Bytes header;
  header.reserve(kSnapshotMagicBytes + 4 + 4 + 8 + 8);
  for (const std::uint8_t byte : kSnapshotMagic) header.push_back(byte);
  crypto::append_u32_be(header, shard_index_);
  crypto::append_u32_be(header, shard_count_);
  crypto::append_u64_be(header, wal_seq_);
  crypto::append_u64_be(header, entries_);
  const auto digest = crypto::Sha256::digest_parts({header, buffer_});
  crypto::Bytes out;
  out.reserve(header.size() + buffer_.size() + digest.size());
  out.insert(out.end(), header.begin(), header.end());
  out.insert(out.end(), buffer_.begin(), buffer_.end());
  out.insert(out.end(), digest.begin(), digest.end());
  return out;
}

SnapshotView decode_snapshot(crypto::ByteView image) {
  constexpr std::size_t kHeaderBytes = kSnapshotMagicBytes + 4 + 4 + 8 + 8;
  if (image.size() < kHeaderBytes + crypto::Sha256::kDigestSize) {
    throw CrpStoreError("snapshot: truncated file");
  }
  const crypto::ByteView body =
      image.first(image.size() - crypto::Sha256::kDigestSize);
  const crypto::ByteView trailer =
      image.last(crypto::Sha256::kDigestSize);
  const auto digest = crypto::Sha256::digest(body);
  if (!crypto::ct_equal(digest, trailer)) {
    throw CrpStoreError("snapshot: SHA-256 trailer mismatch");
  }
  Reader reader{body, 0, "snapshot"};
  const crypto::ByteView magic = reader.read_bytes(kSnapshotMagicBytes);
  if (!std::equal(magic.begin(), magic.end(), std::begin(kSnapshotMagic))) {
    throw CrpStoreError("snapshot: bad magic");
  }
  SnapshotView view;
  view.shard_index = reader.read_u32();
  view.shard_count = reader.read_u32();
  view.wal_seq = reader.read_u64();
  const std::uint64_t count = reader.read_u64();
  // The smallest entry is two empty length-prefixed fields plus the
  // 13 health bytes: a count the body cannot hold is corruption, and
  // must not reach reserve() as an allocation size.
  constexpr std::size_t kMinEntryBytes = 4 + 4 + 13;
  if (count > (body.size() - reader.pos) / kMinEntryBytes) {
    throw CrpStoreError("snapshot: entry count exceeds file size");
  }
  view.entries.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    SnapshotEntryView entry;
    entry.challenge = reader.read_bytes(reader.read_u32());
    entry.response = reader.read_bytes(reader.read_u32());
    entry.health = reader.read_health();
    view.entries.push_back(entry);
  }
  if (!reader.done()) {
    throw CrpStoreError("snapshot: trailing bytes after entries");
  }
  return view;
}

crypto::Bytes encode_manifest(const Manifest& manifest) {
  crypto::Bytes out;
  out.reserve(8 + 4 + 8 + 4 + 8);
  for (const std::uint8_t byte : kManifestMagic) out.push_back(byte);
  crypto::append_u32_be(out, kManifestVersion);
  crypto::append_u64_be(out, manifest.generation);
  crypto::append_u32_be(out, manifest.shard_count);
  crypto::append_u64_be(out, crypto::siphash24(kWalKey, out));
  return out;
}

Manifest decode_manifest(crypto::ByteView image) {
  constexpr std::size_t kManifestBytes = 8 + 4 + 8 + 4 + 8;
  if (image.size() != kManifestBytes) {
    throw CrpStoreError("manifest: wrong size");
  }
  const crypto::ByteView body = image.first(kManifestBytes - 8);
  if (crypto::siphash24(kWalKey, body) != crypto::get_u64_be(image.last(8))) {
    throw CrpStoreError("manifest: checksum mismatch");
  }
  Reader reader{body, 0, "manifest"};
  const crypto::ByteView magic = reader.read_bytes(8);
  if (!std::equal(magic.begin(), magic.end(), std::begin(kManifestMagic))) {
    throw CrpStoreError("manifest: bad magic");
  }
  if (reader.read_u32() != kManifestVersion) {
    throw CrpStoreError("manifest: unsupported version");
  }
  Manifest manifest;
  manifest.generation = reader.read_u64();
  manifest.shard_count = reader.read_u32();
  return manifest;
}

std::string manifest_path(const std::string& dir) { return dir + "/MANIFEST"; }

std::string wal_path(const std::string& dir, std::size_t shard,
                     std::uint64_t generation) {
  char name[64];
  std::snprintf(name, sizeof(name), "/shard-%04zu-%06llu.wal", shard,
                static_cast<unsigned long long>(generation));
  return dir + name;
}

std::string snapshot_path(const std::string& dir, std::size_t shard,
                          std::uint64_t generation) {
  char name[64];
  std::snprintf(name, sizeof(name), "/shard-%04zu-%06llu.snap", shard,
                static_cast<unsigned long long>(generation));
  return dir + name;
}

}  // namespace neuropuls::puf::wal
