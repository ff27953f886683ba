// The durable labeled store: WAL framing, crash recovery, snapshot
// compaction, and memory accounting.
#include "src/store/store.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/store/label_codec.h"
#include "src/store/wal.h"
#include "tests/test_util.h"

namespace asbestos {
namespace {

using testing::TempDir;

Handle H(uint64_t v) { return Handle::FromValue(v); }

void TruncateFileBy(const std::string& path, uint64_t bytes) {
  FILE* f = ::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  ::fseek(f, 0, SEEK_END);
  const long size = ::ftell(f);
  ::fclose(f);
  ASSERT_GT(static_cast<uint64_t>(size), bytes);
  ASSERT_EQ(::truncate(path.c_str(), size - static_cast<long>(bytes)), 0);
}

void CorruptFileByteAt(const std::string& path, long offset) {
  FILE* f = ::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ::fseek(f, offset, SEEK_SET);
  const int c = ::fgetc(f);
  ::fseek(f, offset, SEEK_SET);
  ::fputc(c ^ 0xFF, f);
  ::fclose(f);
}

TEST(Crc32Test, KnownVector) {
  // The standard CRC-32 check value.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
}

// The one-byte-at-a-time CRC-32 the sliced one replaced, as the reference.
uint32_t BytewiseCrc32(std::string_view data) {
  uint32_t crc = 0xFFFFFFFFu;
  for (const char ch : data) {
    crc ^= static_cast<uint8_t>(ch);
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(Crc32Test, MatchesBytewiseReferenceAtEveryLengthAndAlignment) {
  // Deterministic bytes covering all 256 values; the start offset shifts
  // the 8-byte steps against the buffer's alignment.
  std::string buf(64 * 1024 + 8, '\0');
  uint32_t x = 0x12345678u;
  for (char& c : buf) {
    x = x * 1664525u + 1013904223u;
    c = static_cast<char>(x >> 24);
  }
  const std::string_view all(buf);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 1024; ++len) {
      const std::string_view piece = all.substr(offset, len);
      ASSERT_EQ(Crc32(piece), BytewiseCrc32(piece)) << "offset " << offset << " len " << len;
    }
  }
  const std::string_view big = all.substr(3, 64 * 1024);
  EXPECT_EQ(Crc32(big), BytewiseCrc32(big));
}

TEST(WalTest, AppendThenRecover) {
  TempDir dir;
  const std::string path = dir.path() + "/wal";
  {
    Wal wal;
    ASSERT_EQ(wal.Open(path, [](std::string_view) { FAIL() << "fresh log has no records"; }),
              Status::kOk);
    ASSERT_EQ(wal.Append("one"), Status::kOk);
    ASSERT_EQ(wal.Append(""), Status::kOk);  // empty records are legal
    ASSERT_EQ(wal.Append(std::string(100000, 'x')), Status::kOk);
    ASSERT_EQ(wal.Sync(), Status::kOk);
  }
  Wal wal;
  std::vector<std::string> records;
  ASSERT_EQ(wal.Open(path, [&](std::string_view r) { records.emplace_back(r); }), Status::kOk);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0], "one");
  EXPECT_EQ(records[1], "");
  EXPECT_EQ(records[2].size(), 100000u);
  EXPECT_EQ(wal.dropped_tail_bytes(), 0u);
}

TEST(WalTest, TornTailIsRepaired) {
  TempDir dir;
  const std::string path = dir.path() + "/wal";
  {
    Wal wal;
    ASSERT_EQ(wal.Open(path, [](std::string_view) {}), Status::kOk);
    ASSERT_EQ(wal.Append("first"), Status::kOk);
    ASSERT_EQ(wal.Append("second"), Status::kOk);
    ASSERT_EQ(wal.Append("third-will-be-torn"), Status::kOk);
  }
  // A crash mid-append leaves a partial final frame.
  TruncateFileBy(path, 4);
  std::vector<std::string> records;
  Wal wal;
  ASSERT_EQ(wal.Open(path, [&](std::string_view r) { records.emplace_back(r); }), Status::kOk);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1], "second");
  EXPECT_GT(wal.dropped_tail_bytes(), 0u);
  // The log is clean again: appends after repair recover fine.
  ASSERT_EQ(wal.Append("fourth"), Status::kOk);
  wal.Close();
  records.clear();
  Wal wal2;
  ASSERT_EQ(wal2.Open(path, [&](std::string_view r) { records.emplace_back(r); }), Status::kOk);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[2], "fourth");
  EXPECT_EQ(wal2.dropped_tail_bytes(), 0u);
}

TEST(WalTest, CorruptFrameStopsReplay) {
  TempDir dir;
  const std::string path = dir.path() + "/wal";
  {
    Wal wal;
    ASSERT_EQ(wal.Open(path, [](std::string_view) {}), Status::kOk);
    ASSERT_EQ(wal.Append("aaaaaaaa"), Status::kOk);
    ASSERT_EQ(wal.Append("bbbbbbbb"), Status::kOk);
  }
  // Flip a payload byte of the first record: its CRC fails, and recovery
  // must drop it AND everything after (the tail cannot be trusted once
  // framing is lost).
  CorruptFileByteAt(path, 8 + 2);
  std::vector<std::string> records;
  Wal wal;
  ASSERT_EQ(wal.Open(path, [&](std::string_view r) { records.emplace_back(r); }), Status::kOk);
  EXPECT_TRUE(records.empty());
  EXPECT_GT(wal.dropped_tail_bytes(), 0u);
}

StoreOptions Opts(const TempDir& dir) {
  StoreOptions o;
  o.dir = dir.path() + "/store";
  return o;
}

TEST(DurableStoreTest, PutGetEraseRoundTrip) {
  TempDir dir;
  const Label secrecy({{H(42), Level::kL3}}, Level::kStar);
  const Label integrity({{H(43), Level::kL0}}, Level::kL3);
  {
    auto store = DurableStore::Open(Opts(dir));
    ASSERT_TRUE(store.ok());
    ASSERT_EQ(store.value()->Put("k1", "v1", secrecy, integrity), Status::kOk);
    ASSERT_EQ(store.value()->Put("k2", "v2", Label::Bottom(), Label::Top()), Status::kOk);
    ASSERT_EQ(store.value()->Put("k1", "v1-updated", secrecy, integrity), Status::kOk);
    ASSERT_EQ(store.value()->Erase("k2"), Status::kOk);
    EXPECT_EQ(store.value()->Erase("missing"), Status::kNotFound);
  }
  auto store = DurableStore::Open(Opts(dir));
  ASSERT_TRUE(store.ok());
  ASSERT_EQ(store.value()->size(), 1u);
  const StoreRecord* r = store.value()->Get("k1");
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->value, "v1-updated");
  EXPECT_TRUE(r->secrecy.Equals(secrecy));
  EXPECT_TRUE(r->integrity.Equals(integrity));
  r->secrecy.CheckRep();
  r->integrity.CheckRep();
  EXPECT_EQ(store.value()->log_records_replayed(), 4u);
}

TEST(DurableStoreTest, CrashMidAppendRecoversValidPrefix) {
  TempDir dir;
  {
    auto store = DurableStore::Open(Opts(dir));
    ASSERT_TRUE(store.ok());
    ASSERT_EQ(store.value()->Put("a", "1", Label::Bottom(), Label::Top()), Status::kOk);
    ASSERT_EQ(store.value()->Put("b", "2", Label::Bottom(), Label::Top()), Status::kOk);
    ASSERT_EQ(store.value()->Put("c", "3", Label::Bottom(), Label::Top()), Status::kOk);
  }
  TruncateFileBy(dir.path() + "/store/wal", 3);  // tear the last Put
  auto store = DurableStore::Open(Opts(dir));
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(store.value()->size(), 2u);
  EXPECT_NE(store.value()->Get("a"), nullptr);
  EXPECT_NE(store.value()->Get("b"), nullptr);
  EXPECT_EQ(store.value()->Get("c"), nullptr);
  EXPECT_GT(store.value()->torn_tail_bytes_dropped(), 0u);
  // The repaired store keeps working.
  ASSERT_EQ(store.value()->Put("c", "3-again", Label::Bottom(), Label::Top()), Status::kOk);
}

TEST(DurableStoreTest, CompactionIsEquivalent) {
  TempDir dir;
  const Label secrecy({{H(7), Level::kL2}}, Level::kStar);
  {
    auto store = DurableStore::Open(Opts(dir));
    ASSERT_TRUE(store.ok());
    for (int i = 0; i < 50; ++i) {
      ASSERT_EQ(store.value()->Put("key" + std::to_string(i % 10), "v" + std::to_string(i),
                                   secrecy, Label::Top()),
                Status::kOk);
    }
    ASSERT_EQ(store.value()->Erase("key3"), Status::kOk);
    ASSERT_EQ(store.value()->Compact(), Status::kOk);
    EXPECT_EQ(store.value()->wal_bytes(), 0u) << "compaction truncates the log";
    // Post-compaction mutations land in the fresh log.
    ASSERT_EQ(store.value()->Put("post", "compact", Label::Bottom(), Label::Top()), Status::kOk);
  }
  auto store = DurableStore::Open(Opts(dir));
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(store.value()->snapshot_records_loaded(), 9u);
  EXPECT_EQ(store.value()->log_records_replayed(), 1u);
  ASSERT_EQ(store.value()->size(), 10u);
  EXPECT_EQ(store.value()->Get("key4")->value, "v44");
  EXPECT_EQ(store.value()->Get("post")->value, "compact");
  EXPECT_EQ(store.value()->Get("key3"), nullptr);
  EXPECT_TRUE(store.value()->Get("key5")->secrecy.Equals(secrecy));
}

TEST(DurableStoreTest, AutoCompactionBoundsTheLog) {
  TempDir dir;
  StoreOptions opts = Opts(dir);
  opts.compact_min_log_records = 16;
  auto store = DurableStore::Open(std::move(opts));
  ASSERT_TRUE(store.ok());
  // One hot key rewritten many times: the log would grow without bound, the
  // map stays at size 1, so auto-compaction must kick in.
  for (int i = 0; i < 200; ++i) {
    ASSERT_EQ(store.value()->Put("hot", std::string(100, 'x'), Label::Bottom(), Label::Top()),
              Status::kOk);
  }
  EXPECT_GT(store.value()->compactions(), 0u);
  EXPECT_LT(store.value()->wal_bytes(), 16u * 200u);
}

TEST(DurableStoreTest, ReplayedRecordsStopCountingAfterCompaction) {
  TempDir dir;
  {  // Build a log-heavy store with auto-compaction effectively disabled.
    StoreOptions opts = Opts(dir);
    opts.compact_min_log_records = ~0ULL;
    auto store = DurableStore::Open(std::move(opts));
    ASSERT_TRUE(store.ok());
    for (int i = 0; i < 100; ++i) {
      ASSERT_EQ(store.value()->Put("hot", "v" + std::to_string(i), Label::Bottom(), Label::Top()),
                Status::kOk);
    }
  }
  // Reopen with normal thresholds: the replayed backlog triggers one
  // compaction, after which the counter must reset — not leave the store
  // rewriting a snapshot on every subsequent mutation.
  StoreOptions opts = Opts(dir);
  opts.compact_min_log_records = 32;
  auto store = DurableStore::Open(std::move(opts));
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(store.value()->log_records_replayed(), 100u);
  for (int i = 0; i < 10; ++i) {
    ASSERT_EQ(store.value()->Put("hot", "post", Label::Bottom(), Label::Top()), Status::kOk);
  }
  EXPECT_EQ(store.value()->compactions(), 1u)
      << "replayed records must not keep tripping the auto-compaction threshold";
}

TEST(DurableStoreTest, CorruptSnapshotRefusesToOpen) {
  TempDir dir;
  {
    auto store = DurableStore::Open(Opts(dir));
    ASSERT_TRUE(store.ok());
    ASSERT_EQ(store.value()->Put("k", "v", Label::Bottom(), Label::Top()), Status::kOk);
    ASSERT_EQ(store.value()->Compact(), Status::kOk);
  }
  CorruptFileByteAt(dir.path() + "/store/snapshot", 16);
  auto store = DurableStore::Open(Opts(dir));
  EXPECT_FALSE(store.ok()) << "a corrupt snapshot must fail loudly, not load partially";
}

// --- Sharding ---------------------------------------------------------------

StoreOptions ShardedOpts(const TempDir& dir, uint32_t shards) {
  StoreOptions o = Opts(dir);
  o.shards = shards;
  return o;
}

// Writes keys until every shard of `store` holds at least one record,
// returning the keys written. Routing is a stable hash, so a few dozen keys
// cover four shards with overwhelming probability.
std::vector<std::string> FillEveryShard(DurableStore* store) {
  std::vector<std::string> keys;
  for (int i = 0; i < 256; ++i) {
    const std::string key = "key" + std::to_string(i);
    EXPECT_EQ(store->Put(key, "value" + std::to_string(i), Label::Bottom(), Label::Top()),
              Status::kOk);
    keys.push_back(key);
    bool all_populated = true;
    for (uint32_t k = 0; k < store->shard_count(); ++k) {
      all_populated = all_populated && store->shard_stats(k).records > 0;
    }
    if (all_populated && keys.size() >= 16) {
      return keys;
    }
  }
  ADD_FAILURE() << "256 keys failed to cover every shard — routing is broken";
  return keys;
}

TEST(ShardedStoreTest, SpreadsRecordsAndRoundTrips) {
  TempDir dir;
  const Label secrecy({{H(42), Level::kL3}}, Level::kStar);
  std::vector<std::string> keys;
  {
    auto store = DurableStore::Open(ShardedOpts(dir, 4));
    ASSERT_TRUE(store.ok());
    ASSERT_EQ(store.value()->shard_count(), 4u);
    keys = FillEveryShard(store.value().get());
    ASSERT_EQ(store.value()->Put("labeled", "v", secrecy, Label::Top()), Status::kOk);
  }
  // The on-disk layout is the documented one: a stamp plus per-shard dirs.
  EXPECT_EQ(::access((dir.path() + "/store/shards").c_str(), F_OK), 0);
  for (int k = 0; k < 4; ++k) {
    EXPECT_EQ(::access((dir.path() + "/store/shard-" + std::to_string(k) + "/wal").c_str(), F_OK),
              0);
  }
  // Reopen requesting a DIFFERENT count: the creation stamp must win, or
  // every key would rehash into the wrong shard.
  auto store = DurableStore::Open(ShardedOpts(dir, 16));
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(store.value()->shard_count(), 4u);
  ASSERT_EQ(store.value()->size(), keys.size() + 1);
  for (const std::string& key : keys) {
    ASSERT_NE(store.value()->Get(key), nullptr) << key;
  }
  const StoreRecord* r = store.value()->Get("labeled");
  ASSERT_NE(r, nullptr);
  EXPECT_TRUE(r->secrecy.Equals(secrecy));
  // ForEach visits everything exactly once.
  size_t visited = 0;
  store.value()->ForEach([&](const std::string&, const StoreRecord&) { ++visited; });
  EXPECT_EQ(visited, keys.size() + 1);
}

TEST(ShardedStoreTest, FlatSingleShardStoreIsNotReshardedOnReopen) {
  TempDir dir;
  {  // A single-shard store (the StoreOptions default): flat, no stamp.
    auto store = DurableStore::Open(Opts(dir));
    ASSERT_TRUE(store.ok());
    ASSERT_EQ(store.value()->Put("old", "data", Label::Bottom(), Label::Top()), Status::kOk);
  }
  ASSERT_NE(::access((dir.path() + "/store/wal").c_str(), F_OK), -1);
  // Opening with shards requested must not strand the flat-layout data.
  auto store = DurableStore::Open(ShardedOpts(dir, 8));
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(store.value()->shard_count(), 1u);
  ASSERT_NE(store.value()->Get("old"), nullptr);
  EXPECT_EQ(store.value()->Get("old")->value, "data");
}

TEST(ShardedStoreTest, TornTailInOneShardDoesNotBlockSiblings) {
  TempDir dir;
  std::vector<std::string> keys;
  uint32_t torn_shard = 0;
  std::string torn_key;
  {
    auto store = DurableStore::Open(ShardedOpts(dir, 4));
    ASSERT_TRUE(store.ok());
    keys = FillEveryShard(store.value().get());
    // Tear the shard holding the LAST key whose append is that shard's tail
    // record — use the final key written and tear its shard's log.
    torn_key = keys.back();
    torn_shard = store.value()->ShardIndexOf(torn_key);
  }
  TruncateFileBy(dir.path() + "/store/shard-" + std::to_string(torn_shard) + "/wal", 3);
  auto store = DurableStore::Open(ShardedOpts(dir, 4));
  ASSERT_TRUE(store.ok()) << "a torn shard must not fail the whole open";
  // Exactly the torn shard reports dropped bytes; every sibling recovers
  // its full contents.
  for (uint32_t k = 0; k < 4; ++k) {
    const auto stats = store.value()->shard_stats(k);
    if (k == torn_shard) {
      EXPECT_GT(stats.torn_tail_bytes_dropped, 0u);
    } else {
      EXPECT_EQ(stats.torn_tail_bytes_dropped, 0u) << "sibling shard " << k;
    }
  }
  // The torn shard lost exactly its tail record; every other key survives.
  EXPECT_EQ(store.value()->Get(torn_key), nullptr);
  for (const std::string& key : keys) {
    if (key != torn_key && store.value()->ShardIndexOf(key) != torn_shard) {
      EXPECT_NE(store.value()->Get(key), nullptr) << key;
    }
  }
  // And the repaired shard accepts writes again.
  ASSERT_EQ(store.value()->Put(torn_key, "again", Label::Bottom(), Label::Top()), Status::kOk);
}

TEST(ShardedStoreTest, CorruptShardStampRefusesToOpen) {
  TempDir dir;
  {
    auto store = DurableStore::Open(ShardedOpts(dir, 4));
    ASSERT_TRUE(store.ok());
  }
  FILE* f = ::fopen((dir.path() + "/store/shards").c_str(), "w");
  ASSERT_NE(f, nullptr);
  ::fputs("not-a-number", f);
  ::fclose(f);
  auto store = DurableStore::Open(ShardedOpts(dir, 4));
  EXPECT_FALSE(store.ok()) << "an unreadable shard stamp must not be guessed around";
}

// --- Group commit -----------------------------------------------------------

TEST(GroupCommitTest, SyncFlushesOnlyDirtyShards) {
  TempDir dir;
  auto store = DurableStore::Open(ShardedOpts(dir, 4));
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(store.value()->dirty_shard_count(), 0u);
  // One key dirties exactly its own shard.
  ASSERT_EQ(store.value()->Put("solo", "v", Label::Bottom(), Label::Top()), Status::kOk);
  EXPECT_EQ(store.value()->dirty_shard_count(), 1u);
  EXPECT_TRUE(store.value()->shard_stats(store.value()->ShardIndexOf("solo")).dirty);
  // A batch across every shard dirties them all; one Sync clears them all.
  FillEveryShard(store.value().get());
  EXPECT_EQ(store.value()->dirty_shard_count(), 4u);
  ASSERT_EQ(store.value()->Sync(), Status::kOk);
  EXPECT_EQ(store.value()->dirty_shard_count(), 0u);
  // Sync with nothing dirty stays a no-op (and keeps returning kOk).
  ASSERT_EQ(store.value()->Sync(), Status::kOk);
  // Erase dirties like Put does.
  ASSERT_EQ(store.value()->Erase("solo"), Status::kOk);
  EXPECT_EQ(store.value()->dirty_shard_count(), 1u);
}

TEST(GroupCommitTest, CompactionClearsDirtiness) {
  TempDir dir;
  auto store = DurableStore::Open(ShardedOpts(dir, 2));
  ASSERT_TRUE(store.ok());
  FillEveryShard(store.value().get());
  ASSERT_GT(store.value()->dirty_shard_count(), 0u);
  // Compact folds the log into the snapshot and resets (syncs) it: nothing
  // is left pending.
  ASSERT_EQ(store.value()->Compact(), Status::kOk);
  EXPECT_EQ(store.value()->dirty_shard_count(), 0u);
}

TEST(GroupCommitTest, PipelinedSyncOverlapsAndDrains) {
  TempDir dir;
  {
    auto store = DurableStore::Open(ShardedOpts(dir, 4));
    ASSERT_TRUE(store.ok());
    FillEveryShard(store.value().get());
    // The pipelined commit takes responsibility for the batch immediately
    // (dirty marks clear) and flushes in the background.
    ASSERT_EQ(store.value()->SyncPipelined(), Status::kOk);
    EXPECT_EQ(store.value()->dirty_shard_count(), 0u);
    // Appends landing during the in-flight flush re-dirty their shard and
    // belong to the next round.
    ASSERT_EQ(store.value()->Put("late", "v", Label::Bottom(), Label::Top()), Status::kOk);
    EXPECT_EQ(store.value()->dirty_shard_count(), 1u);
    ASSERT_EQ(store.value()->SyncPipelined(), Status::kOk);  // acks round 1
    // Blocking Sync drains the pipeline: on return everything is durable.
    ASSERT_EQ(store.value()->Sync(), Status::kOk);
    EXPECT_FALSE(store.value()->flush_in_flight());
  }
  auto reopened = DurableStore::Open(ShardedOpts(dir, 4));
  ASSERT_TRUE(reopened.ok());
  EXPECT_NE(reopened.value()->Get("late"), nullptr);
}

TEST(GroupCommitTest, DestructorDrainsTheInflightFlush) {
  // Destroy-then-reopen is the reboot idiom everywhere else in the tree:
  // the destructor must finish the background flush, so a pipelined batch
  // with no later Sync() still lands on disk.
  TempDir dir;
  std::vector<std::string> keys;
  {
    auto store = DurableStore::Open(ShardedOpts(dir, 4));
    ASSERT_TRUE(store.ok());
    keys = FillEveryShard(store.value().get());
    ASSERT_EQ(store.value()->SyncPipelined(), Status::kOk);
  }
  auto reopened = DurableStore::Open(ShardedOpts(dir, 4));
  ASSERT_TRUE(reopened.ok());
  for (const std::string& key : keys) {
    EXPECT_NE(reopened.value()->Get(key), nullptr) << key;
  }
}

TEST(DurableStoreTest, MemStatsTrackLiveBytes) {
  const int64_t base = GetStoreMemStats().live_bytes;
  const int64_t base_records = GetStoreMemStats().live_records;
  TempDir dir;
  {
    auto store = DurableStore::Open(Opts(dir));
    ASSERT_TRUE(store.ok());
    ASSERT_EQ(store.value()->Put("key", std::string(1000, 'v'), Label::Bottom(), Label::Top()),
              Status::kOk);
    EXPECT_EQ(GetStoreMemStats().live_records, base_records + 1);
    EXPECT_GE(GetStoreMemStats().live_bytes, base + 1000);
    ASSERT_EQ(store.value()->Erase("key"), Status::kOk);
    EXPECT_EQ(GetStoreMemStats().live_bytes, base);
    ASSERT_EQ(store.value()->Put("key2", "v", Label::Bottom(), Label::Top()), Status::kOk);
  }
  // Closing the store releases everything.
  EXPECT_EQ(GetStoreMemStats().live_bytes, base);
  EXPECT_EQ(GetStoreMemStats().live_records, base_records);
}

// --- Seeded mutation of the log and the snapshot -----------------------------
//
// A small store (a snapshot of its first records, then a log of the rest) is
// written once; each iteration damages a copy of its files and reopens it.
// Raw damage (flipped, overwritten, inserted or dropped bytes, truncation)
// must be caught by the CRCs: the reopen refuses a damaged snapshot, and a
// damaged log loses its tail from the first bad frame on, so what recovers
// is always a prefix of what was written, bit-exact. Damage behind a
// recomputed CRC reaches the record and label decoders instead; those must
// reject or skip what they cannot parse, never crash, and a second reopen
// must see what the first one did. Seed and budget are fixed so a failure
// replays exactly.

struct WrittenRecord {
  std::string key;
  std::string value;
  Label secrecy;
  Label integrity;
};

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

// One to three raw edits anywhere in `bytes`.
void MutateRaw(Rng& rng, std::string* bytes) {
  const auto pos = [&](size_t limit) { return static_cast<size_t>(rng.NextBelow(limit)); };
  for (uint64_t edits = rng.NextInRange(1, 3); edits > 0; --edits) {
    switch (rng.NextBelow(5)) {
      case 0:  // flip one bit
        if (!bytes->empty()) {
          (*bytes)[pos(bytes->size())] ^= static_cast<char>(1u << rng.NextBelow(8));
        }
        break;
      case 1:  // overwrite one byte
        if (!bytes->empty()) {
          (*bytes)[pos(bytes->size())] = static_cast<char>(rng.Next());
        }
        break;
      case 2:  // insert a few random bytes
        bytes->insert(pos(bytes->size() + 1), rng.NextInRange(1, 8),
                      static_cast<char>(rng.Next()));
        break;
      case 3:  // drop a few bytes
        if (!bytes->empty()) {
          const size_t at = pos(bytes->size());
          bytes->erase(at, rng.NextInRange(1, 8));
        }
        break;
      default:  // truncate
        bytes->resize(pos(bytes->size() + 1));
        break;
    }
  }
}

// Raw edits to one frame's payload (or the snapshot's body) with the CRC
// recomputed, so the damage reaches the decoders behind it.
std::string MutateBehindCrc(Rng& rng, const std::string& file, bool snapshot) {
  if (snapshot) {
    std::string body = file.substr(12);  // magic (8) + crc (4)
    MutateRaw(rng, &body);
    const uint32_t crc = Crc32(body);
    std::string out = file.substr(0, 8);
    out.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
    return out + body;
  }
  std::vector<std::string> payloads;
  for (size_t pos = 0; pos < file.size();) {
    const FrameView frame = ReadCrcFrame(file, pos);
    if (frame.status != FrameRead::kFrame) {
      break;
    }
    payloads.emplace_back(frame.payload);
    pos += frame.bytes;
  }
  MutateRaw(rng, &payloads[rng.NextBelow(payloads.size())]);
  std::string out;
  for (const std::string& payload : payloads) {
    AppendCrcFrame(payload, &out);
  }
  return out;
}

TEST(StoreRecoveryMutationTest, DamagedLogOrSnapshotRejectsOrRecoversAPrefix) {
  constexpr int kIterations = 1000;
  constexpr size_t kSnapshotRecords = 5;
  TempDir dir;
  const std::string golden = dir.path() + "/golden";
  const std::string work = dir.path() + "/work";
  Rng rng(0x5709e);
  std::vector<WrittenRecord> written;
  for (size_t i = 0; i < 12; ++i) {
    Label secrecy(Level::kStar);
    for (uint64_t e = rng.NextBelow(6); e > 0; --e) {
      secrecy.Set(Handle::FromValue(rng.NextInRange(1, 1u << 20)), Level::kL3);
    }
    written.push_back({"key/" + std::to_string(i), std::string(rng.NextInRange(0, 40), 'a' + i),
                       secrecy, Label({{Handle::FromValue(100 + i), Level::kL0}}, Level::kL3)});
  }
  {
    StoreOptions opts;
    opts.dir = golden;
    auto store = DurableStore::Open(std::move(opts));
    ASSERT_TRUE(store.ok());
    for (size_t i = 0; i < written.size(); ++i) {
      const WrittenRecord& r = written[i];
      ASSERT_EQ(store.value()->Put(r.key, r.value, r.secrecy, r.integrity), Status::kOk);
      if (i + 1 == kSnapshotRecords) {
        ASSERT_EQ(store.value()->Compact(), Status::kOk);
      }
    }
    ASSERT_EQ(store.value()->Sync(), Status::kOk);
  }
  const std::string wal = ReadFileBytes(golden + "/wal");
  const std::string snapshot = ReadFileBytes(golden + "/snapshot");
  ASSERT_FALSE(wal.empty());
  ASSERT_GT(snapshot.size(), 12u);
  const int64_t base_records = GetStoreMemStats().live_records;

  // The records a store holds, as "key=value secrecy integrity" lines.
  const auto contents = [](const DurableStore& store) {
    std::vector<std::string> out;
    store.ForEach([&](const std::string& key, const StoreRecord& r) {
      out.push_back(key + "=" + r.value + " " + r.secrecy.ToString() + " " +
                    r.integrity.ToString());
    });
    return out;
  };
  int rejected = 0;
  int prefixes_short = 0;
  for (int iter = 0; iter < kIterations; ++iter) {
    const bool damage_snapshot = rng.NextBelow(3) == 0;
    const bool behind_crc = rng.NextBool();
    std::string wal_bytes = wal;
    std::string snapshot_bytes = snapshot;
    std::string& target = damage_snapshot ? snapshot_bytes : wal_bytes;
    if (behind_crc) {
      target = MutateBehindCrc(rng, target, damage_snapshot);
    } else {
      MutateRaw(rng, &target);
    }
    ASSERT_EQ(::system(("mkdir -p '" + work + "'").c_str()), 0);
    WriteFileBytes(work + "/wal", wal_bytes);
    WriteFileBytes(work + "/snapshot", snapshot_bytes);

    StoreOptions opts;
    opts.dir = work;
    std::vector<std::string> first;
    bool opened = false;
    {
      auto store = DurableStore::Open(opts);
      opened = store.ok();
      if (opened) {
        first = contents(*store.value());
        if (!behind_crc) {
          // Exactly the first n records written, whole.
          const size_t n = store.value()->size();
          ASSERT_LE(n, written.size()) << "iteration " << iter;
          ASSERT_GE(n, damage_snapshot ? written.size() : kSnapshotRecords)
              << "iteration " << iter;
          prefixes_short += n < written.size() ? 1 : 0;
          for (size_t i = 0; i < n; ++i) {
            const StoreRecord* r = store.value()->Get(written[i].key);
            ASSERT_NE(r, nullptr) << "iteration " << iter << " record " << i;
            EXPECT_EQ(r->value, written[i].value) << "iteration " << iter;
            EXPECT_TRUE(r->secrecy.Equals(written[i].secrecy)) << "iteration " << iter;
            EXPECT_TRUE(r->integrity.Equals(written[i].integrity)) << "iteration " << iter;
          }
        }
      } else {
        ++rejected;
        EXPECT_TRUE(damage_snapshot) << "a damaged log truncates, it never refuses the store; "
                                     << "iteration " << iter;
      }
    }
    EXPECT_EQ(GetStoreMemStats().live_records, base_records) << "iteration " << iter;
    // Recovery repaired the log: a second reopen sees the same records.
    auto again = DurableStore::Open(opts);
    ASSERT_EQ(again.ok(), opened) << "iteration " << iter;
    if (opened) {
      EXPECT_EQ(contents(*again.value()), first) << "iteration " << iter;
    }
  }
  // The damage exercises every outcome.
  RecordProperty("rejected", rejected);
  RecordProperty("short_prefixes", prefixes_short);
  EXPECT_GT(rejected, kIterations / 10);
  EXPECT_GT(prefixes_short, kIterations / 10);
}

}  // namespace
}  // namespace asbestos
