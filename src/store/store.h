// DurableStore: a labeled key-value store that survives reboots.
//
// The paper's servers keep labeled state — file contents with secrecy and
// integrity compartments (§5.2–5.4), identity bindings (§7.4) — that must
// outlive a process or machine restart. DurableStore maps
//
//     key (string)  →  (value bytes, secrecy label, integrity label)
//
// and persists every mutation through a write-ahead log before applying it
// in memory, with periodic snapshot + log-truncation compaction.
//
// The store is sharded: keys are spread by a stable hash over N independent
// (WAL, snapshot, map) shards, each recovering, compacting, and fsyncing on
// its own — a torn tail in one shard never blocks recovery of its siblings,
// and durable state spreads across logs (and, eventually, disks/cores):
//
//   shards == 1 (flat, the original layout — old stores open unchanged):
//     <dir>/wal        CRC-framed mutation records (src/store/wal.h framing)
//     <dir>/snapshot   full image: "ASBSTOR1" magic, u32 crc, body
//   shards == N > 1:
//     <dir>/shards             decimal shard count, stamped at creation
//     <dir>/shard-<k>/wal      shard k's log,      k in [0, N)
//     <dir>/shard-<k>/snapshot shard k's snapshot
//
// The shard count is fixed at creation (<dir>/shards) and re-adopted on
// every later open, so the key → shard mapping never shifts under existing
// data regardless of what shard count callers pass later.
//
// Durability is group-committed: Put/Erase append to the shard's log and
// mark it dirty, and a flush syncs each dirty shard exactly once. Servers
// flush at the end of each kernel pump iteration (ProcessCode::OnIdle, via
// SyncPipelined) — one fsync per shard per batch instead of per mutation.
// A crash loses only the suffix appended since the last flush; it never
// corrupts, and recovery still replays each shard's valid log prefix and
// repairs its torn tail independently.
//
// Labels are pickled with the binary codec (src/store/label_codec.h), so
// secrecy and integrity survive bit-exactly — the property the file
// server's restart path depends on.
//
// In-memory bytes are tracked globally (GetStoreMemStats) and surface in
// KernelMemReport::store_bytes so Figure-6 style reporting covers the cost
// of durability. Label heap inside stored records is intentionally excluded
// here: src/labels already counts every live label rep and chunk, and the
// kernel report must not count them twice.
#ifndef SRC_STORE_STORE_H_
#define SRC_STORE_STORE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/base/result.h"
#include "src/base/status.h"
#include "src/labels/label.h"
#include "src/store/wal.h"

namespace asbestos {

// Live in-memory bytes across all open stores (keys, values, fixed
// per-record overhead; label heap is counted by LabelMemStats).
struct StoreMemStats {
  int64_t live_bytes = 0;
  int64_t live_records = 0;
};

const StoreMemStats& GetStoreMemStats();

// Durably replaces <dir>/<name>: writes a temp file, fsyncs it, renames it
// into place, and fsyncs the directory so the rename survives a power cut.
// Shared by the store's snapshot writer and the replication cursor
// checkpoint (src/replication/replica.cc).
Status WriteFileAtomically(const std::string& dir, const std::string& name,
                           std::string_view contents);

// Modeled per-record index overhead (map node, pointers, sizes).
constexpr uint64_t kStoreRecordOverheadBytes = 64;

// Shard counts beyond this are almost certainly a bug (the simulator's
// servers hold thousands of records, not billions).
constexpr uint32_t kStoreMaxShards = 256;

struct StoreRecord {
  std::string value;
  Label secrecy = Label(Level::kStar);   // contamination applied to readers
  Label integrity = Label(Level::kL3);   // bound writers must prove via V
};

struct StoreOptions {
  std::string dir;
  // Number of (WAL, snapshot, map) shards for a store created at this dir.
  // Ignored when the directory already holds a store: the count stamped at
  // creation wins, so the key → shard hash stays stable for the store's
  // whole life. 1 keeps the flat single-log layout.
  uint32_t shards = 1;
  // Per-shard auto-compaction: once a shard's log holds at least this many
  // records AND at least 4× the shard's live record count,
  // fold it into that shard's snapshot.
  uint64_t compact_min_log_records = 1024;
};

class DurableStore {
 public:
  // Opens the store rooted at opts.dir (created if missing) and recovers
  // its contents from the shards' snapshots + logs.
  static Result<std::unique_ptr<DurableStore>> Open(StoreOptions opts);

  ~DurableStore();

  DurableStore(const DurableStore&) = delete;
  DurableStore& operator=(const DurableStore&) = delete;

  // Logs then applies (to the key's shard). Put overwrites; Erase of a
  // missing key is kNotFound and writes nothing. Neither fsyncs: durability
  // of the append is pending until the next Sync().
  Status Put(std::string_view key, std::string_view value, const Label& secrecy,
             const Label& integrity);
  Status Erase(std::string_view key);

  const StoreRecord* Get(const std::string& key) const;
  // Visits every record, shard by shard (keys sorted within a shard, not
  // globally). Replaces the old records() accessor, which pinned the store
  // to a single map.
  void ForEach(const std::function<void(const std::string&, const StoreRecord&)>& fn) const;
  size_t size() const;

  // Writes a fresh snapshot per shard (atomically, via rename) and
  // truncates each shard's log.
  Status Compact();
  // Group commit: drains any pipelined flush, then fsyncs every dirty
  // shard's log exactly once, one after another, and clears the dirty
  // marks. On return EVERYTHING ever appended is durable. A no-op (and no
  // syscalls) when nothing is dirty.
  Status Sync();

  // Pipelined group commit: hands the dirty shards to a background flusher
  // and returns without waiting for the device, so the ~200µs flush round
  // trip overlaps the next kernel pump iteration instead of blocking it
  // (ProcessCode::OnIdle callers). The durability acknowledgement is
  // deferred by one call: each invocation first waits for the PREVIOUS
  // flush (usually already finished — a whole pump ran meanwhile) and
  // reports its outcome. A crash can lose the last TWO batches (the
  // in-flight one and the not-yet-started one) instead of one — recovery
  // semantics are otherwise identical. Sync(), the destructor, and Compact()
  // all drain the pipeline, so mixing modes is safe.
  Status SyncPipelined();
  // True while a background flush is running (test/observability hook).
  bool flush_in_flight() const { return inflight_ != nullptr; }

  // --- Replication hooks (src/replication) ----------------------------------
  // The WAL is the replication stream: each shard's log is a self-delimiting
  // sequence of CRC-framed mutation records, so a replica that replays a
  // shipped span through the SAME apply path as crash recovery reconstructs
  // records and labels bit-exactly. Positions are (generation, offset)
  // pairs: the generation advances when compaction resets the log, at which
  // point old offsets name discarded bytes and a snapshot must be shipped.

  // Current tail position of a shard's log.
  uint64_t shard_wal_generation(uint32_t shard) const;
  uint64_t shard_wal_offset(uint32_t shard) const;

  // Reads up to max_bytes of raw framed WAL bytes at (generation, offset).
  // kNotFound when that generation was compacted away (ship a snapshot) or
  // the offset is past the tail (a cursor from a lost future: resync).
  // Every follower session reads its batches through here, one call per
  // batch; wal_read_calls() counts them.
  Status ReadShardWal(uint32_t shard, uint64_t generation, uint64_t offset,
                      uint64_t max_bytes, std::string* out) const;

  // Number of ReadShardWal calls (the replication read load on the log).
  uint64_t wal_read_calls() const { return wal_read_calls_; }

  // Serializes the shard's live records into a snapshot image (the on-disk
  // snapshot format: magic, crc, body) and reports the WAL position the
  // image covers — a replica that installs it resumes streaming from there.
  Status ExportShardSnapshot(uint32_t shard, std::string* image, uint64_t* generation,
                             uint64_t* offset) const;

  // Replica apply: appends one raw WAL record payload (as shipped from the
  // primary's log) to the shard's own log and applies it in memory — the
  // exact code path crash recovery replays, so labels intern through the
  // canonical-rep table identically. The shard index must come from the
  // primary (both sides hash keys identically, so it already matches).
  // `trace_id` is the replication session's flow id: when the event log is
  // enabled, a Put record's secrecy adoption is journaled as an adopt edge
  // under it (src/obs/event_log.h). 0 means untraced.
  Status ApplyReplicatedRecord(uint32_t shard, std::string_view payload,
                               uint64_t trace_id = 0);

  // Replica catch-up: validates `image` (magic + crc), replaces the shard's
  // records with its contents, persists it as the shard's on-disk snapshot,
  // and resets the shard's log. After this the shard is bit-identical to the
  // primary shard the image was exported from.
  Status InstallShardSnapshot(uint32_t shard, std::string_view image);

  // --- Sharding / recovery / durability observability -----------------------
  uint32_t shard_count() const { return static_cast<uint32_t>(shards_.size()); }
  // The shard `key` routes to — stable across reboots (FNV-1a, not
  // std::hash, which the standard lets vary between runs).
  uint32_t ShardIndexOf(std::string_view key) const;
  uint32_t dirty_shard_count() const;

  uint64_t snapshot_records_loaded() const;  // summed across shards
  uint64_t log_records_replayed() const;
  uint64_t torn_tail_bytes_dropped() const;
  uint64_t wal_bytes() const;
  uint64_t compactions() const;

  // Per-shard view of the same counters, for tests and rebalancing tools.
  struct ShardStats {
    size_t records = 0;
    bool dirty = false;
    uint64_t wal_bytes = 0;
    uint64_t snapshot_records_loaded = 0;
    uint64_t log_records_replayed = 0;
    uint64_t torn_tail_bytes_dropped = 0;
    uint64_t compactions = 0;
  };
  ShardStats shard_stats(uint32_t shard) const;

 private:
  // One independent (WAL, snapshot, map) unit. All per-record state and
  // recovery/compaction counters live here; DurableStore routes and sums.
  struct Shard {
    std::string dir;
    Wal wal;
    std::map<std::string, StoreRecord> records;
    uint64_t snapshot_records_loaded = 0;
    uint64_t log_records_replayed = 0;
    uint64_t torn_tail_bytes_dropped = 0;
    uint64_t compactions = 0;
  };

  // One round of pipelined flushing, owned by the main thread, executed by
  // one background thread. The thread touches ONLY `wals` (via
  // Wal::SyncDataOnly, which reads the immutable fd) and `result`; all Wal
  // bookkeeping (dirty flags) was updated by the main thread before launch.
  struct InflightFlush {
    std::thread thread;
    std::vector<const Wal*> wals;
    Status result = Status::kOk;  // written by the thread, read after join
  };

  explicit DurableStore(StoreOptions opts) : opts_(std::move(opts)) {}

  // Joins the background flush, if any, and folds its outcome into
  // deferred_flush_status_.
  void DrainInflight();

  Status RecoverShard(Shard& shard);
  Status LoadSnapshot(Shard& shard);
  std::string BuildShardSnapshotImage(const Shard& shard) const;
  Status LoadSnapshotImage(Shard& shard, std::string_view contents);
  void ClearShardRecords(Shard& shard);
  void ApplyLogRecord(Shard& shard, std::string_view payload);
  void InsertRecord(Shard& shard, std::string key, StoreRecord record);
  bool EraseRecord(Shard& shard, const std::string& key);
  Status CompactShard(Shard& shard);
  void MaybeAutoCompact(Shard& shard);

  StoreOptions opts_;
  std::vector<std::unique_ptr<Shard>> shards_;
  mutable uint64_t wal_read_calls_ = 0;  // ReadShardWal invocations (see accessor)
  std::unique_ptr<InflightFlush> inflight_;
  // Outcome of the newest completed pipelined flush, reported (and reset) by
  // the next SyncPipelined()/Sync() — the one-call-deferred acknowledgement.
  Status deferred_flush_status_ = Status::kOk;
};

}  // namespace asbestos

#endif  // SRC_STORE_STORE_H_
