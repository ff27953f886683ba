// Append-only write-ahead log with CRC-framed records and torn-tail repair.
//
// Frame layout (little-endian fixed-width header, then the payload):
//
//   ┌──────────────┬──────────────┬──────────────────────┐
//   │ len: u32 LE  │ crc32: u32 LE│ payload (len bytes)  │
//   └──────────────┴──────────────┴──────────────────────┘
//
// The crc covers the payload only; the length is validated against the bytes
// actually present. Recovery scans frames from the start and stops at the
// first frame that is truncated (fewer bytes than the header promises) or
// corrupt (CRC mismatch) — everything before it is the valid prefix, and the
// file is truncated back to that prefix so subsequent appends start from a
// clean frame boundary. This is exactly the crash contract a simulated
// "power cut" mid-append produces: a prefix of whole records survives, the
// torn record vanishes.
#ifndef SRC_STORE_WAL_H_
#define SRC_STORE_WAL_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "src/base/status.h"

namespace asbestos {

// CRC-32 (reflected, polynomial 0xEDB88320 — the zlib/Ethernet polynomial).
uint32_t Crc32(std::string_view data);

// The frame codec of the layout above, shared by the WAL and the
// replication wire (src/replication/wire.h), which ships WAL frames
// verbatim and frames its own messages the same way.
constexpr size_t kFrameHeaderBytes = 8;  // u32 length + u32 crc

// Appends one frame carrying `payload` (at most UINT32_MAX bytes) to `out`.
void AppendCrcFrame(std::string_view payload, std::string* out);

enum class FrameRead {
  kFrame,    // a whole frame whose CRC matches
  kTorn,     // the bytes end inside the frame (its header or its payload)
  kCorrupt,  // a whole frame whose CRC does not match
};

struct FrameView {
  FrameRead status = FrameRead::kTorn;
  // Header plus payload as the header names it (so also for a torn or
  // corrupt frame); 0 when even the header is torn.
  uint64_t bytes = 0;
  std::string_view payload;  // kFrame only: a view into the read bytes
};

// Reads the frame that starts at byte `pos` of `bytes`.
FrameView ReadCrcFrame(std::string_view bytes, size_t pos);

class Wal {
 public:
  Wal() = default;
  ~Wal();

  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  // Opens (creating if missing) the log at `path`. Replays every valid
  // record through `on_record`, repairs a torn tail, and leaves the log
  // positioned for appends. kBadState if already open.
  Status Open(const std::string& path, const std::function<void(std::string_view)>& on_record);

  // Appends one framed record and marks the log dirty. Append itself only
  // guarantees ordering within the file; durability requires Sync() — either
  // immediately (per-append durability) or batched at the end of a pump
  // iteration (group commit, the DurableStore default).
  Status Append(std::string_view record);

  // fsyncs the log file and clears the dirty flag.
  Status Sync();

  // The device-flush half of Sync() alone: fdatasyncs the file WITHOUT
  // touching the dirty flag or any other member. Safe to call from a
  // background flusher thread while the owning thread keeps appending — the
  // fd value is immutable while open and concurrent write/fdatasync on one
  // fd is well-defined; the caller clears the dirty flag on its own thread
  // (ClearDirty) before handing the flush off. See DurableStore's pipelined
  // group commit.
  Status SyncDataOnly() const;

  // Clears the dirty flag without flushing: the pipelined committer clears
  // it when it *takes responsibility* for the flush, so appends that land
  // during the in-flight flush re-dirty the log for the next round.
  void ClearDirty() { dirty_ = false; }

  // Truncates the log to empty (after a snapshot made its contents
  // redundant), advances the generation, and syncs.
  Status Reset();

  // Reads up to `max_bytes` raw framed bytes starting at byte `offset`
  // (pread; never disturbs the append position). Returns the bytes actually
  // present — fewer than max_bytes near the tail, empty at it. Offsets are
  // only meaningful within one generation: Reset() discards the addressed
  // bytes, so callers must pair every offset with generation().
  Status ReadAt(uint64_t offset, uint64_t max_bytes, std::string* out) const;

  // How many times this log has been reset (compacted) since open. A
  // (generation, offset) pair names a stable position in the log's history:
  // replication cursors use it to detect that the bytes they wanted were
  // compacted away and a snapshot must be shipped instead.
  uint64_t generation() const { return generation_; }

  void Close();
  bool is_open() const { return fd_ >= 0; }

  // True when appends have landed since the last Sync()/Reset(): the group
  // commit batcher fsyncs exactly the dirty logs, once each.
  bool dirty() const { return dirty_; }

  uint64_t size_bytes() const { return size_bytes_; }
  uint64_t appended_records() const { return appended_records_; }
  // Recovery observability: how much survived, how much was torn away.
  uint64_t recovered_records() const { return recovered_records_; }
  uint64_t dropped_tail_bytes() const { return dropped_tail_bytes_; }

 private:
  int fd_ = -1;
  std::string path_;
  bool dirty_ = false;
  uint64_t generation_ = 0;
  uint64_t size_bytes_ = 0;
  uint64_t appended_records_ = 0;
  uint64_t recovered_records_ = 0;
  uint64_t dropped_tail_bytes_ = 0;
};

}  // namespace asbestos

#endif  // SRC_STORE_WAL_H_
