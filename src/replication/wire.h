// Replication wire format: label-preserving WAL shipping between stores.
//
// The durable store's WAL is already a self-delimiting, CRC-framed record
// stream with labels pickled inside every Put record (src/store/wal.h,
// src/store/label_codec.h), so replication ships those bytes verbatim: a
// follower that replays a shipped span through the same apply path as crash
// recovery reconstructs records, secrecy labels, and integrity labels
// bit-exactly, interning labels through the canonical-rep table as it goes.
//
// The stream between a primary and a follower is a sequence of frames with
// the same framing as the WAL itself:
//
//   ┌──────────────┬───────────────┬──────────────────────┐
//   │ len: u32 LE  │ crc32: u32 LE │ payload (len bytes)  │
//   └──────────────┴───────────────┴──────────────────────┘
//
// so a torn TCP read is detected exactly like a torn log tail: the parser
// waits for the rest of the frame, and a CRC mismatch poisons the session
// (the follower re-syncs on reconnect). Frame payloads are codec varints,
// and every type ends with the same trailer, trace_id:
//
//   kHello     token, source_id, shard_count,   primary → follower, once
//              lease_until
//   kBatch     shard, generation, start_offset, primary → follower
//              lease_until, successor_id,
//              raw WAL bytes (whole frames)
//   kSnapshot  shard, generation, offset,       primary → follower, catch-up
//              lease_until, successor_id,
//              snapshot image (disk format)
//   kAck       token, shard, source_id,         follower → primary
//              generation, applied offset,
//              follower_id
//   kHeartbeat lease_until, successor_id        primary → follower, when idle
//   kBusy      retry_after_cycles               primary → follower, then close
//   (type 7 is unassigned and decodes as corrupt)
//   kReadReq   token, cookie, key,              reader → follower
//              cursor token, clearance label
//   kReadResp  cookie, read status, staleness,  follower → reader
//              applied cursor, secrecy label,
//              value bytes
//
// kReadReq/kReadResp are the follower-read plane (see src/replication/
// read_gate.h): a labeled read carries the session's cursor token — the
// (source, shard, generation, offset) ack position stamped at its last
// write — and the reader's clearance label. The follower answers only when
// its lease is fresh AND its applied cursor covers the token; refusals name
// the reason so the client retries at the primary.
//
// Lease stamping (automatic failover): every kHello/kBatch/kSnapshot/
// kHeartbeat from a live primary carries `lease_until`, a virtual-clock
// deadline by which the primary promises to have spoken again, and
// kBatch/kSnapshot/kHeartbeat also carry
// `successor_id` — the follower id the primary currently designates to take
// over (deterministically: the LOWEST follower id among caught-up replicas).
// A follower whose lease expires without refresh and whose own id matches
// the last designation promotes itself; every other follower waits. Acks
// carry the follower's configured id so the primary can designate.
//
// kBusy is the explicit over-capacity refusal: an endpoint already serving
// its configured maximum of followers writes one kBusy frame (with a
// back-off hint in virtual cycles) before closing, so the refused follower
// pauses instead of hot-reconnecting into the same refusal.
//
// `token` is the session's shared secret (ReplicationOptions::auth_token):
// the follower refuses a hello whose token differs from its own, and the
// source ignores acks whose token differs — and since nothing ships until
// a shard's resume ack arrives, an unauthenticated peer that connects to
// either side receives no labeled data, only a hello header. Both sides
// must be configured with the same value; 0 (the default) means an
// unauthenticated closed testbed.
//
// Positions are per-shard (generation, offset) pairs into the PRIMARY's WAL
// history: offsets advance within a generation, and compaction starts a new
// generation whose offsets restart at 0 (old spans are gone — the source
// ships a snapshot instead). Acks carry the source_id so a source never
// mistakes a cursor into some other primary's history for its own.
#ifndef SRC_REPLICATION_WIRE_H_
#define SRC_REPLICATION_WIRE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "src/base/status.h"
#include "src/kernel/payload.h"
#include "src/labels/label.h"

namespace asbestos {
namespace replwire {

enum MessageType : uint64_t {
  kHello = 1,
  kBatch = 2,
  kSnapshot = 3,
  kAck = 4,
  kHeartbeat = 5,
  kBusy = 6,
  // 7 is unassigned (a retired frame type): it decodes as an unknown type
  // (kCorrupt), so a peer that still sends it is refused, not misread.
  kReadReq = 8,
  kReadResp = 9,
};

// Back-off hint, in virtual cycles, that an at-capacity endpoint carries in
// kBusy; a follower refused without a hint waits this long too.
constexpr uint64_t kBusyRetryCycles = 2'000'000;

// A session's read-your-writes position: the primary's per-shard WAL cursor
// at the session's last acknowledged write. A follower may answer a read
// carrying this token only when its applied cursor for the shard covers it —
// same source, and either a later generation (reached only by installing a
// snapshot, which holds every record of the earlier generations) or the
// same generation at `offset` or beyond.
// source_id == 0 is the empty token: the session never wrote, any fresh
// follower may answer.
struct ReadCursorToken {
  uint64_t source_id = 0;
  uint64_t shard = 0;
  uint64_t generation = 0;
  uint64_t offset = 0;

  bool empty() const { return source_id == 0; }
};

struct WireMessage {
  uint64_t type = 0;
  uint64_t token = 0;        // kHello, kAck: session shared secret
  uint64_t source_id = 0;    // kHello, kAck
  uint64_t shard_count = 0;  // kHello
  uint64_t shard = 0;        // kBatch, kSnapshot, kAck
  uint64_t generation = 0;   // kBatch, kSnapshot, kAck
  uint64_t offset = 0;       // kBatch: span start; kSnapshot/kAck: position covered
  uint64_t lease_until = 0;  // kHello/kBatch/kSnapshot/kHeartbeat: lease deadline
  uint64_t successor_id = 0; // kBatch/kSnapshot/kHeartbeat: designated failover id
  uint64_t follower_id = 0;  // kAck: the follower's configured id (0 = bystander)
  uint64_t retry_after = 0;  // kBusy: suggested back-off in virtual cycles
  uint64_t cookie = 0;       // kReadReq/kReadResp: request id, echoed verbatim
  uint64_t read_status = 0;  // kReadResp: ReadStatus (src/replication/read_gate.h)
  uint64_t staleness = 0;    // kReadResp: cycles since the follower last heard
  ReadCursorToken cursor;    // kReadReq: the client's token; kReadResp: applied
  Label label = Label::Bottom();  // kReadReq: clearance; kReadResp: value secrecy
  std::string key;           // kReadReq: the store key to read
  // Flow-trace id of the session (src/obs/event_log.h), minted at hello and
  // stamped on every subsequent frame so replication traffic can be
  // followed end to end like an OKWS request. Carried by every frame type;
  // 0 means untraced. Purely observational: no protocol decision reads it.
  uint64_t trace_id = 0;
  // kBatch: raw WAL frames; kSnapshot: image. A refcounted buffer view
  // (src/kernel/payload.h): the session's WAL read, its outgoing batch and
  // the kernel queue entry all share one buffer, so shipping a span costs
  // one allocation end to end.
  Payload payload;
};

// Serializes `msg` as one CRC-framed wire frame appended to `out`.
void AppendFrame(const WireMessage& msg, std::string* out);

// Incremental frame parser outcomes for a byte-stream transport.
enum class FrameParse {
  kFrame,     // one complete frame consumed; *msg is valid
  kNeedMore,  // the buffer ends mid-frame: keep the bytes, wait for more
  kCorrupt,   // CRC or payload decode failure: the session is poisoned
};

// Attempts to consume one frame from the front of `buffer`. On kFrame the
// frame's bytes are erased from the buffer and *msg is filled; on kNeedMore
// the buffer is untouched; on kCorrupt the buffer contents are undefined
// (callers drop the session).
FrameParse ConsumeFrame(std::string* buffer, WireMessage* msg);

// Splits a raw WAL byte span (as read by DurableStore::ReadShardWal) at
// whole-frame boundaries: returns the length of the longest run of whole,
// CRC-valid frames that fits in max_bytes (0 when even the first frame
// exceeds max_bytes — the caller ships that one frame alone; WAL frames are
// never re-fragmented).
uint64_t WalFramePrefix(std::string_view span, uint64_t max_bytes);

// Total byte length (header + payload) of the first WAL frame in `span`, as
// named by its header — the frame itself may extend past the span. 0 when
// the span is shorter than a frame header.
uint64_t FirstWalFrameBytes(std::string_view span);

// Walks the WAL frames inside a kBatch payload, invoking `fn(payload)` per
// record. kInvalidArgs on any framing/CRC violation (a batch is shipped
// whole, so unlike log recovery a torn interior is corruption, not a crash).
Status ForEachWalRecord(std::string_view batch,
                        const std::function<Status(std::string_view)>& fn);

}  // namespace replwire
}  // namespace asbestos

#endif  // SRC_REPLICATION_WIRE_H_
