// ReadGate: per-request admission for follower-served labeled reads.
//
// A follower is allowed to answer a read only when two independent bounds
// hold (ISSUE 8, ROADMAP "Follower reads"):
//
//   1. Lease freshness — the follower's lease (`lease_until`, stamped by the
//      primary on every kHello/kBatch/kHeartbeat; see src/replication/
//      wire.h) has not expired against the virtual clock. An expired lease
//      means the primary may have moved on without us: the follower refuses
//      ALL reads (kRefusedStaleLease) rather than serve unboundedly stale
//      data. The lease interval is therefore the user-visible staleness
//      bound: a served read is never staler than one lease interval plus
//      apply lag.
//
//   2. Read-your-writes — the request carries the session's cursor token
//      (the primary (generation, offset) ack position stamped into the
//      session at its last write). A follower whose applied cursor for the
//      token's shard trails the token refuses (kRefusedCursorLag) with its
//      applied position as the retry-at-primary hint. Generations only
//      advance once fully applied (snapshot install or kGenMark hand-off),
//      so `applied.generation > token.generation` always covers the token.
//
// Admitted reads are label-checked with the SAME fused flow check the
// kernel's IPC delivery path runs — CheckDeliveryAllowed with the record's
// secrecy as the effective send label and the reader's clearance as the
// receive bound — and the charged cycles use the kernel's exact formula
// (fused work × kLabelEntryCycles + kLabelOpBaseCycles, attributed to
// Component::kKernelIpc), so a follower-served read costs bit-identical
// label cycles to the primary answering the same request. The verdict cache
// and interned labels make the repeated-session hot path a table probe on
// both sides.
//
// The gate also runs in PRIMARY mode (a DurableStore instead of a replica):
// the primary is the source of all tokens, so admission always passes and
// staleness is zero — this is the K=1 baseline the fan-out bench compares
// against, and it keeps routing inert when no followers exist.
#ifndef SRC_REPLICATION_READ_GATE_H_
#define SRC_REPLICATION_READ_GATE_H_

#include <cstdint>
#include <functional>
#include <string>

#include "src/labels/label.h"
#include "src/replication/replica.h"
#include "src/replication/wire.h"
#include "src/store/store.h"

namespace asbestos {

// Wire-stable verdict codes (carried in kReadResp.read_status).
enum class ReadStatus : uint64_t {
  kOk = 0,
  kNotFound = 1,           // admitted, key absent at the applied cursor
  kAccessDenied = 2,       // admitted, but the flow check refused the reader
  kRefusedStaleLease = 3,  // lease expired: retry at the primary
  kRefusedCursorLag = 4,   // applied cursor trails the token: retry at primary
  kRefusedExpired = 5,     // record exists but the liveness filter killed it
};

const char* ReadStatusName(ReadStatus s);

struct ReadResult {
  ReadStatus status = ReadStatus::kNotFound;
  std::string value;                     // kOk only
  Label secrecy = Label(Level::kStar);   // kOk only: the record's compartment
  // Cycles since the serving store last heard from the primary (0 on the
  // primary itself) — the realized staleness of this answer.
  uint64_t staleness_cycles = 0;
  // The serving store's applied cursor for the token's shard: the
  // retry-at-primary hint on refusal, the covered proof on success.
  replwire::ReadCursorToken applied;
};

// Domain-specific record liveness (satellite: the demux session table must
// enforce expiry identically on follower and primary). Returns false when
// the record must be treated as dead: the gate answers kRefusedExpired and
// never leaks the stale bytes.
using ReadLivenessFilter =
    std::function<bool(const std::string& key, const StoreRecord& record)>;

class ReadGate {
 public:
  // Follower mode: admission from the replica's lease and applied cursors;
  // serving goes through the replica's epoch-pinned read view so a serve
  // never races ApplyReplicatedRecord.
  explicit ReadGate(const ReplicaStore* replica) : replica_(replica) {}

  // Primary mode: `source_id` is the hub's source id (tokens it minted are
  // covered by definition). Admission always passes; staleness is zero.
  ReadGate(const DurableStore* store, uint64_t source_id)
      : primary_(store), source_id_(source_id) {}

  // Optional per-domain liveness hook (see ReadLivenessFilter).
  void set_liveness_filter(ReadLivenessFilter f) { liveness_ = std::move(f); }

  // Decides and (when admitted) serves one labeled read. Charges the label
  // check exactly as the kernel IPC path would, plus the base serve cost.
  // `trace_id` is the request's flow id, stamped onto refusal-forensics
  // records (src/obs/event_log.h); 0 means untraced.
  ReadResult Serve(const std::string& key, const Label& clearance,
                   const replwire::ReadCursorToken& token,
                   uint64_t trace_id = 0) const;

  // Admission alone (no lookup, no label check, no cycle charges): the
  // demux router uses this shape against ack-reported cursors to pick a
  // follower *likely* to answer; the follower's own gate re-decides
  // authoritatively.
  static bool CursorCovers(const replwire::ReadCursorToken& applied,
                           const replwire::ReadCursorToken& token);

 private:
  ReadResult Admit(const replwire::ReadCursorToken& token,
                   uint64_t trace_id) const;
  // "follower<id>" or "primary": the refusal subject and counter scope.
  std::string GateName() const;

  const ReplicaStore* replica_ = nullptr;  // follower mode
  const DurableStore* primary_ = nullptr;  // primary mode
  uint64_t source_id_ = 0;                 // primary mode
  ReadLivenessFilter liveness_;
};

}  // namespace asbestos

#endif  // SRC_REPLICATION_READ_GATE_H_
