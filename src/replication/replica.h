// ReplicaStore: a follower's durable store fed by a replication stream.
//
// The replica owns a DurableStore of its own and applies shipped WAL
// records through DurableStore::ApplyReplicatedRecord — the exact apply
// path local crash recovery replays — so records, secrecy labels, and
// integrity labels land bit-identically to a primary that recovered the
// same history, and Promote() is nothing more than draining the pipeline:
// the store IS a primary store the moment batches stop.
//
// Apply is idempotent and in-order per shard:
//   * a batch at exactly the expected (generation, offset) applies and
//     advances the cursor;
//   * a batch at or below the cursor is a duplicate: skipped, re-acked;
//   * a gap or generation mismatch is ignored and the current position
//     re-acked — the go-back-N source rewinds (or ships a snapshot).
// Reordered and duplicated delivery therefore converge to the same state
// as in-order delivery, which the edge-case tests exercise directly.
//
// Cursor durability: the per-shard primary cursor is checkpointed to
// <dir>/replcursor only when everything it covers is durably applied
// (after a full Sync) — a crashed follower whose cursor lags simply
// re-receives records it already holds (idempotent), while a cursor that
// ran AHEAD of durable state would silently lose the difference, so the
// checkpoint never does. A follower with no usable cursor (fresh dir, or
// following a primary with a different source_id) acks an unknown position
// and is caught up by snapshot.
//
// Lease bookkeeping: the replica records the newest lease deadline and
// successor designation stamped on incoming kHello/kBatch/kHeartbeat
// frames, and carries its configured follower id in every ack. It never
// ACTS on expiry itself — the owning FollowerProcess polls LeaseExpired()
// from its OnIdle hook and decides whether this replica is the designated
// successor (src/replication/follower.h).
#ifndef SRC_REPLICATION_REPLICA_H_
#define SRC_REPLICATION_REPLICA_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/base/result.h"
#include "src/replication/wire.h"
#include "src/store/store.h"

namespace asbestos {

struct ReplicaStoreStats {
  uint64_t batches_applied = 0;
  uint64_t records_applied = 0;
  uint64_t snapshots_installed = 0;
  uint64_t duplicates_skipped = 0;  // batches at/below the cursor
  uint64_t gaps_ignored = 0;        // batches past the cursor or wrong gen
  uint64_t heartbeats_seen = 0;     // kHeartbeat frames (lease refreshes)
  uint64_t busy_signals = 0;        // kBusy refusals from an at-capacity primary
};

struct ReplicaOptions {
  // Must match the primary's ReplicationOptions::auth_token: a hello
  // carrying a different token poisons the session before any state is
  // accepted.
  uint64_t auth_token = 0;
  // This replica's failover identity, carried in every ack so the primary
  // can designate a successor (lowest caught-up id wins). 0 = bystander:
  // the replica mirrors but never participates in automatic failover.
  uint64_t follower_id = 0;
};

class ReplicaStore {
 public:
  // Opens (or creates) the replica's own durable store and loads any
  // checkpointed cursor.
  static Result<std::unique_ptr<ReplicaStore>> Open(StoreOptions opts,
                                                    ReplicaOptions options = ReplicaOptions());

  // Handles one parsed wire frame from the primary. Ack frames to send
  // back (if any) are appended to `ack_out`. kInvalidArgs poisons the
  // session (shard-count mismatch); kBadState after Promote();
  // kWouldBlock on a kBusy refusal (end the session and back off).
  Status HandleFrame(const replwire::WireMessage& msg, std::string* ack_out);

  // Group commit of everything applied this pump (see DurableStore); a full
  // checkpoint also persists the cursor. A no-op after TakeStore() — the
  // promoted owner syncs for itself, but the shell may still be pumped.
  Status SyncPipelined() { return store_ == nullptr ? Status::kOk : store_->SyncPipelined(); }
  Status Checkpoint();

  // Ends the follower role: drains and checkpoints the store, then refuses
  // every further frame. The store is now a primary store — reopening its
  // directory recovers exactly what single-node crash recovery would.
  Status Promote();
  bool promoted() const { return promoted_; }

  // Releases the underlying store to the promoted primary (the replica is
  // an empty shell afterwards). Promote() first.
  std::unique_ptr<DurableStore> TakeStore();

  DurableStore* store() { return store_.get(); }
  const DurableStore* store() const { return store_.get(); }
  const ReplicaStoreStats& stats() const { return stats_; }
  uint64_t session_source() const { return session_source_; }
  uint64_t follower_id() const { return options_.follower_id; }
  uint64_t auth_token() const { return options_.auth_token; }
  // Flow-trace id the current session's kHello carried (0 = no session, or
  // an untraced primary). Frames the replica applies are spanned under it.
  uint64_t session_trace_id() const { return session_trace_id_; }

  // --- Lease state (automatic failover; see src/replication/follower.h) ------
  // The newest lease deadline heard from the primary (kHello/kBatch/
  // kHeartbeat); 0 = no lease in effect.
  uint64_t lease_until() const { return lease_until_; }
  // The successor the primary last designated; 0 = none.
  uint64_t successor_id() const { return successor_id_; }
  // True when a tracked lease has run out: the primary has not spoken by
  // its own deadline.
  bool LeaseExpired(uint64_t now_cycles) const {
    return lease_until_ != 0 && now_cycles > lease_until_;
  }
  // The back-off hint from the last kBusy refusal (0 = never refused).
  uint64_t busy_retry_after() const { return busy_retry_after_; }

  // --- Follower reads (src/replication/read_gate.h) --------------------------
  // The applied position for one shard, in cursor-token form: what the read
  // gate compares a client's token against.
  replwire::ReadCursorToken applied_cursor(uint32_t shard) const {
    replwire::ReadCursorToken t;
    const Cursor& c = cursors_[shard];
    t.source_id = c.source_id;
    t.shard = shard;
    t.generation = c.generation;
    t.offset = c.offset;
    return t;
  }
  // Virtual-clock instant of the newest frame heard from the primary
  // (0 = never): `now - last_heard` is the realized staleness a served
  // read reports.
  uint64_t last_heard_cycles() const { return last_heard_cycles_; }

  // An epoch-pinned window onto the replica's records: Get() asserts no
  // apply landed since the view was taken, so a serve can never interleave
  // with ApplyReplicatedRecord half-applying a batch. Views are meant to be
  // taken per request and dropped before control returns to the pump.
  class ReadView {
   public:
    const StoreRecord* Get(const std::string& key) const;

   private:
    friend class ReplicaStore;
    ReadView(const ReplicaStore* owner, uint64_t epoch)
        : owner_(owner), epoch_(epoch) {}
    const ReplicaStore* owner_;
    uint64_t epoch_;
  };
  ReadView read_view() const { return ReadView(this, read_epoch_); }
  uint64_t read_epoch() const { return read_epoch_; }

 private:
  struct Cursor {
    uint64_t source_id = 0;  // 0 = never synced to anyone
    uint64_t generation = 0;
    uint64_t offset = 0;
  };

  explicit ReplicaStore(std::string dir) : dir_(std::move(dir)) {}

  void AppendAck(uint32_t shard, std::string* out) const;
  void LoadCursorFile();
  void TrackLease(const replwire::WireMessage& msg);

  std::string dir_;
  std::unique_ptr<DurableStore> store_;
  std::vector<Cursor> cursors_;
  ReplicaOptions options_;
  uint64_t session_source_ = 0;  // from kHello; 0 = no session yet
  uint64_t session_trace_id_ = 0;  // from kHello; the session's flow trace
  uint64_t lease_until_ = 0;
  uint64_t successor_id_ = 0;
  uint64_t busy_retry_after_ = 0;
  uint64_t last_heard_cycles_ = 0;
  uint64_t read_epoch_ = 0;  // bumped per mutating apply; pins ReadViews
  bool promoted_ = false;
  ReplicaStoreStats stats_;
};

}  // namespace asbestos

#endif  // SRC_REPLICATION_REPLICA_H_
