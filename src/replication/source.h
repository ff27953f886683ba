// ReplicationHub and FollowerSession: the primary-side shipping plane,
// refactored from the old point-to-point ReplicationSource into a fan-out
// hub serving K followers from one WAL.
//
// The split:
//
//   ReplicationHub      one per primary store — mints sessions, computes
//                       the lease deadline and the deterministic successor
//                       designation.
//   FollowerSession     one per connected follower — its own go-back-N
//                       cursor set, hello/resume state, snapshot catch-up,
//                       and lease/heartbeat stamps. Each session reads the
//                       WAL spans it ships itself (one ReadShardWal per
//                       batch); nothing is shared between sessions.
//
// Each session keeps two cursors per shard into the primary's WAL history:
//
//   shipped  — everything at or below this (generation, offset) has been
//              handed to the transport this session;
//   acked    — everything at or below this has been applied (and logged)
//              by the follower.
//
// Shipping is go-back-N over a reliable byte stream: batches are emitted in
// order from `shipped`, and an ack that does not extend the shipped prefix
// rewinds `shipped` to the follower's position (duplicates are cheap — the
// follower skips batches below its cursor idempotently). When the span a
// cursor needs has been compacted away (the WAL generation advanced), the
// session ships a whole-shard snapshot instead and resumes streaming from
// the position the snapshot covers — catch-up is compaction-safe by
// construction, and one straggler being imaged never stalls its siblings:
// every other session keeps streaming batches from the log.
//
// A session starts with kHello and then WAITS, per shard, for the
// follower's resume ack: a follower that already mirrors this source
// (matching source_id) resumes mid-stream; anything else (fresh follower,
// follower of a dead primary, re-following old primary) acks a position the
// session does not recognize and gets a snapshot. The session never trusts
// a cursor it cannot prove is into its own history.
//
// Leases (automatic failover): every batch the hub ships carries
// `lease_until = now + lease_interval` on the virtual clock plus the
// current successor designation — the LOWEST follower id among sessions
// that are caught up (resumed on every shard, no snapshot pending, acked
// into the current generation). An idle primary refreshes the lease with
// explicit kHeartbeat frames. Followers act on expiry; see
// src/replication/follower.h.
#ifndef SRC_REPLICATION_SOURCE_H_
#define SRC_REPLICATION_SOURCE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/kernel/payload.h"
#include "src/replication/wire.h"
#include "src/store/store.h"

namespace asbestos {

struct ReplicationOptions {
  // TCP port the endpoint listens on for follower connections; 0 disables
  // replication entirely (the owner never constructs an endpoint).
  uint16_t listen_tcp_port = 0;
  // Concurrent follower sessions served; a connection beyond this gets one
  // kBusy frame and a close.
  uint32_t max_followers = 4;
  // Session shared secret, configured identically on the follower. The
  // hub ships nothing to a peer whose acks carry a different token, and
  // a follower refuses a hello with one — so a stray client that merely
  // connects to either port gets no labeled data. 0 (default) means an
  // unauthenticated closed testbed; the token travels in cleartext (the
  // simulated wire models no cryptography), so it is a capability in the
  // handle-value sense, not a defense against a wire eavesdropper.
  uint64_t auth_token = 0;
  // Lease/heartbeat protocol (automatic failover); must be > 0. Shipped
  // traffic carries lease_until = now + lease_interval_cycles on the
  // virtual clock; an idle session is refreshed with kHeartbeat every
  // lease/4. Sizing bounds: the lease must dwarf the cycles one loaded pump
  // iteration burns (~1.5M through netd with several followers) or a stamp
  // is stale before it crosses the wire, and the heartbeat interval must
  // stay well above the ~110k cycles one heartbeat itself charges, or the
  // idle loop would re-arm itself every pump.
  uint64_t lease_interval_cycles = 50'000'000;

  bool enabled() const { return listen_tcp_port != 0; }
};

class ReplicationHub;

struct FollowerSessionStats {
  uint64_t batches_shipped = 0;
  uint64_t snapshots_shipped = 0;
  uint64_t heartbeats_sent = 0;
  uint64_t bytes_shipped = 0;  // payload bytes (batch spans + images)
  uint64_t rewinds = 0;        // acks that moved `shipped` backwards
};

class FollowerSession {
 public:
  // Starts (or restarts) the follower session: resets every shard to
  // await-resume and returns the kHello frame to send first.
  std::string SessionHello();

  // Appends to `out` the next frames to ship: at most `max_batch_bytes` of
  // WAL span per batch frame (snapshots ship whole), stopping once `out`
  // reaches `max_total_bytes` (the rest ships on a later poll). Returns the
  // number of frames appended. Shards still awaiting their resume ack emit
  // nothing.
  size_t PollFrames(uint64_t max_batch_bytes, uint64_t max_total_bytes, std::string* out);

  // Appends one kHeartbeat frame carrying a fresh lease + successor stamp.
  // The endpoint calls this when a poll shipped nothing and the heartbeat
  // interval has elapsed since this session last heard from us.
  void AppendHeartbeat(std::string* out);

  // Feeds a follower ack back into the cursors.
  void HandleAck(const replwire::WireMessage& ack);

  // True when every shard's acked cursor matches the primary's WAL tail —
  // the follower mirrors everything appended so far.
  bool FullySynced() const;

  // True when the follower is in steady streaming state on every shard:
  // resumed, no snapshot pending, acked into the current generation. This is
  // the successor-eligibility test — deliberately NOT FullySynced(), which
  // no follower satisfies mid-burst; a caught-up follower may trail the tail
  // by in-flight batches, and go-back-N replays those from its own log on
  // promote day (it simply never applies them — they die with the wire).
  bool CaughtUp() const;

  uint64_t session_id() const { return session_id_; }
  // Flow-trace id of this session, minted at SessionHello and stamped on
  // every frame the session ships (see src/obs/event_log.h).
  uint64_t trace_id() const { return trace_id_; }
  // Virtual-clock stamp of the last authenticated ack from this follower
  // (0 before the first ack).
  uint64_t last_ack_cycles() const { return last_ack_cycles_; }
  // Cycles the follower's applied state trails the primary: 0 when fully
  // synced, otherwise now minus the last authenticated ack (now minus the
  // hello send when no ack has arrived yet).
  uint64_t ApplyLagCycles() const;
  // Virtual cycles until the newest lease stamped for this follower runs
  // out (0 when nothing was stamped yet or the lease already expired).
  uint64_t LeaseRemainingCycles() const;
  // The follower's self-declared failover id, learned from its acks
  // (0 until an authenticated ack carries one).
  uint64_t follower_id() const { return follower_id_; }
  // Virtual-clock stamp of the last frames handed to the transport.
  uint64_t last_send_cycles() const { return last_send_cycles_; }
  // The newest lease deadline ever stamped on this session's frames — the
  // latest moment its follower could act on a designation it heard from us
  // (the hub's fencing horizon when the session closes).
  uint64_t last_lease_stamped() const { return last_lease_stamped_; }
  const FollowerSessionStats& stats() const { return stats_; }

 private:
  friend class ReplicationHub;

  struct Cursor {
    bool await_resume = true;    // no ack seen this session yet
    bool force_snapshot = false; // the follower's position is unusable
    uint64_t shipped_gen = 0;
    uint64_t shipped_off = 0;
    uint64_t acked_gen = 0;
    uint64_t acked_off = 0;
  };

  FollowerSession(ReplicationHub* hub, uint64_t session_id);

  // Emits a snapshot frame for the shard (lease-stamped like a batch) and
  // points `shipped` at the position the image covers.
  void ShipSnapshot(uint32_t shard, uint64_t lease_until, uint64_t successor_id,
                    std::string* out, size_t* frames);

  // Streams whole-frame batches from `shipped` toward the shard's live WAL
  // tail, honoring the batch and total byte budgets. False when a read
  // failed (the span vanished under us — the caller ships a snapshot
  // instead).
  bool ShipBatchSpan(uint32_t shard, uint64_t max_batch_bytes, uint64_t max_total_bytes,
                     uint64_t lease_until, uint64_t successor_id, std::string* out,
                     size_t* frames);

  ReplicationHub* hub_;
  uint64_t session_id_;
  uint64_t follower_id_ = 0;
  std::vector<Cursor> cursors_;
  uint64_t last_send_cycles_ = 0;
  uint64_t last_lease_stamped_ = 0;
  uint64_t last_ack_cycles_ = 0;
  uint64_t hello_cycles_ = 0;
  uint64_t trace_id_ = 0;
  FollowerSessionStats stats_;
};

// Point-in-time replication health, one entry per live session. Everything
// a failover post-mortem needs: where each follower is per shard, how far
// behind it is on the virtual clock, and how long its lease has left.
struct HubDebugStatus {
  struct ShardCursor {
    bool await_resume = false;
    bool force_snapshot = false;
    uint64_t shipped_gen = 0;
    uint64_t shipped_off = 0;
    uint64_t acked_gen = 0;
    uint64_t acked_off = 0;
  };
  struct Session {
    uint64_t session_id = 0;
    uint64_t follower_id = 0;
    uint64_t trace_id = 0;
    bool caught_up = false;
    bool fully_synced = false;
    uint64_t apply_lag_cycles = 0;
    uint64_t lease_remaining_cycles = 0;
    FollowerSessionStats stats;
    std::vector<ShardCursor> shards;
    // Per-follower read-plane scoreboard, keyed by follower_id (the
    // repl.follower<id>.* counters from src/replication/read_gate.cc): how
    // many reads THIS follower answered, and how many it bounced for each
    // refusal reason. Zero for anonymous sessions (follower_id == 0).
    uint64_t reads_served = 0;
    uint64_t reads_refused_stale_lease = 0;
    uint64_t reads_refused_cursor_lag = 0;
    uint64_t reads_access_denied = 0;
  };
  uint64_t source_id = 0;
  uint64_t successor_id = 0;
  std::vector<Session> sessions;
  // Fleet-wide read-plane scoreboard (process-global counters from
  // src/replication/read_gate.cc, snapshotted here for one-stop health).
  uint64_t reads_served = 0;
  uint64_t reads_refused_stale_lease = 0;
  uint64_t reads_refused_cursor_lag = 0;
  uint64_t read_staleness_p99_cycles = 0;
};

class ReplicationHub {
 public:
  // `source_id` names this primary's WAL history; a fresh nonce per store
  // open (the owning process mints it from the kernel's RNG-backed handle
  // space or any per-boot unique value). The store must outlive the hub.
  // The hub reads `auth_token` and `lease_interval_cycles` from `options`.
  ReplicationHub(const DurableStore* store, uint64_t source_id,
                 ReplicationOptions options = ReplicationOptions());
  ~ReplicationHub();

  ReplicationHub(const ReplicationHub&) = delete;
  ReplicationHub& operator=(const ReplicationHub&) = delete;

  // Mints a session for one newly connected follower. The hub owns it; the
  // pointer stays valid until CloseSession. Capacity limits are the
  // endpoint's job (it refuses with kBusy) — the hub itself is unbounded.
  FollowerSession* OpenSession();
  void CloseSession(FollowerSession* session);

  size_t session_count() const { return sessions_.size(); }
  const std::vector<std::unique_ptr<FollowerSession>>& sessions() const { return sessions_; }

  // True when at least one follower is connected and EVERY session is fully
  // synced to the WAL tail.
  bool AllFullySynced() const;

  // The lease deadline to stamp right now: now + lease_interval.
  uint64_t LeaseDeadline() const;
  // Idle-primary lease refresh period: a quarter of the lease.
  uint64_t heartbeat_interval_cycles() const { return options_.lease_interval_cycles / 4; }

  // Deterministic successor designation: the lowest nonzero follower id
  // among caught-up sessions; 0 when no session qualifies.
  uint64_t SuccessorId() const;

  // WAL read path: DurableStore::ReadShardWal of (shard, generation,
  // offset, ≤max_bytes), adopted into a Payload without a copy.
  // `generation` must be the shard's CURRENT generation (cursor-vs-generation
  // divergence is handled by the caller shipping a snapshot instead).
  Status ReadSpan(uint32_t shard, uint64_t generation, uint64_t offset, uint64_t max_bytes,
                  Payload* span);

  uint64_t source_id() const { return source_id_; }
  uint64_t auth_token() const { return options_.auth_token; }
  const DurableStore* store() const { return store_; }

  // Replication/lease health surface: cursors, lag, and lease state for
  // every live session. Also exported as gauges (repl.hub<k>.*) while the
  // hub is alive.
  HubDebugStatus DebugStatus() const;

 private:
  // A follower whose session closed while it might still act on a
  // designation naming it (its last stamped lease has not yet expired).
  // SuccessorId() keeps honoring these so a re-designation can never race
  // the departed designee's own expiry check into a double promote.
  struct RetiredDesignee {
    uint64_t id;
    uint64_t lease_until;
  };

  const DurableStore* store_;
  uint64_t source_id_;
  ReplicationOptions options_;
  std::vector<std::unique_ptr<FollowerSession>> sessions_;
  mutable std::vector<RetiredDesignee> retired_designees_;  // pruned in SuccessorId
  uint64_t next_session_id_ = 1;
  // Metrics gauge group publishing DebugStatus() under repl.hub<k>.* while
  // this hub lives (k = per-process hub instance number).
  uint64_t obs_gauge_group_ = 0;
};

}  // namespace asbestos

#endif  // SRC_REPLICATION_SOURCE_H_
