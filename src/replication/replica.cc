#include "src/replication/replica.h"

#include <cstdio>

#include "src/base/panic.h"
#include "src/base/strings.h"
#include "src/obs/event_log.h"
#include "src/obs/profiler.h"
#include "src/sim/cycles.h"

namespace asbestos {

using replwire::WireMessage;

namespace {

constexpr char kCursorFileName[] = "replcursor";

}  // namespace

Result<std::unique_ptr<ReplicaStore>> ReplicaStore::Open(StoreOptions opts,
                                                         ReplicaOptions options) {
  auto store = DurableStore::Open(opts);
  if (!store.ok()) {
    return store.status();
  }
  std::unique_ptr<ReplicaStore> replica(new ReplicaStore(opts.dir));
  replica->options_ = options;
  replica->store_ = store.take();
  replica->cursors_.resize(replica->store_->shard_count());
  replica->LoadCursorFile();
  return replica;
}

void ReplicaStore::LoadCursorFile() {
  FILE* f = ::fopen((dir_ + "/" + kCursorFileName).c_str(), "r");
  if (f == nullptr) {
    return;  // cold replica: every shard acks the unknown position
  }
  for (Cursor& c : cursors_) {
    unsigned long long src = 0;
    unsigned long long gen = 0;
    unsigned long long off = 0;
    if (::fscanf(f, "%llu %llu %llu", &src, &gen, &off) != 3) {
      // Short or malformed file: drop everything read so far — a partial
      // cursor set must not mix histories.
      for (Cursor& reset : cursors_) {
        reset = Cursor();
      }
      break;
    }
    c.source_id = src;
    c.generation = gen;
    c.offset = off;
  }
  ::fclose(f);
}

Status ReplicaStore::Checkpoint() {
  if (store_ == nullptr) {
    return Status::kOk;  // promoted and taken; nothing left to pin
  }
  // Order matters: the cursor may only ever name durably-applied history.
  const Status s = store_->Sync();
  if (!IsOk(s)) {
    return s;
  }
  std::string body;
  for (const Cursor& c : cursors_) {
    body += StrFormat("%llu %llu %llu\n", static_cast<unsigned long long>(c.source_id),
                      static_cast<unsigned long long>(c.generation),
                      static_cast<unsigned long long>(c.offset));
  }
  // Best-effort: losing the cursor costs a snapshot resync, never
  // correctness, so a write failure is not surfaced.
  (void)WriteFileAtomically(dir_, kCursorFileName, body);
  return Status::kOk;
}

void ReplicaStore::AppendAck(uint32_t shard, std::string* out) const {
  const Cursor& c = cursors_[shard];
  WireMessage ack;
  ack.type = replwire::kAck;
  ack.token = options_.auth_token;
  ack.shard = shard;
  ack.source_id = c.source_id;
  ack.generation = c.generation;
  ack.offset = c.offset;
  ack.follower_id = options_.follower_id;
  replwire::AppendFrame(ack, out);
}

void ReplicaStore::TrackLease(const WireMessage& msg) {
  // Leases only move forward: a reordered frame carrying an older deadline
  // must not shorten a lease a newer frame already extended.
  if (msg.lease_until > lease_until_) {
    lease_until_ = msg.lease_until;
  }
  if (msg.type != replwire::kHello && msg.successor_id != successor_id_) {
    successor_id_ = msg.successor_id;
  }
  last_heard_cycles_ = GetCycleAccounting().now();
}

const StoreRecord* ReplicaStore::ReadView::Get(const std::string& key) const {
  ASB_ASSERT(owner_->read_epoch_ == epoch_ && "read view outlived an apply");
  return owner_->store_ == nullptr ? nullptr : owner_->store_->Get(key);
}

Status ReplicaStore::HandleFrame(const WireMessage& msg, std::string* ack_out) {
  if (promoted_) {
    return Status::kBadState;  // a promoted store takes writes, not batches
  }
  switch (msg.type) {
    case replwire::kHello: {
      if (msg.token != options_.auth_token) {
        return Status::kAccessDenied;  // not our primary; poison session
      }
      if (msg.shard_count != store_->shard_count()) {
        return Status::kInvalidArgs;  // layouts must match; poison session
      }
      session_source_ = msg.source_id;
      session_trace_id_ = msg.trace_id;
      // A fresh session supersedes the dead one's lease bookkeeping.
      lease_until_ = 0;
      successor_id_ = 0;
      TrackLease(msg);
      // Resume handshake: tell the source where this replica stands. A
      // cursor into some other primary's history acks as-is; the source
      // will not recognize it and ships a snapshot.
      for (uint32_t shard = 0; shard < cursors_.size(); ++shard) {
        AppendAck(shard, ack_out);
      }
      return Status::kOk;
    }
    case replwire::kBatch: {
      if (msg.shard >= cursors_.size() || session_source_ == 0) {
        return Status::kOk;  // no session / nonsense shard: drop
      }
      TrackLease(msg);
      Cursor& c = cursors_[static_cast<uint32_t>(msg.shard)];
      const bool in_sequence = c.source_id == session_source_ &&
                               c.generation == msg.generation && c.offset == msg.offset;
      if (!in_sequence) {
        const bool duplicate = c.source_id == session_source_ &&
                               c.generation == msg.generation && msg.offset < c.offset;
        (duplicate ? stats_.duplicates_skipped : stats_.gaps_ignored) += 1;
        // Re-ack the real position either way; the source rewinds to it
        // (duplicate) or falls back to a snapshot (gap / unknown history).
        AppendAck(static_cast<uint32_t>(msg.shard), ack_out);
        return Status::kOk;
      }
      // The apply span adopts the primary's ship stack as its parent (the
      // frame carries it in prof_ctx), so one merged flamegraph nests this
      // follower's apply work under the primary's pump/ship frames.
      obs::ProfSpan apply_span;
      if (obs::CycleProfiler::enabled()) {
        apply_span.BeginWithParent(msg.prof_ctx, "repl.apply.batch");
      }
      const Status s = replwire::ForEachWalRecord(
          msg.payload, [this, &msg](std::string_view record) {
            const Status applied = store_->ApplyReplicatedRecord(
                static_cast<uint32_t>(msg.shard), record, msg.trace_id);
            if (IsOk(applied)) {
              stats_.records_applied += 1;
            }
            return applied;
          });
      if (!IsOk(s)) {
        return s;  // framing corruption inside a batch poisons the session
      }
      c.offset += msg.payload.size();
      stats_.batches_applied += 1;
      read_epoch_ += 1;  // invalidate outstanding read views
      if (obs::EventLog::enabled() && msg.trace_id != 0) {
        obs::EventLog::Get().Span(
            msg.trace_id, "replica", "repl.apply",
            "batch shard=" + std::to_string(msg.shard) + " off=" +
                std::to_string(c.offset),
            Label::Bottom());
      }
      AppendAck(static_cast<uint32_t>(msg.shard), ack_out);
      return Status::kOk;
    }
    case replwire::kSnapshot: {
      if (msg.shard >= cursors_.size() || session_source_ == 0) {
        return Status::kOk;
      }
      // Images refresh the lease like batches: a long catch-up must not
      // starve the designee's lease under a live primary.
      TrackLease(msg);
      obs::ProfSpan apply_span;
      if (obs::CycleProfiler::enabled()) {
        apply_span.BeginWithParent(msg.prof_ctx, "repl.apply.snapshot");
      }
      const Status s =
          store_->InstallShardSnapshot(static_cast<uint32_t>(msg.shard), msg.payload);
      if (!IsOk(s)) {
        return s;  // corrupt image: poison the session, keep current records
      }
      Cursor& c = cursors_[static_cast<uint32_t>(msg.shard)];
      c.source_id = session_source_;
      c.generation = msg.generation;
      c.offset = msg.offset;
      stats_.snapshots_installed += 1;
      read_epoch_ += 1;  // invalidate outstanding read views
      if (obs::EventLog::enabled() && msg.trace_id != 0) {
        obs::EventLog::Get().Span(
            msg.trace_id, "replica", "repl.apply",
            "snapshot shard=" + std::to_string(msg.shard) + " gen=" +
                std::to_string(msg.generation),
            Label::Bottom());
      }
      AppendAck(static_cast<uint32_t>(msg.shard), ack_out);
      return Status::kOk;
    }
    case replwire::kHeartbeat: {
      if (session_source_ == 0) {
        return Status::kOk;  // no session: a stray heartbeat grants nothing
      }
      TrackLease(msg);
      stats_.heartbeats_seen += 1;
      return Status::kOk;
    }
    case replwire::kGenMark: {
      // Compaction hand-off (see wire.h): the primary retained the old
      // generation's tail, this follower applied ALL of it, and the mark
      // names exactly that end position. Advancing to (generation+1, 0) is
      // pure bookkeeping — the records are already applied — so a synced
      // follower rides through the compaction without a snapshot re-image.
      // Wal::Reset() advances generations by exactly one, which is why the
      // mark needs no explicit target. Anywhere else, re-ack the true
      // position and let the source fall back to a snapshot.
      if (msg.shard >= cursors_.size() || session_source_ == 0) {
        return Status::kOk;
      }
      TrackLease(msg);
      Cursor& c = cursors_[static_cast<uint32_t>(msg.shard)];
      if (c.source_id == session_source_ && c.generation == msg.generation &&
          c.offset == msg.offset) {
        c.generation += 1;
        c.offset = 0;
        stats_.gen_marks_applied += 1;
      } else {
        stats_.gaps_ignored += 1;
      }
      AppendAck(static_cast<uint32_t>(msg.shard), ack_out);
      return Status::kOk;
    }
    case replwire::kBusy: {
      // The primary is at capacity: record the back-off hint and tell the
      // caller to end the session quietly (it reconnects later instead of
      // hammering the refusal). A busy frame also PROVES a live primary —
      // any designation this replica still holds from an earlier session is
      // stale (the hub has re-designated around us), so drop the lease
      // bookkeeping rather than promote on it later.
      busy_retry_after_ = msg.retry_after;
      lease_until_ = 0;
      successor_id_ = 0;
      stats_.busy_signals += 1;
      return Status::kWouldBlock;
    }
    default:
      return Status::kOk;  // acks and future types are ignored by replicas
  }
}

Status ReplicaStore::Promote() {
  if (promoted_) {
    return Status::kOk;
  }
  // Drain the group-commit pipeline and pin the cursor: after this returns,
  // reopening the directory recovers exactly the applied history (the
  // single-node crash-recovery contract the promote tests assert).
  const Status s = Checkpoint();
  if (!IsOk(s)) {
    return s;
  }
  promoted_ = true;
  return Status::kOk;
}

std::unique_ptr<DurableStore> ReplicaStore::TakeStore() {
  ASB_ASSERT(promoted_ && "TakeStore before Promote");
  return std::move(store_);
}

}  // namespace asbestos
