#include "src/replication/read_gate.h"

#include "src/kernel/label_checks.h"
#include "src/obs/event_log.h"
#include "src/obs/metrics.h"
#include "src/sim/costs.h"
#include "src/sim/cycles.h"

namespace asbestos {

namespace {

// Registry-owned counters (create-on-first-use, cached): the read plane's
// scoreboard, independent of any one gate's lifetime. Surfaced by
// ReplicationHub::DebugStatus and the bench metrics snapshot.
obs::Counter& ReadsServed() {
  static obs::Counter& c = obs::Registry::Get().counter("repl.reads_served");
  return c;
}
obs::Counter& RefusedStaleLease() {
  static obs::Counter& c =
      obs::Registry::Get().counter("repl.reads_refused_stale_lease");
  return c;
}
obs::Counter& RefusedCursorLag() {
  static obs::Counter& c =
      obs::Registry::Get().counter("repl.reads_refused_cursor_lag");
  return c;
}
obs::CycleHistogram& StalenessHistogram() {
  static obs::CycleHistogram& h =
      obs::Registry::Get().histogram("repl.read_staleness_cycles");
  return h;
}

// Per-follower breakout of the same scoreboard (satellite: DebugStatus
// forensics without grepping traces). Keyed by the follower's configured
// id; the primary's gate does not contribute (its refusal modes cannot
// fire). Cold enough that the registry's map lookup per bump is fine.
obs::Counter& FollowerCounter(uint64_t follower_id, const char* field) {
  return obs::Registry::Get().counter("repl.follower" +
                                      std::to_string(follower_id) + "." + field);
}

}  // namespace

const char* ReadStatusName(ReadStatus s) {
  switch (s) {
    case ReadStatus::kOk:
      return "ok";
    case ReadStatus::kNotFound:
      return "not_found";
    case ReadStatus::kAccessDenied:
      return "access_denied";
    case ReadStatus::kRefusedStaleLease:
      return "refused_stale_lease";
    case ReadStatus::kRefusedCursorLag:
      return "refused_cursor_lag";
    case ReadStatus::kRefusedExpired:
      return "refused_expired";
  }
  return "unknown";
}

bool ReadGate::CursorCovers(const replwire::ReadCursorToken& applied,
                            const replwire::ReadCursorToken& token) {
  if (token.empty()) {
    return true;  // the session never wrote: nothing to wait for
  }
  if (applied.source_id != token.source_id) {
    return false;  // a different (or no) history: the token means nothing here
  }
  // Generations only advance once everything before the switch is applied
  // (snapshot install or kGenMark hand-off), so a later generation covers
  // every earlier token outright.
  return applied.generation > token.generation ||
         (applied.generation == token.generation && applied.offset >= token.offset);
}

std::string ReadGate::GateName() const {
  return replica_ != nullptr
             ? "follower" + std::to_string(replica_->follower_id())
             : std::string("primary");
}

ReadResult ReadGate::Admit(const replwire::ReadCursorToken& token,
                           uint64_t trace_id) const {
  ReadResult r;
  if (replica_ != nullptr) {
    const uint64_t now = GetCycleAccounting().now();
    const uint64_t heard = replica_->last_heard_cycles();
    r.staleness_cycles = heard == 0 ? now : now - heard;
    const uint32_t shard =
        token.empty() ? 0 : static_cast<uint32_t>(token.shard);
    if (shard < replica_->store()->shard_count()) {
      r.applied = replica_->applied_cursor(shard);
    }
    // Lease freshness bounds ALL reads, token or not: an expired (or never
    // granted) lease means unbounded staleness, which the contract forbids.
    if (replica_->lease_until() == 0 || replica_->LeaseExpired(now)) {
      r.status = ReadStatus::kRefusedStaleLease;
      RefusedStaleLease().Add();
      FollowerCounter(replica_->follower_id(), "reads_refused_stale_lease")
          .Add();
      if (obs::EventLog::enabled()) {
        obs::EventLog::Get().Refusal(
            "read_gate.stale_lease", GateName(),
            "lease expired: staleness " + std::to_string(r.staleness_cycles) +
                " cycles, retry at primary",
            0, Level::kStar, Level::kStar, Label::Bottom(), Label::Bottom(),
            trace_id);
      }
      return r;
    }
    if (!CursorCovers(r.applied, token)) {
      r.status = ReadStatus::kRefusedCursorLag;
      RefusedCursorLag().Add();
      FollowerCounter(replica_->follower_id(), "reads_refused_cursor_lag")
          .Add();
      if (obs::EventLog::enabled()) {
        obs::EventLog::Get().Refusal(
            "read_gate.cursor_lag", GateName(),
            "applied cursor gen " + std::to_string(r.applied.generation) +
                " off " + std::to_string(r.applied.offset) +
                " trails token gen " + std::to_string(token.generation) +
                " off " + std::to_string(token.offset),
            0, Level::kStar, Level::kStar, Label::Bottom(), Label::Bottom(),
            trace_id);
      }
      return r;
    }
  } else {
    // Primary mode: the primary minted every token it will ever see, and
    // its tail is by definition at or past all of them. Reads here are the
    // K=1 baseline; staleness is identically zero.
    r.staleness_cycles = 0;
    r.applied.source_id = source_id_;
    if (!token.empty() && token.shard < primary_->shard_count()) {
      const uint32_t shard = static_cast<uint32_t>(token.shard);
      r.applied.shard = shard;
      r.applied.generation = primary_->shard_wal_generation(shard);
      r.applied.offset = primary_->shard_wal_offset(shard);
    }
  }
  r.status = ReadStatus::kOk;
  return r;
}

ReadResult ReadGate::Serve(const std::string& key, const Label& clearance,
                           const replwire::ReadCursorToken& token,
                           uint64_t trace_id) const {
  Charge(costs::kReadServeCycles);
  ReadResult r = Admit(token, trace_id);
  if (r.status != ReadStatus::kOk) {
    return r;
  }
  const StoreRecord* rec = nullptr;
  if (replica_ != nullptr) {
    // The epoch-pinned view makes the no-race property checkable: if an
    // apply ever interleaved here, the view's Get would assert instead of
    // returning a half-applied record.
    const ReplicaStore::ReadView view = replica_->read_view();
    rec = view.Get(key);
  } else {
    rec = primary_->Get(key);
  }
  if (rec == nullptr) {
    r.status = ReadStatus::kNotFound;
    StalenessHistogram().Record(r.staleness_cycles);
    return r;
  }
  if (liveness_ && !liveness_(key, *rec)) {
    r.status = ReadStatus::kRefusedExpired;
    if (obs::EventLog::enabled()) {
      // Gated by the record's secrecy: that the key EXISTS (expired or not)
      // is as secret as its contents.
      obs::EventLog::Get().Refusal(
          "read_gate.expired", GateName(),
          "record expired by the liveness filter", 0, Level::kStar,
          Level::kStar, rec->secrecy, clearance, trace_id);
    }
    StalenessHistogram().Record(r.staleness_cycles);
    return r;
  }
  // The flow check, and its cost, are the kernel IPC delivery check
  // verbatim: ES = the record's secrecy, receive bound = the reader's
  // clearance (QR), with no decontamination (DR = ⊥) and no verify/port
  // narrowing (V = pR = ⊤), i.e. ES ⊑ QR. Charged with the kernel's exact
  // formula to Component::kKernelIpc so a follower-served read's label
  // cycles are bit-identical to the primary's — and since verdicts are
  // cached by rep-id tuple, the per-session hot path is a table probe on
  // both sides (kernel/label_checks.h).
  uint64_t fused_work = 0;
  const bool ok = CheckDeliveryAllowed(rec->secrecy, clearance, Label::Bottom(),
                                       Label::Top(), Label::Top(), &fused_work);
  ChargeTo(Component::kKernelIpc,
           fused_work * costs::kLabelEntryCycles + costs::kLabelOpBaseCycles);
  if (!ok) {
    r.status = ReadStatus::kAccessDenied;
    if (replica_ != nullptr) {
      FollowerCounter(replica_->follower_id(), "reads_access_denied").Add();
    }
    if (obs::EventLog::enabled()) {
      const DeliveryRefusal why =
          ExplainDeliveryRefusal(rec->secrecy, clearance, Label::Bottom(),
                                 Label::Top(), Label::Top());
      obs::EventLog::Get().Refusal(
          "read_gate.access_denied", GateName(),
          std::string("record secrecy ") + LevelName(why.es_level) +
              " exceeds reader clearance " + LevelName(why.bound_level),
          why.handle, why.es_level, why.bound_level, rec->secrecy, clearance,
          trace_id);
    }
    StalenessHistogram().Record(r.staleness_cycles);
    return r;
  }
  r.status = ReadStatus::kOk;
  r.value = rec->value;
  r.secrecy = rec->secrecy;
  ReadsServed().Add();
  if (replica_ != nullptr) {
    FollowerCounter(replica_->follower_id(), "reads_served").Add();
  }
  StalenessHistogram().Record(r.staleness_cycles);
  return r;
}

}  // namespace asbestos
