#include "src/replication/follower.h"

#include "src/base/panic.h"
#include "src/net/netd.h"
#include "src/replication/backing.h"
#include "src/sim/costs.h"
#include "src/sim/cycles.h"

namespace asbestos {

FollowerProcess::FollowerProcess(StoreOptions store_opts, ReplicaOptions options) {
  auto replica = ReplicaStore::Open(std::move(store_opts), options);
  if (!replica.ok()) {
    DurableFailStop("follower", "open", replica.status());
  }
  replica_ = replica.take();
  read_gate_ = std::make_unique<ReadGate>(replica_.get());
}

void FollowerProcess::Start(ProcessContext& ctx) {
  notify_port_ = ctx.NewPort(Label::Top());  // closed; netd gets ⋆ below
  const Handle netd_ctl = Handle::FromValue(ctx.GetEnv("netd_ctl"));
  ASB_ASSERT(netd_ctl.valid() && "follower needs the netd control port");

  Message listen;
  listen.type = netd_proto::kListen;
  listen.words = {ctx.GetEnv("tcp_port")};
  listen.reply_port = notify_port_;
  SendArgs args;
  if (ctx.HasEnv("self_verify")) {
    args.verify =
        Label({{Handle::FromValue(ctx.GetEnv("self_verify")), Level::kL0}}, Level::kL3);
  }
  args.decont_send = Label({{notify_port_, Level::kStar}}, Level::kL3);
  ctx.Send(netd_ctl, std::move(listen), args);

  if (ctx.HasEnv("read_tcp_port")) {
    read_notify_port_ = ctx.NewPort(Label::Top());
    Message rlisten;
    rlisten.type = netd_proto::kListen;
    rlisten.words = {ctx.GetEnv("read_tcp_port")};
    rlisten.reply_port = read_notify_port_;
    SendArgs rargs;
    if (ctx.HasEnv("self_verify")) {
      rargs.verify =
          Label({{Handle::FromValue(ctx.GetEnv("self_verify")), Level::kL0}}, Level::kL3);
    }
    rargs.decont_send = Label({{read_notify_port_, Level::kStar}}, Level::kL3);
    ctx.Send(netd_ctl, std::move(rlisten), rargs);
  }
}

void FollowerProcess::IssueRead(ProcessContext& ctx) {
  Message read;
  read.type = netd_proto::kRead;
  read.words = {0 /*cookie*/, 0 /*all*/, 0 /*no peek*/, 0};
  read.reply_port = notify_port_;
  ctx.Send(conn_, std::move(read));
}

void FollowerProcess::EndSession(ProcessContext& ctx, bool close_conn) {
  if (!conn_.valid()) {
    return;
  }
  if (close_conn) {
    Message close;
    close.type = netd_proto::kControl;
    close.words = {0, netd_proto::kControlOpClose};
    ctx.Send(conn_, std::move(close));
  }
  ASB_ASSERT(ctx.SetSendLevel(conn_, kDefaultSendLevel) == Status::kOk);
  conn_ = Handle();
  rx_.clear();
  // Session boundaries are quiet moments: pin the cursor so a restart
  // resumes warm instead of re-shipping snapshots.
  (void)replica_->Checkpoint();
}

void FollowerProcess::IssueReadConnRead(ProcessContext& ctx, uint64_t cookie) {
  const auto it = read_conns_.find(cookie);
  if (it == read_conns_.end()) {
    return;
  }
  Message read;
  read.type = netd_proto::kRead;
  read.words = {cookie, 0 /*all*/, 0 /*no peek*/, 0};
  read.reply_port = read_notify_port_;
  ctx.Send(it->second.uc, std::move(read));
}

void FollowerProcess::CloseReadConn(ProcessContext& ctx, uint64_t cookie) {
  const auto it = read_conns_.find(cookie);
  if (it == read_conns_.end()) {
    return;
  }
  Message close;
  close.type = netd_proto::kControl;
  close.words = {cookie, netd_proto::kControlOpClose};
  ctx.Send(it->second.uc, std::move(close));
  ASB_ASSERT(ctx.SetSendLevel(it->second.uc, kDefaultSendLevel) == Status::kOk);
  read_conns_.erase(it);
}

void FollowerProcess::CloseAllReadConns(ProcessContext& ctx) {
  while (!read_conns_.empty()) {
    CloseReadConn(ctx, read_conns_.begin()->first);
  }
}

void FollowerProcess::HandleReadPlane(ProcessContext& ctx, const Message& msg) {
  switch (msg.type) {
    case netd_proto::kNotifyConn: {
      if (msg.words.empty()) {
        return;
      }
      const Handle uc = Handle::FromValue(msg.words[0]);
      if (replica_->promoted()) {
        // Promotion ended the follower role; the read plane ends with it
        // (the adopting primary serves its own reads).
        Message close;
        close.type = netd_proto::kControl;
        close.words = {0, netd_proto::kControlOpClose};
        ctx.Send(uc, std::move(close));
        ASB_ASSERT(ctx.SetSendLevel(uc, kDefaultSendLevel) == Status::kOk);
        return;
      }
      const uint64_t cookie = next_read_cookie_++;
      read_conns_[cookie] = ReadConn{uc, std::string()};
      ++read_sessions_accepted_;
      IssueReadConnRead(ctx, cookie);
      return;
    }
    case netd_proto::kReadR: {
      if (msg.words.empty()) {
        return;
      }
      const uint64_t cookie = msg.words[0];
      const auto it = read_conns_.find(cookie);
      if (it == read_conns_.end()) {
        return;  // stale reply from a closed read connection
      }
      const bool eof = msg.words.size() > 1 && msg.words[1] != 0;
      std::string tx;
      replwire::FrameReader frames(&it->second.rx, msg.data);
      replwire::WireMessage frame;
      for (;;) {
        const replwire::FrameParse p = frames.Next(&frame);
        if (p == replwire::FrameParse::kNeedMore) {
          break;
        }
        // A read connection speaks exactly one frame type, authenticated
        // with the replication session secret; anything else poisons it.
        if (p == replwire::FrameParse::kCorrupt ||
            frame.type != replwire::kReadReq ||
            frame.token != replica_->auth_token()) {
          CloseReadConn(ctx, cookie);
          return;
        }
        const ReadResult res =
            read_gate_->Serve(frame.key, frame.label, frame.cursor, frame.trace_id);
        replwire::WireMessage resp;
        resp.type = replwire::kReadResp;
        resp.cookie = frame.cookie;
        resp.read_status = static_cast<uint64_t>(res.status);
        resp.staleness = res.staleness_cycles;
        resp.cursor = res.applied;
        resp.label = res.secrecy;
        resp.payload = Payload(res.value);
        resp.trace_id = frame.trace_id;
        replwire::AppendFrame(resp, &tx);
      }
      // A legitimate kReadReq is small; a header announcing more than the
      // cap would have the follower buffer whatever the reader sends.
      if (frames.unparsed_bytes() > kMaxReadRequestBytes) {
        CloseReadConn(ctx, cookie);
        return;
      }
      frames.KeepTail();
      if (!tx.empty()) {
        Message write;
        write.type = netd_proto::kWrite;
        write.words = {cookie};
        write.data = std::move(tx);
        ctx.Send(it->second.uc, std::move(write));
      }
      if (eof) {
        CloseReadConn(ctx, cookie);
      } else {
        IssueReadConnRead(ctx, cookie);
      }
      return;
    }
    default:
      return;
  }
}

void FollowerProcess::HandleMessage(ProcessContext& ctx, const Message& msg) {
  if (read_notify_port_.valid() && msg.port == read_notify_port_) {
    HandleReadPlane(ctx, msg);
    return;
  }
  if (msg.port != notify_port_) {
    return;
  }
  switch (msg.type) {
    case netd_proto::kNotifyConn: {
      if (msg.words.empty()) {
        return;
      }
      const Handle uc = Handle::FromValue(msg.words[0]);
      const bool backing_off = GetCycleAccounting().now() < backoff_until_cycles_;
      if (conn_.valid() || replica_->promoted() || backing_off) {
        Message close;
        close.type = netd_proto::kControl;
        close.words = {0, netd_proto::kControlOpClose};
        ctx.Send(uc, std::move(close));
        ASB_ASSERT(ctx.SetSendLevel(uc, kDefaultSendLevel) == Status::kOk);
        return;
      }
      conn_ = uc;
      rx_.clear();
      ++sessions_accepted_;
      IssueRead(ctx);
      return;
    }
    case netd_proto::kReadR: {
      if (!conn_.valid()) {
        return;  // stale reply from an ended session
      }
      const bool eof = msg.words.size() > 1 && msg.words[1] != 0;
      std::string acks;
      replwire::FrameReader frames(&rx_, msg.data);
      replwire::WireMessage frame;
      // Set by a corrupt or refused frame: the session ends, but the acks
      // for the frames applied before it in this delivery still go out
      // ahead of the close, so the primary learns that progress now.
      bool refused = false;
      for (;;) {
        const replwire::FrameParse p = frames.Next(&frame);
        if (p == replwire::FrameParse::kNeedMore) {
          break;  // torn frame: keep the prefix, await the rest
        }
        if (p == replwire::FrameParse::kCorrupt) {
          refused = true;
          break;
        }
        const Status s = replica_->HandleFrame(frame, &acks);
        if (s == Status::kWouldBlock) {
          // Explicit kBusy refusal: back off instead of hot-reconnecting.
          ++busy_signals_;
          const uint64_t wait = replica_->busy_retry_after() != 0
                                    ? replica_->busy_retry_after()
                                    : replwire::kBusyRetryCycles;
          backoff_until_cycles_ = GetCycleAccounting().now() + wait;
          refused = true;
          break;
        }
        if (!IsOk(s)) {
          refused = true;
          break;
        }
      }
      if (!refused) {
        frames.KeepTail();
      }
      if (!acks.empty()) {
        Message write;
        write.type = netd_proto::kWrite;
        write.words = {0};
        write.data = std::move(acks);
        ctx.Send(conn_, std::move(write));
      }
      if (refused || eof) {
        EndSession(ctx, /*close_conn=*/true);
      } else {
        IssueRead(ctx);
      }
      return;
    }
    default:
      return;
  }
}

void FollowerProcess::CheckLease(ProcessContext& ctx) {
  if (replica_->promoted() || replica_->lease_until() == 0) {
    return;
  }
  // The local failover timer tick: while a lease is being tracked, the
  // clock must keep moving toward the deadline even after the primary (and
  // all the traffic that used to advance it) is gone.
  ctx.ChargeCycles(costs::kLeaseCheckCycles);
  const uint64_t now = GetCycleAccounting().now();
  if (!replica_->LeaseExpired(now)) {
    return;
  }
  lease_expired_ = true;
  if (replica_->follower_id() == 0 ||
      replica_->successor_id() != replica_->follower_id()) {
    return;  // a mirror, or not the designated successor: stand by
  }
  // The primary's own last designation names us: take over. Exactly one
  // replica passes this test — the designation was computed once, by the
  // primary, and distributed to everyone before it died.
  EndSession(ctx, /*close_conn=*/true);
  CloseAllReadConns(ctx);
  const Status s = replica_->Promote();
  if (s != Status::kOk) {
    DurableFailStop("follower", "promote", s);
  }
  auto_promoted_ = true;
}

void FollowerProcess::OnIdle(ProcessContext& ctx) {
  const Status s = replica_->SyncPipelined();
  if (s != Status::kOk) {
    DurableFailStop("follower", "sync", s);
  }
  CheckLease(ctx);
}

Status FollowerProcess::Promote(ProcessContext& ctx) {
  EndSession(ctx, /*close_conn=*/true);
  CloseAllReadConns(ctx);
  return replica_->Promote();
}

}  // namespace asbestos
