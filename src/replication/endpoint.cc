#include "src/replication/endpoint.h"

#include "src/base/panic.h"
#include "src/net/netd.h"
#include "src/sim/cycles.h"

namespace asbestos {

namespace {

// Largest WAL span per kBatch frame (one oversized record still ships
// whole), and largest kWrite per pump PER FOLLOWER (the rest ships next
// pump).
constexpr uint64_t kMaxBatchBytes = 64 * 1024;
constexpr uint64_t kMaxWriteBytes = 256 * 1024;

}  // namespace

ReplicationEndpoint::ReplicationEndpoint(const DurableStore* store,
                                         ReplicationOptions options)
    : store_(store), options_(options) {
  ASB_ASSERT(options_.enabled());
  ASB_ASSERT(options_.max_followers > 0);
}

void ReplicationEndpoint::Start(ProcessContext& ctx, Handle netd_ctl,
                                uint64_t self_verify) {
  // A fresh handle value is unique and unpredictable for this boot — the
  // right shape for a source id naming this boot's WAL history.
  hub_ = std::make_unique<ReplicationHub>(store_, ctx.NewHandle().value(), options_);
  notify_port_ = ctx.NewPort(Label::Top());  // closed; netd gets ⋆ below

  Message listen;
  listen.type = netd_proto::kListen;
  listen.words = {options_.listen_tcp_port};
  listen.reply_port = notify_port_;
  SendArgs args;
  if (self_verify != 0) {
    args.verify = Label({{Handle::FromValue(self_verify), Level::kL0}}, Level::kL3);
  }
  args.decont_send = Label({{notify_port_, Level::kStar}}, Level::kL3);
  ctx.Send(netd_ctl, std::move(listen), args);
}

void ReplicationEndpoint::IssueRead(ProcessContext& ctx, const Conn& conn) {
  Message read;
  // The cookie names the connection: every session's read replies land on
  // the one notify port, and the cookie is how they demux back to a session.
  read.type = netd_proto::kRead;
  read.words = {conn.uc.value() /*cookie*/, 0 /*all*/, 0 /*no peek*/, 0};
  read.reply_port = notify_port_;
  ctx.Send(conn.uc, std::move(read));
}

void ReplicationEndpoint::RefuseBusy(ProcessContext& ctx, Handle uc) {
  // Explicit refusal: one kBusy frame with a back-off hint, THEN the close.
  // A silently dropped follower cannot tell "at capacity" from "crashed"
  // and would hot-reconnect into the same refusal.
  replwire::WireMessage busy;
  busy.type = replwire::kBusy;
  busy.retry_after = replwire::kBusyRetryCycles;
  Message write;
  write.type = netd_proto::kWrite;
  write.words = {0};
  std::string busy_frame;
  replwire::AppendFrame(busy, &busy_frame);
  write.data = std::move(busy_frame);
  ctx.Send(uc, std::move(write));
  Message close;
  close.type = netd_proto::kControl;
  close.words = {0, netd_proto::kControlOpClose};
  ctx.Send(uc, std::move(close));
  ASB_ASSERT(ctx.SetSendLevel(uc, kDefaultSendLevel) == Status::kOk);
  busy_refusals_ += 1;
}

void ReplicationEndpoint::DropSession(ProcessContext& ctx, uint64_t uc_value,
                                      bool close_conn) {
  auto it = conns_.find(uc_value);
  if (it == conns_.end()) {
    return;
  }
  if (close_conn) {
    Message close;
    close.type = netd_proto::kControl;
    close.words = {0, netd_proto::kControlOpClose};
    ctx.Send(it->second.uc, std::move(close));
  }
  // Release the per-connection capability, as demux does on handoff.
  ASB_ASSERT(ctx.SetSendLevel(it->second.uc, kDefaultSendLevel) == Status::kOk);
  hub_->CloseSession(it->second.session);
  conns_.erase(it);
}

bool ReplicationEndpoint::HandleMessage(ProcessContext& ctx, const Message& msg) {
  if (!notify_port_.valid() || msg.port != notify_port_) {
    return false;
  }
  switch (msg.type) {
    case netd_proto::kListenR:
      return true;
    case netd_proto::kNotifyConn: {
      if (msg.words.empty()) {
        return true;
      }
      const Handle uc = Handle::FromValue(msg.words[0]);
      if (conns_.size() >= options_.max_followers) {
        RefuseBusy(ctx, uc);
        return true;
      }
      Conn conn;
      conn.uc = uc;
      conn.session = hub_->OpenSession();
      // Session opening move: hello first, then wait for resume acks.
      Message hello;
      hello.type = netd_proto::kWrite;
      hello.words = {0};
      hello.data = conn.session->SessionHello();
      ctx.Send(uc, std::move(hello));
      IssueRead(ctx, conn);
      conns_.emplace(uc.value(), std::move(conn));
      return true;
    }
    case netd_proto::kReadR: {
      const uint64_t cookie = msg.words.empty() ? 0 : msg.words[0];
      auto it = conns_.find(cookie);
      if (it == conns_.end()) {
        return true;  // stale reply from a dropped session
      }
      Conn& conn = it->second;
      const bool eof = msg.words.size() > 1 && msg.words[1] != 0;
      conn.rx.append(msg.data);
      replwire::WireMessage frame;
      for (;;) {
        const replwire::FrameParse p = replwire::ConsumeFrame(&conn.rx, &frame);
        if (p == replwire::FrameParse::kNeedMore) {
          break;
        }
        if (p == replwire::FrameParse::kCorrupt) {
          DropSession(ctx, cookie, /*close_conn=*/true);
          return true;
        }
        if (frame.type == replwire::kAck) {
          conn.session->HandleAck(frame);
        }
      }
      if (eof) {
        DropSession(ctx, cookie, /*close_conn=*/true);
      } else {
        IssueRead(ctx, conn);
      }
      return true;
    }
    case netd_proto::kWriteR:
    case netd_proto::kControlR:
      return true;
    default:
      return false;
  }
}

void ReplicationEndpoint::PumpShip(ProcessContext& ctx) {
  if (hub_ == nullptr) {
    return;
  }
  const uint64_t now = GetCycleAccounting().now();
  const uint64_t hb_interval = hub_->heartbeat_interval_cycles();
  for (auto& [uc_value, conn] : conns_) {
    std::string out;
    const size_t frames = conn.session->PollFrames(kMaxBatchBytes, kMaxWriteBytes, &out);
    if (frames == 0 && now - conn.session->last_send_cycles() >= hb_interval) {
      // Idle session, lease running down: refresh it. Gated on the clock,
      // so a world with no traffic at all still quiesces.
      conn.session->AppendHeartbeat(&out);
    }
    if (out.empty()) {
      continue;  // nothing new: the idle loop quiesces
    }
    Message write;
    write.type = netd_proto::kWrite;
    write.words = {0};
    write.data = std::move(out);
    ctx.Send(conn.uc, std::move(write));
  }
}

}  // namespace asbestos
