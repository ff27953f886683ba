#include "src/net/netd.h"

#include <algorithm>
#include <utility>

#include "src/obs/event_log.h"
#include "src/obs/metrics.h"
#include "src/sim/costs.h"

namespace asbestos {

using netd_proto::MessageType;

void NetdProcess::Start(ProcessContext& ctx) {
  control_port_ = ctx.NewPort(Label::Top());
  // The control port is a public service endpoint.
  ASB_ASSERT(ctx.SetPortLabel(control_port_, Label::Top()) == Status::kOk);
  expected_listener_verify_ = ctx.GetEnv("demux_verify");
  // Optional additional authorized listeners, "repl_verify1",
  // "repl_verify2", ...: the boot loader names one per replication endpoint
  // other than demux's (idd, ok-dbproxy, ...).
  for (int k = 1; ctx.HasEnv("repl_verify" + std::to_string(k)); ++k) {
    repl_listener_verifies_.push_back(ctx.GetEnv("repl_verify" + std::to_string(k)));
  }
}

void NetdProcess::PollNetwork(ProcessContext& ctx) {
  for (SimNet::ServerEvent& ev : net_->DrainServerEvents()) {
    switch (ev.kind) {
      case SimNet::ServerEvent::Kind::kConnectRequest: {
        auto lit = listeners_.find(ev.listen_port);
        if (lit == listeners_.end()) {
          continue;  // raced with an unlisten; drop the SYN
        }
        ctx.ChargeCycles(costs::kNetdConnSetupCycles);
        net_->ServerAccept(ev.conn);
        ++connections_accepted_;
        static obs::Counter& accepted =
            obs::Registry::Get().counter("netd.connections_accepted");
        accepted.Add();
        // Wrap the connection in a port. {2} + the kernel's implicit uC → 0
        // yields the paper's {uC 0, 2}: closed until netd grants uC ⋆.
        const Handle uc = ctx.NewPort(Label(Level::kL2));
        Conn conn;
        conn.net_conn = ev.conn;
        conn.port = uc;
        // The system edge: a request's flow trace begins here.
        conn.trace_id = obs::EventLog::Get().MintTraceId();
        if (obs::EventLog::enabled()) {
          obs::EventLog::Get().Span(conn.trace_id, "netd", "netd.accept",
                                    "tcp_port=" + std::to_string(ev.listen_port),
                                    Label::Bottom());
        }
        const uint64_t conn_trace = conn.trace_id;
        conns_.emplace(uc.value(), std::move(conn));
        port_by_conn_[ev.conn] = uc.value();
        // Notify the listener, granting it uC ⋆ (paper Fig. 5, step 2).
        Message m;
        m.type = MessageType::kNotifyConn;
        m.words = {uc.value()};
        m.trace_id = conn_trace;
        SendArgs args;
        args.decont_send = Label({{uc, Level::kStar}}, Level::kL3);
        ctx.Send(lit->second.notify_port, std::move(m), args);
        break;
      }
      case SimNet::ServerEvent::Kind::kData: {
        auto pit = port_by_conn_.find(ev.conn);
        if (pit == port_by_conn_.end()) {
          continue;
        }
        Conn& conn = conns_.at(pit->second);
        ctx.ChargeCycles(SegmentsForBytes(ev.bytes.size()) * costs::kNetdSegmentCycles +
                         ev.bytes.size() * costs::kNetdByteCycles);
        if (conn.rx.empty()) {
          conn.rx = std::move(ev.bytes);  // adopt the event's buffer, no copy
        } else {
          conn.rx.append(ev.bytes);
        }
        SatisfyReads(ctx, conn);
        break;
      }
      case SimNet::ServerEvent::Kind::kClientClosed: {
        auto pit = port_by_conn_.find(ev.conn);
        if (pit == port_by_conn_.end()) {
          continue;
        }
        Conn& conn = conns_.at(pit->second);
        conn.client_closed = true;
        SatisfyReads(ctx, conn);
        break;
      }
    }
  }
}

void NetdProcess::HandleMessage(ProcessContext& ctx, const Message& msg) {
  ctx.ChargeCycles(costs::kNetdRequestCycles);
  if (msg.port == control_port_) {
    if (msg.type == MessageType::kListen && msg.words.size() == 1 && msg.reply_port.valid()) {
      // Only processes the launcher vouched for may attach listeners: demux
      // always, plus the optional replication endpoint the boot loader named.
      const auto proves = [&msg](uint64_t verify_value) {
        return verify_value != 0 &&
               LevelLeq(msg.verify.Get(Handle::FromValue(verify_value)), Level::kL0);
      };
      const auto proves_any_repl = [&] {
        for (const uint64_t v : repl_listener_verifies_) {
          if (proves(v)) {
            return true;
          }
        }
        return false;
      };
      if (expected_listener_verify_ != 0 && !proves(expected_listener_verify_) &&
          !proves_any_repl()) {
        return;  // unauthorized: silently ignored
      }
      const auto tcp_port = static_cast<uint16_t>(msg.words[0]);
      listeners_[tcp_port] = Listener{tcp_port, msg.reply_port};
      net_->ServerListen(tcp_port);
      Message r;
      r.type = MessageType::kListenR;
      r.words = {0};
      ctx.Send(msg.reply_port, std::move(r));
    }
    return;
  }
  auto it = conns_.find(msg.port.value());
  if (it == conns_.end()) {
    return;  // stale message for a torn-down connection
  }
  HandleConnMessage(ctx, it->second, msg);
}

void NetdProcess::EmitReadSpan(const Conn& conn, uint64_t bytes) {
  static obs::Counter& reads = obs::Registry::Get().counter("netd.reads");
  reads.Add();
  if (obs::EventLog::enabled() && conn.trace_id != 0) {
    obs::EventLog::Get().Span(conn.trace_id, "netd", "netd.read",
                              "bytes=" + std::to_string(bytes), ConnSpanLabel(conn));
  }
}

Label NetdProcess::ConnSpanLabel(const Conn& conn) const {
  if (conn.taint.valid()) {
    return Label({{conn.taint, Level::kL3}}, Level::kStar);
  }
  return Label::Bottom();
}

SendArgs NetdProcess::TaintedReply(const Conn& conn) const {
  SendArgs args;
  if (conn.taint.valid()) {
    // Every reply on a tainted connection carries uT 3 (Fig. 5, step 5).
    args.contaminate = Label({{conn.taint, Level::kL3}}, Level::kStar);
  }
  return args;
}

void NetdProcess::HandleConnMessage(ProcessContext& ctx, Conn& conn, const Message& msg) {
  const uint64_t cookie = msg.words.empty() ? 0 : msg.words[0];
  switch (msg.type) {
    case MessageType::kRead: {
      if (msg.words.size() < 4 || !msg.reply_port.valid()) {
        return;
      }
      conn.reply_cap = msg.reply_port;
      PendingRead r;
      r.reply_port = msg.reply_port;
      r.cookie = cookie;
      r.max_bytes = msg.words[1] == 0 ? ~0ULL : msg.words[1];
      r.peek = msg.words[2] != 0;
      r.peek_offset = msg.words[3];
      if (!TryReadReply(ctx, conn, r)) {
        conn.pending_reads.push_back(r);
      }
      break;
    }
    case MessageType::kWrite: {
      ctx.ChargeCycles(SegmentsForBytes(msg.data.size()) * costs::kNetdSegmentCycles +
                       msg.data.size() * costs::kNetdByteCycles);
      net_->ServerSend(conn.net_conn, msg.data);
      static obs::Counter& writes = obs::Registry::Get().counter("netd.writes");
      static obs::Counter& write_bytes = obs::Registry::Get().counter("netd.write_bytes");
      writes.Add();
      write_bytes.Add(msg.data.size());
      if (obs::EventLog::enabled() && conn.trace_id != 0) {
        obs::EventLog::Get().Span(conn.trace_id, "netd", "netd.reply",
                                  "bytes=" + std::to_string(msg.data.size()),
                                  ConnSpanLabel(conn));
      }
      if (msg.reply_port.valid()) {
        Message r;
        r.type = MessageType::kWriteR;
        r.words = {cookie, msg.data.size()};
        ctx.Send(msg.reply_port, std::move(r), TaintedReply(conn));
      }
      break;
    }
    case MessageType::kSelect: {
      if (msg.reply_port.valid()) {
        Message r;
        r.type = MessageType::kSelectR;
        r.words = {cookie, 1ULL << 20};  // ample buffer space in the simulation
        ctx.Send(msg.reply_port, std::move(r), TaintedReply(conn));
      }
      break;
    }
    case MessageType::kAddTaint: {
      if (msg.words.size() < 2) {
        return;
      }
      const Handle taint = Handle::FromValue(msg.words[1]);
      // The sender's D_S granted us taint ⋆ before this handler ran; without
      // it the receive-label raise below fails and we refuse the taint.
      if (ctx.SetReceiveLevel(taint, Level::kL3) != Status::kOk) {
        return;
      }
      conn.taint = taint;
      // uC's label becomes {uC 0, uT 3, 2}: tainted data may flow out, but
      // only through this connection (Fig. 5, step 5).
      Label port_label({{conn.port, Level::kL0}, {taint, Level::kL3}}, Level::kL2);
      ASB_ASSERT(ctx.SetPortLabel(conn.port, port_label) == Status::kOk);
      if (msg.reply_port.valid()) {
        Message r;
        r.type = MessageType::kAddTaintR;
        r.words = {cookie, 0};
        ctx.Send(msg.reply_port, std::move(r), TaintedReply(conn));
      }
      break;
    }
    case MessageType::kControl: {
      if (msg.words.size() < 2) {
        return;
      }
      if (msg.words[1] == netd_proto::kControlOpClose) {
        if (msg.reply_port.valid()) {
          Message r;
          r.type = MessageType::kControlR;
          r.words = {cookie, 0};
          ctx.Send(msg.reply_port, std::move(r), TaintedReply(conn));
        }
        CloseConn(ctx, conn);  // `conn` is dangling after this call
      }
      break;
    }
    default:
      break;
  }
}

bool NetdProcess::TryReadReply(ProcessContext& ctx, Conn& conn, const PendingRead& r) {
  if (r.peek) {
    // A peek waits until there are bytes past the requester's offset (or the
    // client is done sending).
    if (conn.rx.size() <= r.peek_offset && !conn.client_closed) {
      return false;
    }
    Message m;
    m.type = MessageType::kReadR;
    const std::string_view view = std::string_view(conn.rx);
    const std::string_view chunk =
        r.peek_offset < view.size() ? view.substr(r.peek_offset) : std::string_view();
    const bool eof = conn.client_closed && chunk.empty();
    m.words = {r.cookie, eof ? 1ULL : 0ULL};
    m.data = std::string(chunk.substr(0, std::min<uint64_t>(chunk.size(), r.max_bytes)));
    // Explicit stamp: reads satisfied from PollNetwork run outside any
    // delivery, so the kernel has no trace to inherit from.
    m.trace_id = conn.trace_id;
    EmitReadSpan(conn, m.data.size());
    ctx.Send(r.reply_port, std::move(m), TaintedReply(conn));
    return true;
  }
  if (conn.rx.empty() && !conn.client_closed) {
    return false;
  }
  Message m;
  m.type = MessageType::kReadR;
  const uint64_t n = std::min<uint64_t>(conn.rx.size(), r.max_bytes);
  const bool eof = conn.client_closed && n == 0;
  m.words = {r.cookie, eof ? 1ULL : 0ULL};
  if (n == conn.rx.size()) {
    m.data = std::move(conn.rx);  // the whole buffer becomes the reply payload
    conn.rx.clear();
  } else {
    m.data = conn.rx.substr(0, n);
    conn.rx.erase(0, n);
  }
  m.trace_id = conn.trace_id;
  EmitReadSpan(conn, m.data.size());
  ctx.Send(r.reply_port, std::move(m), TaintedReply(conn));
  return true;
}

void NetdProcess::SatisfyReads(ProcessContext& ctx, Conn& conn) {
  while (!conn.pending_reads.empty()) {
    if (!TryReadReply(ctx, conn, conn.pending_reads.front())) {
      break;
    }
    conn.pending_reads.pop_front();
  }
}

bool NetdProcess::ReplyCapStillNeeded(const Conn& conn) const {
  const uint64_t cap = conn.reply_cap.value();
  for (const auto& [tcp_port, listener] : listeners_) {
    if (listener.notify_port.value() == cap) {
      return true;
    }
  }
  for (const auto& [value, other] : conns_) {
    if (value != conn.port.value() && other.reply_cap.value() == cap) {
      return true;
    }
  }
  return false;
}

void NetdProcess::CloseConn(ProcessContext& ctx, Conn& conn) {
  ctx.ChargeCycles(costs::kNetdConnTeardownCycles);
  net_->ServerClose(conn.net_conn);
  ctx.ClosePort(conn.port);
  // Release the per-connection capability (paper §9.3: labels "release that
  // capability when the connection is ... closed"); without this, netd's
  // send label would grow with every connection ever made.
  ASB_ASSERT(ctx.SetSendLevel(conn.port, kDefaultSendLevel) == Status::kOk);
  // Same §9.3 discipline for the last reader's reply port (a worker's uW):
  // every park/resume generation mints a fresh uW, so the ⋆ granted with a
  // kRead must not outlive the connection, or netd's send label (and every
  // send's label work) would grow with every session ever served. Two
  // exceptions keep a capability netd still needs: another live connection
  // replies through the same port, or the port is a listener's notify port
  // (ok-demux peeks with it, so a connection it rejects ends with that port
  // as the last reader, and netd must keep announcing new connections).
  if (conn.reply_cap.valid() && !ReplyCapStillNeeded(conn)) {
    (void)ctx.SetSendLevel(conn.reply_cap, kDefaultSendLevel);
  }
  port_by_conn_.erase(conn.net_conn);
  conns_.erase(conn.port.value());  // `conn` is dangling after this line
}

}  // namespace asbestos
