#include "src/okws/demux.h"

#include "src/base/strings.h"
#include "src/net/netd.h"
#include "src/obs/event_log.h"
#include "src/okws/session_codec.h"
#include "src/sim/costs.h"
#include "src/sim/cycles.h"

namespace asbestos {

using okws_proto::MessageType;

namespace {

// Session-table key and durable value codec live in session_codec.h so
// read-serving followers share them byte-for-byte (labels mirror idd's
// identity records: the session is the user's private state ({uT 3, ⋆})
// rewritable only by a uG-speaker ({uG 0, 3})).
std::string SessionKey(const std::string& user, const std::string& service) {
  return okws_session::Key(user, service);
}

// Pulls "user:pass" out of the Authorization header (or user=/pass= query
// parameters as a fallback). Returns false if absent.
bool ExtractCredentials(const HttpRequest& req, std::string* user, std::string* pass) {
  const std::string auth = req.Header("authorization");
  if (!auth.empty()) {
    const size_t colon = auth.find(':');
    if (colon == std::string::npos) {
      return false;
    }
    *user = auth.substr(0, colon);
    *pass = auth.substr(colon + 1);
    return !user->empty();
  }
  *user = req.Query("user");
  *pass = req.Query("pass");
  return !user->empty();
}

// "/store?op=get" → "store".
std::string ServiceName(const std::string& path) {
  size_t begin = 0;
  while (begin < path.size() && path[begin] == '/') {
    ++begin;
  }
  const size_t end = path.find('/', begin);
  return end == std::string::npos ? path.substr(begin) : path.substr(begin, end - begin);
}

}  // namespace

DemuxProcess::DemuxProcess(DemuxOptions options) : options_(std::move(options)) {
  if (options_.store_dir.empty()) {
    return;
  }
  StoreOptions sopts;
  sopts.dir = options_.store_dir;
  sopts.shards = options_.shards;
  auto store = DurableStore::Open(std::move(sopts));
  ASB_ASSERT(store.ok() && "demux session store failed to open");
  store_ = store.take();
  RecoverSessions();
  if (options_.replication.enabled()) {
    repl_ = std::make_unique<ReplicationEndpoint>(store_.get(), options_.replication);
  }
}

void DemuxProcess::RecoverSessions() {
  const uint64_t now = GetCycleAccounting().now();
  const uint64_t ttl = options_.session_ttl_cycles;
  std::vector<std::string> expired;
  store_->ForEach([this, now, ttl, &expired](const std::string& key, const StoreRecord& record) {
    Session s;
    if (!okws_session::DecodeValue(record.value, &s.taint, &s.grant, &s.expires_at_cycles,
                                   &s.password)) {
      return;  // skip records this build cannot parse; never refuse to boot
    }
    // Expiry timestamps are absolute virtual time, and the virtual clock is
    // process-local: a fresh OS process restarts it at 0, which would make
    // every stale timestamp from a long-lived previous run look far in the
    // future and resurrect long-expired sessions. Bound the other side too:
    // a live session's expiry can never sit more than one TTL ahead of now
    // (registration stamped now+ttl with registration ≤ now), so anything
    // past that bound is a previous clock era and is equally expired.
    if (okws_session::ExpiredAt(s.expires_at_cycles, now) ||
        (s.expires_at_cycles != 0 && ttl != 0 && s.expires_at_cycles > now + ttl)) {
      expired.push_back(key);  // died while the machine was down
      return;
    }
    // uW is per-boot; the first connection of this session forks a fresh
    // event process at the service port and re-registers it.
    s.uw = Handle::Invalid();
    sessions_.emplace(key, std::move(s));
  });
  for (const std::string& key : expired) {
    (void)store_->Erase(key);
  }
}

void DemuxProcess::OnIdle(ProcessContext& ctx) {
  if (store_ != nullptr) {
    ASB_ASSERT(store_->SyncPipelined() == Status::kOk);
  }
  if (repl_ != nullptr) {
    repl_->PumpShip(ctx);  // the flushed batch is also the shipped batch
  }
}

Label DemuxProcess::recovered_stars() const {
  Label stars = Label::Top();
  for (const auto& [key, s] : sessions_) {
    stars.Set(s.taint, Level::kStar);
    stars.Set(s.grant, Level::kStar);
  }
  return stars;
}

DemuxProcess::Session* DemuxProcess::FindLiveSession(const std::string& key) {
  auto it = sessions_.find(key);
  if (it == sessions_.end()) {
    return nullptr;
  }
  // The SAME comparison a read-serving follower applies through
  // okws_session::LivenessFilter() — see session_codec.h for why the two
  // sides must share it verbatim.
  if (okws_session::ExpiredAt(it->second.expires_at_cycles, GetCycleAccounting().now())) {
    EraseDurableSession(key);
    sessions_.erase(it);
    return nullptr;
  }
  return &it->second;
}

void DemuxProcess::PersistSession(const std::string& key, const Session& s) {
  if (store_ == nullptr) {
    return;
  }
  const Label secrecy({{s.taint, Level::kL3}}, Level::kStar);
  const Label integrity({{s.grant, Level::kL0}}, Level::kL3);
  ASB_ASSERT(store_->Put(key,
                         okws_session::EncodeValue(s.taint, s.grant, s.expires_at_cycles,
                                                   s.password),
                         secrecy, integrity) == Status::kOk);
}

replwire::ReadCursorToken DemuxProcess::session_cursor(const std::string& user,
                                                       const std::string& service) const {
  const auto it = sessions_.find(SessionKey(user, service));
  return it == sessions_.end() ? replwire::ReadCursorToken{} : it->second.cursor;
}

FollowerSession* DemuxProcess::RouteSessionRead(const std::string& user,
                                                const std::string& service) const {
  if (repl_ == nullptr || repl_->hub() == nullptr) {
    return nullptr;
  }
  return repl_->hub()->RouteRead(SessionKey(user, service),
                                 session_cursor(user, service));
}

void DemuxProcess::EraseDurableSession(const std::string& key) {
  if (store_ != nullptr) {
    (void)store_->Erase(key);  // kNotFound is fine: never persisted
  }
}

void DemuxProcess::Start(ProcessContext& ctx) {
  register_port_ = ctx.NewPort(Label::Top());
  ASB_ASSERT(ctx.SetPortLabel(register_port_, Label::Top()) == Status::kOk);
  notify_port_ = ctx.NewPort(Label::Top());   // closed; netd gets ⋆ below
  session_port_ = ctx.NewPort(Label::Top());  // closed; idd/workers get ⋆ per message
  wire_port_ = ctx.NewPort(Label::Top());     // closed; launcher gets ⋆ at registration

  launcher_port_ = Handle::FromValue(ctx.GetEnv("launcher_port"));
  netd_ctl_ = Handle::FromValue(ctx.GetEnv("netd_ctl"));
  idd_login_ = Handle::FromValue(ctx.GetEnv("idd_login"));
  self_verify_ = ctx.GetEnv("self_verify");
  ASB_ASSERT(launcher_port_.valid() && netd_ctl_.valid() && idd_login_.valid());

  // Recovered sessions: on the live path, idd's login reply raised our
  // receive label for each uT (D_R); a recovered session skips idd, so we
  // re-accept each taint ourselves. Requires uT ⋆, which the launcher
  // re-granted at spawn from the recovered privilege set — a failure here
  // means demux persistence was configured without idd's durable identity
  // cache backing the same boot.
  for (const auto& [key, s] : sessions_) {
    ASB_ASSERT(ctx.SetReceiveLevel(s.taint, Level::kL3) == Status::kOk &&
               "recovered demux sessions need the launcher's recovered-star grant");
  }

  // Attach to the web port. The LISTEN both proves our identity to netd
  // (V with our verification handle, still intact pre-receive) and grants
  // netd the capability to our notification port.
  {
    Message listen;
    listen.type = netd_proto::kListen;
    listen.words = {ctx.GetEnv("tcp_port")};
    listen.reply_port = notify_port_;
    SendArgs args;
    args.verify = Label({{Handle::FromValue(self_verify_), Level::kL0}}, Level::kL3);
    args.decont_send = Label({{notify_port_, Level::kStar}}, Level::kL3);
    ctx.Send(netd_ctl_, std::move(listen), args);
  }
  {
    Message reg;
    reg.type = boot_proto::kRegister;
    reg.data = "demux";
    reg.words = {register_port_.value(), session_port_.value(), wire_port_.value()};
    SendArgs args;
    args.verify = Label({{Handle::FromValue(self_verify_), Level::kL0}}, Level::kL3);
    args.decont_send = Label({{wire_port_, Level::kStar}}, Level::kL3);
    ctx.Send(launcher_port_, std::move(reg), args);
  }

  if (repl_ != nullptr) {
    // Session-table replication: a second listener on the replication port,
    // proven with the same verification handle as the web listener.
    repl_->Start(ctx, netd_ctl_, self_verify_);
  }
}

void DemuxProcess::SendPeekRead(ProcessContext& ctx, uint64_t cookie, ConnState& conn) {
  Message read;
  read.type = netd_proto::kRead;
  read.words = {cookie, 0 /*all*/, 1 /*peek*/, conn.bytes_seen};
  read.reply_port = notify_port_;
  ctx.Send(conn.uc, std::move(read));
}

void DemuxProcess::RejectConnection(ProcessContext& ctx, ConnState& conn, int status,
                                    const std::string& reason) {
  ++rejected_;
  // demux holds uC ⋆, so it can answer the client directly.
  Message write;
  write.type = netd_proto::kWrite;
  write.words = {0};
  write.data = BuildHttpResponse(status, reason, {}, reason + "\n");
  ctx.Send(conn.uc, std::move(write));
  Message close;
  close.type = netd_proto::kControl;
  close.words = {0, netd_proto::kControlOpClose};
  ctx.Send(conn.uc, std::move(close));
  ASB_ASSERT(ctx.SetSendLevel(conn.uc, kDefaultSendLevel) == Status::kOk);
}

void DemuxProcess::OnRequestParsed(ProcessContext& ctx, uint64_t cookie, ConnState& conn) {
  const HttpRequest& req = conn.parser.request();
  conn.service = ServiceName(req.path);
  auto wit = workers_.find(conn.service);
  if (wit == workers_.end() || !wit->second.service_port.valid()) {
    RejectConnection(ctx, conn, 404, "no such service");
    conns_.erase(cookie);
    return;
  }
  if (!ExtractCredentials(req, &conn.username, &conn.password)) {
    RejectConnection(ctx, conn, 401, "credentials required");
    conns_.erase(cookie);
    return;
  }

  if (Session* session = FindLiveSession(SessionKey(conn.username, conn.service));
      session != nullptr && session->password == conn.password) {
    conn.taint = session->taint;
    conn.grant = session->grant;
    ForwardToWorker(ctx, cookie, conn);
    return;
  }

  // First contact (or changed credentials): authenticate via idd (step 3).
  conn.awaiting_login = true;
  Message login;
  login.type = MessageType::kLogin;
  login.data = conn.username + "\n" + conn.password;
  login.words = {cookie};
  login.reply_port = session_port_;
  SendArgs args;
  args.decont_send = Label({{session_port_, Level::kStar}}, Level::kL3);
  ctx.Send(idd_login_, std::move(login), args);
}

void DemuxProcess::OnLoginResult(ProcessContext& ctx, uint64_t cookie, const Message& msg) {
  auto it = conns_.find(cookie);
  if (it == conns_.end()) {
    return;
  }
  ConnState& conn = it->second;
  conn.awaiting_login = false;
  const uint64_t status = msg.words.size() > 1 ? msg.words[1] : 1;
  if (status != 0 || msg.words.size() < 5) {
    RejectConnection(ctx, conn, 403, "login failed");
    conns_.erase(it);
    return;
  }
  // idd granted us uT ⋆ and uG ⋆ (kernel applied the D_S before this
  // handler ran) and raised our receive label for uT.
  conn.taint = Handle::FromValue(msg.words[2]);
  conn.grant = Handle::FromValue(msg.words[3]);
  ForwardToWorker(ctx, cookie, conn);
}

void DemuxProcess::ForwardToWorker(ProcessContext& ctx, uint64_t cookie, ConnState& conn) {
  ctx.ChargeCycles(costs::kDemuxConnCycles);
  const WorkerInfo& worker = workers_.at(conn.service);

  if (obs::EventLog::enabled() && ctx.current_trace_id() != 0) {
    // The dispatch decision: this connection's trace now belongs to the
    // service. Spans from user-space carry the emitter's own send label.
    obs::EventLog::Get().Span(ctx.current_trace_id(), "demux", "demux.dispatch",
                              "service=" + conn.service + " user=" + conn.username,
                              ctx.send_label());
  }

  // Step 5: grant netd uT ⋆ for this connection; netd raises its receive
  // label and the connection port's label so u-tainted data can flow out.
  {
    Message add_taint;
    add_taint.type = netd_proto::kAddTaint;
    add_taint.words = {cookie, conn.taint.value()};
    SendArgs args;
    args.decont_send = Label({{conn.taint, Level::kStar}}, Level::kL3);
    ctx.Send(conn.uc, std::move(add_taint), args);
  }

  // Step 6: forward uC. An existing session goes straight to the worker's
  // event process port uW; a fresh one — or a session recovered from the
  // durable store, whose uW died with the previous boot — goes to the
  // service port, forking a new event process.
  Session* session = FindLiveSession(SessionKey(conn.username, conn.service));
  const bool resumed =
      session != nullptr && session->password == conn.password && session->uw.valid();
  const Handle target = resumed ? session->uw : worker.service_port;

  Message fwd;
  fwd.type = MessageType::kConnForUser;
  fwd.data = conn.username;
  fwd.words = {cookie, conn.uc.value(), conn.taint.value(), conn.grant.value()};
  SendArgs args;
  Label grants({{conn.uc, Level::kStar},
                {conn.grant, Level::kStar},
                {session_port_, Level::kStar}},
               Level::kL3);
  if (worker.declassifier) {
    // §7.6: declassifiers get uT ⋆ instead of the uT 3 contamination.
    grants.Set(conn.taint, Level::kStar);
  } else {
    args.contaminate = Label({{conn.taint, Level::kL3}}, Level::kStar);
  }
  args.decont_send = grants;
  args.decont_receive = Label({{conn.taint, Level::kL3}}, Level::kStar);
  ctx.Send(target, std::move(fwd), args);

  // The connection now belongs to the worker: release our uC capability
  // (paper §9.3 — capabilities are released when the connection is passed
  // to an event process). The sends above snapshotted their ES already.
  ASB_ASSERT(ctx.SetSendLevel(conn.uc, kDefaultSendLevel) == Status::kOk);

  if (resumed) {
    conns_.erase(cookie);  // nothing more to track; the worker has it
  }
  // For fresh sessions the ConnState stays until kSessionReg claims it.
}

void DemuxProcess::CheckAllWorkersRegistered(ProcessContext& ctx) {
  if (!expectations_complete_ || ready_sent_) {
    return;
  }
  for (const auto& [service, info] : workers_) {
    if (!info.service_port.valid()) {
      return;
    }
  }
  ready_sent_ = true;
  Message ready;
  ready.type = boot_proto::kReady;
  ready.data = "demux";
  ctx.Send(launcher_port_, std::move(ready));
}

void DemuxProcess::HandleMessage(ProcessContext& ctx, const Message& msg) {
  if (repl_ != nullptr && repl_->HandleMessage(ctx, msg)) {
    return;  // replication-plane traffic (listener replies, follower acks)
  }
  if (msg.port == wire_port_) {
    if (msg.type == MessageType::kExpectWorker && msg.words.size() >= 2) {
      WorkerInfo info;
      info.service = msg.data;
      info.verify_value = msg.words[0];
      info.declassifier = msg.words[1] != 0;
      workers_[info.service] = info;
    } else if (msg.type == boot_proto::kWire && msg.data == "expectations-complete") {
      expectations_complete_ = true;
      CheckAllWorkersRegistered(ctx);
    }
    return;
  }

  if (msg.port == register_port_) {
    if (msg.type != MessageType::kWorkerRegister || msg.words.empty()) {
      return;
    }
    auto it = workers_.find(msg.data);
    if (it == workers_.end()) {
      return;  // not a service the launcher announced
    }
    // §7.1: the worker proves it is the process the launcher started by
    // presenting its verification handle at level 0.
    if (!LevelLeq(msg.verify.Get(Handle::FromValue(it->second.verify_value)), Level::kL0)) {
      if (obs::EventLog::enabled()) {
        const Handle wv = Handle::FromValue(it->second.verify_value);
        obs::EventLog::Get().Refusal(
            "demux.register", "demux",
            "worker for '" + it->first + "' lacks its verification handle at 0 (§7.1)",
            wv.value(), msg.verify.Get(wv), Level::kL0, msg.verify,
            Label({{wv, Level::kL0}}, Level::kL3), msg.trace_id);
      }
      return;
    }
    it->second.service_port = Handle::FromValue(msg.words[0]);
    ctx.ModelHeapBytes(64);
    CheckAllWorkersRegistered(ctx);
    return;
  }

  if (msg.port == notify_port_) {
    switch (msg.type) {
      case netd_proto::kNotifyConn: {
        if (msg.words.empty()) {
          return;
        }
        const uint64_t cookie = next_cookie_++;
        ConnState conn;
        conn.uc = Handle::FromValue(msg.words[0]);
        auto [it, inserted] = conns_.emplace(cookie, std::move(conn));
        ASB_ASSERT(inserted);
        SendPeekRead(ctx, cookie, it->second);
        return;
      }
      case netd_proto::kReadR: {
        if (msg.words.size() < 2) {
          return;
        }
        const uint64_t cookie = msg.words[0];
        const bool eof = msg.words[1] != 0;
        auto it = conns_.find(cookie);
        if (it == conns_.end()) {
          return;
        }
        ConnState& conn = it->second;
        ctx.ChargeCycles(msg.data.size() * costs::kDemuxByteCycles);
        conn.bytes_seen += msg.data.size();
        conn.parser.Feed(msg.data);
        if (conn.parser.state() == HttpRequestParser::State::kComplete) {
          OnRequestParsed(ctx, cookie, conn);
        } else if (conn.parser.state() == HttpRequestParser::State::kError || eof) {
          RejectConnection(ctx, conn, 400, "bad request");
          conns_.erase(it);
        } else {
          SendPeekRead(ctx, cookie, conn);  // wait for more bytes
        }
        return;
      }
      case netd_proto::kListenR:
      case netd_proto::kWriteR:
      case netd_proto::kControlR:
      case netd_proto::kAddTaintR:
        return;  // acknowledgements we do not act on
      default:
        return;
    }
  }

  if (msg.port == session_port_) {
    switch (msg.type) {
      case MessageType::kLoginR: {
        if (!msg.words.empty()) {
          OnLoginResult(ctx, msg.words[0], msg);
        }
        return;
      }
      case MessageType::kSessionInvalidate: {
        // idd tells us the user's password changed: cached sessions keyed on
        // the old credential die — durably, or a reboot would resurrect a
        // session its password no longer opens. (Senders need the
        // session-port capability, so only idd and this user's own workers
        // can do this.)
        const std::string prefix = msg.data.str() + "\x1f";
        for (auto it = sessions_.lower_bound(prefix);
             it != sessions_.end() && it->first.compare(0, prefix.size(), prefix) == 0;) {
          EraseDurableSession(it->first);
          it = sessions_.erase(it);
        }
        return;
      }
      case MessageType::kSessionPark: {
        // A worker's idle event process asks to be parked: invalidate the
        // session's uW so the next connection forks a fresh event process at
        // the service port — exactly what a reboot does to uW — and ack so
        // the worker may free the EP. Senders need the session-port
        // capability, like kSessionReg.
        if (msg.words.empty()) {
          return;
        }
        const std::string& payload = msg.data.str();
        const size_t nl = payload.find('\n');
        if (nl == std::string::npos) {
          return;
        }
        auto sit = sessions_.find(
            SessionKey(payload.substr(0, nl), payload.substr(nl + 1)));
        if (sit == sessions_.end()) {
          return;  // invalidated meanwhile: no ack, the EP simply stays
        }
        const Handle old_uw = Handle::FromValue(msg.words[0]);
        if (sit->second.uw.value() == old_uw.value()) {
          sit->second.uw = Handle::Invalid();
        }
        // Always ack a live session's park, even when uW no longer matches
        // (a re-park after an aborted one): the worker frees the EP only on
        // the ack, and a swallowed ack would leak the EP forever. The
        // durable record is untouched — uW was never part of it.
        Message ack;
        ack.type = MessageType::kSessionParkR;
        ack.trace_id = msg.trace_id;
        ctx.Send(old_uw, std::move(ack));
        // Release the retired uW's capability (§9.3, like uC above): the
        // resume mints a fresh uW whose kSessionReg re-grants ⋆, so a kept
        // entry would only grow demux's send label with every park ever
        // acked. The ack's effective label was snapshotted at the Send.
        (void)ctx.SetSendLevel(old_uw, kDefaultSendLevel);
        return;
      }
      case MessageType::kSessionReg: {
        if (msg.words.size() < 2) {
          return;
        }
        const uint64_t cookie = msg.words[0];
        auto it = conns_.find(cookie);
        if (it == conns_.end()) {
          return;  // unknown/forged cookie: ignored
        }
        ConnState& conn = it->second;
        Session s;
        s.uw = Handle::FromValue(msg.words[1]);
        s.taint = conn.taint;
        s.grant = conn.grant;
        s.password = conn.password;
        if (options_.session_ttl_cycles != 0) {
          s.expires_at_cycles = GetCycleAccounting().now() + options_.session_ttl_cycles;
        }
        const std::string key = SessionKey(conn.username, conn.service);
        PersistSession(key, s);
        // Read-your-writes token: the shard's WAL position right after this
        // registration's append — the cursor a follower must have applied
        // before it may answer reads for this session. In-memory only: the
        // durable value format (and thus fig-level byte identity) is
        // untouched, and a reboot re-stamps at the next write.
        if (repl_ != nullptr && repl_->hub() != nullptr && store_ != nullptr) {
          const uint32_t shard = store_->ShardIndexOf(key);
          s.cursor.source_id = repl_->hub()->source_id();
          s.cursor.shard = shard;
          s.cursor.generation = store_->shard_wal_generation(shard);
          s.cursor.offset = store_->shard_wal_offset(shard);
        }
        // §7.3: the session table holds one user-worker pair per entry;
        // paper Figure 9 attributes part of the label growth to these. A
        // re-registration (park/resume cycle, post-reboot recovery) reuses
        // the existing entry and must not charge it twice.
        if (sessions_.find(key) == sessions_.end()) {
          ctx.ModelHeapBytes(128);
        }
        sessions_[key] = std::move(s);
        conns_.erase(it);
        return;
      }
      default:
        return;
    }
  }
}

}  // namespace asbestos
