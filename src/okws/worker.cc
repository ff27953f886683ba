#include "src/okws/worker.h"

#include <cstring>

#include "src/base/strings.h"
#include "src/db/dbproxy.h"
#include "src/kernel/memstats.h"
#include "src/net/netd.h"
#include "src/obs/event_log.h"
#include "src/sim/costs.h"

namespace asbestos {

using okws_proto::MessageType;

namespace {

// State-page layout: [u32 flag][u64 uW][u16 ulen][user][u32 blen][blob].
constexpr uint64_t kStateHeader = 4 + 8 + 2;
constexpr uint64_t kMaxUsername = 255;
constexpr uint64_t kMaxBlob = 3072;

}  // namespace

WorkerProcess::WorkerProcess(std::string service_name, std::unique_ptr<Service> service,
                             WorkerOptions options)
    : service_name_(std::move(service_name)),
      service_(std::move(service)),
      options_(options) {}

WorkerProcess::~WorkerProcess() {
  SessionParkStats& g = MutableSessionParkStats();
  g.live_bytes -= park_accounted_bytes_;
  g.live_records -= static_cast<int64_t>(parked_.size());
}

void WorkerProcess::StageParkRecord(const std::string& username, const std::string& blob) {
  SessionParkStats& g = MutableSessionParkStats();
  const auto bytes = static_cast<int64_t>(kParkedSessionOverheadBytes + username.size() +
                                          blob.size());
  auto [it, inserted] = parked_.emplace(username, blob);
  if (inserted) {
    g.live_records += 1;
    g.live_bytes += bytes;
    park_accounted_bytes_ += bytes;
  } else {
    const auto old = static_cast<int64_t>(kParkedSessionOverheadBytes + username.size() +
                                          it->second.size());
    it->second = blob;
    g.live_bytes += bytes - old;
    park_accounted_bytes_ += bytes - old;
  }
  g.parks += 1;
}

bool WorkerProcess::TakeParkRecord(const std::string& username, std::string* blob) {
  auto it = parked_.find(username);
  if (it == parked_.end()) {
    return false;
  }
  SessionParkStats& g = MutableSessionParkStats();
  const auto bytes = static_cast<int64_t>(kParkedSessionOverheadBytes + username.size() +
                                          it->second.size());
  g.live_records -= 1;
  g.live_bytes -= bytes;
  g.resumes += 1;
  park_accounted_bytes_ -= bytes;
  *blob = std::move(it->second);
  parked_.erase(it);
  return true;
}

void WorkerProcess::Start(ProcessContext& ctx) {
  state_addr_ = ctx.AllocPages(1);
  scratch_addr_ = ctx.AllocPages(kScratchPages);
  stats_addr_ = ctx.AllocPages(1);
  session_port_ = Handle::FromValue(ctx.GetEnv("demux_session"));
  dbproxy_port_ = Handle::FromValue(ctx.GetEnv("dbproxy_query"));
  idd_login_ = Handle::FromValue(ctx.GetEnv("idd_login"));

  // The service port is closed by default; the registration grants demux ⋆
  // for it, so only demux can hand us connections.
  const Handle service_port = ctx.NewPort(Label::Top());
  Message reg;
  reg.type = MessageType::kWorkerRegister;
  reg.data = service_name_;
  reg.words = {service_port.value()};
  SendArgs args;
  // One-shot identity proof: our verification handle is still at 0 because
  // Start() runs before any receive (§7.1).
  args.verify = Label({{Handle::FromValue(ctx.GetEnv("self_verify")), Level::kL0}}, Level::kL3);
  args.decont_send = Label({{service_port, Level::kStar}}, Level::kL3);
  ctx.Send(Handle::FromValue(ctx.GetEnv("demux_register")), std::move(reg), args);

  // From here on, every message runs inside an event process (§6.1).
  ctx.EnterEventRealm();
}

WorkerProcess::InFlight* WorkerProcess::Current(EpId ep) {
  auto it = in_flight_.find(ep);
  return it == in_flight_.end() ? nullptr : &it->second;
}

bool WorkerProcess::LoadStatePage(ProcessContext& ctx, Handle* uw, std::string* username,
                                  std::string* blob) {
  uint32_t flag = 0;
  ctx.ReadMem(state_addr_, &flag, sizeof(flag));
  if (flag == 0) {
    return false;  // the zeroed-memory newness idiom (§6.1)
  }
  uint64_t uw_value = 0;
  ctx.ReadMem(state_addr_ + 4, &uw_value, sizeof(uw_value));
  *uw = Handle::FromValue(uw_value);
  uint16_t ulen = 0;
  ctx.ReadMem(state_addr_ + 12, &ulen, sizeof(ulen));
  username->resize(std::min<uint64_t>(ulen, kMaxUsername));
  ctx.ReadMem(state_addr_ + kStateHeader, username->data(), username->size());
  uint32_t blen = 0;
  ctx.ReadMem(state_addr_ + kStateHeader + username->size(), &blen, sizeof(blen));
  blob->resize(std::min<uint64_t>(blen, kMaxBlob));
  ctx.ReadMem(state_addr_ + kStateHeader + username->size() + 4, blob->data(), blob->size());
  return true;
}

void WorkerProcess::SaveStatePage(ProcessContext& ctx, const InFlight& rq) {
  const uint32_t flag = 1;
  ctx.WriteMem(state_addr_, &flag, sizeof(flag));
  const uint64_t uw_value = rq.uw.value();
  ctx.WriteMem(state_addr_ + 4, &uw_value, sizeof(uw_value));
  const auto ulen = static_cast<uint16_t>(std::min<uint64_t>(rq.username.size(), kMaxUsername));
  ctx.WriteMem(state_addr_ + 12, &ulen, sizeof(ulen));
  ctx.WriteMem(state_addr_ + kStateHeader, rq.username.data(), ulen);
  const auto blen = static_cast<uint32_t>(std::min<uint64_t>(rq.session_blob.size(), kMaxBlob));
  ctx.WriteMem(state_addr_ + kStateHeader + ulen, &blen, sizeof(blen));
  ctx.WriteMem(state_addr_ + kStateHeader + ulen + 4, rq.session_blob.data(), blen);
}

void WorkerProcess::SendRead(ProcessContext& ctx, InFlight& rq) {
  Message read;
  read.type = netd_proto::kRead;
  read.words = {rq.demux_cookie, 0 /*all*/, 0 /*consume*/, 0};
  read.reply_port = rq.uw;
  read.trace_id = rq.trace_id;
  SendArgs args;
  // Grant netd the reply capability (paper Fig. 5 step 8: "makes a new port
  // uW and grants it to netd at level ⋆").
  args.decont_send = Label({{rq.uw, Level::kStar}}, Level::kL3);
  ctx.Send(rq.uc, std::move(read), args);
}

void WorkerProcess::OnConnForUser(ProcessContext& ctx, const Message& msg) {
  if (msg.words.size() < 4) {
    return;
  }
  if (Current(ctx.ep_id()) != nullptr) {
    // A second connection for this session arrived while a request is still
    // being served; queue it until the current one finishes.
    pending_conns_[ctx.ep_id()].push_back(msg);
    return;
  }
  InFlight rq;
  rq.demux_cookie = msg.words[0];
  rq.uc = Handle::FromValue(msg.words[1]);
  rq.taint = Handle::FromValue(msg.words[2]);
  rq.grant = Handle::FromValue(msg.words[3]);
  rq.username = msg.data;
  rq.trace_id = msg.trace_id;
  // Declassifiers hold the user's taint at ⋆ instead of carrying it at 3
  // (§7.6); the label state itself tells us which we are.
  rq.declassifier = ctx.send_label().Get(rq.taint) == Level::kStar;
  if (obs::EventLog::enabled() && rq.trace_id != 0) {
    obs::EventLog::Get().Span(rq.trace_id, "worker", "worker.request",
                              service_name_ + " user=" + rq.username,
                              ctx.send_label());
  }

  Handle state_uw;
  std::string state_user;
  std::string blob;
  if (LoadStatePage(ctx, &state_uw, &state_user, &blob)) {
    rq.uw = state_uw;
    rq.session_blob = std::move(blob);
    // A park may be outstanding for this session (request sent, connection
    // raced to the old uW first). The EP is live again: consume the staged
    // record — the state page is authoritative — and re-park after this
    // request; the pending ack finds a request in flight and aborts.
    std::string stale;
    (void)TakeParkRecord(rq.username, &stale);
  } else {
    // Fresh event process: a parked session resumes from its compact record
    // — the same fork-at-the-service-port path a durably recovered session
    // takes — before the session's port is re-registered below.
    (void)TakeParkRecord(rq.username, &rq.session_blob);
    // Allocate the session's port and register it with
    // ok-demux so follow-up connections come straight to us (§7.3).
    rq.uw = ctx.NewPort(Label::Top());
    SaveStatePage(ctx, rq);
    Message reg;
    reg.type = MessageType::kSessionReg;
    reg.words = {rq.demux_cookie, rq.uw.value()};
    reg.trace_id = rq.trace_id;
    SendArgs args;
    args.decont_send = Label({{rq.uw, Level::kStar}}, Level::kL3);
    ctx.Send(session_port_, std::move(reg), args);
  }

  // Simulated stack use: the connection bookkeeping a real worker scatters
  // across its stack — two pages' worth (paper §9.1: "Two of those pages are
  // stack and exception stack pages").
  ctx.WriteMem(scratch_addr_, rq.username.data(),
               std::min<uint64_t>(rq.username.size(), kPageSize));
  const uint64_t frame_marker = rq.demux_cookie;
  ctx.WriteMem(scratch_addr_ + kPageSize - sizeof(frame_marker), &frame_marker,
               sizeof(frame_marker));
  ctx.WriteMem(scratch_addr_ + kPageSize + 64, &frame_marker, sizeof(frame_marker));

  SendRead(ctx, in_flight_[ctx.ep_id()] = std::move(rq));
}

void WorkerProcess::OnReadReply(ProcessContext& ctx, const Message& msg) {
  InFlight* rq = Current(ctx.ep_id());
  if (rq == nullptr || rq->responded) {
    return;
  }
  const bool eof = msg.words.size() > 1 && msg.words[1] != 0;
  if (!msg.data.empty()) {
    // Request bytes land in scratch, like a real parser's buffers.
    const uint64_t offset = 2 * kPageSize + (rq->request_bytes % kPageSize);
    ctx.WriteMem(scratch_addr_ + offset, msg.data.data(),
                 std::min<uint64_t>(msg.data.size(), kPageSize));
    rq->request_bytes += msg.data.size();
    rq->parser.Feed(msg.data);
  }
  if (rq->parser.state() == HttpRequestParser::State::kComplete) {
    ctx.ChargeCycles(costs::kWorkerRequestCycles);
    ServiceContext sc(this, &ctx, ctx.ep_id());
    service_->OnRequest(sc);
    return;
  }
  if (rq->parser.state() == HttpRequestParser::State::kError || eof) {
    FinishRequest(ctx, *rq, 400, "bad request");
    return;
  }
  SendRead(ctx, *rq);
}

void WorkerProcess::FinishRequest(ProcessContext& ctx, InFlight& rq, int status,
                                  std::string_view body) {
  rq.responded = true;
  std::string response =
      BuildHttpResponse(status, status == 200 ? "OK" : "Error", {{"Server", "okws-asbestos"}},
                        body);
  ctx.ChargeCycles(response.size() * costs::kWorkerByteCycles);
  // Simulated heap use: the response is assembled in one buffer and staged
  // into another, and per-request counters touch a globals page (§9.1's
  // "five comprise the modified heap and pages with modified global
  // variables" — together with the stats page below).
  ctx.WriteMem(scratch_addr_ + 4 * kPageSize, response.data(),
               std::min<uint64_t>(response.size(), kPageSize));
  ctx.WriteMem(scratch_addr_ + 5 * kPageSize, response.data(),
               std::min<uint64_t>(response.size(), kPageSize));
  uint64_t served = 0;
  ctx.ReadMem(stats_addr_, &served, sizeof(served));
  ++served;
  ctx.WriteMem(stats_addr_, &served, sizeof(served));

  if (obs::EventLog::enabled() && rq.trace_id != 0) {
    obs::EventLog::Get().Span(rq.trace_id, "worker", "worker.respond",
                              "status=" + std::to_string(status), ctx.send_label());
  }
  Message write;
  write.type = netd_proto::kWrite;
  write.words = {rq.demux_cookie};
  write.data = std::move(response);  // adopt: last use of the buffer
  write.trace_id = rq.trace_id;
  ctx.Send(rq.uc, std::move(write));
  Message close;
  close.type = netd_proto::kControl;
  close.words = {rq.demux_cookie, netd_proto::kControlOpClose};
  close.trace_id = rq.trace_id;
  ctx.Send(rq.uc, std::move(close));
  // Release the connection capability (§9.3): the event process's labels
  // must not grow with every connection its session ever served.
  (void)ctx.SetSendLevel(rq.uc, kDefaultSendLevel);

  SaveStatePage(ctx, rq);
  if (options_.clean_after_request) {
    // §7.3: discard everything but the session data before yielding.
    ASB_ASSERT(ctx.EpClean(scratch_addr_, kScratchPages * kPageSize) == Status::kOk);
    ASB_ASSERT(ctx.EpClean(stats_addr_, kPageSize) == Status::kOk);
  }
  const bool consider_park = options_.park_idle_sessions;
  Handle park_uw;
  std::string park_user;
  std::string park_blob;
  uint64_t park_trace = 0;
  if (consider_park) {
    park_uw = rq.uw;
    park_user = rq.username;
    park_blob = rq.session_blob;
    park_trace = rq.trace_id;
  }
  in_flight_.erase(ctx.ep_id());  // `rq` is dangling after this line

  // Serve a connection that queued up behind this request, if any.
  auto pit = pending_conns_.find(ctx.ep_id());
  if (pit != pending_conns_.end() && !pit->second.empty()) {
    const Message next = pit->second.front();
    pit->second.pop_front();
    if (pit->second.empty()) {
      pending_conns_.erase(pit);
    }
    OnConnForUser(ctx, next);
    return;
  }

  if (consider_park) {
    // The session is idle: stage the compact record NOW (a connection that
    // races past the park resumes from it) and ask demux to retire uW. The
    // event process itself is freed only on the ack (OnParkAck), so any
    // connection already queued at uW is served first.
    StageParkRecord(park_user, park_blob);
    Message park;
    park.type = MessageType::kSessionPark;
    park.words = {park_uw.value()};
    park.data = park_user + "\n" + service_name_;
    park.trace_id = park_trace;
    ctx.Send(session_port_, std::move(park));
  }
}

void WorkerProcess::OnParkAck(ProcessContext& ctx) {
  if (Current(ctx.ep_id()) != nullptr) {
    return;  // a connection raced the park; FinishRequest will re-park
  }
  auto pit = pending_conns_.find(ctx.ep_id());
  if (pit != pending_conns_.end() && !pit->second.empty()) {
    return;  // queued work still bound to this event process
  }
  // demux invalidated uW; the staged record holds the session state. Free the
  // event process: its ports (uW) dissociate and its private pages drop.
  ctx.EpExit();
}

void WorkerProcess::HandleMessage(ProcessContext& ctx, const Message& msg) {
  switch (msg.type) {
    case MessageType::kConnForUser:
      OnConnForUser(ctx, msg);
      return;
    case netd_proto::kReadR:
      OnReadReply(ctx, msg);
      return;
    case dbproxy_proto::kRow: {
      InFlight* rq = Current(ctx.ep_id());
      if (rq == nullptr) {
        return;
      }
      std::vector<SqlValue> row;
      if (!msg.words.empty() && DecodeDbRow(msg.data, &row)) {
        ServiceContext sc(this, &ctx, ctx.ep_id());
        service_->OnDbRow(sc, msg.words[0], row);
      }
      return;
    }
    case dbproxy_proto::kDone: {
      InFlight* rq = Current(ctx.ep_id());
      if (rq == nullptr || msg.words.size() < 3) {
        return;
      }
      ServiceContext sc(this, &ctx, ctx.ep_id());
      service_->OnDbDone(sc, msg.words[0], static_cast<Status>(-static_cast<int>(msg.words[1])),
                         msg.words[2]);
      return;
    }
    case MessageType::kChangePwR: {
      InFlight* rq = Current(ctx.ep_id());
      if (rq == nullptr || msg.words.size() < 2) {
        return;
      }
      ServiceContext sc(this, &ctx, ctx.ep_id());
      service_->OnPasswordChanged(sc,
                                  static_cast<Status>(-static_cast<int>(msg.words[1])));
      return;
    }
    case MessageType::kSessionParkR:
      OnParkAck(ctx);
      return;
    case netd_proto::kWriteR:
    case netd_proto::kControlR:
      return;
    default:
      return;
  }
}

// --- ServiceContext ---------------------------------------------------------------

const std::string& ServiceContext::username() const {
  return worker_->Current(ep_)->username;
}

const HttpRequest& ServiceContext::request() const {
  return worker_->Current(ep_)->parser.request();
}

bool ServiceContext::is_declassifier() const { return worker_->Current(ep_)->declassifier; }

const std::string& ServiceContext::session_data() const {
  return worker_->Current(ep_)->session_blob;
}

void ServiceContext::set_session_data(std::string data) {
  worker_->Current(ep_)->session_blob = std::move(data);
}

std::string& ServiceContext::scratch() { return worker_->Current(ep_)->scratch_text; }

uint64_t ServiceContext::connection_port_value() const {
  return worker_->Current(ep_)->uc.value();
}

uint64_t ServiceContext::DbQuery(const std::string& sql, uint64_t flags) {
  WorkerProcess::InFlight& rq = *worker_->Current(ep_);
  const uint64_t qid = rq.next_qid++;
  Message q;
  q.type = dbproxy_proto::kQuery;
  q.words = {qid, flags};
  q.data = rq.username + "\n" + sql;
  q.reply_port = rq.uw;
  q.trace_id = rq.trace_id;
  SendArgs args;
  // §7.5: prove both facts dbproxy checks — tainted by nothing but our own
  // user (uT is the only level-3 entry in V) and speaking for the user
  // (uG at 0). Declassifiers hold uT at ⋆ and prove that instead (§7.6).
  const Level taint_level = rq.declassifier ? Level::kStar : Level::kL3;
  args.verify = Label({{rq.taint, taint_level}, {rq.grant, Level::kL0}}, Level::kL2);
  args.decont_send = Label({{rq.uw, Level::kStar}}, Level::kL3);  // reply capability
  ctx_->Send(worker_->dbproxy_port_, std::move(q), args);
  return qid;
}

void ServiceContext::ChangePassword(const std::string& old_pw, const std::string& new_pw) {
  WorkerProcess::InFlight& rq = *worker_->Current(ep_);
  Message m;
  m.type = okws_proto::kChangePw;
  m.words = {rq.demux_cookie};
  m.data = rq.username + "\n" + old_pw + "\n" + new_pw;
  m.reply_port = rq.uw;
  m.trace_id = rq.trace_id;
  SendArgs args;
  args.verify = Label({{rq.grant, Level::kL0}}, Level::kL3);  // prove we speak for the user
  args.decont_send = Label({{rq.uw, Level::kStar}}, Level::kL3);
  ctx_->Send(worker_->idd_login_, std::move(m), args);
}

void ServiceContext::Respond(int status, std::string_view body) {
  WorkerProcess::InFlight* rq = worker_->Current(ep_);
  if (rq == nullptr || rq->responded) {
    return;
  }
  worker_->FinishRequest(*ctx_, *rq, status, body);
}

}  // namespace asbestos
