#include "src/replication/link.h"

#include <algorithm>

#include "src/base/panic.h"

namespace asbestos {

ReplicationLink::ReplicationLink(SimNet* primary_net, uint16_t primary_port,
                                 SimNet* follower_net, uint16_t follower_port)
    : primary_net_(primary_net),
      follower_net_(follower_net),
      primary_port_(primary_port),
      follower_port_(follower_port) {
  TryConnect();
}

void ReplicationLink::TryConnect() {
  if (p_conn_ == kNoConn) {
    p_conn_ = primary_net_->ClientConnect(primary_port_);
  }
  if (f_conn_ == kNoConn) {
    f_conn_ = follower_net_->ClientConnect(follower_port_);
  }
}

void ReplicationLink::Disconnect() {
  if (p_conn_ != kNoConn) {
    primary_net_->ClientClose(p_conn_);
    p_conn_ = kNoConn;
  }
  if (f_conn_ != kNoConn) {
    follower_net_->ClientClose(f_conn_);
    f_conn_ = kNoConn;
  }
  to_follower_.clear();
  to_primary_.clear();
}

bool ReplicationLink::Reconnect() {
  Disconnect();
  TryConnect();
  return connected();
}

uint64_t ReplicationLink::FerryChunk(std::string* buffer, SimNet* dst, ConnId dst_conn) {
  if (buffer->empty() || dst_conn == kNoConn) {
    return 0;
  }
  const uint64_t n =
      max_chunk_ == 0 ? buffer->size() : std::min<uint64_t>(max_chunk_, buffer->size());
  dst->ClientSend(dst_conn, std::string_view(*buffer).substr(0, n));
  buffer->erase(0, n);
  return n;
}

uint64_t ReplicationLink::Step() {
  if (paused_) {
    return 0;  // the wire stalls in place; nothing drained, nothing delivered
  }
  TryConnect();
  // Drain first, then notice server-side FINs: a closed connection (an
  // endpoint's busy refusal, a follower ending its session) is redialed on
  // the next step, as a link daemon watching its sockets would.
  if (p_conn_ != kNoConn) {
    to_follower_ += primary_net_->ClientTakeReceived(p_conn_);
    if (primary_net_->ClientSeesClosed(p_conn_)) {
      primary_net_->ClientClose(p_conn_);
      p_conn_ = kNoConn;
    }
  }
  if (f_conn_ != kNoConn) {
    to_primary_ += follower_net_->ClientTakeReceived(f_conn_);
    if (follower_net_->ClientSeesClosed(f_conn_)) {
      follower_net_->ClientClose(f_conn_);
      f_conn_ = kNoConn;
    }
  }
  uint64_t moved = 0;
  const uint64_t pf = FerryChunk(&to_follower_, follower_net_, f_conn_);
  const uint64_t fp = FerryChunk(&to_primary_, primary_net_, p_conn_);
  bytes_to_follower_ += pf;
  bytes_to_primary_ += fp;
  moved = pf + fp;
  return moved;
}

FsPrimaryWorld::FsPrimaryWorld(uint64_t boot_key, const FileServerOptions& fs_options,
                               SpawnArgs fs_spawn_args)
    : kernel_(boot_key) {
  auto netd_code = std::make_unique<NetdProcess>(&net_);
  netd_ = netd_code.get();
  SpawnArgs nargs;
  nargs.name = "netd";
  nargs.component = Component::kNetwork;
  netd_pid_ = kernel_.CreateProcess(std::move(netd_code), std::move(nargs));

  auto fs_code = std::make_unique<FileServerProcess>(fs_options);
  fs_ = fs_code.get();
  if (fs_spawn_args.name.empty()) {
    fs_spawn_args.name = "fs";
  }
  // The boot loader hands the file server netd's control port so its
  // replication endpoint can attach a listener.
  fs_spawn_args.env["netd_ctl"] = netd_->control_port().value();
  fs_pid_ = kernel_.CreateProcess(std::move(fs_code), std::move(fs_spawn_args));
}

void FsPrimaryWorld::Pump() {
  kernel_.WithProcessContext(netd_pid_, [&](ProcessContext& ctx) { netd_->PollNetwork(ctx); });
  kernel_.RunUntilIdle();
}

FollowerWorld::FollowerWorld(uint64_t boot_key, uint16_t tcp_port, StoreOptions store_opts,
                             ReplicaOptions options, uint16_t read_tcp_port)
    : kernel_(boot_key) {
  auto netd_code = std::make_unique<NetdProcess>(&net_);
  netd_ = netd_code.get();
  SpawnArgs nargs;
  nargs.name = "netd";
  nargs.component = Component::kNetwork;
  netd_pid_ = kernel_.CreateProcess(std::move(netd_code), std::move(nargs));

  auto follower_code = std::make_unique<FollowerProcess>(std::move(store_opts), options);
  follower_ = follower_code.get();
  SpawnArgs fargs;
  fargs.name = "follower";
  fargs.component = Component::kOther;
  fargs.env = {{"netd_ctl", netd_->control_port().value()}, {"tcp_port", tcp_port}};
  if (read_tcp_port != 0) {
    fargs.env["read_tcp_port"] = read_tcp_port;
  }
  follower_pid_ = kernel_.CreateProcess(std::move(follower_code), std::move(fargs));
}

void FollowerWorld::Pump() {
  kernel_.WithProcessContext(netd_pid_, [&](ProcessContext& ctx) { netd_->PollNetwork(ctx); });
  kernel_.RunUntilIdle();
}

Status FollowerWorld::Promote() {
  Status s = Status::kOk;
  kernel_.WithProcessContext(follower_pid_,
                             [&](ProcessContext& ctx) { s = follower_->Promote(ctx); });
  Pump();  // drain the session-close traffic
  return s;
}

ReplicationFleet::ReplicationFleet(uint64_t boot_key, const FileServerOptions& fs_options)
    : primary_port_(fs_options.replication.listen_tcp_port) {
  ASB_ASSERT(fs_options.replication.enabled());
  primary_ = std::make_unique<FsPrimaryWorld>(boot_key, fs_options);
  primary_->Pump();  // attach the listener before any follower dials
}

size_t ReplicationFleet::AddFollower(uint64_t boot_key, uint16_t tcp_port,
                                     StoreOptions store_opts, ReplicaOptions options,
                                     uint16_t read_tcp_port) {
  followers_.push_back(std::make_unique<FollowerWorld>(boot_key, tcp_port,
                                                       std::move(store_opts), options,
                                                       read_tcp_port));
  // Each follower machine is its own kernel publishing the same
  // kernel.stats.* / kernel.mem.* gauge names; prefix them by fleet index so
  // a fleet metrics snapshot carries every machine instead of whichever
  // world's gauge group happened to run last. The primary keeps the bare
  // names (it is "the" machine in single-world benches).
  followers_.back()->kernel().SetMetricsPrefix(
      "replica" + std::to_string(followers_.size()) + ".");
  followers_.back()->Pump();
  ASB_ASSERT(primary_ != nullptr && "followers join a live primary");
  links_.push_back(std::make_unique<ReplicationLink>(&primary_->net(), primary_port_,
                                                     &followers_.back()->net(), tcp_port));
  return followers_.size() - 1;
}

void ReplicationFleet::Pump() {
  for (auto& link : links_) {
    link->Step();
  }
  if (primary_ != nullptr) {
    primary_->Pump();
  }
  for (auto& follower : followers_) {
    follower->Pump();
  }
}

bool ReplicationFleet::PumpUntilSynced(int max_iters) {
  for (int i = 0; i < max_iters; ++i) {
    Pump();
    if (primary_ == nullptr || primary_->fs()->replication() == nullptr) {
      return false;
    }
    const ReplicationHub* hub = primary_->fs()->replication()->hub();
    if (hub != nullptr && hub->session_count() == followers_.size() &&
        hub->AllFullySynced()) {
      return true;
    }
  }
  return false;
}

void ReplicationFleet::KillPrimary() {
  links_.clear();  // the wire dies with the rack
  primary_.reset();
}

int ReplicationFleet::auto_promoted_count() const {
  int n = 0;
  for (const auto& follower : followers_) {
    if (follower->follower()->auto_promoted()) {
      ++n;
    }
  }
  return n;
}

ReadClient::ReadClient(SimNet* net, uint16_t read_port, uint64_t auth_token)
    : net_(net), port_(read_port), auth_token_(auth_token) {
  TryConnect();
}

void ReadClient::TryConnect() {
  if (conn_ == kNoConn) {
    conn_ = net_->ClientConnect(port_);
    rx_.clear();
  }
}

bool ReadClient::Read(const std::string& key, const Label& clearance,
                      const replwire::ReadCursorToken& token,
                      const std::function<void()>& pump, ReadResult* out,
                      int max_iters) {
  TryConnect();
  if (conn_ == kNoConn) {
    return false;
  }
  const uint64_t cookie = next_cookie_++;
  replwire::WireMessage req;
  req.type = replwire::kReadReq;
  req.token = auth_token_;
  req.cookie = cookie;
  req.key = key;
  req.cursor = token;
  req.label = clearance;
  std::string wire;
  replwire::AppendFrame(req, &wire);
  net_->ClientSend(conn_, wire);
  replwire::WireMessage resp;
  for (int i = 0; i < max_iters; ++i) {
    pump();
    rx_ += net_->ClientTakeReceived(conn_);
    for (;;) {
      const replwire::FrameParse p = replwire::ConsumeFrame(&rx_, &resp);
      if (p == replwire::FrameParse::kNeedMore) {
        break;
      }
      if (p == replwire::FrameParse::kCorrupt || resp.type != replwire::kReadResp) {
        net_->ClientClose(conn_);
        conn_ = kNoConn;
        return false;
      }
      if (resp.cookie != cookie) {
        continue;  // an answer to an abandoned earlier read
      }
      out->status = static_cast<ReadStatus>(resp.read_status);
      out->value = resp.payload.str();
      out->secrecy = resp.label;
      out->staleness_cycles = resp.staleness;
      out->applied = resp.cursor;
      return true;
    }
    if (net_->ClientSeesClosed(conn_)) {
      net_->ClientClose(conn_);
      conn_ = kNoConn;
      return false;
    }
  }
  return false;
}

int ReplicationFleet::auto_promoted_index() const {
  for (size_t i = 0; i < followers_.size(); ++i) {
    if (followers_[i]->follower()->auto_promoted()) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

}  // namespace asbestos
