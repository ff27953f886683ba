// ReplicationLink and the two-machine replication testbed.
//
// Two Asbestos machines (kernel + netd + SimNet each) cannot share a wire:
// each SimNet models one machine's LAN segment with its remote peers driven
// from outside, exactly like HttpLoadClient drives the OKWS worlds. The
// link IS that outside: it opens a client connection into each machine's
// netd (the primary's replication listener and the follower's) and ferries
// bytes between them every step — a stand-in for the switch between two
// server racks. Tests use its knobs to fragment deliveries (torn batches at
// the follower) and to sever one side (primary kill).
//
//   ┌────────────── primary ──────────────┐      ┌───────────── follower ────────────┐
//   │ FileServer ──OnIdle──▶ Endpoint     │      │ FollowerProcess ──▶ ReplicaStore  │
//   │      │ kWrite batches   ▲ kRead acks│      │   ▲ kRead batches   │ kWrite acks │
//   │      ▼                  │           │      │   │                 ▼             │
//   │            netd A                   │      │             netd B                │
//   └────────────┬─────▲──────────────────┘      └───────────────┬─────▲─────────────┘
//          SimNet A    │                                  SimNet B     │
//                ▼     │            ReplicationLink             ▼      │
//                └─────┴────────── (ferries bytes) ─────────────┴──────┘
#ifndef SRC_REPLICATION_LINK_H_
#define SRC_REPLICATION_LINK_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/fs/file_server.h"
#include "src/kernel/kernel.h"
#include "src/net/netd.h"
#include "src/net/simnet.h"
#include "src/replication/follower.h"
#include "src/replication/read_gate.h"

namespace asbestos {

class ReplicationLink {
 public:
  // Connects to both machines' listeners. Either connect may fail (port not
  // listening yet); Step() keeps retrying until both sides are up.
  ReplicationLink(SimNet* primary_net, uint16_t primary_port, SimNet* follower_net,
                  uint16_t follower_port);

  // Ferries pending bytes both ways. Returns the bytes moved this step.
  uint64_t Step();

  // Delivers at most this many bytes per ClientSend, fragmenting frames
  // across steps — the torn-batch-at-the-follower scenario. 0 = unlimited.
  void set_max_chunk(uint64_t n) { max_chunk_ = n; }

  // Stalls the wire without tearing it: while paused, Step() moves nothing
  // and buffers nothing, so the follower silently falls behind — the lag
  // injection the read-your-writes tests need (softer than Disconnect, which
  // ends the session and forces a resume on redial).
  void set_paused(bool paused) { paused_ = paused; }
  bool paused() const { return paused_; }

  // Severs the wire (both directions); a later Reconnect() dials fresh
  // connections, as a restarted link daemon would.
  void Disconnect();
  bool Reconnect();

  bool connected() const { return p_conn_ != kNoConn && f_conn_ != kNoConn; }
  uint64_t bytes_to_follower() const { return bytes_to_follower_; }
  uint64_t bytes_to_primary() const { return bytes_to_primary_; }

 private:
  void TryConnect();
  // Moves one direction, honoring max_chunk_; leftover stays buffered here.
  // An unfragmented buffer is handed over whole, so it keeps no capacity.
  uint64_t FerryChunk(std::string* buffer, SimNet* dst, ConnId dst_conn);

  SimNet* primary_net_;
  SimNet* follower_net_;
  uint16_t primary_port_;
  uint16_t follower_port_;
  ConnId p_conn_ = kNoConn;
  ConnId f_conn_ = kNoConn;
  std::string to_follower_;  // taken from primary, not yet delivered
  std::string to_primary_;
  uint64_t max_chunk_ = 0;
  bool paused_ = false;
  uint64_t bytes_to_follower_ = 0;
  uint64_t bytes_to_primary_ = 0;
};

// One primary machine: kernel, netd, and a persistent file server that
// ships its WAL from the replication listener. The file-server workload
// (CREATE/WRITE/UNLINK with secrecy/integrity compartments) is exactly the
// labeled state the promote tests compare bit-for-bit.
class FsPrimaryWorld {
 public:
  FsPrimaryWorld(uint64_t boot_key, const FileServerOptions& fs_options,
                 SpawnArgs fs_spawn_args = {});

  void Pump();

  Kernel& kernel() { return kernel_; }
  SimNet& net() { return net_; }
  FileServerProcess* fs() { return fs_; }
  ProcessId fs_pid() const { return fs_pid_; }

 private:
  SimNet net_;
  Kernel kernel_;
  NetdProcess* netd_ = nullptr;
  FileServerProcess* fs_ = nullptr;
  ProcessId netd_pid_ = kNoProcess;
  ProcessId fs_pid_ = kNoProcess;
};

// One follower machine: kernel, netd, and a FollowerProcess listening for
// the primary's stream. A nonzero read_tcp_port opens the follower-read
// listener alongside (served through the replica's ReadGate).
class FollowerWorld {
 public:
  FollowerWorld(uint64_t boot_key, uint16_t tcp_port, StoreOptions store_opts,
                ReplicaOptions options = ReplicaOptions(), uint16_t read_tcp_port = 0);

  void Pump();
  // Closes the session, drains, checkpoints; the store directory is now a
  // primary-grade image.
  Status Promote();

  Kernel& kernel() { return kernel_; }
  SimNet& net() { return net_; }
  FollowerProcess* follower() { return follower_; }

 private:
  SimNet net_;
  Kernel kernel_;
  NetdProcess* netd_ = nullptr;
  FollowerProcess* follower_ = nullptr;
  ProcessId netd_pid_ = kNoProcess;
  ProcessId follower_pid_ = kNoProcess;
};

// A K-replica topology under one driver: a primary FsPrimaryWorld fanning
// out to K FollowerWorlds, one ReplicationLink per follower (the per-rack
// wire). This is the acceptance-test and bench harness for the hub: add
// followers, pump everything, kill the primary, and watch the lease
// protocol pick exactly one successor.
class ReplicationFleet {
 public:
  // Boots the primary machine; fs_options.replication must be enabled.
  ReplicationFleet(uint64_t boot_key, const FileServerOptions& fs_options);

  // Boots one follower machine and dials its link. Returns its index. A
  // nonzero read_tcp_port additionally opens that follower's read listener.
  size_t AddFollower(uint64_t boot_key, uint16_t tcp_port, StoreOptions store_opts,
                     ReplicaOptions options = ReplicaOptions(),
                     uint16_t read_tcp_port = 0);

  // One driver step: ferry every link, pump the primary (if alive) and
  // every follower.
  void Pump();
  // Pumps until every follower session is fully synced (and every follower
  // is connected). False when max_iters ran out first.
  bool PumpUntilSynced(int max_iters = 5000);

  // Kills the primary machine mid-stream: links torn down with it (the
  // wire dies with the rack), follower worlds keep running.
  void KillPrimary();

  // Lease-failover observability: how many followers auto-promoted, and
  // the index of the first one (-1 when none).
  int auto_promoted_count() const;
  int auto_promoted_index() const;

  FsPrimaryWorld* primary() { return primary_.get(); }
  FollowerWorld* follower(size_t i) { return followers_[i].get(); }
  size_t follower_count() const { return followers_.size(); }
  ReplicationLink* link(size_t i) { return links_[i].get(); }

 private:
  uint16_t primary_port_;
  std::unique_ptr<FsPrimaryWorld> primary_;
  std::vector<std::unique_ptr<FollowerWorld>> followers_;
  std::vector<std::unique_ptr<ReplicationLink>> links_;
};

// Drives a follower's read listener from outside the machine, the way the
// link drives replication and HttpLoadClient drives OKWS: one client
// connection into the follower netd's read port, speaking kReadReq →
// kReadResp. Tests and benches use it to exercise the staleness contract
// end to end over real frames.
class ReadClient {
 public:
  ReadClient(SimNet* net, uint16_t read_port, uint64_t auth_token);

  // Sends one read and calls `pump` (the caller's world-pumping step) until
  // the matching response lands. False when the connection closed or
  // max_iters pumps passed without an answer; *out is untouched then.
  bool Read(const std::string& key, const Label& clearance,
            const replwire::ReadCursorToken& token, const std::function<void()>& pump,
            ReadResult* out, int max_iters = 2000);

  bool connected() const { return conn_ != kNoConn; }

 private:
  void TryConnect();

  SimNet* net_;
  uint16_t port_;
  uint64_t auth_token_;
  uint64_t next_cookie_ = 1;
  ConnId conn_ = kNoConn;
  std::string rx_;
};

}  // namespace asbestos

#endif  // SRC_REPLICATION_LINK_H_
