// FollowerProcess: a hot-standby store fed over simnet/netd.
//
// The follower machine runs its own netd; this process attaches a listener
// on the replication TCP port and waits for the wire (the cross-machine
// ferry, ReplicationLink) to connect it to a primary's ReplicationEndpoint.
// Every byte then travels as labeled kernel messages: batches arrive as
// kRead replies, acks leave as kWrite messages, and the replica's group
// commit rides the same OnIdle hook as any primary store — a follower is a
// durable server whose only client is the primary's log.
//
// Automatic failover: a follower configured with a nonzero follower_id
// (ReplicaOptions; 0 = a mirror that never promotes) carries that id in its
// acks and tracks the primary's lease (the deadline stamped on every
// batch/heartbeat). Each OnIdle it charges one lease-check tick — the local
// failover timer — and when the lease runs out:
//   * if the PRIMARY'S OWN last designation named this follower (lowest id
//     among caught-up replicas), it promotes itself;
//   * otherwise it stands by for the designated successor's endpoint (or an
//     operator) — exactly one replica acts, with no follower-to-follower
//     traffic, because the designation was distributed by the primary while
//     it was still alive.
//
// Manual Promote() still exists and ends the follower role the same way:
// the connection is closed, the replica drains its pipeline, and the
// underlying store — bit-identical to what single-node crash recovery of
// the shipped history would produce — can be adopted by a primary process
// (e.g. FileServerProcess re-opened on the same directory, with
// RecoverySpawnArgs re-granting privilege exactly as after a local reboot).
//
// Busy back-off: a kBusy refusal from an at-capacity primary ends the
// session quietly and starts a back-off window (the refusal's retry hint,
// falling back to replwire::kBusyRetryCycles); connections
// arriving inside the window are closed unaccepted instead of burning a
// hello/resume round trip on the same refusal.
//
// Read plane: when the environment names a "read_tcp_port", the follower
// opens a SECOND listener and serves labeled reads (kReadReq → kReadResp)
// through a ReadGate over its replica — lease freshness bounds staleness,
// the request's cursor token gates read-your-writes, and the record's
// secrecy label is checked against the reader's clearance with the kernel's
// own delivery check (bit-identical cycles to a primary-side read). Read
// connections are independent of the replication session: they survive a
// primary outage and keep answering — with refusals — until the lease
// actually expires, which is exactly the contract. A read connection whose
// unparsed bytes pass kMaxReadRequestBytes is closed: a header may announce
// a frame of up to 4 GiB, and the follower must not buffer that.
#ifndef SRC_REPLICATION_FOLLOWER_H_
#define SRC_REPLICATION_FOLLOWER_H_

#include <map>
#include <memory>
#include <string>

#include "src/kernel/kernel.h"
#include "src/replication/read_gate.h"
#include "src/replication/replica.h"

namespace asbestos {

class FollowerProcess : public ProcessCode {
 public:
  // Cap on a read connection's buffered, unparsed bytes. Like HTTP's
  // kMaxBodyBytes it is 1 MiB, far above the largest legitimate kReadReq (a
  // store key and a clearance label).
  static constexpr uint64_t kMaxReadRequestBytes = 1 << 20;

  // Opens the replica store immediately (panics if the directory is
  // corrupt, like every durable server here: a follower must not limp on
  // empty state it does not actually have).
  explicit FollowerProcess(StoreOptions store_opts, ReplicaOptions options = ReplicaOptions());

  // env: "netd_ctl" (required), "tcp_port" (required), "self_verify"
  // (optional, for worlds whose netd checks listener identity),
  // "read_tcp_port" (optional: opens the follower-read listener).
  void Start(ProcessContext& ctx) override;
  void HandleMessage(ProcessContext& ctx, const Message& msg) override;
  // Group commit of everything applied this pump (pipelined), then the
  // lease-expiry check (see the header comment).
  void OnIdle(ProcessContext& ctx) override;
  bool HasOnIdle() const override { return true; }

  // Stops following (closes the live session, drains, checkpoints). The
  // world driver invokes this via Kernel::WithProcessContext — promotion is
  // a trusted operator action, like boot-time label assignment.
  Status Promote(ProcessContext& ctx);

  ReplicaStore* replica() { return replica_.get(); }
  const ReplicaStore* replica() const { return replica_.get(); }
  uint64_t sessions_accepted() const { return sessions_accepted_; }
  // True once a lease this follower tracked expired unrefreshed.
  bool lease_expired() const { return lease_expired_; }
  // True when the lease protocol promoted this follower (vs operator call).
  bool auto_promoted() const { return auto_promoted_; }
  uint64_t busy_signals() const { return busy_signals_; }
  uint64_t backoff_until_cycles() const { return backoff_until_cycles_; }
  uint64_t read_sessions_accepted() const { return read_sessions_accepted_; }

 private:
  // One accepted read connection; keyed by the netd cookie we issue reads
  // with, so concurrent readers demux on the kReadR reply's cookie word.
  struct ReadConn {
    Handle uc;
    std::string rx;
  };

  void IssueRead(ProcessContext& ctx);
  void EndSession(ProcessContext& ctx, bool close_conn);
  void CheckLease(ProcessContext& ctx);
  void HandleReadPlane(ProcessContext& ctx, const Message& msg);
  void IssueReadConnRead(ProcessContext& ctx, uint64_t cookie);
  void CloseReadConn(ProcessContext& ctx, uint64_t cookie);
  void CloseAllReadConns(ProcessContext& ctx);

  std::unique_ptr<ReplicaStore> replica_;
  std::unique_ptr<ReadGate> read_gate_;
  Handle notify_port_;
  Handle conn_;     // live session's uC (invalid = none)
  std::string rx_;  // buffered stream bytes awaiting a whole frame
  Handle read_notify_port_;  // read-plane listener (invalid = plane off)
  std::map<uint64_t, ReadConn> read_conns_;
  uint64_t next_read_cookie_ = 1;
  uint64_t read_sessions_accepted_ = 0;
  uint64_t sessions_accepted_ = 0;
  uint64_t busy_signals_ = 0;
  uint64_t backoff_until_cycles_ = 0;
  bool lease_expired_ = false;
  bool auto_promoted_ = false;
};

}  // namespace asbestos

#endif  // SRC_REPLICATION_FOLLOWER_H_
