// ReplicationEndpoint: the primary-side shipping plane, owned by the
// DurableBacking of any durable service (file server, idd, ok-demux,
// ok-dbproxy).
//
// The endpoint attaches a netd listener on its own TCP port — replication
// rides the same user-level network server as every other byte leaving the
// machine (paper §7.7), as labeled kernel messages: LISTEN proves the
// owner's identity to netd via its verification label, connection grants
// arrive as kNotifyConn with uC ⋆, batches leave as kWrite messages, and
// follower acks come back through kRead replies.
//
// Shipping piggybacks on the group-commit pipeline: DurableBacking::OnIdle
// calls PumpShip right after SyncPipelined, so the batch whose flush was
// just handed to the device is the same batch handed to the wire — one
// pump iteration, one flush, one ship. OnIdle sends are
// self-limiting: a pump with no new appends polls zero frames and sends
// nothing, so the kernel's idle loop quiesces. (An idle session still gets
// a kHeartbeat once per heartbeat interval — but only when the virtual
// clock has actually advanced, so a world with no traffic at all still
// quiesces.)
//
// Fan-out: up to `max_followers` concurrent follower sessions, each with
// its own FollowerSession cursor set in the shared ReplicationHub (read
// replies demux by connection cookie). A connection beyond capacity is
// told so explicitly — one kBusy frame with a back-off hint — before the
// close, so the refused follower waits instead of hot-reconnecting. A
// dropped follower reconnects and resumes via the hello/ack handshake.
#ifndef SRC_REPLICATION_ENDPOINT_H_
#define SRC_REPLICATION_ENDPOINT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "src/kernel/kernel.h"
#include "src/replication/source.h"

namespace asbestos {

class ReplicationEndpoint {
 public:
  // The store must outlive the endpoint.
  ReplicationEndpoint(const DurableStore* store, ReplicationOptions options);

  // Attaches the netd listener. `self_verify` is the owner's verification
  // handle value (0 when the world runs netd without listener checks); the
  // source id is minted from a fresh kernel handle — per-boot unique, so a
  // follower can never mistake one boot's WAL history for another's.
  void Start(ProcessContext& ctx, Handle netd_ctl, uint64_t self_verify);

  // Consumes messages addressed to the endpoint's ports. Owners call this
  // first in HandleMessage; true means the message was replication-plane.
  bool HandleMessage(ProcessContext& ctx, const Message& msg);

  // Ships pending WAL spans/snapshots (and due heartbeats) to every
  // connected follower. Call from OnIdle after the store sync.
  void PumpShip(ProcessContext& ctx);

  bool follower_connected() const { return !conns_.empty(); }
  size_t follower_count() const { return conns_.size(); }
  uint64_t busy_refusals() const { return busy_refusals_; }
  const ReplicationHub* hub() const { return hub_.get(); }

 private:
  struct Conn {
    Handle uc;                 // the connection's capability port
    FollowerSession* session;  // owned by the hub
    std::string rx;            // buffered ack bytes awaiting a whole frame
  };

  void RefuseBusy(ProcessContext& ctx, Handle uc);
  void DropSession(ProcessContext& ctx, uint64_t uc_value, bool close_conn);
  void IssueRead(ProcessContext& ctx, const Conn& conn);

  const DurableStore* store_;
  ReplicationOptions options_;
  std::unique_ptr<ReplicationHub> hub_;
  Handle notify_port_;
  std::map<uint64_t, Conn> conns_;  // uC handle value → live follower session
  uint64_t busy_refusals_ = 0;
};

}  // namespace asbestos

#endif  // SRC_REPLICATION_ENDPOINT_H_
