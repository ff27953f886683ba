// netd: the user-level network server (paper §7.7).
//
// All network access goes through this one process. It terminates TCP (our
// SimNet substrate stands in for the LWIP port), wraps each connection in an
// Asbestos port uC, and applies label policy to network data:
//
//  * A new connection's port is created with label {uC 0, 2}: nobody can
//    send to it until netd grants uC ⋆ to the listener (the capability
//    idiom of §5.5).
//  * ADD_TAINT associates a taint handle with a connection. The requesting
//    process must grant netd ⋆ for the handle (D_S on the very same
//    message); netd then raises its own receive label to accept that taint,
//    raises the connection port's label to {uC 0, uT 3, 2}, and from then on
//    contaminates every reply on that connection with uT 3. Tainted data can
//    thus escape to the network only via its own user's connection.
//
// READ supports peeking (ok-demux inspects the request head without
// consuming it, then hands the connection to a worker that reads it in
// full), mirroring OKWS's buffered connection handoff.
#ifndef SRC_NET_NETD_H_
#define SRC_NET_NETD_H_

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "src/kernel/kernel.h"
#include "src/net/simnet.h"

namespace asbestos {

namespace netd_proto {
enum MessageType : uint64_t {
  kListen = 1,     // → control port; words: [tcp_port]; reply_port: conn-notify port
  kListenR = 2,    // words: [status]
  kNotifyConn = 3,  // → listener; words: [uC value]; D_S grants uC ⋆
  kRead = 4,       // → uC; words: [cookie, max_bytes, peek, peek_offset]
  kReadR = 5,      // words: [cookie, eof]; data: bytes; C_S: connection taint
  kWrite = 6,      // → uC; words: [cookie]; data: bytes to the client
  kWriteR = 7,     // words: [cookie, bytes_accepted]
  kControl = 8,    // → uC; words: [cookie, op]; op 1 = close
  kControlR = 9,   // words: [cookie, status]
  kSelect = 10,    // → uC; words: [cookie]
  kSelectR = 11,   // words: [cookie, send_buffer_space]
  kAddTaint = 12,  // → uC; words: [cookie, taint handle]; D_S must grant netd ⋆
  kAddTaintR = 13,  // words: [cookie, status]
};
constexpr uint64_t kControlOpClose = 1;
}  // namespace netd_proto

class NetdProcess : public ProcessCode {
 public:
  explicit NetdProcess(SimNet* net) : net_(net) {}

  void Start(ProcessContext& ctx) override;
  void HandleMessage(ProcessContext& ctx, const Message& msg) override;

  // The simulated NIC interrupt: the world driver invokes this through
  // Kernel::WithProcessContext to ingest wire events.
  void PollNetwork(ProcessContext& ctx);

  Handle control_port() const { return control_port_; }
  uint64_t connections_accepted() const { return connections_accepted_; }

 private:
  struct PendingRead {
    Handle reply_port;
    uint64_t cookie = 0;
    uint64_t max_bytes = 0;
    bool peek = false;
    uint64_t peek_offset = 0;
  };

  struct Conn {
    ConnId net_conn = kNoConn;
    Handle port;   // uC
    Handle taint;  // invalid until ADD_TAINT
    Handle reply_cap;  // last kRead reply port (uW); shed at close, see CloseConn
    std::string rx;
    bool client_closed = false;
    std::deque<PendingRead> pending_reads;
    // Flow-trace id minted at accept. Stored here (not only in the message
    // envelope) because reads are satisfied from PollNetwork, which runs
    // outside any delivery and so has no kernel trace to inherit.
    uint64_t trace_id = 0;
  };

  struct Listener {
    uint16_t tcp_port = 0;
    Handle notify_port;
  };

  void HandleConnMessage(ProcessContext& ctx, Conn& conn, const Message& msg);
  void SatisfyReads(ProcessContext& ctx, Conn& conn);
  // Attempts one read; returns false if it must keep waiting for data.
  bool TryReadReply(ProcessContext& ctx, Conn& conn, const PendingRead& r);
  void CloseConn(ProcessContext& ctx, Conn& conn);
  // True when conn's reply_cap must keep its ⋆ past close: a listener's
  // notify port, or the reply port of another live connection.
  bool ReplyCapStillNeeded(const Conn& conn) const;
  SendArgs TaintedReply(const Conn& conn) const;
  // Bumps the read counter and emits a "netd.read" span for this conn.
  void EmitReadSpan(const Conn& conn, uint64_t bytes);
  // Contamination a message on this connection carries: {uT 3, ⋆} once
  // tainted, ⊥ before — the label stamped on this connection's span events.
  Label ConnSpanLabel(const Conn& conn) const;

  SimNet* net_;
  Handle control_port_;
  uint64_t expected_listener_verify_ = 0;  // env "demux_verify"; 0 disables the check
  // Additional authorized listeners named by the boot loader: env keys
  // "repl_verify1", "repl_verify2", ... — one per replication
  // endpoint besides demux's own (idd, ok-dbproxy, a standalone file server).
  std::vector<uint64_t> repl_listener_verifies_;
  std::map<uint16_t, Listener> listeners_;
  std::map<uint64_t, Conn> conns_;           // uC handle value → connection
  std::map<ConnId, uint64_t> port_by_conn_;  // SimNet id → uC handle value
  uint64_t connections_accepted_ = 0;
};

}  // namespace asbestos

#endif  // SRC_NET_NETD_H_
