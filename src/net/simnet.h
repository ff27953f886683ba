// SimNet: the simulated wire between remote HTTP clients and the Asbestos
// machine.
//
// The paper's testbed is a gigabit LAN with a Linux load generator; netd (the
// user-level TCP/IP stack, an LWIP port) terminates TCP on the Asbestos side.
// SimNet stands in for the LAN + remote host: it models TCP connections as
// paired byte streams with a handshake, MSS-sized segmentation (for cost
// accounting), and FIN/close signaling. The client side is driven directly by
// load generators; the server side is drained by netd, which charges
// per-segment and per-byte cycles for everything passing through it.
#ifndef SRC_NET_SIMNET_H_
#define SRC_NET_SIMNET_H_

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace asbestos {

using ConnId = uint64_t;
constexpr ConnId kNoConn = 0;

// Ethernet MTU minus headers; used for segment-count cost accounting.
constexpr uint64_t kTcpMss = 1460;

inline uint64_t SegmentsForBytes(uint64_t bytes) {
  return bytes == 0 ? 1 : (bytes + kTcpMss - 1) / kTcpMss;
}

class SimNet {
 public:
  SimNet() = default;
  SimNet(const SimNet&) = delete;
  SimNet& operator=(const SimNet&) = delete;

  // --- Client (remote load generator) side -------------------------------------
  // Initiates a connection to a listening port; returns kNoConn if nothing
  // listens there (RST). Bytes may be sent immediately; they are delivered
  // to the server after it accepts.
  ConnId ClientConnect(uint16_t dst_port);
  // Takes the bytes by value: a sender that moves its buffer in hands it to
  // netd's data event as is, so a large replication burst is never copied
  // on the wire.
  void ClientSend(ConnId conn, std::string bytes);
  // Drains bytes the server has sent.
  std::string ClientTakeReceived(ConnId conn);
  bool ClientSeesClosed(ConnId conn) const;  // FIN from server (after data drained)
  void ClientClose(ConnId conn);

  // --- Server (netd) side ------------------------------------------------------
  struct ServerEvent {
    enum class Kind { kConnectRequest, kData, kClientClosed };
    Kind kind;
    ConnId conn = kNoConn;
    uint16_t listen_port = 0;
    std::string bytes;  // kData only
  };

  void ServerListen(uint16_t port);
  bool IsListening(uint16_t port) const;
  // Pending events since the last drain (the NIC interrupt queue), moved
  // out with their bytes.
  std::vector<ServerEvent> DrainServerEvents();
  void ServerAccept(ConnId conn);
  void ServerSend(ConnId conn, std::string_view bytes);
  void ServerClose(ConnId conn);

  uint64_t total_connections() const { return next_conn_ - 1; }

 private:
  enum class ConnState { kSynSent, kEstablished, kClientClosed, kServerClosed, kClosed };

  struct Connection {
    ConnState state = ConnState::kSynSent;
    uint16_t listen_port = 0;
    std::string client_to_server;  // bytes awaiting accept (pre-establish)
    std::string server_to_client;  // bytes awaiting the client
    bool connect_event_emitted = false;
  };

  Connection* Find(ConnId conn);
  const Connection* Find(ConnId conn) const;

  std::map<ConnId, Connection> conns_;
  std::map<uint16_t, bool> listening_;
  std::deque<ServerEvent> events_;
  ConnId next_conn_ = 1;
};

}  // namespace asbestos

#endif  // SRC_NET_SIMNET_H_
