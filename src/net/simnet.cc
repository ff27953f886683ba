#include "src/net/simnet.h"

#include <iterator>
#include <utility>

#include "src/base/panic.h"

namespace asbestos {

SimNet::Connection* SimNet::Find(ConnId conn) {
  auto it = conns_.find(conn);
  return it == conns_.end() ? nullptr : &it->second;
}

const SimNet::Connection* SimNet::Find(ConnId conn) const {
  auto it = conns_.find(conn);
  return it == conns_.end() ? nullptr : &it->second;
}

void SimNet::ServerListen(uint16_t port) { listening_[port] = true; }

bool SimNet::IsListening(uint16_t port) const {
  auto it = listening_.find(port);
  return it != listening_.end() && it->second;
}

ConnId SimNet::ClientConnect(uint16_t dst_port) {
  if (!IsListening(dst_port)) {
    return kNoConn;  // RST: nothing listening
  }
  const ConnId id = next_conn_++;
  Connection c;
  c.listen_port = dst_port;
  conns_.emplace(id, std::move(c));
  ServerEvent ev;
  ev.kind = ServerEvent::Kind::kConnectRequest;
  ev.conn = id;
  ev.listen_port = dst_port;
  events_.push_back(std::move(ev));
  return id;
}

void SimNet::ClientSend(ConnId conn, std::string bytes) {
  Connection* c = Find(conn);
  if (c == nullptr || c->state == ConnState::kClosed || c->state == ConnState::kClientClosed) {
    return;
  }
  if (c->state == ConnState::kSynSent) {
    // Buffer until the server accepts (as the client's kernel would).
    c->client_to_server.append(bytes);
    return;
  }
  ServerEvent ev;
  ev.kind = ServerEvent::Kind::kData;
  ev.conn = conn;
  ev.listen_port = c->listen_port;
  ev.bytes = std::move(bytes);
  events_.push_back(std::move(ev));
}

std::string SimNet::ClientTakeReceived(ConnId conn) {
  Connection* c = Find(conn);
  if (c == nullptr) {
    return "";
  }
  std::string out = std::move(c->server_to_client);
  c->server_to_client.clear();
  return out;
}

bool SimNet::ClientSeesClosed(ConnId conn) const {
  const Connection* c = Find(conn);
  if (c == nullptr) {
    return true;
  }
  return (c->state == ConnState::kServerClosed || c->state == ConnState::kClosed) &&
         c->server_to_client.empty();
}

void SimNet::ClientClose(ConnId conn) {
  Connection* c = Find(conn);
  if (c == nullptr) {
    return;
  }
  if (c->state == ConnState::kServerClosed || c->state == ConnState::kClosed) {
    conns_.erase(conn);  // both sides done
    return;
  }
  c->state = ConnState::kClientClosed;
  ServerEvent ev;
  ev.kind = ServerEvent::Kind::kClientClosed;
  ev.conn = conn;
  events_.push_back(std::move(ev));
}

std::vector<SimNet::ServerEvent> SimNet::DrainServerEvents() {
  std::vector<ServerEvent> out(std::make_move_iterator(events_.begin()),
                               std::make_move_iterator(events_.end()));
  events_.clear();
  return out;
}

void SimNet::ServerAccept(ConnId conn) {
  Connection* c = Find(conn);
  if (c == nullptr || c->state != ConnState::kSynSent) {
    return;
  }
  c->state = ConnState::kEstablished;
  if (!c->client_to_server.empty()) {
    ServerEvent ev;
    ev.kind = ServerEvent::Kind::kData;
    ev.conn = conn;
    ev.listen_port = c->listen_port;
    ev.bytes = std::move(c->client_to_server);
    c->client_to_server.clear();
    events_.push_back(std::move(ev));
  }
}

void SimNet::ServerSend(ConnId conn, std::string_view bytes) {
  Connection* c = Find(conn);
  if (c == nullptr || c->state == ConnState::kServerClosed || c->state == ConnState::kClosed) {
    return;
  }
  c->server_to_client.append(bytes);
}

void SimNet::ServerClose(ConnId conn) {
  Connection* c = Find(conn);
  if (c == nullptr) {
    return;
  }
  if (c->state == ConnState::kClientClosed) {
    c->state = ConnState::kClosed;
    if (c->server_to_client.empty()) {
      conns_.erase(conn);
    }
  } else {
    c->state = ConnState::kServerClosed;
  }
}

}  // namespace asbestos
