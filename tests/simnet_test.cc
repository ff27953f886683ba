#include "src/net/simnet.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>

namespace asbestos {
namespace {

TEST(SimNetTest, ConnectRequiresListener) {
  SimNet net;
  EXPECT_EQ(net.ClientConnect(80), kNoConn) << "RST when nothing listens";
  net.ServerListen(80);
  EXPECT_NE(net.ClientConnect(80), kNoConn);
}

TEST(SimNetTest, ConnectEventDelivered) {
  SimNet net;
  net.ServerListen(80);
  const ConnId c = net.ClientConnect(80);
  auto events = net.DrainServerEvents();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, SimNet::ServerEvent::Kind::kConnectRequest);
  EXPECT_EQ(events[0].conn, c);
  EXPECT_EQ(events[0].listen_port, 80);
  EXPECT_TRUE(net.DrainServerEvents().empty()) << "drain consumes events";
}

TEST(SimNetTest, EarlyClientBytesArriveAfterAccept) {
  SimNet net;
  net.ServerListen(80);
  const ConnId c = net.ClientConnect(80);
  net.ClientSend(c, "hello");  // sent before the server accepts
  net.DrainServerEvents();
  net.ServerAccept(c);
  auto events = net.DrainServerEvents();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, SimNet::ServerEvent::Kind::kData);
  EXPECT_EQ(events[0].bytes, "hello");
}

TEST(SimNetTest, BidirectionalData) {
  SimNet net;
  net.ServerListen(80);
  const ConnId c = net.ClientConnect(80);
  net.DrainServerEvents();
  net.ServerAccept(c);
  net.ClientSend(c, "ping");
  auto events = net.DrainServerEvents();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].bytes, "ping");
  net.ServerSend(c, "pong");
  EXPECT_EQ(net.ClientTakeReceived(c), "pong");
  EXPECT_EQ(net.ClientTakeReceived(c), "") << "take drains";
}

// A send takes its bytes by value and a drain moves its events out: a
// buffer moved in reaches the server as the same allocation, bytes intact,
// and a string sent by copy is left as it was.
TEST(SimNetTest, MovedEventsAndOwnedSendsKeepTheirBytes) {
  SimNet net;
  net.ServerListen(80);
  const ConnId c = net.ClientConnect(80);
  net.DrainServerEvents();
  net.ServerAccept(c);
  std::string burst(64 * 1024, '\0');
  for (size_t i = 0; i < burst.size(); ++i) {
    burst[i] = static_cast<char>('a' + i % 26);
  }
  const std::string want = burst;
  const char* storage = burst.data();
  net.ClientSend(c, std::move(burst));
  const std::string kept = "sent by copy";
  net.ClientSend(c, kept);
  auto events = net.DrainServerEvents();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].bytes, want);
  EXPECT_EQ(events[0].bytes.data(), storage) << "moved through, not copied";
  EXPECT_EQ(events[1].bytes, "sent by copy");
  EXPECT_EQ(kept, "sent by copy");
  EXPECT_TRUE(net.DrainServerEvents().empty());
  EXPECT_EQ(events[0].bytes, want) << "drained events own their bytes";
}

TEST(SimNetTest, ServerCloseVisibleAfterDataDrained) {
  SimNet net;
  net.ServerListen(80);
  const ConnId c = net.ClientConnect(80);
  net.DrainServerEvents();
  net.ServerAccept(c);
  net.ServerSend(c, "bye");
  net.ServerClose(c);
  EXPECT_FALSE(net.ClientSeesClosed(c)) << "data still pending";
  EXPECT_EQ(net.ClientTakeReceived(c), "bye");
  EXPECT_TRUE(net.ClientSeesClosed(c));
}

TEST(SimNetTest, ClientCloseEventReachesServer) {
  SimNet net;
  net.ServerListen(80);
  const ConnId c = net.ClientConnect(80);
  net.DrainServerEvents();
  net.ServerAccept(c);
  net.ClientClose(c);
  auto events = net.DrainServerEvents();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, SimNet::ServerEvent::Kind::kClientClosed);
}

TEST(SimNetTest, SegmentAccounting) {
  EXPECT_EQ(SegmentsForBytes(0), 1u);
  EXPECT_EQ(SegmentsForBytes(1), 1u);
  EXPECT_EQ(SegmentsForBytes(kTcpMss), 1u);
  EXPECT_EQ(SegmentsForBytes(kTcpMss + 1), 2u);
  EXPECT_EQ(SegmentsForBytes(10 * kTcpMss), 10u);
}

TEST(SimNetTest, ManyConnectionsIndependent) {
  SimNet net;
  net.ServerListen(80);
  const ConnId a = net.ClientConnect(80);
  const ConnId b = net.ClientConnect(80);
  net.DrainServerEvents();
  net.ServerAccept(a);
  net.ServerAccept(b);
  net.ServerSend(a, "for-a");
  net.ServerSend(b, "for-b");
  EXPECT_EQ(net.ClientTakeReceived(a), "for-a");
  EXPECT_EQ(net.ClientTakeReceived(b), "for-b");
}

}  // namespace
}  // namespace asbestos
