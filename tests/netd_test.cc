// netd in isolation: the READ/WRITE/SELECT/CONTROL/ADD_TAINT protocol,
// port-per-connection labeling, peeking reads, and listener authentication.
#include <gtest/gtest.h>

#include "src/net/netd.h"
#include "src/net/simnet.h"
#include "tests/test_util.h"

namespace asbestos {
namespace {

using testing::RecorderProcess;
using testing::ScriptedProcess;

class NetdTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto code = std::make_unique<NetdProcess>(&net_);
    netd_ = code.get();
    SpawnArgs args;
    args.name = "netd";
    args.component = Component::kNetwork;
    netd_pid_ = kernel_.CreateProcess(std::move(code), args);

    SpawnArgs largs;
    largs.name = "listener";
    listener_ = kernel_.CreateProcess(std::make_unique<RecorderProcess>(&received_), largs);
    kernel_.WithProcessContext(listener_, [&](ProcessContext& ctx) {
      notify_port_ = ctx.NewPort(Label::Top());
      // Attach a listener, granting netd the notification capability.
      Message listen;
      listen.type = netd_proto::kListen;
      listen.words = {80};
      listen.reply_port = notify_port_;
      SendArgs args2;
      args2.decont_send = Label({{notify_port_, Level::kStar}}, Level::kL3);
      EXPECT_EQ(ctx.Send(netd_->control_port(), std::move(listen), args2), Status::kOk);
    });
    kernel_.RunUntilIdle();
    ASSERT_EQ(received_.size(), 1u);
    EXPECT_EQ(received_[0].msg.type, netd_proto::kListenR);
    received_.clear();
  }

  void Poll() {
    kernel_.WithProcessContext(netd_pid_, [&](ProcessContext& ctx) { netd_->PollNetwork(ctx); });
    kernel_.RunUntilIdle();
  }

  // Opens a client connection and returns the uC the listener was granted.
  Handle Connect(ConnId* conn_out = nullptr) {
    const ConnId conn = net_.ClientConnect(80);
    EXPECT_NE(conn, kNoConn);
    if (conn_out != nullptr) {
      *conn_out = conn;
    }
    Poll();
    EXPECT_FALSE(received_.empty());
    const Message& notify = received_.back().msg;
    EXPECT_EQ(notify.type, netd_proto::kNotifyConn);
    const Handle uc = Handle::FromValue(notify.words[0]);
    received_.clear();
    return uc;
  }

  SimNet net_;
  Kernel kernel_{0x7e7dULL};
  NetdProcess* netd_ = nullptr;
  ProcessId netd_pid_ = kNoProcess;
  ProcessId listener_ = kNoProcess;
  Handle notify_port_;
  std::vector<RecorderProcess::Received> received_;
};

TEST_F(NetdTest, ConnectionNotifyGrantsCapability) {
  const Handle uc = Connect();
  EXPECT_TRUE(kernel_.PortAlive(uc));
  // The listener received uC at ⋆ via D_S.
  EXPECT_EQ(kernel_.SendLabelOf(listener_).Get(uc), Level::kStar);
}

TEST_F(NetdTest, StrangerCannotUseConnectionPort) {
  const Handle uc = Connect();
  SpawnArgs args;
  args.name = "stranger";
  const ProcessId stranger = kernel_.CreateProcess(std::make_unique<ScriptedProcess>(), args);
  const uint64_t drops = kernel_.stats().drops_label_check;
  kernel_.WithProcessContext(stranger, [&](ProcessContext& ctx) {
    Message w;
    w.type = netd_proto::kWrite;
    w.words = {1};
    w.data = "injected";
    EXPECT_EQ(ctx.Send(uc, std::move(w)), Status::kOk);
  });
  kernel_.RunUntilIdle();
  EXPECT_EQ(kernel_.stats().drops_label_check, drops + 1)
      << "uC is {uC 0, 2}: only ⋆-holders may send";
}

TEST_F(NetdTest, ReadDeliversClientBytes) {
  ConnId conn;
  const Handle uc = Connect(&conn);
  net_.ClientSend(conn, "GET / HTTP/1.0\r\n\r\n");
  Poll();
  kernel_.WithProcessContext(listener_, [&](ProcessContext& ctx) {
    Message r;
    r.type = netd_proto::kRead;
    r.words = {7, 0, 0, 0};
    r.reply_port = notify_port_;
    EXPECT_EQ(ctx.Send(uc, std::move(r)), Status::kOk);
  });
  kernel_.RunUntilIdle();
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_EQ(received_[0].msg.type, netd_proto::kReadR);
  EXPECT_EQ(received_[0].msg.words[0], 7u) << "cookie echoed";
  EXPECT_EQ(received_[0].msg.data, "GET / HTTP/1.0\r\n\r\n");
}

TEST_F(NetdTest, ReadBlocksUntilDataArrives) {
  ConnId conn;
  const Handle uc = Connect(&conn);
  kernel_.WithProcessContext(listener_, [&](ProcessContext& ctx) {
    Message r;
    r.type = netd_proto::kRead;
    r.words = {1, 0, 0, 0};
    r.reply_port = notify_port_;
    EXPECT_EQ(ctx.Send(uc, std::move(r)), Status::kOk);
  });
  kernel_.RunUntilIdle();
  EXPECT_TRUE(received_.empty()) << "no data yet: the read is pending";
  net_.ClientSend(conn, "late bytes");
  Poll();
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_EQ(received_[0].msg.data, "late bytes");
}

TEST_F(NetdTest, PeekDoesNotConsume) {
  ConnId conn;
  const Handle uc = Connect(&conn);
  net_.ClientSend(conn, "abcdef");
  Poll();
  // Peek at offset 0, then peek at offset 4, then a consuming read.
  auto read = [&](uint64_t cookie, uint64_t peek, uint64_t offset) {
    kernel_.WithProcessContext(listener_, [&](ProcessContext& ctx) {
      Message r;
      r.type = netd_proto::kRead;
      r.words = {cookie, 0, peek, offset};
      r.reply_port = notify_port_;
      EXPECT_EQ(ctx.Send(uc, std::move(r)), Status::kOk);
    });
    kernel_.RunUntilIdle();
  };
  read(1, 1, 0);
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_EQ(received_[0].msg.data, "abcdef");
  received_.clear();
  read(2, 1, 4);
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_EQ(received_[0].msg.data, "ef") << "peek offset skips already-seen bytes";
  received_.clear();
  read(3, 0, 0);  // consuming
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_EQ(received_[0].msg.data, "abcdef") << "peeks left the stream intact";
}

TEST_F(NetdTest, EofSignaledAfterClientClose) {
  ConnId conn;
  const Handle uc = Connect(&conn);
  net_.ClientClose(conn);
  Poll();
  kernel_.WithProcessContext(listener_, [&](ProcessContext& ctx) {
    Message r;
    r.type = netd_proto::kRead;
    r.words = {1, 0, 0, 0};
    r.reply_port = notify_port_;
    EXPECT_EQ(ctx.Send(uc, std::move(r)), Status::kOk);
  });
  kernel_.RunUntilIdle();
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_EQ(received_[0].msg.words[1], 1u) << "eof flag set";
  EXPECT_TRUE(received_[0].msg.data.empty());
}

TEST_F(NetdTest, WriteReachesClientAndSelectReportsSpace) {
  ConnId conn;
  const Handle uc = Connect(&conn);
  kernel_.WithProcessContext(listener_, [&](ProcessContext& ctx) {
    Message w;
    w.type = netd_proto::kWrite;
    w.words = {1};
    w.data = "hello client";
    ctx.Send(uc, std::move(w));
    Message s;
    s.type = netd_proto::kSelect;
    s.words = {2};
    s.reply_port = notify_port_;
    ctx.Send(uc, std::move(s));
  });
  kernel_.RunUntilIdle();
  EXPECT_EQ(net_.ClientTakeReceived(conn), "hello client");
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_EQ(received_[0].msg.type, netd_proto::kSelectR);
  EXPECT_GT(received_[0].msg.words[1], 0u);
}

TEST_F(NetdTest, AddTaintChangesPortLabelAndRepliesCarryTaint) {
  ConnId conn;
  const Handle uc = Connect(&conn);
  Handle taint;
  kernel_.WithProcessContext(listener_, [&](ProcessContext& ctx) {
    taint = ctx.NewHandle();
    // Accept the taint ourselves so the tainted replies can reach us.
    EXPECT_EQ(ctx.SetReceiveLevel(taint, Level::kL3), Status::kOk);
    Message m;
    m.type = netd_proto::kAddTaint;
    m.words = {1, taint.value()};
    m.reply_port = notify_port_;
    SendArgs args;
    args.decont_send = Label({{taint, Level::kStar}}, Level::kL3);  // grant netd ⋆
    EXPECT_EQ(ctx.Send(uc, std::move(m), args), Status::kOk);
  });
  kernel_.RunUntilIdle();
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_EQ(received_[0].msg.type, netd_proto::kAddTaintR);
  received_.clear();

  // netd now holds the taint at ⋆ and raised its receive label to 3.
  EXPECT_EQ(kernel_.SendLabelOf(kernel_.FindProcessByName("netd")->id).Get(taint),
            Level::kStar);
  EXPECT_EQ(kernel_.RecvLabelOf(kernel_.FindProcessByName("netd")->id).Get(taint),
            Level::kL3);

  // Replies on the connection are contaminated with the taint.
  net_.ClientSend(conn, "payload");
  Poll();
  kernel_.WithProcessContext(listener_, [&](ProcessContext& ctx) {
    Message r;
    r.type = netd_proto::kRead;
    r.words = {2, 0, 0, 0};
    r.reply_port = notify_port_;
    EXPECT_EQ(ctx.Send(uc, std::move(r)), Status::kOk);
  });
  kernel_.RunUntilIdle();
  ASSERT_EQ(received_.size(), 1u);
  // The listener minted the taint, so it holds ⋆ and the contaminated reply
  // cannot stick to it (§5.3) — exactly why ok-demux can shepherd every
  // user's connection without accumulating taint. Its verify view of the
  // message still shows the data arrived.
  EXPECT_EQ(received_[0].send_label_after.Get(taint), Level::kStar);
  EXPECT_EQ(received_[0].msg.data, "payload");

  // A separate cleared-but-unprivileged observer *does* get contaminated by
  // the same kind of reply.
  std::vector<RecorderProcess::Received> observed;
  SpawnArgs oargs;
  oargs.name = "observer";
  oargs.recv_label = Label({{taint, Level::kL3}}, Level::kL2);
  const ProcessId observer =
      kernel_.CreateProcess(std::make_unique<RecorderProcess>(&observed), oargs);
  Handle observer_port;
  kernel_.WithProcessContext(observer, [&](ProcessContext& ctx) {
    observer_port = ctx.NewPort(Label::Top());
    EXPECT_EQ(ctx.SetPortLabel(observer_port, Label::Top()), Status::kOk);
  });
  net_.ClientSend(conn, "more");
  Poll();
  kernel_.WithProcessContext(listener_, [&](ProcessContext& ctx) {
    Message r;
    r.type = netd_proto::kRead;
    r.words = {3, 0, 0, 0};
    r.reply_port = observer_port;  // reply goes to the observer instead
    EXPECT_EQ(ctx.Send(uc, std::move(r)), Status::kOk);
  });
  kernel_.RunUntilIdle();
  ASSERT_EQ(observed.size(), 1u);
  EXPECT_EQ(observed[0].send_label_after.Get(taint), Level::kL3)
      << "a non-⋆ reader of tainted connection data is contaminated";
}

TEST_F(NetdTest, AddTaintWithoutGrantRefused) {
  ConnId conn;
  const Handle uc = Connect(&conn);
  Handle taint;
  kernel_.WithProcessContext(listener_, [&](ProcessContext& ctx) {
    taint = ctx.NewHandle();
    Message m;
    m.type = netd_proto::kAddTaint;
    m.words = {1, taint.value()};
    m.reply_port = notify_port_;
    // No D_S: netd never gets ⋆ and must refuse the taint.
    EXPECT_EQ(ctx.Send(uc, std::move(m)), Status::kOk);
  });
  kernel_.RunUntilIdle();
  EXPECT_TRUE(received_.empty()) << "no AddTaintR: the raise failed inside netd";
  EXPECT_EQ(kernel_.RecvLabelOf(netd_pid_).Get(taint), kDefaultReceiveLevel);
}

TEST_F(NetdTest, CloseTearsDownPortAndReleasesCapability) {
  ConnId conn;
  const Handle uc = Connect(&conn);
  kernel_.WithProcessContext(listener_, [&](ProcessContext& ctx) {
    Message c;
    c.type = netd_proto::kControl;
    c.words = {1, netd_proto::kControlOpClose};
    EXPECT_EQ(ctx.Send(uc, std::move(c)), Status::kOk);
  });
  kernel_.RunUntilIdle();
  EXPECT_FALSE(kernel_.PortAlive(uc));
  EXPECT_EQ(kernel_.SendLabelOf(netd_pid_).Get(uc), kDefaultSendLevel)
      << "netd released its per-connection ⋆ (paper §9.3)";
  EXPECT_TRUE(net_.ClientSeesClosed(conn));
}

// §9.3 for the last reader's reply port: netd holds its ⋆ only while a
// connection still replies through it.
class NetdReplyCapTest : public NetdTest {
 protected:
  // A fresh port of the listener's, not yet granted to netd.
  Handle NewReplyPort() {
    Handle port;
    kernel_.WithProcessContext(listener_, [&](ProcessContext& ctx) {
      port = ctx.NewPort(Label::Top());
    });
    return port;
  }

  // A consuming read on uc whose reply goes to `reply`, granting netd
  // reply ⋆ as a worker does with its uW.
  void ReadVia(Handle uc, Handle reply) {
    kernel_.WithProcessContext(listener_, [&](ProcessContext& ctx) {
      Message r;
      r.type = netd_proto::kRead;
      r.words = {1, 0, 0, 0};
      r.reply_port = reply;
      SendArgs args;
      args.decont_send = Label({{reply, Level::kStar}}, Level::kL3);
      EXPECT_EQ(ctx.Send(uc, std::move(r), args), Status::kOk);
    });
    kernel_.RunUntilIdle();
  }

  void Close(Handle uc) {
    kernel_.WithProcessContext(listener_, [&](ProcessContext& ctx) {
      Message c;
      c.type = netd_proto::kControl;
      c.words = {1, netd_proto::kControlOpClose};
      EXPECT_EQ(ctx.Send(uc, std::move(c)), Status::kOk);
    });
    kernel_.RunUntilIdle();
    received_.clear();
  }

  Level NetdSendLevel(Handle h) { return kernel_.SendLabelOf(netd_pid_).Get(h); }
};

TEST_F(NetdReplyCapTest, FreshReplyPortIsShedAtClose) {
  ConnId conn;
  const Handle uc = Connect(&conn);
  const Handle uw = NewReplyPort();
  net_.ClientSend(conn, "GET / HTTP/1.0\r\n\r\n");
  Poll();
  ReadVia(uc, uw);
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_EQ(received_[0].msg.type, netd_proto::kReadR);
  EXPECT_EQ(NetdSendLevel(uw), Level::kStar) << "the read granted uW ⋆";
  Close(uc);
  EXPECT_EQ(NetdSendLevel(uw), kDefaultSendLevel)
      << "netd released the reply capability with the connection (paper §9.3)";
}

TEST_F(NetdReplyCapTest, SharedReplyPortKeptUntilLastConnectionCloses) {
  const Handle uc1 = Connect();
  const Handle uc2 = Connect();
  const Handle uw = NewReplyPort();
  ReadVia(uc1, uw);
  ReadVia(uc2, uw);
  Close(uc1);
  EXPECT_EQ(NetdSendLevel(uw), Level::kStar) << "uc2 still replies through uW";
  Close(uc2);
  EXPECT_EQ(NetdSendLevel(uw), kDefaultSendLevel);
}

TEST_F(NetdReplyCapTest, ListenerNotifyPortSurvivesAPeekingReaderClose) {
  // ok-demux's shape: it peeks with its notify port as the reply port, and a
  // connection it rejects closes with that port as the last reader.
  ConnId conn;
  const Handle uc = Connect(&conn);
  net_.ClientSend(conn, "GET /missing HTTP/1.0\r\n\r\n");
  Poll();
  kernel_.WithProcessContext(listener_, [&](ProcessContext& ctx) {
    Message r;
    r.type = netd_proto::kRead;
    r.words = {1, 0, 1 /*peek*/, 0};
    r.reply_port = notify_port_;
    EXPECT_EQ(ctx.Send(uc, std::move(r)), Status::kOk);
  });
  kernel_.RunUntilIdle();
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_EQ(received_[0].msg.type, netd_proto::kReadR);
  Close(uc);
  EXPECT_EQ(NetdSendLevel(notify_port_), Level::kStar)
      << "netd must keep the capability it announces connections with";
  EXPECT_NE(net_.ClientConnect(80), kNoConn);
  Poll();
  ASSERT_EQ(received_.size(), 1u) << "the next connection is still announced";
  EXPECT_EQ(received_[0].msg.type, netd_proto::kNotifyConn);
}

TEST_F(NetdTest, UnauthorizedListenerIgnored) {
  // Spawn a netd that only trusts a specific verification handle.
  SimNet net2;
  auto code = std::make_unique<NetdProcess>(&net2);
  NetdProcess* netd2 = code.get();
  SpawnArgs args;
  args.name = "netd2";
  args.env = {{"demux_verify", 0x1234567}};
  kernel_.CreateProcess(std::move(code), args);

  SpawnArgs iargs;
  iargs.name = "imposter";
  const ProcessId imposter = kernel_.CreateProcess(std::make_unique<ScriptedProcess>(), iargs);
  kernel_.WithProcessContext(imposter, [&](ProcessContext& ctx) {
    Message listen;
    listen.type = netd_proto::kListen;
    listen.words = {80};
    listen.reply_port = ctx.NewPort(Label::Top());
    EXPECT_EQ(ctx.Send(netd2->control_port(), std::move(listen)), Status::kOk);
  });
  kernel_.RunUntilIdle();
  EXPECT_FALSE(net2.IsListening(80)) << "LISTEN without the demux credential is ignored";
}

}  // namespace
}  // namespace asbestos
