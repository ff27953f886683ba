// The labeled file server: §5.2 privacy and §5.4 integrity, end to end
// through kernel label checks.
#include <gtest/gtest.h>

#include "src/fs/file_server.h"
#include "src/kernel/kernel.h"
#include "tests/test_util.h"

namespace asbestos {
namespace {

using testing::RecorderProcess;
using testing::ScriptedProcess;

class FsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto code = std::make_unique<FileServerProcess>();
    fs_code_ = code.get();
    SpawnArgs args;
    args.name = "fs";
    fs_pid_ = kernel_.CreateProcess(std::move(code), args);
    fs_port_ = fs_code_->service_port();
  }

  // A client process with one open reply port.
  std::pair<ProcessId, Handle> MakeClient(const std::string& name,
                                          const Label& send = Label::DefaultSend(),
                                          const Label& recv = Label::DefaultReceive()) {
    SpawnArgs args;
    args.name = name;
    args.send_label = send;
    args.recv_label = recv;
    const ProcessId pid =
        kernel_.CreateProcess(std::make_unique<RecorderProcess>(&received_), args);
    Handle port;
    kernel_.WithProcessContext(pid, [&](ProcessContext& ctx) {
      port = ctx.NewPort(Label::Top());
      EXPECT_EQ(ctx.SetPortLabel(port, Label::Top()), Status::kOk);
    });
    return {pid, port};
  }

  // Owner creates a private file "path" in a fresh compartment; returns the
  // (taint, grant) handles.
  std::pair<Handle, Handle> CreatePrivateFile(ProcessId owner, Handle owner_port,
                                              const std::string& path) {
    Handle taint;
    Handle grant;
    kernel_.WithProcessContext(owner, [&](ProcessContext& ctx) {
      taint = ctx.NewHandle();
      grant = ctx.NewHandle();
      Message m;
      m.type = fs_proto::kCreate;
      m.data = path;
      m.words = {1, taint.value(), LevelOrdinal(Level::kL3), grant.value(),
                 LevelOrdinal(Level::kL0)};
      m.reply_port = owner_port;
      SendArgs args;
      // Decentralized compartment setup: grant the server ⋆ for the secrecy
      // handle and raise its receive label so tainted writes reach it.
      args.decont_send = Label({{taint, Level::kStar}}, Level::kL3);
      args.decont_receive = Label({{taint, Level::kL3}}, Level::kStar);
      EXPECT_EQ(ctx.Send(fs_port_, std::move(m), args), Status::kOk);
    });
    kernel_.RunUntilIdle();
    EXPECT_FALSE(received_.empty());
    EXPECT_EQ(received_.back().msg.words[1], 0u) << "create should succeed";
    received_.clear();
    return {taint, grant};
  }

  uint64_t LastStatusWord() const { return received_.back().msg.words[1]; }

  Kernel kernel_{0xf00dULL};
  FileServerProcess* fs_code_ = nullptr;
  ProcessId fs_pid_ = kNoProcess;
  Handle fs_port_;
  std::vector<RecorderProcess::Received> received_;
};

TEST_F(FsTest, CreateWriteRead) {
  auto [alice, alice_port] = MakeClient("alice");
  auto [taint, grant] = CreatePrivateFile(alice, alice_port, "/home/alice/secret");

  // Alice holds the grant handle at ⋆, so V = {uG 0, 3} bounds her send
  // label and proves she speaks for the file's integrity compartment.
  kernel_.WithProcessContext(alice, [&](ProcessContext& ctx) {
    Message w;
    w.type = fs_proto::kWrite;
    w.data = "/home/alice/secret\nhello world";
    w.words = {2};
    w.reply_port = alice_port;
    SendArgs args;
    args.verify = Label({{grant, Level::kL0}}, Level::kL3);
    EXPECT_EQ(ctx.Send(fs_port_, std::move(w), args), Status::kOk);
  });
  kernel_.RunUntilIdle();
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_EQ(LastStatusWord(), 0u);
  received_.clear();

  // Reading taints the reader: alice's receive label must accept the taint.
  // She holds ⋆ for the compartment, so raising her own receive level is
  // permitted — and the contamination will not stick to her ⋆.
  kernel_.WithProcessContext(alice, [&](ProcessContext& ctx) {
    ASSERT_EQ(ctx.SetReceiveLevel(taint, Level::kL3), Status::kOk);
    Message r;
    r.type = fs_proto::kRead;
    r.data = "/home/alice/secret";
    r.words = {3};
    r.reply_port = alice_port;
    EXPECT_EQ(ctx.Send(fs_port_, std::move(r), SendArgs()), Status::kOk);
  });
  kernel_.RunUntilIdle();
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_EQ(received_[0].msg.data, "hello world");
  EXPECT_EQ(kernel_.SendLabelOf(alice).Get(taint), Level::kStar)
      << "owner's ⋆ survives reading her own file";
}

TEST_F(FsTest, ReaderWithoutClearanceGetsNothing) {
  auto [alice, alice_port] = MakeClient("alice");
  auto [taint, grant] = CreatePrivateFile(alice, alice_port, "/f");
  (void)taint;
  (void)grant;

  // Bob's default receive label {2} cannot accept the uT 3 contamination on
  // the read reply: the kernel drops it and bob learns nothing.
  auto [bob, bob_port] = MakeClient("bob");
  kernel_.WithProcessContext(bob, [&](ProcessContext& ctx) {
    Message r;
    r.type = fs_proto::kRead;
    r.data = "/f";
    r.words = {1};
    r.reply_port = bob_port;
    EXPECT_EQ(ctx.Send(fs_port_, std::move(r)), Status::kOk);
  });
  kernel_.RunUntilIdle();
  EXPECT_TRUE(received_.empty());
  EXPECT_GE(kernel_.stats().drops_label_check, 1u);
}

TEST_F(FsTest, ClearedReaderGetsTainted) {
  auto [alice, alice_port] = MakeClient("alice");
  auto [taint, grant] = CreatePrivateFile(alice, alice_port, "/f");
  (void)grant;
  kernel_.WithProcessContext(alice, [&](ProcessContext& ctx) {
    Message w;
    w.type = fs_proto::kWrite;
    w.data = "/f\npayload";
    w.words = {2};
    SendArgs args;
    args.verify = Label({{grant, Level::kL0}}, Level::kL3);
    EXPECT_EQ(ctx.Send(fs_port_, std::move(w), args), Status::kOk);
  });
  kernel_.RunUntilIdle();
  received_.clear();

  // Carol is cleared for the compartment (receive label raised by alice).
  auto [carol, carol_port] = MakeClient("carol");
  kernel_.WithProcessContext(alice, [&](ProcessContext& ctx) {
    Message hello;
    hello.type = 999;
    SendArgs args;
    args.decont_receive = Label({{taint, Level::kL3}}, Level::kStar);
    EXPECT_EQ(ctx.Send(carol_port, std::move(hello), args), Status::kOk);
  });
  kernel_.RunUntilIdle();
  received_.clear();

  kernel_.WithProcessContext(carol, [&](ProcessContext& ctx) {
    Message r;
    r.type = fs_proto::kRead;
    r.data = "/f";
    r.words = {1};
    r.reply_port = carol_port;
    EXPECT_EQ(ctx.Send(fs_port_, std::move(r)), Status::kOk);
  });
  kernel_.RunUntilIdle();
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_EQ(received_[0].msg.data, "payload");
  EXPECT_EQ(kernel_.SendLabelOf(carol).Get(taint), Level::kL3)
      << "reading contaminated carol with the file's compartment";
}

TEST_F(FsTest, WriteWithoutGrantRejected) {
  auto [alice, alice_port] = MakeClient("alice");
  CreatePrivateFile(alice, alice_port, "/f");

  auto [mallory, mallory_port] = MakeClient("mallory");
  kernel_.WithProcessContext(mallory, [&](ProcessContext& ctx) {
    Message w;
    w.type = fs_proto::kWrite;
    w.data = "/f\ncorrupted";
    w.words = {1};
    w.reply_port = mallory_port;
    // No V at all: the server cannot see a speaks-for credential.
    EXPECT_EQ(ctx.Send(fs_port_, std::move(w)), Status::kOk);
  });
  kernel_.RunUntilIdle();
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_EQ(LastStatusWord(), static_cast<uint64_t>(-static_cast<int>(Status::kAccessDenied)));
}

TEST_F(FsTest, ForgedVerifyLabelNeverArrives) {
  auto [alice, alice_port] = MakeClient("alice");
  auto [taint, grant] = CreatePrivateFile(alice, alice_port, "/f");
  (void)taint;

  // Mallory claims the grant in V without holding it: ES ⊑ V fails in the
  // kernel and the file server never even sees the message.
  auto [mallory, mallory_port] = MakeClient("mallory");
  kernel_.WithProcessContext(mallory, [&](ProcessContext& ctx) {
    Message w;
    w.type = fs_proto::kWrite;
    w.data = "/f\ncorrupted";
    w.words = {1};
    w.reply_port = mallory_port;
    SendArgs args;
    args.verify = Label({{grant, Level::kL0}}, Level::kL3);
    EXPECT_EQ(ctx.Send(fs_port_, std::move(w), args), Status::kOk);
  });
  kernel_.RunUntilIdle();
  EXPECT_TRUE(received_.empty());
  EXPECT_GE(kernel_.stats().drops_label_check, 1u);
}

TEST_F(FsTest, UnlinkRequiresIntegrity) {
  auto [alice, alice_port] = MakeClient("alice");
  auto [taint, grant] = CreatePrivateFile(alice, alice_port, "/f");
  (void)taint;

  auto [mallory, mallory_port] = MakeClient("mallory");
  kernel_.WithProcessContext(mallory, [&](ProcessContext& ctx) {
    Message u;
    u.type = fs_proto::kUnlink;
    u.data = "/f";
    u.words = {1};
    u.reply_port = mallory_port;
    EXPECT_EQ(ctx.Send(fs_port_, std::move(u)), Status::kOk);
  });
  kernel_.RunUntilIdle();
  EXPECT_EQ(fs_code_->file_count(), 1u);
  received_.clear();

  kernel_.WithProcessContext(alice, [&](ProcessContext& ctx) {
    Message u;
    u.type = fs_proto::kUnlink;
    u.data = "/f";
    u.words = {2};
    u.reply_port = alice_port;
    SendArgs args;
    args.verify = Label({{grant, Level::kL0}}, Level::kL3);
    EXPECT_EQ(ctx.Send(fs_port_, std::move(u), args), Status::kOk);
  });
  kernel_.RunUntilIdle();
  EXPECT_EQ(fs_code_->file_count(), 0u);
}

TEST_F(FsTest, CreateInUncontrolledCompartmentRejected) {
  // Creating a secret file requires granting the server ⋆ for the secrecy
  // compartment; without the grant the server refuses to serve the file.
  auto [mallory, mallory_port] = MakeClient("mallory");
  kernel_.WithProcessContext(mallory, [&](ProcessContext& ctx) {
    Message m;
    m.type = fs_proto::kCreate;
    m.data = "/evil";
    m.words = {1, 0x1234567, LevelOrdinal(Level::kL3), 0, 0};
    m.reply_port = mallory_port;
    EXPECT_EQ(ctx.Send(fs_port_, std::move(m)), Status::kOk);
  });
  kernel_.RunUntilIdle();
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_EQ(LastStatusWord(), static_cast<uint64_t>(-static_cast<int>(Status::kAccessDenied)));
  EXPECT_EQ(fs_code_->file_count(), 0u);
}

// --- Durable file server (src/store): the §5.2 server survives a reboot ----
//
// Boot 1 creates a private file (secrecy + integrity compartments) and a
// public file against a store-backed server. Boot 2 re-creates the server
// from its log, with the boot loader re-applying the privileges the CREATE
// messages originally granted (RecoverySpawnArgs) and retiring the
// recovered handles from the generator. Contents, the read-time
// contamination label, and the write-time integrity bound must all come
// back identical.
TEST(FsPersistenceTest, RestartRecoversFilesAndLabels) {
  testing::TempDir dir;
  FileServerOptions fopts;
  fopts.store_dir = dir.path() + "/fs";

  uint64_t taint_value = 0;
  uint64_t grant_value = 0;

  {  // --- boot 1: create and populate --------------------------------------
    Kernel kernel(0xf00dULL);
    auto code = std::make_unique<FileServerProcess>(fopts);
    SpawnArgs fargs;
    fargs.name = "fs";
    kernel.CreateProcess(std::move(code), fargs);
    const Handle fs_port =
        dynamic_cast<FileServerProcess*>(kernel.FindProcessByName("fs")->code.get())
            ->service_port();

    std::vector<RecorderProcess::Received> received;
    SpawnArgs aargs;
    aargs.name = "alice";
    const ProcessId alice =
        kernel.CreateProcess(std::make_unique<RecorderProcess>(&received), aargs);
    kernel.WithProcessContext(alice, [&](ProcessContext& ctx) {
      const Handle reply = ctx.NewPort(Label::Top());
      EXPECT_EQ(ctx.SetPortLabel(reply, Label::Top()), Status::kOk);
      const Handle taint = ctx.NewHandle();
      const Handle grant = ctx.NewHandle();
      taint_value = taint.value();
      grant_value = grant.value();

      Message c;
      c.type = fs_proto::kCreate;
      c.data = "/home/alice/secret";
      c.words = {1, taint.value(), LevelOrdinal(Level::kL3), grant.value(),
                 LevelOrdinal(Level::kL0)};
      c.reply_port = reply;
      SendArgs cargs;
      cargs.decont_send = Label({{taint, Level::kStar}}, Level::kL3);
      cargs.decont_receive = Label({{taint, Level::kL3}}, Level::kStar);
      EXPECT_EQ(ctx.Send(fs_port, std::move(c), cargs), Status::kOk);

      Message w;
      w.type = fs_proto::kWrite;
      w.data = "/home/alice/secret\ntop secret";
      w.words = {2};
      w.reply_port = reply;
      SendArgs wargs;
      wargs.verify = Label({{grant, Level::kL0}}, Level::kL3);
      EXPECT_EQ(ctx.Send(fs_port, std::move(w), wargs), Status::kOk);

      Message pub;
      pub.type = fs_proto::kCreate;
      pub.data = "/motd";
      pub.words = {3, 0, 0, 0, 0};
      pub.reply_port = reply;
      EXPECT_EQ(ctx.Send(fs_port, std::move(pub), SendArgs()), Status::kOk);

      Message pw;
      pw.type = fs_proto::kWrite;
      pw.data = "/motd\nwelcome";
      pw.words = {4};
      pw.reply_port = reply;
      EXPECT_EQ(ctx.Send(fs_port, std::move(pw), SendArgs()), Status::kOk);
    });
    kernel.RunUntilIdle();
    ASSERT_EQ(received.size(), 4u);
    for (const auto& r : received) {
      EXPECT_EQ(r.msg.words[1], 0u);
    }
    // Group commit ran at end-of-pump: the batch's appends spread across
    // the store's shards and OnIdle handed every dirty shard to the
    // pipelined flusher (durability itself completes in the background; the
    // boot-2 recovery below is the actual durability check, since the store
    // destructor drains the pipeline).
    const FileServerProcess* fs =
        dynamic_cast<FileServerProcess*>(kernel.FindProcessByName("fs")->code.get());
    EXPECT_EQ(fs->store()->shard_count(), 4u);
    EXPECT_EQ(fs->store()->dirty_shard_count(), 0u)
        << "RunUntilIdle must leave no shard outside the commit pipeline";
  }

  {  // --- boot 2: recover and exercise --------------------------------------
    Kernel kernel(0xf00dULL);
    auto code = std::make_unique<FileServerProcess>(fopts);
    FileServerProcess* fs = code.get();
    ASSERT_EQ(fs->file_count(), 2u);
    fs->ReserveRecoveredHandles(kernel);
    const SpawnArgs fargs = fs->RecoverySpawnArgs("fs");

    const Handle taint = Handle::FromValue(taint_value);
    const Handle grant = Handle::FromValue(grant_value);
    EXPECT_EQ(fargs.send_label.Get(taint), Level::kStar)
        << "recovered server must hold ⋆ for the file's compartment";
    EXPECT_EQ(fargs.recv_label.Get(taint), Level::kL3)
        << "recovered server must accept the compartment's taint";

    // The store preserved the exact labels (acceptance criterion).
    const StoreRecord* rec = fs->store()->Get("/home/alice/secret");
    ASSERT_NE(rec, nullptr);
    EXPECT_TRUE(rec->secrecy.Equals(Label({{taint, Level::kL3}}, Level::kStar)));
    EXPECT_TRUE(rec->integrity.Equals(Label({{grant, Level::kL0}}, Level::kL3)));

    kernel.CreateProcess(std::move(code), fargs);
    const Handle fs_port = fs->service_port();
    EXPECT_GT(kernel.MemReport().store_bytes, 0u)
        << "durable state must show up in Figure-6 accounting";

    // A fresh compartment this boot must not collide with recovered ones.
    std::vector<RecorderProcess::Received> received;
    SpawnArgs bargs;
    bargs.name = "bob";
    bargs.recv_label = Label({{taint, Level::kL3}}, kDefaultReceiveLevel);  // cleared reader
    const ProcessId bob =
        kernel.CreateProcess(std::make_unique<RecorderProcess>(&received), bargs);
    kernel.WithProcessContext(bob, [&](ProcessContext& ctx) {
      const Handle fresh = ctx.NewHandle();
      EXPECT_NE(fresh.value(), taint_value);
      EXPECT_NE(fresh.value(), grant_value);

      const Handle reply = ctx.NewPort(Label::Top());
      EXPECT_EQ(ctx.SetPortLabel(reply, Label::Top()), Status::kOk);
      Message r;
      r.type = fs_proto::kRead;
      r.data = "/home/alice/secret";
      r.words = {1};
      r.reply_port = reply;
      EXPECT_EQ(ctx.Send(fs_port, std::move(r)), Status::kOk);
    });
    kernel.RunUntilIdle();
    ASSERT_EQ(received.size(), 1u);
    EXPECT_EQ(received[0].msg.data, "top secret");
    EXPECT_EQ(received[0].send_label_after.Get(taint), Level::kL3)
        << "the recovered contamination label must taint readers exactly as before";
    received.clear();

    // Integrity survives: an unprivileged writer is still rejected…
    SpawnArgs margs;
    margs.name = "mallory";
    const ProcessId mallory =
        kernel.CreateProcess(std::make_unique<RecorderProcess>(&received), margs);
    kernel.WithProcessContext(mallory, [&](ProcessContext& ctx) {
      const Handle reply = ctx.NewPort(Label::Top());
      EXPECT_EQ(ctx.SetPortLabel(reply, Label::Top()), Status::kOk);
      Message w;
      w.type = fs_proto::kWrite;
      w.data = "/home/alice/secret\ncorrupted";
      w.words = {1};
      w.reply_port = reply;
      EXPECT_EQ(ctx.Send(fs_port, std::move(w)), Status::kOk);
    });
    kernel.RunUntilIdle();
    ASSERT_EQ(received.size(), 1u);
    EXPECT_EQ(received[0].msg.words[1],
              static_cast<uint64_t>(-static_cast<int>(Status::kAccessDenied)));
    received.clear();

    // …while the boot loader can re-equip alice (it re-applies her labels
    // verbatim, the same trust that re-equipped the server) and she writes.
    SpawnArgs a2args;
    a2args.name = "alice2";
    a2args.send_label = Label({{taint, Level::kStar}, {grant, Level::kStar}}, kDefaultSendLevel);
    a2args.recv_label = Label({{taint, Level::kL3}}, kDefaultReceiveLevel);
    const ProcessId alice2 =
        kernel.CreateProcess(std::make_unique<RecorderProcess>(&received), a2args);
    kernel.WithProcessContext(alice2, [&](ProcessContext& ctx) {
      const Handle reply = ctx.NewPort(Label::Top());
      EXPECT_EQ(ctx.SetPortLabel(reply, Label::Top()), Status::kOk);
      Message w;
      w.type = fs_proto::kWrite;
      w.data = "/home/alice/secret\nsecond boot";
      w.words = {1};
      w.reply_port = reply;
      SendArgs wargs;
      wargs.verify = Label({{grant, Level::kL0}}, Level::kL3);
      EXPECT_EQ(ctx.Send(fs_port, std::move(w), wargs), Status::kOk);
    });
    kernel.RunUntilIdle();
    ASSERT_EQ(received.size(), 1u);
    EXPECT_EQ(received[0].msg.words[1], 0u);
  }

  {  // --- boot 3: the second boot's write survived too ----------------------
    Kernel kernel(0xf00dULL);
    auto code = std::make_unique<FileServerProcess>(fopts);
    ASSERT_EQ(code->file_count(), 2u);
    const StoreRecord* rec = code->store()->Get("/home/alice/secret");
    ASSERT_NE(rec, nullptr);
    EXPECT_EQ(rec->value, "second boot");
    EXPECT_EQ(code->store()->Get("/motd")->value, "welcome");
  }
}

TEST_F(FsTest, PublicFileNeedsNothing) {
  auto [user, user_port] = MakeClient("user");
  kernel_.WithProcessContext(user, [&](ProcessContext& ctx) {
    Message m;
    m.type = fs_proto::kCreate;
    m.data = "/motd";
    m.words = {1, 0, 0, 0, 0};  // no secrecy, no integrity
    m.reply_port = user_port;
    EXPECT_EQ(ctx.Send(fs_port_, std::move(m)), Status::kOk);
  });
  kernel_.RunUntilIdle();
  EXPECT_EQ(LastStatusWord(), 0u);
  received_.clear();

  kernel_.WithProcessContext(user, [&](ProcessContext& ctx) {
    Message w;
    w.type = fs_proto::kWrite;
    w.data = "/motd\nwelcome";
    w.words = {2};
    w.reply_port = user_port;
    EXPECT_EQ(ctx.Send(fs_port_, std::move(w)), Status::kOk);
    Message r;
    r.type = fs_proto::kRead;
    r.data = "/motd";
    r.words = {3};
    r.reply_port = user_port;
    EXPECT_EQ(ctx.Send(fs_port_, std::move(r)), Status::kOk);
  });
  kernel_.RunUntilIdle();
  ASSERT_EQ(received_.size(), 2u);
  EXPECT_EQ(received_[1].msg.data, "welcome");
}

}  // namespace
}  // namespace asbestos
