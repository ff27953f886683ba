// ok-dbproxy in isolation (paper §7.5-7.6): privileged-port capability,
// hidden USER_ID column, verify-label enforcement on writes, per-row taints
// on reads, and declassified rows.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "src/base/rng.h"
#include "src/base/strings.h"
#include "src/db/dbproxy.h"
#include "src/store/label_codec.h"
#include "tests/test_util.h"

namespace asbestos {
namespace {

using dbproxy_proto::MessageType;
using testing::RecorderProcess;
using testing::ScriptedProcess;

class DbproxyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto code = std::make_unique<DbproxyProcess>();
    proxy_ = code.get();
    SpawnArgs args;
    args.name = "dbproxy";
    args.component = Component::kOkdb;
    kernel_.CreateProcess(std::move(code), args);

    // A stand-in idd: owns the user compartments and the privileged-port
    // capability (granted here directly; the launcher does this in vivo).
    SpawnArgs iargs;
    iargs.name = "idd";
    idd_ = kernel_.CreateProcess(std::make_unique<RecorderProcess>(&received_), iargs);
    kernel_.WithProcessContext(idd_, [&](ProcessContext& ctx) {
      idd_port_ = ctx.NewPort(Label::Top());
      EXPECT_EQ(ctx.SetPortLabel(idd_port_, Label::Top()), Status::kOk);
    });
    GrantPrivPortTo(idd_);

    // Create a worker table (gains the hidden USER_ID column) and bind two
    // users.
    PrivExec("CREATE TABLE notes (text TEXT)");
    alice_ = BindUser("alice", 1);
    bob_ = BindUser("bob", 2);
  }

  struct UserHandles {
    Handle taint;
    Handle grant;
  };

  void GrantPrivPortTo(ProcessId pid) {
    // Boot-loader shortcut: the launcher normally relays this capability.
    Process* proxy_proc = kernel_.FindProcessByName("dbproxy");
    ASSERT_NE(proxy_proc, nullptr);
    kernel_.WithProcessContext(proxy_proc->id, [&](ProcessContext& ctx) {
      SendArgs args;
      args.decont_send = Label({{proxy_->priv_port(), Level::kStar}}, Level::kL3);
      Message m;
      m.type = 999;  // any message; only the grant matters
      EXPECT_EQ(ctx.Send(PortOf(pid), std::move(m), args), Status::kOk);
    });
    kernel_.RunUntilIdle();
    received_.clear();
  }

  Handle PortOf(ProcessId pid) { return pid == idd_ ? idd_port_ : worker_port_; }

  void PrivExec(const std::string& sql) {
    kernel_.WithProcessContext(idd_, [&](ProcessContext& ctx) {
      Message q;
      q.type = MessageType::kQuery;
      q.words = {1, 0};
      q.data = "\n" + sql;
      q.reply_port = idd_port_;
      EXPECT_EQ(ctx.Send(proxy_->priv_port(), std::move(q)), Status::kOk);
    });
    kernel_.RunUntilIdle();
    ASSERT_FALSE(received_.empty());
    EXPECT_EQ(received_.back().msg.words[1], 0u) << sql;
    received_.clear();
  }

  UserHandles BindUser(const std::string& username, int64_t uid) {
    UserHandles u;
    kernel_.WithProcessContext(idd_, [&](ProcessContext& ctx) {
      u.taint = ctx.NewHandle();
      u.grant = ctx.NewHandle();
      Message bind;
      bind.type = MessageType::kBind;
      bind.data = username;
      bind.words = {u.taint.value(), u.grant.value(), static_cast<uint64_t>(uid)};
      SendArgs args;
      args.decont_send = Label({{u.taint, Level::kStar}}, Level::kL3);
      args.decont_receive = Label({{u.taint, Level::kL3}}, Level::kStar);
      EXPECT_EQ(ctx.Send(proxy_->priv_port(), std::move(bind), args), Status::kOk);
    });
    kernel_.RunUntilIdle();
    received_.clear();
    return u;
  }

  // Creates a worker-like process acting for `user`: tainted uT 3, holding
  // uG ⋆, cleared to receive its user's rows.
  ProcessId MakeWorker(const std::string& name, const UserHandles& u) {
    SpawnArgs args;
    args.name = name;
    const ProcessId pid =
        kernel_.CreateProcess(std::make_unique<RecorderProcess>(&received_), args);
    kernel_.WithProcessContext(pid, [&](ProcessContext& ctx) {
      worker_port_ = ctx.NewPort(Label::Top());
      EXPECT_EQ(ctx.SetPortLabel(worker_port_, Label::Top()), Status::kOk);
    });
    kernel_.WithProcessContext(idd_, [&](ProcessContext& ctx) {
      Message m;
      m.type = 998;
      SendArgs args2;
      args2.contaminate = Label({{u.taint, Level::kL3}}, Level::kStar);
      args2.decont_send = Label({{u.grant, Level::kStar}}, Level::kL3);
      args2.decont_receive = Label({{u.taint, Level::kL3}}, Level::kStar);
      EXPECT_EQ(ctx.Send(worker_port_, std::move(m), args2), Status::kOk);
    });
    kernel_.RunUntilIdle();
    received_.clear();
    return pid;
  }

  // Sends a query as `user` with the standard worker verify label.
  void WorkerQuery(ProcessId worker, const UserHandles& u, const std::string& username,
                   const std::string& sql, uint64_t flags = 0) {
    kernel_.WithProcessContext(worker, [&](ProcessContext& ctx) {
      Message q;
      q.type = MessageType::kQuery;
      q.words = {1, flags};
      q.data = username + "\n" + sql;
      q.reply_port = worker_port_;
      SendArgs args;
      const Level taint_level =
          ctx.send_label().Get(u.taint) == Level::kStar ? Level::kStar : Level::kL3;
      args.verify = Label({{u.taint, taint_level}, {u.grant, Level::kL0}}, Level::kL2);
      EXPECT_EQ(ctx.Send(proxy_->query_port(), std::move(q), args), Status::kOk);
    });
    kernel_.RunUntilIdle();
  }

  Kernel kernel_{0xdbdbULL};
  DbproxyProcess* proxy_ = nullptr;
  ProcessId idd_ = kNoProcess;
  Handle idd_port_;
  Handle worker_port_;
  UserHandles alice_;
  UserHandles bob_;
  std::vector<RecorderProcess::Received> received_;
};

TEST_F(DbproxyTest, PrivPortClosedToStrangers) {
  SpawnArgs args;
  args.name = "stranger";
  const ProcessId stranger = kernel_.CreateProcess(std::make_unique<ScriptedProcess>(), args);
  const uint64_t drops = kernel_.stats().drops_label_check;
  kernel_.WithProcessContext(stranger, [&](ProcessContext& ctx) {
    Message q;
    q.type = MessageType::kQuery;
    q.words = {1, 0};
    q.data = "\nDELETE FROM okws_users";
    EXPECT_EQ(ctx.Send(proxy_->priv_port(), std::move(q)), Status::kOk);
  });
  kernel_.RunUntilIdle();
  EXPECT_EQ(kernel_.stats().drops_label_check, drops + 1);
}

TEST_F(DbproxyTest, WriteStampsHiddenUserIdColumn) {
  const ProcessId w = MakeWorker("worker-alice", alice_);
  WorkerQuery(w, alice_, "alice", "INSERT INTO notes (text) VALUES ('hi')");
  ASSERT_FALSE(received_.empty());
  EXPECT_EQ(received_.back().msg.type, MessageType::kDone);
  EXPECT_EQ(received_.back().msg.words[1], 0u);
  received_.clear();

  // Privileged read shows the stamped column.
  kernel_.WithProcessContext(idd_, [&](ProcessContext& ctx) {
    Message q;
    q.type = MessageType::kQuery;
    q.words = {2, 0};
    q.data = "\nSELECT text, user_id FROM notes";
    q.reply_port = idd_port_;
    EXPECT_EQ(ctx.Send(proxy_->priv_port(), std::move(q)), Status::kOk);
  });
  kernel_.RunUntilIdle();
  ASSERT_EQ(received_.size(), 2u);  // one row + done
  std::vector<SqlValue> row;
  ASSERT_TRUE(DecodeDbRow(received_[0].msg.data, &row));
  EXPECT_EQ(row[0].AsText(), "hi");
  EXPECT_EQ(row[1].AsInt(), 1) << "alice's user id";
}

TEST_F(DbproxyTest, WorkerCannotNameUserIdColumn) {
  const ProcessId w = MakeWorker("worker-alice", alice_);
  WorkerQuery(w, alice_, "alice", "SELECT text FROM notes WHERE user_id = 2");
  ASSERT_FALSE(received_.empty());
  EXPECT_EQ(received_.back().msg.words[1],
            static_cast<uint64_t>(-static_cast<int>(Status::kAccessDenied)));
}

TEST_F(DbproxyTest, WorkerCannotTouchPasswordTableOrSchema) {
  const ProcessId w = MakeWorker("worker-alice", alice_);
  WorkerQuery(w, alice_, "alice", "SELECT * FROM okws_users");
  EXPECT_EQ(received_.back().msg.words[1],
            static_cast<uint64_t>(-static_cast<int>(Status::kAccessDenied)));
  received_.clear();
  WorkerQuery(w, alice_, "alice", "CREATE TABLE evil (x TEXT)");
  EXPECT_EQ(received_.back().msg.words[1],
            static_cast<uint64_t>(-static_cast<int>(Status::kAccessDenied)));
}

TEST_F(DbproxyTest, RowsReturnTaintedPerOwner) {
  const ProcessId wa = MakeWorker("worker-alice", alice_);
  WorkerQuery(wa, alice_, "alice", "INSERT INTO notes (text) VALUES ('alice-note')");
  received_.clear();
  const Handle alice_worker_port = worker_port_;
  (void)alice_worker_port;

  const ProcessId wb = MakeWorker("worker-bob", bob_);
  WorkerQuery(wb, bob_, "bob", "INSERT INTO notes (text) VALUES ('bob-note')");
  received_.clear();

  // Bob's worker selects the whole table: alice's row is sent but dropped by
  // the kernel; only bob's row and the untainted completion arrive.
  const uint64_t drops = kernel_.stats().drops_label_check;
  WorkerQuery(wb, bob_, "bob", "SELECT text FROM notes");
  ASSERT_EQ(received_.size(), 2u);
  std::vector<SqlValue> row;
  ASSERT_TRUE(DecodeDbRow(received_[0].msg.data, &row));
  EXPECT_EQ(row[0].AsText(), "bob-note");
  EXPECT_EQ(received_[1].msg.type, MessageType::kDone);
  EXPECT_GT(kernel_.stats().drops_label_check, drops)
      << "alice's row was emitted and dropped by labels, not filtered by SQL";
}

TEST_F(DbproxyTest, UpdatesAndDeletesScopedToOwnRows) {
  const ProcessId wa = MakeWorker("worker-alice", alice_);
  WorkerQuery(wa, alice_, "alice", "INSERT INTO notes (text) VALUES ('mine')");
  received_.clear();
  const ProcessId wb = MakeWorker("worker-bob", bob_);
  WorkerQuery(wb, bob_, "bob", "UPDATE notes SET text = 'defaced'");
  EXPECT_EQ(received_.back().msg.words[2], 0u) << "0 rows affected: alice's row untouchable";
  received_.clear();
  WorkerQuery(wb, bob_, "bob", "DELETE FROM notes");
  EXPECT_EQ(received_.back().msg.words[2], 0u);
}

TEST_F(DbproxyTest, ForgedUsernameRejectedByVerifyBound) {
  // Bob's worker claims to be alice: its V necessarily carries bob's taint
  // at 3 (the kernel enforces ES ⊑ V), which exceeds {aliceT 3, aliceG 0, 2}.
  const ProcessId wb = MakeWorker("worker-bob", bob_);
  kernel_.WithProcessContext(wb, [&](ProcessContext& ctx) {
    Message q;
    q.type = MessageType::kQuery;
    q.words = {1, 0};
    q.data = "alice\nINSERT INTO notes (text) VALUES ('forged')";
    q.reply_port = worker_port_;
    SendArgs args;
    args.verify = Label({{bob_.taint, Level::kL3}, {bob_.grant, Level::kL0}}, Level::kL2);
    EXPECT_EQ(ctx.Send(proxy_->query_port(), std::move(q), args), Status::kOk);
  });
  kernel_.RunUntilIdle();
  ASSERT_FALSE(received_.empty());
  EXPECT_EQ(received_.back().msg.words[1],
            static_cast<uint64_t>(-static_cast<int>(Status::kAccessDenied)));
}

TEST_F(DbproxyTest, DeclassifyRequiresStarInVerify) {
  // A worker holding uT at 3 cannot write public rows...
  const ProcessId wa = MakeWorker("worker-alice", alice_);
  WorkerQuery(wa, alice_, "alice", "INSERT INTO notes (text) VALUES ('pub')",
              dbproxy_proto::kFlagDeclassify);
  EXPECT_EQ(received_.back().msg.words[1],
            static_cast<uint64_t>(-static_cast<int>(Status::kAccessDenied)));
  received_.clear();

  // ...but a declassifier (uT at ⋆, granted by idd) can; the row comes back
  // untainted to anyone.
  SpawnArgs dargs;
  dargs.name = "declassifier-alice";
  const ProcessId d =
      kernel_.CreateProcess(std::make_unique<RecorderProcess>(&received_), dargs);
  kernel_.WithProcessContext(d, [&](ProcessContext& ctx) {
    worker_port_ = ctx.NewPort(Label::Top());
    EXPECT_EQ(ctx.SetPortLabel(worker_port_, Label::Top()), Status::kOk);
  });
  kernel_.WithProcessContext(idd_, [&](ProcessContext& ctx) {
    Message m;
    m.type = 998;
    SendArgs args;
    args.decont_send =
        Label({{alice_.taint, Level::kStar}, {alice_.grant, Level::kStar}}, Level::kL3);
    EXPECT_EQ(ctx.Send(worker_port_, std::move(m), args), Status::kOk);
  });
  kernel_.RunUntilIdle();
  received_.clear();
  WorkerQuery(d, alice_, "alice", "INSERT INTO notes (text) VALUES ('public-profile')",
              dbproxy_proto::kFlagDeclassify);
  EXPECT_EQ(received_.back().msg.words[1], 0u);
  received_.clear();

  // Bob's plain worker can now read the declassified row untainted.
  const ProcessId wb = MakeWorker("worker-bob", bob_);
  WorkerQuery(wb, bob_, "bob", "SELECT text FROM notes");
  ASSERT_EQ(received_.size(), 2u);
  std::vector<SqlValue> row;
  ASSERT_TRUE(DecodeDbRow(received_[0].msg.data, &row));
  EXPECT_EQ(row[0].AsText(), "public-profile");
}

TEST_F(DbproxyTest, UnknownQueryFlagsAreRefused) {
  // Only kFlagDeclassify is defined. Any other bit — including the retired
  // bit 2 — is refused before parsing, so no bit gains a meaning unnoticed.
  const uint64_t invalid = static_cast<uint64_t>(-static_cast<int>(Status::kInvalidArgs));
  const ProcessId wa = MakeWorker("worker-alice", alice_);
  for (const uint64_t flags :
       {uint64_t{2}, uint64_t{4}, uint64_t{4} | dbproxy_proto::kFlagDeclassify}) {
    WorkerQuery(wa, alice_, "alice", "SELECT text FROM notes", flags);
    ASSERT_EQ(received_.size(), 1u) << "flags " << flags;
    EXPECT_EQ(received_.back().msg.type, MessageType::kDone);
    EXPECT_EQ(received_.back().msg.words[1], invalid) << "flags " << flags;
    received_.clear();
    WorkerQuery(wa, alice_, "alice", "INSERT INTO notes (text) VALUES ('flagged')", flags);
    EXPECT_EQ(received_.back().msg.words[1], invalid) << "flags " << flags;
    received_.clear();
  }
  // Nothing was written, and the same queries without the bits succeed.
  WorkerQuery(wa, alice_, "alice", "SELECT text FROM notes");
  ASSERT_EQ(received_.size(), 1u) << "no rows: every flagged INSERT was refused";
  EXPECT_EQ(received_.back().msg.words[1], 0u);
  received_.clear();
  WorkerQuery(wa, alice_, "alice", "INSERT INTO notes (text) VALUES ('plain')");
  EXPECT_EQ(received_.back().msg.words[1], 0u);
}

// --- Row codec: byte identity, totality, seeded mutation --------------------

constexpr int64_t kInt64Min = std::numeric_limits<int64_t>::min();
constexpr int64_t kInt64Max = std::numeric_limits<int64_t>::max();

// The formatted-string encoder the row codec replaced, kept as the reference
// for byte identity (the bytes are appended after the header, so text with
// an embedded NUL is compared whole).
std::string ReferenceEncodeDbRow(const std::vector<SqlValue>& row) {
  std::string out;
  for (const SqlValue& v : row) {
    const std::string text = v.AsText();
    out += StrFormat("%c:%zu:", v.is_null() ? 'n' : (v.is_int() ? 'i' : 't'), text.size());
    out += text;
  }
  return out;
}

// Same values AND same types (SqlValue's == equates 5 with '5').
bool SameRow(const std::vector<SqlValue>& a, const std::vector<SqlValue>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].is_null() != b[i].is_null() || a[i].is_int() != b[i].is_int() ||
        a[i].Compare(b[i]) != 0) {
      return false;
    }
  }
  return true;
}

SqlValue Text(const char* s) { return SqlValue(std::string(s)); }

TEST(DbRowCodecTest, GoldenEncodings) {
  EXPECT_EQ(EncodeDbRow({}), "");
  EXPECT_EQ(EncodeDbRow({SqlValue()}), "n:0:");
  EXPECT_EQ(EncodeDbRow({SqlValue(int64_t{42}), Text("hi"), SqlValue()}), "i:2:42t:2:hin:0:");
  EXPECT_EQ(EncodeDbRow({SqlValue(int64_t{0}), SqlValue(int64_t{-7})}), "i:1:0i:2:-7");
  EXPECT_EQ(EncodeDbRow({SqlValue(kInt64Min)}), "i:20:-9223372036854775808");
  EXPECT_EQ(EncodeDbRow({SqlValue(kInt64Max)}), "i:19:9223372036854775807");
  EXPECT_EQ(EncodeDbRow({Text("a:b"), Text("")}), "t:3:a:bt:0:");
  EXPECT_EQ(EncodeDbRow({Text("0123456789")}), "t:10:0123456789");
  EXPECT_EQ(EncodeDbRow({SqlValue(std::string("a\0b", 3))}), std::string("t:3:a\0b", 7));
}

TEST(DbRowCodecTest, DecodeIsTotal) {
  std::vector<SqlValue> out;
  // A length that wraps `i + len` to 0 used to re-parse the row forever.
  EXPECT_FALSE(DecodeDbRow("t:18446744073709551593:", &out));
  // An integer field past int64 used to wrap (this one to -1).
  EXPECT_FALSE(DecodeDbRow("i:20:18446744073709551615", &out));
  EXPECT_FALSE(DecodeDbRow("i:19:9223372036854775808", &out));
  EXPECT_FALSE(DecodeDbRow("i:20:-9223372036854775809", &out));
  // INT64_MIN decodes without negating its magnitude (a signed overflow).
  ASSERT_TRUE(DecodeDbRow(EncodeDbRow({SqlValue(kInt64Min)}), &out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0].is_int());
  EXPECT_EQ(out[0].AsInt(), kInt64Min);
  // An integer field is one whole decimal number.
  EXPECT_FALSE(DecodeDbRow("i:0:", &out));
  EXPECT_FALSE(DecodeDbRow("i:1:-", &out));
  EXPECT_FALSE(DecodeDbRow("i:2:+1", &out));
  EXPECT_FALSE(DecodeDbRow("i:2:1x", &out));
  EXPECT_FALSE(DecodeDbRow("i:3:1 2", &out));
}

// Checked-in seeds for the mutation loop: every type's edge values.
std::vector<std::vector<SqlValue>> SeedRows() {
  return {
      {},
      {SqlValue()},
      {SqlValue(kInt64Min), SqlValue(kInt64Max), SqlValue(int64_t{0})},
      {Text(""), Text(":"), Text("t:3:abc"), Text("n:0:")},
      {Text("note 17"), SqlValue(int64_t{250})},
      {SqlValue(), Text("i:1:5"), SqlValue(int64_t{-1}), Text("")},
  };
}

SqlValue RandomValue(Rng& rng) {
  static constexpr char kAlphabet[] = "itn:-0123456789 x\n";
  switch (rng.NextBelow(6)) {
    case 0:
      return SqlValue();
    case 1:
      return SqlValue(rng.NextBool() ? kInt64Min : kInt64Max);
    case 2:
      return SqlValue(static_cast<int64_t>(rng.Next()) >> rng.NextBelow(64));
    case 3:
      return Text("");
    default: {
      std::string text(rng.NextBelow(16), ' ');
      for (char& c : text) {
        c = kAlphabet[rng.NextBelow(sizeof(kAlphabet) - 1)];
      }
      return SqlValue(std::move(text));
    }
  }
}

// One to four byte-level edits: overwrite, insert, delete, truncate, or
// splice in a length that overflows.
std::string Mutate(std::string s, Rng& rng) {
  static constexpr char kAlphabet[] = "itnx:-09";
  static const char* const kHuge[] = {"18446744073709551593", "18446744073709551615",
                                      "9223372036854775808", "99999999999999999999"};
  const auto pos = [&](size_t limit) { return static_cast<size_t>(rng.NextBelow(limit)); };
  const auto byte = [&] { return kAlphabet[rng.NextBelow(sizeof(kAlphabet) - 1)]; };
  for (uint64_t edits = rng.NextInRange(1, 4); edits > 0; --edits) {
    switch (rng.NextBelow(5)) {
      case 0:
        if (!s.empty()) {
          s[pos(s.size())] = rng.NextBool() ? byte() : static_cast<char>(rng.Next());
        }
        break;
      case 1:
        s.insert(pos(s.size() + 1), 1, byte());
        break;
      case 2:
        if (!s.empty()) {
          s.erase(pos(s.size()), 1);
        }
        break;
      case 3:
        s.resize(pos(s.size() + 1));
        break;
      default:
        s.insert(pos(s.size() + 1), kHuge[rng.NextBelow(4)]);
        break;
    }
  }
  return s;
}

// Round trip for random rows, and "reject or decode, never crash or hang"
// for mutated encodings. The budget is fixed so a failure replays exactly.
TEST(DbRowCodecTest, SeededMutation) {
  constexpr int kIterations = 20000;
  Rng rng(0xdb0c0dec);
  const std::vector<std::vector<SqlValue>> seeds = SeedRows();
  int accepted = 0;
  int rejected = 0;
  for (int iter = 0; iter < kIterations; ++iter) {
    std::vector<SqlValue> row;
    if (static_cast<size_t>(iter) < seeds.size()) {
      row = seeds[static_cast<size_t>(iter)];
    } else {
      row.resize(rng.NextBelow(7));
      for (SqlValue& v : row) {
        v = RandomValue(rng);
      }
    }
    const std::string encoded = EncodeDbRow(row);
    ASSERT_EQ(encoded, ReferenceEncodeDbRow(row)) << "iteration " << iter;
    std::vector<SqlValue> decoded;
    ASSERT_TRUE(DecodeDbRow(encoded, &decoded)) << "iteration " << iter;
    ASSERT_TRUE(SameRow(decoded, row)) << "iteration " << iter;

    const std::string mutated = Mutate(encoded, rng);
    if (!DecodeDbRow(mutated, &decoded)) {
      ++rejected;
      continue;
    }
    ++accepted;
    // Every field costs at least "n:0:", so a decode cannot outgrow its input.
    ASSERT_LE(decoded.size() * 4, mutated.size()) << "iteration " << iter;
    std::vector<SqlValue> again;
    ASSERT_TRUE(DecodeDbRow(EncodeDbRow(decoded), &again)) << "iteration " << iter;
    ASSERT_TRUE(SameRow(again, decoded)) << "iteration " << iter;
  }
  // The edits exercise both outcomes.
  EXPECT_GT(accepted, kIterations / 20);
  EXPECT_GT(rejected, kIterations / 20);
}

// The list fan-out encodes each row through the SELECT's projection and
// looks each owner's taint up once per statement. Its bytes are pinned: a
// reader cleared for both users' taints receives every sent row, and each
// payload is the reference encoding of the projected row, hidden column
// stripped. A row of an unbound owner is never sent.
TEST_F(DbproxyTest, ListFanOutSendsTheProjectedRowsOncePerOwnerRow) {
  PrivExec("CREATE TABLE items (name TEXT, qty INTEGER)");
  const ProcessId wa = MakeWorker("worker-alice", alice_);
  WorkerQuery(wa, alice_, "alice", "INSERT INTO items (name, qty) VALUES ('apple', 3)");
  WorkerQuery(wa, alice_, "alice", "INSERT INTO items (name, qty) VALUES ('pear', 12)");
  const ProcessId wb = MakeWorker("worker-bob", bob_);
  WorkerQuery(wb, bob_, "bob", "INSERT INTO items (name, qty) VALUES ('fig', 7)");
  PrivExec("INSERT INTO items (name, qty, user_id) VALUES ('public', 1, 0)");
  PrivExec("INSERT INTO items (name, qty, user_id) VALUES ('orphan', 5, 99)");
  WorkerQuery(wb, bob_, "bob", "INSERT INTO items (name) VALUES ('kiwi')");
  received_.clear();

  // Each list runs from a fresh worker for bob that is also cleared for
  // alice's taint, so the kernel drops nothing.
  const auto fan_out = [&](const std::string& sql) {
    const ProcessId reader = MakeWorker("reader-bob", bob_);
    kernel_.WithProcessContext(idd_, [&](ProcessContext& ctx) {
      Message m;
      m.type = 998;
      SendArgs args;
      args.decont_receive = Label({{alice_.taint, Level::kL3}}, Level::kStar);
      EXPECT_EQ(ctx.Send(worker_port_, std::move(m), args), Status::kOk);
    });
    kernel_.RunUntilIdle();
    received_.clear();
    const uint64_t sends = kernel_.stats().sends;
    WorkerQuery(reader, bob_, "bob", sql);
    std::vector<std::string> rows;
    for (const auto& r : received_) {
      if (r.msg.type == MessageType::kRow) {
        rows.push_back(r.msg.data.str());
      }
    }
    EXPECT_EQ(kernel_.stats().sends - sends, rows.size() + 2) << sql << ": query, rows, done";
    EXPECT_TRUE(!received_.empty() && received_.back().msg.type == MessageType::kDone) << sql;
    received_.clear();
    return rows;
  };
  const auto encoded = [](std::vector<SqlValue> row) { return ReferenceEncodeDbRow(row); };
  const auto text = [](const char* t) { return SqlValue(std::string(t)); };
  const auto num = [](int64_t n) { return SqlValue(n); };

  EXPECT_EQ(fan_out("SELECT * FROM items"),
            (std::vector<std::string>{
                encoded({text("apple"), num(3)}), encoded({text("pear"), num(12)}),
                encoded({text("fig"), num(7)}), encoded({text("public"), num(1)}),
                encoded({text("kiwi"), SqlValue()})}));
  // LIMIT counts the orphan (qty 5) before the fan-out skips it.
  EXPECT_EQ(fan_out("SELECT qty, name FROM items WHERE qty > 2 ORDER BY qty DESC LIMIT 3"),
            (std::vector<std::string>{encoded({num(12), text("pear")}),
                                      encoded({num(7), text("fig")})}));
  const std::vector<std::string> names = fan_out("SELECT name FROM items ORDER BY name");
  size_t bytes = 0;
  for (const std::string& row : names) {
    bytes += row.size();
  }
  EXPECT_EQ(names.size(), 5u) << "the orphan row is never sent";
  EXPECT_EQ(bytes, 5u * 4 + 5 + 4 + 3 + 6 + 4) << "5 × \"t:N:\" plus the names";
}

// --- Reboot: durable tables, hidden USER_ID column, label bindings -----------

// A minimal one-boot world around a (possibly persistent) dbproxy: a
// stand-in idd holding the priv-port capability, plus worker helpers. Each
// instance is one boot; destroying it drains the proxy's store, and a new
// instance over the same directory is the reboot.
class ProxyBoot {
 public:
  ProxyBoot(const std::string& store_dir, uint64_t boot_key,
            const std::vector<uint64_t>& recovered_stars = {})
      : kernel_(boot_key) {
    DurableOptions opts;
    opts.store_dir = store_dir;
    auto code = std::make_unique<DbproxyProcess>(opts);
    proxy_ = code.get();
    SpawnArgs args;
    args.name = "dbproxy";
    args.component = Component::kOkdb;
    kernel_.CreateProcess(std::move(code), args);

    // The stand-in idd. On a reboot the trusted boot path re-grants the ⋆
    // set for every recovered compartment (exactly what the launcher does
    // with IddProcess::RecoveredStars) and retires the handles from the
    // generator.
    SpawnArgs iargs;
    iargs.name = "idd";
    for (const uint64_t h : recovered_stars) {
      iargs.send_label.Set(Handle::FromValue(h), Level::kStar);
      kernel_.ReserveRecoveredHandle(Handle::FromValue(h));
    }
    idd_ = kernel_.CreateProcess(std::make_unique<RecorderProcess>(&received_), iargs);
    kernel_.WithProcessContext(idd_, [&](ProcessContext& ctx) {
      idd_port_ = ctx.NewPort(Label::Top());
      EXPECT_EQ(ctx.SetPortLabel(idd_port_, Label::Top()), Status::kOk);
    });
    Process* proxy_proc = kernel_.FindProcessByName("dbproxy");
    kernel_.WithProcessContext(proxy_proc->id, [&](ProcessContext& ctx) {
      SendArgs gargs;
      gargs.decont_send = Label({{proxy_->priv_port(), Level::kStar}}, Level::kL3);
      Message m;
      m.type = 999;
      EXPECT_EQ(ctx.Send(idd_port_, std::move(m), gargs), Status::kOk);
    });
    kernel_.RunUntilIdle();
    received_.clear();
  }

  void PrivExec(const std::string& sql) {
    kernel_.WithProcessContext(idd_, [&](ProcessContext& ctx) {
      Message q;
      q.type = MessageType::kQuery;
      q.words = {1, 0};
      q.data = "\n" + sql;
      q.reply_port = idd_port_;
      EXPECT_EQ(ctx.Send(proxy_->priv_port(), std::move(q)), Status::kOk);
    });
    kernel_.RunUntilIdle();
    ASSERT_FALSE(received_.empty());
    EXPECT_EQ(received_.back().msg.words[1], 0u) << sql;
    received_.clear();
  }

  // Binds `username` to explicit handle values (fresh on boot 1, the
  // recovered values on later boots — what idd's kBind replay sends).
  void Bind(const std::string& username, uint64_t taint, uint64_t grant, int64_t uid) {
    kernel_.WithProcessContext(idd_, [&](ProcessContext& ctx) {
      Message bind;
      bind.type = MessageType::kBind;
      bind.data = username;
      bind.words = {taint, grant, static_cast<uint64_t>(uid)};
      SendArgs args;
      args.decont_send = Label({{Handle::FromValue(taint), Level::kStar}}, Level::kL3);
      args.decont_receive = Label({{Handle::FromValue(taint), Level::kL3}}, Level::kStar);
      EXPECT_EQ(ctx.Send(proxy_->priv_port(), std::move(bind), args), Status::kOk);
    });
    kernel_.RunUntilIdle();
    received_.clear();
  }

  // A reader process cleared for the given taints (boot-time clearance), so
  // it can observe which taints recovered rows actually carry; `stars`
  // grants speak-for privilege (uG ⋆) so the process can pass write bounds.
  ProcessId MakeReader(const std::string& name, const std::vector<uint64_t>& cleared,
                       const std::vector<uint64_t>& stars = {}) {
    SpawnArgs args;
    args.name = name;
    for (const uint64_t t : cleared) {
      args.recv_label.Set(Handle::FromValue(t), Level::kL3);
    }
    for (const uint64_t s : stars) {
      args.send_label.Set(Handle::FromValue(s), Level::kStar);
    }
    const ProcessId pid =
        kernel_.CreateProcess(std::make_unique<RecorderProcess>(&received_), args);
    kernel_.WithProcessContext(pid, [&](ProcessContext& ctx) {
      reader_port_ = ctx.NewPort(Label::Top());
      EXPECT_EQ(ctx.SetPortLabel(reader_port_, Label::Top()), Status::kOk);
    });
    return pid;
  }

  void Query(ProcessId from, const std::string& username, const std::string& sql,
             const SendArgs& args = SendArgs()) {
    kernel_.WithProcessContext(from, [&](ProcessContext& ctx) {
      Message q;
      q.type = MessageType::kQuery;
      q.words = {1, 0};
      q.data = username + "\n" + sql;
      q.reply_port = reader_port_;
      EXPECT_EQ(ctx.Send(proxy_->query_port(), std::move(q), args), Status::kOk);
    });
    kernel_.RunUntilIdle();
  }

  Kernel kernel_;
  DbproxyProcess* proxy_ = nullptr;
  ProcessId idd_ = kNoProcess;
  Handle idd_port_;
  Handle reader_port_;
  std::vector<RecorderProcess::Received> received_;
};

TEST(DbproxyRebootTest, TablesUserIdColumnAndBindingsSurviveReboot) {
  asbestos::testing::TempDir dir;
  const std::string store_dir = dir.path() + "/dbproxy";
  uint64_t alice_t = 0;
  uint64_t alice_g = 0;
  uint64_t bob_t = 0;
  uint64_t bob_g = 0;

  {  // --- boot 1: schema, bindings, and worker writes ----------------------
    ProxyBoot boot(store_dir, 0xb001);
    boot.PrivExec("CREATE TABLE notes (text TEXT)");
    boot.kernel_.WithProcessContext(boot.idd_, [&](ProcessContext& ctx) {
      alice_t = ctx.NewHandle().value();
      alice_g = ctx.NewHandle().value();
      bob_t = ctx.NewHandle().value();
      bob_g = ctx.NewHandle().value();
    });
    boot.Bind("alice", alice_t, alice_g, 1);
    boot.Bind("bob", bob_t, bob_g, 2);
    // Worker writes: the proxy stamps the hidden USER_ID column. The writer
    // holds each grant at ⋆ so its verify label can prove uG at 0.
    const ProcessId w = boot.MakeReader("writer", {alice_t, bob_t}, {alice_g, bob_g});
    SendArgs alice_v;
    alice_v.verify = Label({{Handle::FromValue(alice_t), Level::kL3},
                            {Handle::FromValue(alice_g), Level::kL0}},
                           Level::kL2);
    boot.Query(w, "alice", "INSERT INTO notes (text) VALUES ('from-alice')", alice_v);
    SendArgs bob_v;
    bob_v.verify = Label({{Handle::FromValue(bob_t), Level::kL3},
                          {Handle::FromValue(bob_g), Level::kL0}},
                         Level::kL2);
    boot.Query(w, "bob", "INSERT INTO notes (text) VALUES ('from-bob')", bob_v);
    ASSERT_GE(boot.received_.size(), 2u);
    EXPECT_EQ(boot.received_.back().msg.words[1], 0u);
    // The store picked up schema, both rows' table image, and both
    // bindings; the group-commit hook flushed them at end of pump.
    ASSERT_NE(boot.proxy_->store(), nullptr);
    EXPECT_GE(boot.proxy_->store()->size(), 4u);
    EXPECT_EQ(boot.proxy_->store()->dirty_shard_count(), 0u);
  }  // boot 1 dies; the store destructor drains the pipeline

  {  // --- boot 2: everything is back, labels included ----------------------
    ProxyBoot boot(store_dir, 0xb002, {alice_t, alice_g, bob_t, bob_g});
    EXPECT_EQ(boot.proxy_->recovered_bindings(), 2u);

    // The hidden column recovered as part of the schema: a worker still
    // cannot name it.
    const ProcessId probe = boot.MakeReader("probe", {alice_t});
    boot.Bind("alice", alice_t, alice_g, 1);  // idd's kBind replay
    boot.Query(probe, "alice", "SELECT USER_ID FROM notes");
    ASSERT_FALSE(boot.received_.empty());
    EXPECT_EQ(boot.received_.back().msg.type, MessageType::kDone);
    EXPECT_NE(boot.received_.back().msg.words[1], 0u) << "USER_ID must stay hidden";
    boot.received_.clear();

    // A reader cleared for BOTH users' recovered taints sees both recovered
    // rows, each tainted with the ORIGINAL owner's handle — the per-user
    // label bindings came back from the proxy's own store (bob was never
    // re-bound this boot).
    const ProcessId reader = boot.MakeReader("reader", {alice_t, bob_t});
    boot.Query(reader, "alice", "SELECT text FROM notes");
    std::vector<std::string> rows;
    bool saw_bob_taint = false;
    for (const auto& r : boot.received_) {
      if (r.msg.type == MessageType::kRow) {
        std::vector<SqlValue> row;
        ASSERT_TRUE(DecodeDbRow(r.msg.data, &row));
        ASSERT_EQ(row.size(), 1u);
        rows.push_back(row[0].AsText());
        if (r.send_label_after.Get(Handle::FromValue(bob_t)) == Level::kL3) {
          saw_bob_taint = true;
        }
      }
    }
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0], "from-alice");
    EXPECT_EQ(rows[1], "from-bob");
    EXPECT_TRUE(saw_bob_taint) << "bob's row must carry his recovered taint";
    boot.received_.clear();

    // Kernel isolation still filters: a reader cleared only for alice never
    // receives bob's row and cannot tell it exists.
    const ProcessId alice_only = boot.MakeReader("alice-only", {alice_t});
    boot.Query(alice_only, "alice", "SELECT text FROM notes");
    size_t row_count = 0;
    for (const auto& r : boot.received_) {
      row_count += r.msg.type == MessageType::kRow ? 1 : 0;
    }
    EXPECT_EQ(row_count, 1u);
  }
}

// The table image is byte-identical to the legacy encoding (SELECT * plus
// the row encoder, USER_ID included) after every kind of write, so a store
// written in the old format recovers unchanged.
std::string LegacyTableImage(const SqlDatabase& db, const std::string& table) {
  SqlDatabase copy = db;
  auto result = copy.Execute("SELECT * FROM " + table);
  EXPECT_TRUE(result.ok());
  std::string out;
  codec::AppendVarint(result.value().row_count(), &out);
  for (size_t i = 0; i < result.value().row_count(); ++i) {
    const SqlRowRef ref = result.value().row(i);
    std::vector<SqlValue> row;
    for (size_t c = 0; c < ref.size(); ++c) {
      row.push_back(ref[c]);
    }
    codec::AppendString(ReferenceEncodeDbRow(row), &out);
  }
  return out;
}

// A multi-row INSERT that one key refuses writes nothing: no row is served,
// the durable table image stays as it was, and the next write's image and a
// reboot do not carry the refused rows either.
TEST(DbproxyRebootTest, RefusedInsertLeavesTheTableAndItsImageUnchanged) {
  asbestos::testing::TempDir dir;
  const std::string store_dir = dir.path() + "/dbproxy";
  const auto table_rows = [](ProxyBoot& boot) {
    return const_cast<SqlDatabase&>(boot.proxy_->database()).FindTable("PK")->row_count();
  };
  {
    ProxyBoot boot(store_dir, 0xb011);
    boot.PrivExec("CREATE TABLE pk (id INTEGER PRIMARY KEY, v TEXT)");
    boot.PrivExec("INSERT INTO pk (id, v, user_id) VALUES (1, 'a', 0)");
    const std::string image = boot.proxy_->store()->Get("table/PK")->value;

    boot.kernel_.WithProcessContext(boot.idd_, [&](ProcessContext& ctx) {
      Message q;
      q.type = MessageType::kQuery;
      q.words = {1, 0};
      q.data = "\nINSERT INTO pk (id, v, user_id) VALUES (2, 'b', 0), (1, 'c', 0)";
      q.reply_port = boot.idd_port_;
      EXPECT_EQ(ctx.Send(boot.proxy_->priv_port(), std::move(q)), Status::kOk);
    });
    boot.kernel_.RunUntilIdle();
    ASSERT_FALSE(boot.received_.empty());
    EXPECT_EQ(boot.received_.back().msg.type, MessageType::kDone);
    EXPECT_EQ(boot.received_.back().msg.words[1],
              static_cast<uint64_t>(-static_cast<int>(Status::kAlreadyExists)));
    boot.received_.clear();
    EXPECT_EQ(table_rows(boot), 1u);
    EXPECT_EQ(boot.proxy_->store()->Get("table/PK")->value, image);

    boot.PrivExec("INSERT INTO pk (id, v, user_id) VALUES (3, 'd', 0)");
    EXPECT_EQ(table_rows(boot), 2u);
    const std::string next = boot.proxy_->store()->Get("table/PK")->value;
    EXPECT_EQ(next.find("t:1:b"), std::string::npos) << "the refused row reached the image";
    EXPECT_NE(next.find("t:1:d"), std::string::npos);
  }
  ProxyBoot boot(store_dir, 0xb012);
  EXPECT_EQ(table_rows(boot), 2u);
}

TEST(DbproxyRebootTest, TableImageMatchesLegacyEncodingAndRecovers) {
  asbestos::testing::TempDir dir;
  const std::string store_dir = dir.path() + "/dbproxy";
  std::string image;
  {
    ProxyBoot boot(store_dir, 0x1a6e);
    boot.PrivExec("CREATE TABLE notes (text TEXT, n INTEGER)");
    const auto expect_legacy_image = [&](const std::string& after) {
      const StoreRecord* record = boot.proxy_->store()->Get("table/NOTES");  // names are case-folded
      ASSERT_NE(record, nullptr) << after;
      EXPECT_EQ(record->value, LegacyTableImage(boot.proxy_->database(), "notes")) << after;
      image = record->value;
    };
    boot.PrivExec(
        "INSERT INTO notes (text, n, USER_ID) VALUES ('a:b', -9223372036854775808, 1), "
        "('', 9223372036854775807, 2), (NULL, NULL, 0), ('i:1:5', 0, 1)");
    expect_legacy_image("INSERT");
    boot.PrivExec("UPDATE notes SET text = 'n:0:' WHERE USER_ID = 1");
    expect_legacy_image("UPDATE");
    boot.PrivExec("DELETE FROM notes WHERE USER_ID = 2");
    expect_legacy_image("DELETE");
    boot.PrivExec("INSERT INTO notes (text, n, USER_ID) VALUES ('after delete', 5, 2)");
    expect_legacy_image("INSERT after DELETE");
  }
  ProxyBoot boot(store_dir, 0x1a6f);
  EXPECT_EQ(LegacyTableImage(boot.proxy_->database(), "notes"), image);
}

TEST_F(DbproxyTest, RowCodecRoundTrip) {
  std::vector<SqlValue> row;
  row.emplace_back(SqlValue(int64_t{-42}));
  row.emplace_back(SqlValue(std::string("text with : colons and \n newlines")));
  row.emplace_back(SqlValue());
  row.emplace_back(SqlValue(std::string("")));
  std::vector<SqlValue> decoded;
  ASSERT_TRUE(DecodeDbRow(EncodeDbRow(row), &decoded));
  ASSERT_EQ(decoded.size(), row.size());
  for (size_t i = 0; i < row.size(); ++i) {
    EXPECT_EQ(decoded[i].Compare(row[i]), 0);
  }
  // Malformed inputs are rejected, not crashed on.
  EXPECT_FALSE(DecodeDbRow("x:3:abc", &decoded));
  EXPECT_FALSE(DecodeDbRow("t:999:short", &decoded));
  EXPECT_FALSE(DecodeDbRow("t:abc:x", &decoded));
  EXPECT_FALSE(DecodeDbRow("garbage", &decoded));
}

}  // namespace
}  // namespace asbestos
