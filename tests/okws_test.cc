// End-to-end OKWS on Asbestos: boot, request flow (paper Fig. 5 steps 1-9),
// sessions (§7.3), database services (§7.5), and the password worker.
#include <gtest/gtest.h>

#include "src/okws/demux.h"
#include "src/okws/idd.h"
#include "src/okws/okws_world.h"
#include "src/okws/services.h"
#include "src/okws/session_codec.h"
#include "src/replication/link.h"
#include "src/store/label_codec.h"
#include "src/store/store.h"
#include "tests/test_util.h"

namespace asbestos {
namespace {

OkwsWorldConfig BasicConfig() {
  OkwsWorldConfig config;
  config.users = {{"alice", "pw-a"}, {"bob", "pw-b"}, {"carol", "pw-c"}};
  config.services.push_back(
      {"echo", [] { return std::make_unique<EchoService>(); }, false, {}});
  config.services.push_back(
      {"store", [] { return std::make_unique<StorageService>(); }, false, {}});
  config.services.push_back(
      {"notes", [] { return std::make_unique<NotesService>(); }, false, {}});
  config.services.push_back(
      {"profile", [] { return std::make_unique<ProfileService>(); }, true, {}});
  config.services.push_back(
      {"passwd", [] { return std::make_unique<PasswdService>(); }, false, {}});
  config.extra_tables = {NotesService::kTableSql, ProfileService::kTableSql};
  return config;
}

class OkwsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    world_ = std::make_unique<OkwsWorld>(BasicConfig());
    world_->PumpUntilReady();
  }

  HttpLoadClient::Result Fetch(const std::string& target, const std::string& user,
                               const std::string& pass) {
    HttpLoadClient client(&world_->net(), 80, 4);
    client.Enqueue(OkwsWorld::MakeRequest(target, user, pass), 0);
    world_->RunClient(&client);
    EXPECT_EQ(client.results().size(), 1u) << target << " produced no response";
    return client.results().empty() ? HttpLoadClient::Result{} : client.results()[0];
  }

  std::unique_ptr<OkwsWorld> world_;
};

TEST_F(OkwsTest, BootsAllProcesses) {
  EXPECT_TRUE(world_->launcher()->ready());
  EXPECT_NE(world_->kernel().FindProcessByName("netd"), nullptr);
  EXPECT_NE(world_->kernel().FindProcessByName("demux"), nullptr);
  EXPECT_NE(world_->kernel().FindProcessByName("idd"), nullptr);
  EXPECT_NE(world_->kernel().FindProcessByName("dbproxy"), nullptr);
  EXPECT_NE(world_->kernel().FindProcessByName("worker-echo"), nullptr);
}

TEST_F(OkwsTest, EchoRequest) {
  const auto r = Fetch("/echo", "alice", "pw-a");
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.body, std::string(11, 'x'));
}

TEST_F(OkwsTest, EchoSizeParameter) {
  const auto r = Fetch("/echo?n=100", "alice", "pw-a");
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.body.size(), 100u);
}

TEST_F(OkwsTest, WrongPasswordRejected) {
  const auto r = Fetch("/echo", "alice", "wrong");
  EXPECT_EQ(r.status, 403);
}

TEST_F(OkwsTest, UnknownUserRejected) {
  const auto r = Fetch("/echo", "nobody", "pw");
  EXPECT_EQ(r.status, 403);
}

TEST_F(OkwsTest, UnknownServiceIs404) {
  const auto r = Fetch("/missing", "alice", "pw-a");
  EXPECT_EQ(r.status, 404);
}

TEST_F(OkwsTest, MissingCredentialsIs401) {
  HttpLoadClient client(&world_->net(), 80, 1);
  client.Enqueue("GET /echo HTTP/1.0\r\n\r\n", 0);
  world_->RunClient(&client);
  ASSERT_EQ(client.results().size(), 1u);
  EXPECT_EQ(client.results()[0].status, 401);
}

// A body past the cap is refused at demux, whatever Content-Length claims,
// and the same world still serves the next request.
TEST_F(OkwsTest, BodyPastTheCapIs400) {
  for (const uint64_t length : {uint64_t{kMaxBodyBytes} + 1, uint64_t{1} << 62}) {
    HttpLoadClient client(&world_->net(), 80, 1);
    client.Enqueue("POST /echo HTTP/1.0\r\nContent-Length: " + std::to_string(length) +
                       "\r\n\r\n" + std::string(kMaxBodyBytes + 1, 'b'),
                   0);
    world_->RunClient(&client);
    ASSERT_EQ(client.results().size(), 1u) << length;
    EXPECT_EQ(client.results()[0].status, 400) << length;
  }
  EXPECT_EQ(Fetch("/echo", "alice", "pw-a").status, 200);
}

TEST_F(OkwsTest, SessionStateSurvivesAcrossConnections) {
  // The paper's toy workload: store on one connection, read on the next.
  auto r1 = Fetch("/store?d=remember-me", "alice", "pw-a");
  EXPECT_EQ(r1.status, 200);
  EXPECT_EQ(r1.body, std::string(StorageService::kResponseSize, '.'))
      << "first request returns the (empty) previous state, padded to ~1K";

  auto r2 = Fetch("/store", "alice", "pw-a");
  EXPECT_EQ(r2.status, 200);
  EXPECT_EQ(r2.body.substr(0, 11), "remember-me");
  EXPECT_EQ(r2.body.size(), StorageService::kResponseSize);
}

TEST_F(OkwsTest, SessionReusesEventProcessAndSkipsIdd) {
  (void)Fetch("/store?d=x", "alice", "pw-a");
  const uint64_t eps_after_first = world_->kernel().stats().eps_created;
  (void)Fetch("/store", "alice", "pw-a");
  (void)Fetch("/store", "alice", "pw-a");
  EXPECT_EQ(world_->kernel().stats().eps_created, eps_after_first)
      << "follow-up connections resume the existing event process (§7.3)";
}

TEST_F(OkwsTest, DistinctUsersGetDistinctEventProcesses) {
  const uint64_t eps_before = world_->kernel().stats().eps_created;
  (void)Fetch("/store?d=a", "alice", "pw-a");
  (void)Fetch("/store?d=b", "bob", "pw-b");
  EXPECT_EQ(world_->kernel().stats().eps_created - eps_before, 2u);

  // And their session state never mixes.
  auto ra = Fetch("/store", "alice", "pw-a");
  auto rb = Fetch("/store", "bob", "pw-b");
  EXPECT_EQ(ra.body.substr(0, 1), "a");
  EXPECT_EQ(rb.body.substr(0, 1), "b");
}

TEST_F(OkwsTest, SameUserDifferentServicesAreSeparateSessions) {
  const uint64_t eps_before = world_->kernel().stats().eps_created;
  (void)Fetch("/store?d=x", "alice", "pw-a");
  (void)Fetch("/echo", "alice", "pw-a");
  EXPECT_EQ(world_->kernel().stats().eps_created - eps_before, 2u);
}

TEST_F(OkwsTest, NotesPersistInDatabase) {
  auto add = Fetch("/notes?op=add&text=buy+milk", "alice", "pw-a");
  EXPECT_EQ(add.status, 200);
  auto add2 = Fetch("/notes?op=add&text=walk+dog", "alice", "pw-a");
  EXPECT_EQ(add2.status, 200);
  auto list = Fetch("/notes?op=list", "alice", "pw-a");
  EXPECT_EQ(list.status, 200);
  EXPECT_EQ(list.body, "buy milk\nwalk dog\n");
}

TEST_F(OkwsTest, PasswordChangeThroughIdd) {
  auto change = Fetch("/passwd?old=pw-a&new=pw-a2", "alice", "pw-a");
  EXPECT_EQ(change.status, 200);
  // Old password no longer works; new one does.
  EXPECT_EQ(Fetch("/echo", "alice", "pw-a").status, 403);
  EXPECT_EQ(Fetch("/echo", "alice", "pw-a2").status, 200);
}

TEST_F(OkwsTest, PasswordChangeInvalidatesCachedSessions) {
  // A cached session keyed on the old password must die with it: idd tells
  // demux to drop the user's sessions (kSessionInvalidate).
  EXPECT_EQ(Fetch("/echo", "alice", "pw-a").status, 200);  // opens a session
  EXPECT_EQ(Fetch("/passwd?old=pw-a&new=pw-x", "alice", "pw-a").status, 200);
  EXPECT_EQ(Fetch("/echo", "alice", "pw-a").status, 403)
      << "the cached echo session must not resurrect the old password";
  EXPECT_EQ(Fetch("/echo", "alice", "pw-x").status, 200);
}

TEST_F(OkwsTest, PasswordChangeWithWrongOldPasswordFails) {
  auto change = Fetch("/passwd?old=nope&new=hacked", "alice", "pw-a");
  EXPECT_EQ(change.status, 403);
  EXPECT_EQ(Fetch("/echo", "alice", "pw-a").status, 200) << "password unchanged";
}

TEST_F(OkwsTest, ManyConcurrentUsers) {
  HttpLoadClient client(&world_->net(), 80, 8);
  for (int i = 0; i < 3; ++i) {
    client.Enqueue(OkwsWorld::MakeRequest("/echo", "alice", "pw-a"), 1);
    client.Enqueue(OkwsWorld::MakeRequest("/echo", "bob", "pw-b"), 2);
    client.Enqueue(OkwsWorld::MakeRequest("/echo", "carol", "pw-c"), 3);
  }
  world_->RunClient(&client);
  ASSERT_EQ(client.results().size(), 9u);
  for (const auto& r : client.results()) {
    EXPECT_EQ(r.status, 200);
  }
  EXPECT_EQ(client.failures(), 0u);
}

TEST_F(OkwsTest, SqlInjectionThroughServiceParametersIsHarmless) {
  // Hostile note text full of SQL metacharacters must be stored verbatim,
  // not executed — and must not corrupt other rows.
  const std::string evil = "x'); DELETE FROM notes; --";
  auto add = Fetch("/notes?op=add&text=" + std::string("x%27%29%3B+DELETE+FROM+notes%3B+--"),
                   "alice", "pw-a");
  EXPECT_EQ(add.status, 200);
  auto list = Fetch("/notes?op=list", "alice", "pw-a");
  EXPECT_EQ(list.status, 200);
  EXPECT_EQ(list.body, evil + "\n") << "metacharacters stored as data";

  // The injection-looking text did not nuke anything: add another and list.
  EXPECT_EQ(Fetch("/notes?op=add&text=second", "alice", "pw-a").status, 200);
  auto list2 = Fetch("/notes?op=list", "alice", "pw-a");
  EXPECT_EQ(list2.body, evil + "\nsecond\n");
}

TEST_F(OkwsTest, LargeResponsesSpanMultipleSegments) {
  // Bigger than the TCP MSS and the worker's per-page buffers.
  const auto r = Fetch("/echo?n=20000", "alice", "pw-a");
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.body.size(), 20000u);
  EXPECT_EQ(r.body.find_first_not_of('x'), std::string::npos);
}

TEST_F(OkwsTest, DeclassifierReadsOwnProfileByDefault) {
  EXPECT_EQ(Fetch("/profile?op=set&text=me", "alice", "pw-a").status, 200);
  auto r = Fetch("/profile?op=get", "alice", "pw-a");
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.body, "me");
  EXPECT_EQ(Fetch("/profile?op=get&who=nobody", "alice", "pw-a").status, 404);
}

// --- Durable identity cache (src/store): uT/uG bindings survive reboot -----

IddProcess* FindIdd(OkwsWorld& world) {
  Process* p = world.kernel().FindProcessByName("idd");
  return p == nullptr ? nullptr : dynamic_cast<IddProcess*>(p->code.get());
}

HttpLoadClient::Result FetchFrom(OkwsWorld& world, const std::string& target,
                                 const std::string& user, const std::string& pass) {
  HttpLoadClient client(&world.net(), 80, 4);
  client.Enqueue(OkwsWorld::MakeRequest(target, user, pass), 0);
  world.RunClient(&client);
  EXPECT_EQ(client.results().size(), 1u) << target << " produced no response";
  return client.results().empty() ? HttpLoadClient::Result{} : client.results()[0];
}

TEST(OkwsPersistenceTest, IddIdentityCacheSurvivesReboot) {
  asbestos::testing::TempDir dir;
  OkwsWorldConfig config = BasicConfig();
  config.idd_options.store_dir = dir.path() + "/idd";

  uint64_t taint1 = 0;
  uint64_t grant1 = 0;
  int64_t uid1 = 0;

  {  // --- boot 1: first-time login mints and persists uT/uG ----------------
    OkwsWorld world(config);
    world.PumpUntilReady();
    EXPECT_EQ(FetchFrom(world, "/echo", "alice", "pw-a").status, 200);
    IddProcess* idd = FindIdd(world);
    ASSERT_NE(idd, nullptr);
    ASSERT_EQ(idd->cached_identities(), 1u);
    Handle t;
    Handle g;
    ASSERT_TRUE(idd->LookupCachedIdentity("alice", &t, &g, &uid1));
    taint1 = t.value();
    grant1 = g.value();
    // The binding's append was handed to the pipelined group commit by the
    // end-of-pump OnIdle: no shard is left outside the pipeline once the
    // world is idle. (Durability completes in the background; boot 2 below
    // is the real durability check — the store destructor drains.)
    EXPECT_EQ(idd->store()->shard_count(), 4u);
    EXPECT_EQ(idd->store()->dirty_shard_count(), 0u)
        << "idd's OnIdle must hand the login's shard to the group commit";
  }

  {  // --- boot 2: same boot key, same store — the binding is already there --
    OkwsWorld world(config);
    world.PumpUntilReady();
    IddProcess* idd = FindIdd(world);
    ASSERT_NE(idd, nullptr);
    EXPECT_EQ(idd->cached_identities(), 1u) << "cache must recover before any login";

    Handle t;
    Handle g;
    int64_t uid = 0;
    ASSERT_TRUE(idd->LookupCachedIdentity("alice", &t, &g, &uid));
    EXPECT_EQ(t.value(), taint1) << "uT must be boot-stable";
    EXPECT_EQ(g.value(), grant1) << "uG must be boot-stable";
    EXPECT_EQ(uid, uid1);

    // Logins keep working — served from the recovered cache, including the
    // password check, and the whole taint plumbing (grants to demux,
    // re-bound dbproxy) functions for the recovered handles.
    EXPECT_EQ(FetchFrom(world, "/echo", "alice", "pw-a").status, 200);
    EXPECT_EQ(FetchFrom(world, "/echo", "alice", "wrong").status, 403);
    EXPECT_EQ(idd->cached_identities(), 1u) << "no re-mint for a recovered user";

    // User-private state still works under the recovered compartments.
    EXPECT_EQ(FetchFrom(world, "/notes?op=add&text=persisted", "alice", "pw-a").status, 200);
    EXPECT_EQ(FetchFrom(world, "/notes?op=list", "alice", "pw-a").body, "persisted\n");

    // A different user logging in this boot must get fresh, non-colliding
    // handles (the generator skipped the recovered values).
    EXPECT_EQ(FetchFrom(world, "/echo", "bob", "pw-b").status, 200);
    Handle bt;
    Handle bg;
    int64_t buid = 0;
    ASSERT_TRUE(idd->LookupCachedIdentity("bob", &bt, &bg, &buid));
    EXPECT_NE(bt.value(), taint1);
    EXPECT_NE(bg.value(), grant1);
    EXPECT_NE(bt.value(), bg.value());
  }

  {  // --- boot 3: bob's binding persisted too -------------------------------
    OkwsWorld world(config);
    world.PumpUntilReady();
    IddProcess* idd = FindIdd(world);
    ASSERT_NE(idd, nullptr);
    EXPECT_EQ(idd->cached_identities(), 2u);
    EXPECT_EQ(FetchFrom(world, "/echo", "bob", "pw-b").status, 200);
  }
}

// --- Durable dbproxy: worker tables and user rows survive reboots -----------

TEST(OkwsPersistenceTest, DbproxyTablesSurviveRebootWithoutReseedingDuplicates) {
  asbestos::testing::TempDir dir;
  OkwsWorldConfig config = BasicConfig();
  config.idd_options.store_dir = dir.path() + "/idd";
  config.dbproxy_options.store_dir = dir.path() + "/dbproxy";

  {  // --- boot 1: alice writes a note through the full OKWS stack ----------
    OkwsWorld world(config);
    world.PumpUntilReady();
    EXPECT_EQ(FetchFrom(world, "/notes?op=add&text=rebooted-note", "alice", "pw-a").status,
              200);
    EXPECT_EQ(FetchFrom(world, "/notes?op=list", "alice", "pw-a").body, "rebooted-note\n");
  }

  {  // --- boot 2: the note, its hidden owner stamp, and the password table
     //     all recovered; idd's seeding probe must NOT duplicate user rows.
    OkwsWorld world(config);
    world.PumpUntilReady();
    EXPECT_EQ(FetchFrom(world, "/notes?op=list", "alice", "pw-a").body, "rebooted-note\n");
    // Bob's first-time login scans the recovered (not re-seeded) table.
    EXPECT_EQ(FetchFrom(world, "/notes?op=list", "bob", "pw-b").status, 200);
    // The kernel still filters by owner: bob sees no notes.
    EXPECT_EQ(FetchFrom(world, "/notes?op=list", "bob", "pw-b").body, "");

    Process* p = world.kernel().FindProcessByName("dbproxy");
    ASSERT_NE(p, nullptr);
    auto* proxy = dynamic_cast<DbproxyProcess*>(p->code.get());
    ASSERT_NE(proxy, nullptr);
    const SqlDatabase& db = proxy->database();
    auto* users = const_cast<SqlDatabase&>(db).FindTable("OKWS_USERS");
    ASSERT_NE(users, nullptr);
    EXPECT_EQ(users->row_count(), 3u) << "re-seeding must not duplicate users";
    auto* notes = const_cast<SqlDatabase&>(db).FindTable("NOTES");
    ASSERT_NE(notes, nullptr);
    EXPECT_EQ(notes->row_count(), 1u);
    EXPECT_GE(proxy->recovered_bindings(), 1u);  // alice's labels came back
  }
}

TEST(OkwsPersistenceTest, EmptyRecoveredPasswordTableIsReseeded) {
  // The crash window seeding must survive: a previous boot's group commit
  // flushed the okws_users SCHEMA record but died before the user rows'
  // first batch. On reboot the CREATE answers kAlreadyExists; trusting that
  // alone would skip the inserts forever and lock every user out. idd's
  // row probe must notice the table is empty and reseed it.
  asbestos::testing::TempDir dir;
  OkwsWorldConfig config = BasicConfig();
  config.dbproxy_options.store_dir = dir.path() + "/dbproxy";
  {
    // Stage the torn boot directly in the store: the schema record alone,
    // in dbproxy's persisted format (key "schema/<ordinal>" → original SQL).
    StoreOptions sopts;
    sopts.dir = config.dbproxy_options.store_dir;
    sopts.shards = config.dbproxy_options.shards;
    auto store = DurableStore::Open(sopts);
    ASSERT_TRUE(store.ok());
    ASSERT_EQ(store.value()->Put(
                  "schema/000000",
                  "CREATE TABLE okws_users (username TEXT, password TEXT, userid INTEGER)",
                  Label::Bottom(), Label::Top()),
              Status::kOk);
    ASSERT_EQ(store.value()->Sync(), Status::kOk);
  }
  OkwsWorld world(config);
  world.PumpUntilReady();
  EXPECT_EQ(FetchFrom(world, "/echo", "alice", "pw-a").status, 200)
      << "login must work after reseeding the empty recovered table";
}

// --- Durable demux sessions: a reboot is invisible to logged-in browsers ----

DemuxProcess* FindDemux(OkwsWorld& world) {
  Process* p = world.kernel().FindProcessByName("demux");
  return p == nullptr ? nullptr : dynamic_cast<DemuxProcess*>(p->code.get());
}

TEST(OkwsPersistenceTest, DemuxSessionsSurviveReboot) {
  asbestos::testing::TempDir dir;
  OkwsWorldConfig config = BasicConfig();
  config.idd_options.store_dir = dir.path() + "/idd";
  config.demux_options.store_dir = dir.path() + "/demux";

  {  // --- boot 1: a login opens a session; the session table persists ------
    OkwsWorld world(config);
    world.PumpUntilReady();
    EXPECT_EQ(FetchFrom(world, "/store?d=hello", "alice", "pw-a").status, 200);
    DemuxProcess* demux = FindDemux(world);
    ASSERT_NE(demux, nullptr);
    EXPECT_EQ(demux->session_count(), 1u);
    ASSERT_NE(demux->store(), nullptr);
    EXPECT_EQ(demux->store()->dirty_shard_count(), 0u)
        << "the registration must be handed to the group commit before idle";
  }

  {  // --- boot 2: the session is back before any traffic -------------------
    OkwsWorld world(config);
    world.PumpUntilReady();
    DemuxProcess* demux = FindDemux(world);
    ASSERT_NE(demux, nullptr);
    EXPECT_EQ(demux->session_count(), 1u) << "sessions must recover before any request";

    // The logged-in browser keeps working with its old credentials. The
    // worker's event process died with the boot, so this first connection
    // forks a fresh one (the recovered session re-registers its uW).
    const uint64_t eps_before = world.kernel().stats().eps_created;
    EXPECT_EQ(FetchFrom(world, "/store?d=again", "alice", "pw-a").status, 200);
    EXPECT_EQ(world.kernel().stats().eps_created, eps_before + 1);

    // And from then on, follow-ups resume that event process (§7.3).
    EXPECT_EQ(FetchFrom(world, "/store", "alice", "pw-a").status, 200);
    EXPECT_EQ(world.kernel().stats().eps_created, eps_before + 1);

    // Wrong credentials still fail: recovery must not weaken the check.
    EXPECT_EQ(FetchFrom(world, "/store", "alice", "wrong").status, 403);
  }

  {  // --- between boots: alice's session rewritten in the retired layout ---
    // (uT, uG, an expiry varint, password). It fails the strict decode.
    StoreOptions opts;
    opts.dir = config.demux_options.store_dir;
    auto opened = DurableStore::Open(opts);
    ASSERT_TRUE(opened.ok());
    std::unique_ptr<DurableStore> store = opened.take();
    const std::string key = okws_session::Key("alice", "store");
    const StoreRecord* rec = store->Get(key);
    ASSERT_NE(rec, nullptr);
    Handle taint;
    Handle grant;
    std::string password;
    ASSERT_TRUE(okws_session::DecodeValue(rec->value, &taint, &grant, &password));
    std::string old_value;
    codec::AppendVarint(taint.value(), &old_value);
    codec::AppendVarint(grant.value(), &old_value);
    codec::AppendVarint(0, &old_value);  // expires_at: never
    codec::AppendString(password, &old_value);
    const Label secrecy = rec->secrecy;
    const Label integrity = rec->integrity;
    ASSERT_EQ(store->Put(key, old_value, secrecy, integrity), Status::kOk);
    ASSERT_EQ(store->Sync(), Status::kOk);
  }

  {  // --- boot 3: the record is skipped, like any unparseable one ----------
    OkwsWorld world(config);
    world.PumpUntilReady();
    DemuxProcess* demux = FindDemux(world);
    ASSERT_NE(demux, nullptr);
    EXPECT_EQ(demux->session_count(), 0u) << "an old-layout record must not recover";
    // The user is not locked out: the next request logs in again.
    EXPECT_EQ(FetchFrom(world, "/store", "alice", "pw-a").status, 200);
    EXPECT_EQ(demux->session_count(), 1u);
  }
}

// --- Follower reads of the replicated session table --------------------------

TEST(OkwsFollowerReadTest, FollowerServesTheReplicatedSession) {
  asbestos::testing::TempDir dir;
  OkwsWorldConfig config = BasicConfig();
  config.idd_options.store_dir = dir.path() + "/idd";
  config.demux_options.store_dir = dir.path() + "/demux";
  // A lease long enough that no read below is refused as stale.
  config.demux_options.replication.listen_tcp_port = 7101;
  config.demux_options.replication.lease_interval_cycles = 2'000'000'000;
  OkwsWorld world(config);
  world.PumpUntilReady();

  StoreOptions replica_opts;
  replica_opts.dir = dir.path() + "/demux-replica";
  replica_opts.shards = 4;
  ReplicaOptions fopts;
  fopts.follower_id = 1;  // identified; the lease above never runs out, so no promote
  FollowerWorld follower(0x2222, 7201, replica_opts, fopts, /*read_tcp_port=*/7300);
  ReplicationLink link(&world.net(), 7101, &follower.net(), 7201);
  const auto step = [&] {
    link.Step();
    world.Pump();
    follower.Pump();
  };

  // A login registers (and persists) alice's session. The client's
  // read-your-writes token is the primary's position in the session's
  // shard right after that write.
  EXPECT_EQ(FetchFrom(world, "/echo", "alice", "pw-a").status, 200);
  DemuxProcess* demux = FindDemux(world);
  ASSERT_NE(demux, nullptr);
  ASSERT_EQ(demux->session_count(), 1u);
  const std::string key = okws_session::Key("alice", "echo");
  const DurableStore* store = demux->store();
  replwire::ReadCursorToken token;
  token.source_id = demux->replication()->hub()->source_id();
  token.shard = store->ShardIndexOf(key);
  token.generation = store->shard_wal_generation(static_cast<uint32_t>(token.shard));
  token.offset = store->shard_wal_offset(static_cast<uint32_t>(token.shard));
  ASSERT_FALSE(token.empty());
  ASSERT_GT(token.offset, 0u);

  for (int i = 0; i < 3000; ++i) {
    step();
    if (demux->replication()->hub()->session_count() == 1 &&
        demux->replication()->hub()->AllFullySynced()) {
      break;
    }
  }
  ASSERT_TRUE(demux->replication()->hub()->AllFullySynced());

  // The follower serves the session record — honoring the token, so this
  // read observes alice's own registration, byte for byte.
  ReadClient reader(&follower.net(), 7300, /*auth_token=*/0);
  ReadResult r;
  ASSERT_TRUE(reader.Read(key, Label::Top(), token, step, &r));
  EXPECT_EQ(r.status, ReadStatus::kOk);
  const StoreRecord* primary_record = store->Get(key);
  ASSERT_NE(primary_record, nullptr);
  EXPECT_EQ(r.value, primary_record->value);
}

// §9.3 reply-capability release in a world whose service parks sessions:
// every request, including the ones demux rejects itself (403, 404), must
// leave netd able to announce the next connection.
TEST(OkwsReplyCapTest, ParkingWorldAnswersEveryRequestAfterRejections) {
  OkwsWorldConfig config;
  config.users = {{"alice", "pw-a"}, {"bob", "pw-b"}};
  WorkerOptions parking;
  parking.park_idle_sessions = true;
  config.services.push_back(
      {"echo", [] { return std::make_unique<EchoService>(); }, false, parking});
  OkwsWorld world(std::move(config));
  world.PumpUntilReady();

  EXPECT_EQ(FetchFrom(world, "/echo", "alice", "pw-a").status, 200);
  EXPECT_EQ(FetchFrom(world, "/echo", "alice", "wrong").status, 403);
  EXPECT_EQ(FetchFrom(world, "/echo", "bob", "pw-b").status, 200);
  EXPECT_EQ(FetchFrom(world, "/missing", "bob", "pw-b").status, 404);
  EXPECT_EQ(FetchFrom(world, "/echo", "alice", "pw-a").status, 200)
      << "a parked session resumes after the rejections";
}

TEST_F(OkwsTest, PipelineDeliversExactlyOneIddLoginPerUser) {
  auto* idd = world_->kernel().FindProcessByName("idd");
  ASSERT_NE(idd, nullptr);
  (void)Fetch("/echo", "alice", "pw-a");
  (void)Fetch("/echo", "alice", "pw-a");
  (void)Fetch("/store?d=1", "alice", "pw-a");  // second service, same user
  (void)Fetch("/echo", "bob", "pw-b");
  // idd caches identities; only two users ever logged in.
  auto* idd_code = dynamic_cast<IddProcess*>(idd->code.get());
  ASSERT_NE(idd_code, nullptr);
  EXPECT_EQ(idd_code->cached_identities(), 2u);
}

}  // namespace
}  // namespace asbestos
