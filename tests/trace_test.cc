// Observability plane (src/obs): the metrics registry, the event log's
// flow-aware spans, and the clearance gate on reading them back.
//
// The end-to-end tests drive the real OKWS suite and the real replication
// protocol and check the ISSUE acceptance criteria directly: one request
// produces a complete span chain with monotone virtual-clock timestamps; a
// reader below the request's secrecy level observes zero of its events (and
// cannot even count them); replication frames carry the session's origin
// trace id on every hop. The log's own bounds are checked here too: its
// memory stays within capacity across 10^6 traces, and observing it never
// moves the label-work counters.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <memory>
#include <string>
#include <vector>

#include "src/obs/event_log.h"
#include "src/obs/metrics.h"
#include "src/okws/okws_world.h"
#include "src/okws/services.h"
#include "src/replication/replica.h"
#include "src/replication/source.h"
#include "src/replication/wire.h"
#include "src/sim/cycles.h"
#include "src/store/store.h"
#include "tests/test_util.h"

namespace asbestos {
namespace {

using testing::TempDir;

Handle H(uint64_t v) { return Handle::FromValue(v); }

// --- Metrics registry --------------------------------------------------------

TEST(MetricsRegistryTest, CounterGaugeHistogramBasics) {
  obs::Registry& reg = obs::Registry::Get();

  obs::Counter& c = reg.counter("test.reg.counter");
  c.Reset();
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.value(), 42u);
  // Same name returns the same object: call sites can cache references.
  EXPECT_EQ(&reg.counter("test.reg.counter"), &c);

  obs::Gauge& g = reg.gauge("test.reg.gauge");
  g.Set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);

  obs::CycleHistogram& h = reg.histogram("test.reg.hist");
  h.Reset();
  for (uint64_t v : {1u, 2u, 4u, 1024u}) {
    h.Record(v);
  }
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 1031u);
  EXPECT_EQ(h.max(), 1024u);
  EXPECT_GE(h.ApproxQuantile(0.99), h.ApproxQuantile(0.50));
  EXPECT_LE(h.ApproxQuantile(0.99), 1024u);
}

TEST(MetricsRegistryTest, SnapshotIsSortedAndCarriesHistogramDerived) {
  obs::Registry& reg = obs::Registry::Get();
  reg.counter("test.snap.b").Reset();
  reg.counter("test.snap.a").Reset();
  reg.counter("test.snap.a").Add(7);
  reg.histogram("test.snap.hist").Reset();
  reg.histogram("test.snap.hist").Record(100);

  const auto snap = reg.Snapshot();
  // std::map iteration: deterministic lexicographic key order.
  std::vector<std::string> keys;
  for (const auto& [k, v] : snap) {
    keys.push_back(k);
  }
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  EXPECT_DOUBLE_EQ(snap.at("test.snap.a"), 7.0);
  EXPECT_DOUBLE_EQ(snap.at("test.snap.b"), 0.0);
  EXPECT_DOUBLE_EQ(snap.at("test.snap.hist.count"), 1.0);
  EXPECT_DOUBLE_EQ(snap.at("test.snap.hist.max"), 100.0);

  // The always-registered gauge groups (static-init registrations in the
  // library) surface the label-cache, intern, and cycle-clock families.
  EXPECT_EQ(snap.count("kernel.label_cache.hits"), 1u);
  EXPECT_EQ(snap.count("labels.intern.probes"), 1u);
  EXPECT_EQ(snap.count("cycles.now"), 1u);

  const std::string json = reg.SnapshotJson();
  EXPECT_NE(json.find("\"test.snap.a\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"cycles.now\""), std::string::npos);
}

TEST(MetricsRegistryTest, GaugeGroupsUnregisterCleanly) {
  obs::Registry& reg = obs::Registry::Get();
  const uint64_t id = reg.RegisterGauges(
      [](obs::GaugeSink& sink) { sink.Set("test.group.transient", 5.0); });
  EXPECT_EQ(reg.Snapshot().count("test.group.transient"), 1u);
  reg.UnregisterGauges(id);
  EXPECT_EQ(reg.Snapshot().count("test.group.transient"), 0u);
}

// --- Event log: spans -------------------------------------------------------

class EventLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::EventLog::SetEnabled(true);
    Log().Clear();
  }
  void TearDown() override {
    Log().SetCapacity(8192);
    Log().Clear();
    obs::EventLog::SetEnabled(false);
  }
  static obs::EventLog& Log() { return obs::EventLog::Get(); }
};

TEST_F(EventLogTest, DisabledEmitIsANoOp) {
  obs::EventLog::SetEnabled(false);
  const uint64_t tid = Log().MintTraceId();
  Log().Span(tid, "test", "test.span", "", Label::Bottom());
  EXPECT_TRUE(Log().records().empty());
}

TEST_F(EventLogTest, TraceGateIsLubAndSurvivesEviction) {
  Log().SetCapacity(2);
  const uint64_t tid = Log().MintTraceId();
  const Label high({{H(7), Level::kL3}}, Level::kStar);
  Log().Span(tid, "test", "a", "", high);
  Log().Span(tid, "test", "b", "", Label::Bottom());
  Log().Span(tid, "test", "c", "", Label::Bottom());
  Log().Span(tid, "test", "d", "", Label::Bottom());
  // Ring holds only the last two events; the high "a" event is long gone.
  ASSERT_EQ(Log().records().size(), 2u);
  EXPECT_EQ(Log().records().front().name, "c");
  // But the trace gate remembers: the trace stays as secret as its most
  // secret event ever, so eviction opens no declassification hole.
  EXPECT_TRUE(high.Leq(Log().TraceGate(tid)));
}

TEST_F(EventLogTest, LowReaderSeesNeitherEventsNorCounts) {
  const Label high({{H(7), Level::kL3}}, Level::kStar);
  const uint64_t secret = Log().MintTraceId();
  const uint64_t pub = Log().MintTraceId();
  // The secret trace starts with an innocuous Bottom event (netd.accept
  // style) before it touches anything labeled — exactly the shape a
  // counting channel would exploit.
  Log().Span(secret, "netd", "netd.accept", "", Label::Bottom());
  Log().Span(secret, "worker", "worker.request", "", high);
  Log().Span(pub, "netd", "netd.accept", "", Label::Bottom());

  obs::Reader low(Label::DefaultReceive());  // clearance {2}
  obs::Reader top(Label::Top());

  EXPECT_FALSE(low.CanObserveTrace(secret));
  EXPECT_TRUE(low.CanObserveTrace(pub));
  EXPECT_TRUE(top.CanObserveTrace(secret));

  // The low reader must not see the secret trace's Bottom-labeled accept
  // event either: filtering is by the trace gate, so the event count is not
  // a side channel on how many secret requests arrived.
  EXPECT_EQ(low.VisibleCount(), 1u);
  ASSERT_EQ(low.Visible().size(), 1u);
  EXPECT_EQ(low.Visible()[0].trace_id, pub);
  EXPECT_EQ(top.VisibleCount(), 3u);
  EXPECT_NE(top.VisibleJson().find("worker.request"), std::string::npos);
  EXPECT_EQ(low.VisibleJson().find("worker.request"), std::string::npos);
}

TEST_F(EventLogTest, WraparoundNeverLeaksSecretHistoryIntoLowCounts) {
  // Force eviction with a tiny ring and interleave secret and public
  // traffic. At every point — before, during, and after wraparound — the
  // low reader's count must equal the number of PUBLIC events still
  // retained, never reflecting how many secret events passed through.
  Log().SetCapacity(4);
  const Label high({{H(7), Level::kL3}}, Level::kStar);
  obs::Reader low(Label::DefaultReceive());

  const uint64_t secret = Log().MintTraceId();
  Log().Span(secret, "netd", "netd.accept", "", Label::Bottom());
  Log().Span(secret, "worker", "worker.request", "", high);
  EXPECT_EQ(low.VisibleCount(), 0u);

  // Burn through several ring generations of secret events under public
  // cover traffic; the secret trace's early events evict, but its trace
  // gate keeps every retained event of it invisible.
  std::vector<uint64_t> pub_tids;
  for (int round = 0; round < 3; ++round) {
    const uint64_t pub = Log().MintTraceId();
    pub_tids.push_back(pub);
    Log().Span(pub, "netd", "netd.accept", "", Label::Bottom());
    Log().Span(secret, "worker", "worker.respond", "", Label::Bottom());
    ASSERT_EQ(Log().records().size(), std::min<size_t>(4, 2 * (round + 2)));
    // Exactly the public events still in the ring are visible (capacity 4,
    // alternating emission: at most the 2 newest public events survive).
    const size_t retained_pub = std::min<size_t>(pub_tids.size(), 2);
    EXPECT_EQ(low.VisibleCount(), retained_pub) << "round " << round;
    for (const obs::Record& ev : low.Visible()) {
      EXPECT_EQ(ev.label.Get(H(7)), Level::kStar) << "no secret event leaks";
    }
  }
  // The secret trace stays as secret as its most secret event ever, even
  // though that event was evicted rounds ago.
  EXPECT_TRUE(high.Leq(Log().TraceGate(secret)));
  EXPECT_FALSE(low.CanObserveTrace(secret));
  obs::Reader top(Label::Top());
  EXPECT_EQ(top.VisibleCount(), 4u);
}

TEST_F(EventLogTest, ObservingNeverPerturbsLabelWorkStats) {
  // Appending runs label algebra (the trace gate's lub) and reading runs
  // the clearance check; neither may reach the Figure-9 work counters, or
  // turning the log on would move the figures it is meant to explain.
  const uint64_t tid = Log().MintTraceId();
  const Label request({{H(5), Level::kL3}}, Level::kL1);
  const Label reply({{H(6), Level::kL2}}, Level::kStar);
  const obs::Reader low(Label::DefaultReceive());
  const LabelWorkStats before = GetLabelWorkStats();
  Log().Span(tid, "worker", "worker.request", "", request);
  Log().Span(tid, "worker", "worker.respond", "", reply);
  EXPECT_EQ(low.VisibleCount(), 0u);
  const LabelWorkStats& after = GetLabelWorkStats();
  EXPECT_EQ(after.ops, before.ops);
  EXPECT_EQ(after.entries_visited, before.entries_visited);
  EXPECT_EQ(after.fast_path_hits, before.fast_path_hits);
}

TEST_F(EventLogTest, MemoryStaysBoundedAcrossAMillionTraces) {
  // Per-trace gates are dropped with their trace's last live record, so a
  // long-running server holds at most `capacity` records and `capacity`
  // gates, however many requests it has served.
  Log().SetCapacity(1024);
  for (int i = 0; i < 1000000; ++i) {
    Log().Span(Log().MintTraceId(), "netd", "netd.accept", "", Label::Bottom());
  }
  EXPECT_EQ(Log().total_appended(), 1000000u);
  EXPECT_LE(Log().records().size(), 1024u);
  EXPECT_LE(Log().live_gates(), 1024u);
}

// --- End-to-end: OKWS span chain --------------------------------------------

class OkwsTraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    OkwsWorldConfig config;
    config.users = {{"alice", "pw-a"}, {"bob", "pw-b"}};
    config.services.push_back(
        {"echo", [] { return std::make_unique<EchoService>(); }, false, {}});
    config.services.push_back(
        {"notes", [] { return std::make_unique<NotesService>(); }, false, {}});
    config.extra_tables = {NotesService::kTableSql};
    world_ = std::make_unique<OkwsWorld>(std::move(config));
    world_->PumpUntilReady();
    obs::EventLog::SetEnabled(true);
    obs::EventLog::Get().Clear();
  }

  void TearDown() override {
    obs::EventLog::Get().Clear();
    obs::EventLog::SetEnabled(false);
  }

  HttpLoadClient::Result Fetch(const std::string& target, const std::string& user,
                               const std::string& pass) {
    HttpLoadClient client(&world_->net(), 80, 4);
    client.Enqueue(OkwsWorld::MakeRequest(target, user, pass), 0);
    world_->RunClient(&client);
    EXPECT_EQ(client.results().size(), 1u) << target << " produced no response";
    return client.results().empty() ? HttpLoadClient::Result{} : client.results()[0];
  }

  // Spans in the log, in emission order.
  static std::vector<obs::Record> Spans() {
    std::vector<obs::Record> out;
    for (const obs::Record& r : obs::EventLog::Get().records()) {
      if (r.kind == obs::RecordKind::kSpan) {
        out.push_back(r);
      }
    }
    return out;
  }

  // Spans of the given trace with the given name, in emission order.
  static std::vector<obs::Record> Named(uint64_t trace_id, const std::string& name) {
    std::vector<obs::Record> out;
    for (const obs::Record& ev : Spans()) {
      if (ev.trace_id == trace_id && ev.name == name) {
        out.push_back(ev);
      }
    }
    return out;
  }

  std::unique_ptr<OkwsWorld> world_;
};

TEST_F(OkwsTraceTest, OneRequestProducesACompleteSpanChain) {
  const auto r = Fetch("/notes?op=add&text=buy+milk", "alice", "pw-a");
  ASSERT_EQ(r.status, 200);

  // Exactly one trace was minted (one connection), and every instrumented
  // hop stamped it: accept -> demux -> worker -> dbproxy -> respond ->
  // reply. Kernel deliveries along the way carry the same id.
  std::vector<uint64_t> ids;
  for (const obs::Record& ev : Spans()) {
    ASSERT_NE(ev.trace_id, 0u) << ev.name;
    ids.push_back(ev.trace_id);
  }
  ASSERT_FALSE(ids.empty());
  const uint64_t tid = ids[0];
  EXPECT_TRUE(std::all_of(ids.begin(), ids.end(),
                          [&](uint64_t id) { return id == tid; }));

  // The chain appears as an in-order subsequence of the ring (other spans
  // interleave: the idd password check issues its own dbproxy statement
  // before the worker ever sees the request).
  const char* chain[] = {"netd.accept",    "demux.dispatch", "worker.request",
                         "dbproxy.stmt",   "worker.respond", "netd.reply"};
  size_t chain_idx = 0;
  uint64_t prev_cycles = 0;
  for (const obs::Record& ev : Spans()) {
    if (chain_idx < std::size(chain) && ev.trace_id == tid &&
        ev.name == chain[chain_idx]) {
      // Virtual-clock timestamps are monotone along the chain.
      EXPECT_GE(ev.at_cycles, prev_cycles) << ev.name;
      prev_cycles = ev.at_cycles;
      ++chain_idx;
    }
  }
  EXPECT_EQ(chain_idx, std::size(chain))
      << "span chain incomplete; next missing: " << chain[chain_idx];

  // Hop details identify the flow without leaking payloads: the dispatch
  // names the service and user, the statement spans carry only the verb.
  EXPECT_NE(Named(tid, "demux.dispatch")[0].detail.find("service=notes"),
            std::string::npos);
  EXPECT_NE(Named(tid, "worker.request")[0].detail.find("user=alice"),
            std::string::npos);
  for (const obs::Record& stmt : Named(tid, "dbproxy.stmt")) {
    EXPECT_EQ(stmt.detail.find("buy"), std::string::npos)
        << "statement text leaked: " << stmt.detail;
  }
}

TEST_F(OkwsTraceTest, LowClearanceReaderObservesNothingOfATaintedRequest) {
  ASSERT_EQ(Fetch("/notes?op=add&text=secret", "alice", "pw-a").status, 200);
  ASSERT_FALSE(Spans().empty());
  const uint64_t tid = Spans().front().trace_id;

  // The request touched alice's row taint, so the trace's gate sits above
  // an unprivileged clearance: zero events AND zero count.
  obs::Reader low(Label::DefaultReceive());
  EXPECT_FALSE(low.CanObserveTrace(tid));
  EXPECT_EQ(low.VisibleCount(obs::kSpans), 0u);
  EXPECT_TRUE(low.Visible(obs::kSpans).empty());

  obs::Reader top(Label::Top());
  EXPECT_TRUE(top.CanObserveTrace(tid));
  EXPECT_EQ(top.VisibleCount(obs::kSpans), Spans().size());
}

TEST_F(OkwsTraceTest, WhyTaintedExplainsARequestAcrossTheProcessSuite) {
  // The ISSUE acceptance path: run real requests through the OKWS suite,
  // then ask the log why a contaminated process carries a user's taint.
  // The answer must be a multi-hop chain across distinct processes ending
  // at the taint's origin, while a below-clearance reader can neither read
  // the chain nor count its edges.
  ASSERT_EQ(Fetch("/notes?op=add&text=buy+tarts", "alice", "pw-a").status, 200);
  ASSERT_EQ(Fetch("/notes?op=list", "alice", "pw-a").status, 200);

  // The newest contamination edge is the freshest "this process is now
  // tainted" fact the run produced; its cause carries the user taint (some
  // handle at level >= 2) that WhyTainted will chase.
  const obs::EventLog& log = obs::EventLog::Get();
  const obs::Record* newest = nullptr;
  for (const obs::Record& e : log.records()) {
    if (e.kind == obs::RecordKind::kContaminate) {
      newest = &e;
    }
  }
  ASSERT_NE(newest, nullptr) << "a tainted notes request contaminates someone";
  uint64_t taint = 0;
  for (const auto& [h, level] : newest->label.Entries()) {
    if (LevelLeq(Level::kL2, level)) {
      taint = h.value();
      break;
    }
  }
  ASSERT_NE(taint, 0u);

  obs::Reader top(Label::Top());
  const std::vector<obs::TaintHop> chain = top.WhyTainted(newest->subject, taint);
  ASSERT_GE(chain.size(), 2u) << "the taint crossed at least one process";
  EXPECT_EQ(chain.front().edge.subject, newest->subject);
  // The walk terminates at the taint's origin, not at an arbitrary edge.
  EXPECT_EQ(chain.back().edge.kind, obs::RecordKind::kOrigin);
  EXPECT_TRUE(chain.back().edge.source.empty());
  // Hops link subject <- source: each hop's source is the next hop's
  // subject, so the chain really is a connected path through the suite.
  std::set<std::string> processes;
  for (size_t i = 0; i < chain.size(); ++i) {
    processes.insert(chain[i].edge.subject);
    if (i + 1 < chain.size()) {
      EXPECT_EQ(chain[i].edge.source, chain[i + 1].edge.subject) << chain[i].via;
    }
  }
  EXPECT_GE(processes.size(), 2u) << "chain spans distinct OKWS processes";

  // "Who got tainted with u" is as secret as u: the below-clearance reader
  // gets an empty chain (never a truncated one), cannot observe ANY edge
  // or refusal that mentions the taint, and its counts agree with its
  // visible sets — counting is not a side channel around reading.
  obs::Reader low(Label::DefaultReceive());
  EXPECT_TRUE(low.WhyTainted(newest->subject, taint).empty());
  const Handle th = Handle::FromValue(taint);
  for (const obs::Record& r : log.records()) {
    if (r.kind != obs::RecordKind::kSpan && LevelLeq(Level::kL2, r.gate.Get(th))) {
      EXPECT_FALSE(low.CanObserve(r)) << r.subject << " " << r.name;
    }
  }
  EXPECT_EQ(low.VisibleCount(obs::kEdges), low.Visible(obs::kEdges).size());
  EXPECT_EQ(low.VisibleCount(obs::kRefusals), low.Visible(obs::kRefusals).size());
  EXPECT_LT(low.VisibleCount(obs::kEdges), top.VisibleCount(obs::kEdges));
}

TEST_F(OkwsTraceTest, DisabledLogLeavesNoResidue) {
  obs::EventLog::SetEnabled(false);
  ASSERT_EQ(Fetch("/echo", "alice", "pw-a").status, 200);
  EXPECT_TRUE(obs::EventLog::Get().records().empty());
}

TEST_F(OkwsTraceTest, MetricsSnapshotCarriesKernelAndOkwsFamilies) {
  ASSERT_EQ(Fetch("/notes?op=add&text=x", "alice", "pw-a").status, 200);
  const auto snap = obs::Registry::Get().Snapshot();
  // Kernel gauge group (registered for the lifetime of the world's kernel).
  EXPECT_GT(snap.at("kernel.stats.deliveries"), 0.0);
  EXPECT_GT(snap.at("kernel.mem.total_bytes"), 0.0);
  // Label-check cache and intern table see traffic from label operations.
  EXPECT_GT(snap.at("kernel.label_cache.hits") + snap.at("kernel.label_cache.misses"),
            0.0);
  EXPECT_GT(snap.at("labels.intern.probes"), 0.0);
  // netd persistent counters survive any world teardown.
  EXPECT_GE(snap.at("netd.connections_accepted"), 1.0);
  // The client records per-request latency on the virtual clock.
  EXPECT_GE(snap.at("okws.request_cycles.count"), 1.0);
}

// --- End-to-end: replication trace + hub health ------------------------------

class ReplTraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::EventLog::SetEnabled(true);
    obs::EventLog::Get().Clear();

    StoreOptions popts;
    popts.dir = dir_.path() + "/primary";
    popts.shards = 2;
    auto store = DurableStore::Open(popts);
    ASSERT_TRUE(store.ok());
    primary_ = store.take();
    hub_ = std::make_unique<ReplicationHub>(primary_.get(), /*source_id=*/0x0B5);
    session_ = hub_->OpenSession();

    StoreOptions ropts;
    ropts.dir = dir_.path() + "/replica";
    ropts.shards = 2;
    auto replica = ReplicaStore::Open(ropts, ReplicaOptions{});
    ASSERT_TRUE(replica.ok());
    replica_ = replica.take();
  }

  void TearDown() override {
    obs::EventLog::Get().Clear();
    obs::EventLog::SetEnabled(false);
  }

  static std::vector<replwire::WireMessage> Parse(const std::string& stream) {
    std::vector<replwire::WireMessage> out;
    replwire::WireMessage m;
    size_t pos = 0;
    while (replwire::ParseFrame(stream, &pos, &m) == replwire::FrameParse::kFrame) {
      out.push_back(m);
      m = replwire::WireMessage();
    }
    return out;
  }

  // Frame/ack rounds until the session has nothing left to ship. When
  // expect_tid is nonzero, every frame must carry that trace id.
  void PumpFrames(uint64_t expect_tid, std::string* acks) {
    for (int round = 0; round < 100; ++round) {
      for (const replwire::WireMessage& a : Parse(std::move(*acks))) {
        session_->HandleAck(a);
      }
      acks->clear();
      std::string frames;
      if (session_->PollFrames(1 << 16, ~0ULL, &frames) == 0) {
        break;
      }
      for (const replwire::WireMessage& m : Parse(std::move(frames))) {
        if (expect_tid != 0) {
          EXPECT_EQ(m.trace_id, expect_tid) << "frame type " << int(m.type);
        }
        ASSERT_EQ(replica_->HandleFrame(m, acks), Status::kOk);
      }
    }
    for (const replwire::WireMessage& a : Parse(std::move(*acks))) {
      session_->HandleAck(a);
    }
    acks->clear();
  }

  TempDir dir_;
  std::unique_ptr<DurableStore> primary_;
  std::unique_ptr<ReplicationHub> hub_;
  FollowerSession* session_ = nullptr;
  std::unique_ptr<ReplicaStore> replica_;
};

TEST_F(ReplTraceTest, EveryFrameCarriesTheSessionTraceId) {
  const Label secrecy({{H(7), Level::kL3}}, Level::kStar);
  for (int i = 0; i < 20; ++i) {
    ASSERT_EQ(primary_->Put("k" + std::to_string(i), "v", secrecy, Label::Bottom()),
              Status::kOk);
  }

  std::string acks;
  const auto hello = Parse(session_->SessionHello());
  ASSERT_EQ(hello.size(), 1u);
  const uint64_t tid = hello[0].trace_id;
  EXPECT_NE(tid, 0u) << "hello mints the session's flow trace";
  ASSERT_EQ(replica_->HandleFrame(hello[0], &acks), Status::kOk);
  EXPECT_EQ(replica_->session_trace_id(), tid);

  // First catch-up arrives as snapshots (the fresh replica has no shared
  // history); a second round of writes then flows as WAL batches. Both
  // frame kinds must ride the session's trace.
  PumpFrames(tid, &acks);
  for (int i = 0; i < 10; ++i) {
    ASSERT_EQ(primary_->Put("late" + std::to_string(i), "v", secrecy, Label::Bottom()),
              Status::kOk);
  }
  PumpFrames(tid, &acks);
  EXPECT_TRUE(session_->FullySynced());

  // Span chain: ship events on the hub side, apply events on the replica
  // side, one trace end to end.
  std::string names;
  bool saw_hello = false, saw_ship = false, saw_apply = false;
  for (const obs::Record& ev : obs::Reader(Label::Top()).Visible(obs::kSpans)) {
    EXPECT_EQ(ev.trace_id, tid);
    names += ev.name + " ";
    saw_hello |= ev.name == "repl.hello";
    saw_ship |= ev.name == "repl.ship";
    saw_apply |= ev.name == "repl.apply";
  }
  EXPECT_TRUE(saw_hello) << names;
  EXPECT_TRUE(saw_ship) << names;
  EXPECT_TRUE(saw_apply) << names;
}

TEST_F(ReplTraceTest, DebugStatusAndHealthGauges) {
  ASSERT_EQ(primary_->Put("k", "v", Label::Bottom(), Label::Bottom()), Status::kOk);

  std::string acks;
  for (const replwire::WireMessage& m : Parse(session_->SessionHello())) {
    ASSERT_EQ(replica_->HandleFrame(m, &acks), Status::kOk);
  }
  PumpFrames(0, &acks);
  // A post-catch-up write ships as a WAL batch (the initial sync was a
  // snapshot), exercising the batch counters and the WAL read path.
  ASSERT_EQ(primary_->Put("k2", "v2", Label::Bottom(), Label::Bottom()), Status::kOk);
  PumpFrames(0, &acks);

  const HubDebugStatus st = hub_->DebugStatus();
  EXPECT_EQ(st.source_id, 0x0B5u);
  ASSERT_EQ(st.sessions.size(), 1u);
  const auto& sess = st.sessions[0];
  EXPECT_NE(sess.trace_id, 0u);
  EXPECT_TRUE(sess.fully_synced);
  EXPECT_EQ(sess.apply_lag_cycles, 0u) << "fully synced => no lag";
  ASSERT_EQ(sess.shards.size(), 2u);
  for (const auto& cursor : sess.shards) {
    EXPECT_EQ(cursor.shipped_gen, cursor.acked_gen);
    EXPECT_EQ(cursor.shipped_off, cursor.acked_off);
  }

  // The same health surfaces as gauges while the hub lives, plus the
  // persistent repl.* counters that outlive it.
  const auto snap = obs::Registry::Get().Snapshot();
  bool saw_hub_gauge = false;
  for (const auto& [key, value] : snap) {
    if (key.rfind("repl.hub", 0) == 0 && key.find(".sessions") != std::string::npos) {
      saw_hub_gauge = value >= 1.0;
      if (saw_hub_gauge) break;
    }
  }
  EXPECT_TRUE(saw_hub_gauge) << "hub gauge group not registered";
  EXPECT_GE(snap.at("repl.batches_shipped"), 1.0);
  EXPECT_GE(snap.at("repl.bytes_shipped"), 1.0);
  EXPECT_EQ(snap.count("repl.apply_lag_cycles"), 1u);
  EXPECT_GE(snap.at("store.wal_read_calls"), 1.0);
}

}  // namespace
}  // namespace asbestos
