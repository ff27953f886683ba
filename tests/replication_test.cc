// Label-preserving WAL replication (src/replication): wire format, hub ↔
// replica cursor protocol (duplicates, gaps, snapshot catch-up, multi-
// follower fan-out through the shared frame cache), lease/heartbeat
// automatic failover, and the full K-machine path over simnet/netd —
// primary kill, lease-driven promotion of exactly one successor, and
// bit-identical record/label/handle state versus single-node crash
// recovery.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "src/fs/file_server.h"
#include "src/net/client.h"
#include "src/obs/event_log.h"
#include "src/obs/metrics.h"
#include "src/okws/idd.h"
#include "src/okws/okws_world.h"
#include "src/okws/services.h"
#include "src/replication/follower.h"
#include "src/replication/link.h"
#include "src/replication/read_gate.h"
#include "src/replication/replica.h"
#include "src/replication/source.h"
#include "src/replication/wire.h"
#include "src/sim/cycles.h"
#include "src/store/store.h"
#include "tests/test_util.h"

namespace asbestos {
namespace {

using testing::RecorderProcess;
using testing::TempDir;

Handle H(uint64_t v) { return Handle::FromValue(v); }

// --- Wire format -------------------------------------------------------------

TEST(ReplWireTest, FrameRoundTrip) {
  replwire::WireMessage batch;
  batch.type = replwire::kBatch;
  batch.shard = 3;
  batch.generation = 7;
  batch.offset = 4096;
  batch.lease_until = 123456;
  batch.successor_id = 9;
  batch.payload = std::string("framed wal bytes\x00\x01", 18);

  std::string stream;
  replwire::AppendFrame(batch, &stream);
  replwire::WireMessage ack;
  ack.type = replwire::kAck;
  ack.shard = 3;
  ack.source_id = 0xABCDEF;
  ack.generation = 7;
  ack.offset = 8192;
  ack.follower_id = 42;
  replwire::AppendFrame(ack, &stream);
  replwire::WireMessage hb;
  hb.type = replwire::kHeartbeat;
  hb.lease_until = 999;
  hb.successor_id = 42;
  replwire::AppendFrame(hb, &stream);
  replwire::WireMessage busy;
  busy.type = replwire::kBusy;
  busy.retry_after = 777;
  replwire::AppendFrame(busy, &stream);

  replwire::WireMessage out;
  ASSERT_EQ(replwire::ConsumeFrame(&stream, &out), replwire::FrameParse::kFrame);
  EXPECT_EQ(out.type, replwire::kBatch);
  EXPECT_EQ(out.shard, 3u);
  EXPECT_EQ(out.generation, 7u);
  EXPECT_EQ(out.offset, 4096u);
  EXPECT_EQ(out.lease_until, 123456u);
  EXPECT_EQ(out.successor_id, 9u);
  EXPECT_EQ(out.payload, batch.payload);
  ASSERT_EQ(replwire::ConsumeFrame(&stream, &out), replwire::FrameParse::kFrame);
  EXPECT_EQ(out.type, replwire::kAck);
  EXPECT_EQ(out.source_id, 0xABCDEFu);
  EXPECT_EQ(out.offset, 8192u);
  EXPECT_EQ(out.follower_id, 42u);
  ASSERT_EQ(replwire::ConsumeFrame(&stream, &out), replwire::FrameParse::kFrame);
  EXPECT_EQ(out.type, replwire::kHeartbeat);
  EXPECT_EQ(out.lease_until, 999u);
  EXPECT_EQ(out.successor_id, 42u);
  ASSERT_EQ(replwire::ConsumeFrame(&stream, &out), replwire::FrameParse::kFrame);
  EXPECT_EQ(out.type, replwire::kBusy);
  EXPECT_EQ(out.retry_after, 777u);
  EXPECT_TRUE(stream.empty());
}

TEST(ReplWireTest, TornFrameWaitsForMoreBytes) {
  replwire::WireMessage hello;
  hello.type = replwire::kHello;
  hello.source_id = 42;
  hello.shard_count = 4;
  std::string whole;
  replwire::AppendFrame(hello, &whole);

  replwire::WireMessage out;
  // Deliver the frame one byte at a time: every prefix parses as kNeedMore.
  std::string buffer;
  for (size_t i = 0; i + 1 < whole.size(); ++i) {
    buffer.push_back(whole[i]);
    ASSERT_EQ(replwire::ConsumeFrame(&buffer, &out), replwire::FrameParse::kNeedMore);
  }
  buffer.push_back(whole.back());
  ASSERT_EQ(replwire::ConsumeFrame(&buffer, &out), replwire::FrameParse::kFrame);
  EXPECT_EQ(out.source_id, 42u);
  EXPECT_EQ(out.shard_count, 4u);
}

TEST(ReplWireTest, CorruptFramePoisons) {
  replwire::WireMessage hello;
  hello.type = replwire::kHello;
  hello.source_id = 42;
  hello.shard_count = 4;
  std::string stream;
  replwire::AppendFrame(hello, &stream);
  stream[stream.size() - 1] ^= 0x55;  // flip payload bits: CRC must catch it
  replwire::WireMessage out;
  EXPECT_EQ(replwire::ConsumeFrame(&stream, &out), replwire::FrameParse::kCorrupt);
}

// --- Hub ↔ replica protocol (no transport) -----------------------------------

class ReplProtocolTest : public ::testing::Test {
 protected:
  void OpenPrimary(uint32_t shards, uint64_t compact_min = 1024,
                   uint64_t retain_tail_bytes = 0) {
    StoreOptions opts;
    opts.dir = dir_.path() + "/primary";
    opts.shards = shards;
    opts.compact_min_log_records = compact_min;
    opts.retain_wal_tail_bytes = retain_tail_bytes;
    auto store = DurableStore::Open(opts);
    ASSERT_TRUE(store.ok());
    primary_ = store.take();
    hub_ = std::make_unique<ReplicationHub>(primary_.get(), /*source_id=*/0x5EED);
    session_ = hub_->OpenSession();
  }

  void OpenReplica(uint32_t shards, uint64_t follower_id = 0) {
    StoreOptions opts;
    opts.dir = dir_.path() + "/replica";
    opts.shards = shards;
    ReplicaOptions ropts;
    ropts.follower_id = follower_id;
    auto replica = ReplicaStore::Open(opts, ropts);
    ASSERT_TRUE(replica.ok());
    replica_ = replica.take();
  }

  // A replica in its own directory, for multi-follower routing tests.
  std::unique_ptr<ReplicaStore> OpenNamedReplica(const std::string& name, uint32_t shards,
                                                 uint64_t follower_id) {
    StoreOptions opts;
    opts.dir = dir_.path() + "/" + name;
    opts.shards = shards;
    ReplicaOptions ropts;
    ropts.follower_id = follower_id;
    auto replica = ReplicaStore::Open(opts, ropts);
    EXPECT_TRUE(replica.ok());
    return replica.take();
  }

  // Parses a byte stream into individual frames.
  static std::vector<replwire::WireMessage> Parse(std::string stream) {
    std::vector<replwire::WireMessage> out;
    replwire::WireMessage m;
    while (replwire::ConsumeFrame(&stream, &m) == replwire::FrameParse::kFrame) {
      out.push_back(m);
    }
    EXPECT_TRUE(stream.empty());
    return out;
  }

  // One full exchange between a session and a replica: hello/resume
  // handshake, then frames and acks until both sides go quiet.
  static void SyncPair(FollowerSession* session, ReplicaStore* replica) {
    std::string acks;
    for (const replwire::WireMessage& m : Parse(session->SessionHello())) {
      ASSERT_EQ(replica->HandleFrame(m, &acks), Status::kOk);
    }
    for (int round = 0; round < 100; ++round) {
      for (const replwire::WireMessage& a : Parse(std::move(acks))) {
        session->HandleAck(a);
      }
      acks.clear();
      std::string frames;
      if (session->PollFrames(1 << 16, ~0ULL, &frames) == 0) {
        break;
      }
      for (const replwire::WireMessage& m : Parse(std::move(frames))) {
        ASSERT_EQ(replica->HandleFrame(m, &acks), Status::kOk);
      }
    }
    for (const replwire::WireMessage& a : Parse(std::move(acks))) {
      session->HandleAck(a);
    }
  }

  void SyncOnce() { SyncPair(session_, replica_.get()); }

  static void ExpectStoreMatches(const DurableStore* got_store, const DurableStore* want) {
    ASSERT_EQ(got_store->size(), want->size());
    want->ForEach([&](const std::string& key, const StoreRecord& w) {
      const StoreRecord* got = got_store->Get(key);
      ASSERT_NE(got, nullptr) << key;
      EXPECT_EQ(got->value, w.value) << key;
      EXPECT_TRUE(got->secrecy.Equals(w.secrecy)) << key;
      EXPECT_TRUE(got->integrity.Equals(w.integrity)) << key;
    });
  }

  void ExpectReplicaMatchesPrimary() {
    ExpectStoreMatches(replica_->store(), primary_.get());
  }

  TempDir dir_;
  std::unique_ptr<DurableStore> primary_;
  std::unique_ptr<ReplicationHub> hub_;
  FollowerSession* session_ = nullptr;  // owned by hub_
  std::unique_ptr<ReplicaStore> replica_;
};

TEST_F(ReplProtocolTest, StreamsLabeledRecords) {
  OpenPrimary(4);
  OpenReplica(4);
  const Label secrecy({{H(77), Level::kL3}}, Level::kStar);
  const Label integrity({{H(88), Level::kL0}}, Level::kL3);
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(primary_->Put("key" + std::to_string(i), "value" + std::to_string(i), secrecy,
                            integrity),
              Status::kOk);
  }
  ASSERT_EQ(primary_->Erase("key50"), Status::kOk);
  SyncOnce();
  EXPECT_TRUE(session_->FullySynced());
  ExpectReplicaMatchesPrimary();
  EXPECT_EQ(replica_->store()->Get("key50"), nullptr);
  // Labels came through the pickled WAL records and the canonical-rep
  // intern table: extensionally equal AND entry-for-entry identical.
  const StoreRecord* got = replica_->store()->Get("key1");
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->secrecy.Entries(), secrecy.Entries());
  EXPECT_EQ(got->integrity.Entries(), integrity.Entries());
}

TEST_F(ReplProtocolTest, ShardCountMismatchPoisonsSession) {
  OpenPrimary(4);
  OpenReplica(2);
  std::string acks;
  const auto frames = Parse(session_->SessionHello());
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(replica_->HandleFrame(frames[0], &acks), Status::kInvalidArgs);
}

TEST_F(ReplProtocolTest, DuplicateAndReorderedBatchesApplyIdempotently) {
  OpenPrimary(1);
  OpenReplica(1);
  SyncOnce();  // establish the session at offset 0
  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(primary_->Put("k" + std::to_string(i), "v", Label::Bottom(), Label::Top()),
              Status::kOk);
  }
  // Pull the pending span as several small batches without acking.
  std::string stream;
  ASSERT_GT(session_->PollFrames(/*max_batch_bytes=*/32, ~0ULL, &stream), 1u);
  std::vector<replwire::WireMessage> batches = Parse(std::move(stream));

  std::string acks;
  // Reordered: the second batch first — a gap, ignored but re-acked.
  ASSERT_EQ(replica_->HandleFrame(batches[1], &acks), Status::kOk);
  EXPECT_EQ(replica_->stats().gaps_ignored, 1u);
  // In-order apply.
  ASSERT_EQ(replica_->HandleFrame(batches[0], &acks), Status::kOk);
  ASSERT_EQ(replica_->HandleFrame(batches[1], &acks), Status::kOk);
  const uint64_t applied = replica_->stats().batches_applied;
  // Duplicates: both batches again — skipped, state unchanged.
  ASSERT_EQ(replica_->HandleFrame(batches[0], &acks), Status::kOk);
  ASSERT_EQ(replica_->HandleFrame(batches[1], &acks), Status::kOk);
  EXPECT_EQ(replica_->stats().batches_applied, applied);
  EXPECT_EQ(replica_->stats().duplicates_skipped, 2u);
  // Remaining batches in order; every ack (including re-acks) feeds back.
  for (size_t i = 2; i < batches.size(); ++i) {
    ASSERT_EQ(replica_->HandleFrame(batches[i], &acks), Status::kOk);
  }
  for (const replwire::WireMessage& a : Parse(std::move(acks))) {
    session_->HandleAck(a);
  }
  EXPECT_TRUE(session_->FullySynced());
  ExpectReplicaMatchesPrimary();
}

TEST_F(ReplProtocolTest, GapRewindsViaGoBackN) {
  OpenPrimary(1);
  OpenReplica(1);
  SyncOnce();
  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(primary_->Put("k" + std::to_string(i), "v", Label::Bottom(), Label::Top()),
              Status::kOk);
  }
  std::string stream;
  ASSERT_GT(session_->PollFrames(32, ~0ULL, &stream), 2u);
  std::vector<replwire::WireMessage> batches = Parse(std::move(stream));
  // Deliver only the LAST batch: the replica ignores the gap and re-acks
  // its true position; the session rewinds and retransmits everything.
  std::string acks;
  ASSERT_EQ(replica_->HandleFrame(batches.back(), &acks), Status::kOk);
  for (const replwire::WireMessage& a : Parse(std::move(acks))) {
    session_->HandleAck(a);
  }
  EXPECT_EQ(session_->stats().rewinds, 1u);
  SyncOnce();
  EXPECT_TRUE(session_->FullySynced());
  ExpectReplicaMatchesPrimary();
}

TEST_F(ReplProtocolTest, CompactionForcesSnapshotCatchUp) {
  OpenPrimary(2);
  OpenReplica(2);
  const Label secrecy({{H(9), Level::kL3}}, Level::kStar);
  for (int i = 0; i < 64; ++i) {
    ASSERT_EQ(primary_->Put("k" + std::to_string(i), std::string(100, 'x'), secrecy,
                            Label::Top()),
              Status::kOk);
  }
  // The WAL span a fresh follower would need is gone.
  ASSERT_EQ(primary_->Compact(), Status::kOk);
  EXPECT_EQ(primary_->wal_bytes(), 0u);
  SyncOnce();
  EXPECT_TRUE(session_->FullySynced());
  EXPECT_EQ(replica_->stats().snapshots_installed, 2u);
  ExpectReplicaMatchesPrimary();

  // Mid-session compaction: stream some, compact (generation bump), stream
  // more — the session notices the cursor's span vanished and re-images.
  for (int i = 0; i < 16; ++i) {
    ASSERT_EQ(primary_->Put("post" + std::to_string(i), "y", Label::Bottom(), Label::Top()),
              Status::kOk);
  }
  ASSERT_EQ(primary_->Compact(), Status::kOk);
  SyncOnce();
  EXPECT_TRUE(session_->FullySynced());
  ExpectReplicaMatchesPrimary();
  EXPECT_GE(replica_->stats().snapshots_installed, 3u);
}

TEST_F(ReplProtocolTest, PromoteRefusesFurtherFrames) {
  OpenPrimary(1);
  OpenReplica(1);
  SyncOnce();
  ASSERT_EQ(primary_->Put("k", "v", Label::Bottom(), Label::Top()), Status::kOk);
  std::string stream;
  ASSERT_EQ(session_->PollFrames(1 << 16, ~0ULL, &stream), 1u);
  const auto batches = Parse(std::move(stream));
  ASSERT_EQ(replica_->Promote(), Status::kOk);
  std::string acks;
  EXPECT_EQ(replica_->HandleFrame(batches[0], &acks), Status::kBadState);
  EXPECT_EQ(replica_->store()->Get("k"), nullptr);
}

TEST_F(ReplProtocolTest, WarmResumeAfterReplicaReboot) {
  OpenPrimary(2);
  OpenReplica(2);
  for (int i = 0; i < 32; ++i) {
    ASSERT_EQ(primary_->Put("k" + std::to_string(i), "v", Label::Bottom(), Label::Top()),
              Status::kOk);
  }
  SyncOnce();
  ASSERT_TRUE(session_->FullySynced());
  ASSERT_EQ(replica_->Checkpoint(), Status::kOk);
  const uint64_t snapshots_before = session_->stats().snapshots_shipped;

  // Reboot the replica: the checkpointed cursor lets the session resume
  // without re-imaging.
  replica_.reset();
  OpenReplica(2);
  for (int i = 32; i < 48; ++i) {
    ASSERT_EQ(primary_->Put("k" + std::to_string(i), "v", Label::Bottom(), Label::Top()),
              Status::kOk);
  }
  SyncOnce();
  EXPECT_TRUE(session_->FullySynced());
  EXPECT_EQ(session_->stats().snapshots_shipped, snapshots_before);
  ExpectReplicaMatchesPrimary();
}

TEST_F(ReplProtocolTest, PipelinedInOrderAcksNeverRewind) {
  OpenPrimary(1);
  OpenReplica(1);
  SyncOnce();
  for (int i = 0; i < 16; ++i) {
    ASSERT_EQ(primary_->Put("k" + std::to_string(i), "v", Label::Bottom(), Label::Top()),
              Status::kOk);
  }
  // Several small batches in flight at once, acks fed back in order — the
  // normal pipelined shape. None of these acks shows lost progress, so none
  // may trigger a retransmission.
  std::string stream;
  ASSERT_GT(session_->PollFrames(32, ~0ULL, &stream), 2u);
  std::string acks;
  for (const replwire::WireMessage& b : Parse(std::move(stream))) {
    ASSERT_EQ(replica_->HandleFrame(b, &acks), Status::kOk);
  }
  const uint64_t batches_before = session_->stats().batches_shipped;
  for (const replwire::WireMessage& a : Parse(std::move(acks))) {
    session_->HandleAck(a);
  }
  EXPECT_EQ(session_->stats().rewinds, 0u);
  std::string rest;
  EXPECT_EQ(session_->PollFrames(32, ~0ULL, &rest), 0u) << "nothing left to re-ship";
  EXPECT_EQ(session_->stats().batches_shipped, batches_before);
  EXPECT_TRUE(session_->FullySynced());
}

TEST_F(ReplProtocolTest, OversizedRecordShipsAsSingletonBatch) {
  OpenPrimary(1);
  OpenReplica(1);
  SyncOnce();
  // One record far beyond the batch limit, then a small one. The big record
  // must ship as exactly ONE oversized frame — not drag the rest of the log
  // with it past the budget.
  ASSERT_EQ(primary_->Put("big", std::string(8192, 'x'), Label::Bottom(), Label::Top()),
            Status::kOk);
  ASSERT_EQ(primary_->Put("small", "v", Label::Bottom(), Label::Top()), Status::kOk);
  std::string stream;
  ASSERT_EQ(session_->PollFrames(/*max_batch_bytes=*/256, /*max_total_bytes=*/512, &stream),
            1u)
      << "the total budget admits only the oversized singleton this poll";
  auto frames = Parse(std::move(stream));
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_GT(frames[0].payload.size(), 8192u);   // the big record, whole
  EXPECT_LT(frames[0].payload.size(), 8192u + 256u)
      << "the small record must NOT have ridden along";
  std::string acks;
  ASSERT_EQ(replica_->HandleFrame(frames[0], &acks), Status::kOk);
  for (const replwire::WireMessage& a : Parse(std::move(acks))) {
    session_->HandleAck(a);
  }
  SyncOnce();
  EXPECT_TRUE(session_->FullySynced());
  ExpectReplicaMatchesPrimary();
}

TEST_F(ReplProtocolTest, CompactionDuringResumeWindowStillSnapshots) {
  OpenPrimary(1);
  OpenReplica(1);
  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(primary_->Put("k" + std::to_string(i), "v", Label::Bottom(), Label::Top()),
              Status::kOk);
  }
  // Fresh replica acks an unknown position; BEFORE the session polls, a
  // compaction advances the generation. The session must still image the
  // shard (a generation-arithmetic sentinel would collide with the new
  // generation and stream garbage offsets instead).
  std::string acks;
  for (const replwire::WireMessage& m : Parse(session_->SessionHello())) {
    ASSERT_EQ(replica_->HandleFrame(m, &acks), Status::kOk);
  }
  for (const replwire::WireMessage& a : Parse(std::move(acks))) {
    session_->HandleAck(a);
  }
  ASSERT_EQ(primary_->Compact(), Status::kOk);  // generation 0 → 1
  std::string stream;
  ASSERT_EQ(session_->PollFrames(1 << 16, ~0ULL, &stream), 1u);
  auto frames = Parse(std::move(stream));
  ASSERT_EQ(frames[0].type, replwire::kSnapshot);
  acks.clear();
  ASSERT_EQ(replica_->HandleFrame(frames[0], &acks), Status::kOk);
  for (const replwire::WireMessage& a : Parse(std::move(acks))) {
    session_->HandleAck(a);
  }
  EXPECT_TRUE(session_->FullySynced());
  ExpectReplicaMatchesPrimary();
}

TEST_F(ReplProtocolTest, MismatchedAuthTokenShipsNothing) {
  OpenPrimary(4);
  // The primary requires a token; this replica was configured with another.
  ReplicationHub::Tuning tuning;
  tuning.auth_token = 42;
  hub_ = std::make_unique<ReplicationHub>(primary_.get(), 0x5EED, tuning);
  session_ = hub_->OpenSession();
  for (int i = 0; i < 10; ++i) {
    ASSERT_EQ(primary_->Put("k" + std::to_string(i), "secret", Label::Bottom(), Label::Top()),
              Status::kOk);
  }
  StoreOptions opts;
  opts.dir = dir_.path() + "/replica";
  opts.shards = 4;
  ReplicaOptions ropts;
  ropts.auth_token = 7;
  auto replica = ReplicaStore::Open(opts, ropts);
  ASSERT_TRUE(replica.ok());
  replica_ = replica.take();
  // The follower refuses the foreign hello outright...
  std::string acks;
  const auto hello = Parse(session_->SessionHello());
  ASSERT_EQ(hello.size(), 1u);
  EXPECT_EQ(replica_->HandleFrame(hello[0], &acks), Status::kAccessDenied);
  EXPECT_TRUE(acks.empty());
  // ...and even a forged ack with the wrong token moves nothing: every
  // shard stays in await-resume and no labeled byte leaves the session.
  replwire::WireMessage forged;
  forged.type = replwire::kAck;
  forged.token = 7;
  forged.shard = 0;
  session_->HandleAck(forged);
  std::string stream;
  EXPECT_EQ(session_->PollFrames(1 << 16, ~0ULL, &stream), 0u);
  EXPECT_TRUE(stream.empty());
  EXPECT_EQ(replica_->store()->size(), 0u);
}

TEST_F(ReplProtocolTest, MatchingAuthTokenSyncs) {
  OpenPrimary(2);
  ReplicationHub::Tuning tuning;
  tuning.auth_token = 99;
  hub_ = std::make_unique<ReplicationHub>(primary_.get(), 0x5EED, tuning);
  session_ = hub_->OpenSession();
  ASSERT_EQ(primary_->Put("k", "v", Label::Bottom(), Label::Top()), Status::kOk);
  StoreOptions opts;
  opts.dir = dir_.path() + "/replica";
  opts.shards = 2;
  ReplicaOptions ropts;
  ropts.auth_token = 99;
  auto replica = ReplicaStore::Open(opts, ropts);
  ASSERT_TRUE(replica.ok());
  replica_ = replica.take();
  SyncOnce();
  EXPECT_TRUE(session_->FullySynced());
  ExpectReplicaMatchesPrimary();
}

// --- Multi-follower fan-out through the hub ----------------------------------

// One replica + its hub session, for fan-out tests.
struct Mirror {
  std::unique_ptr<ReplicaStore> replica;
  FollowerSession* session = nullptr;  // owned by the hub

  static Mirror Open(ReplicationHub* hub, const std::string& dir, uint32_t shards,
                     uint64_t follower_id) {
    Mirror m;
    StoreOptions opts;
    opts.dir = dir;
    opts.shards = shards;
    ReplicaOptions ropts;
    ropts.follower_id = follower_id;
    auto replica = ReplicaStore::Open(opts, ropts);
    EXPECT_TRUE(replica.ok());
    m.replica = replica.take();
    m.session = hub->OpenSession();
    return m;
  }
};

TEST_F(ReplProtocolTest, ThreeFollowersShareOneWalReadThroughTheFrameCache) {
  OpenPrimary(4);
  std::vector<Mirror> mirrors;
  for (uint64_t id = 1; id <= 3; ++id) {
    mirrors.push_back(
        Mirror::Open(hub_.get(), dir_.path() + "/m" + std::to_string(id), 4, id));
  }
  // Establish every session first (fresh replicas are imaged, not
  // streamed); the cache-sharing claim is about steady-state BATCHES.
  for (Mirror& m : mirrors) {
    SyncPair(m.session, m.replica.get());
  }
  const Label secrecy({{H(5), Level::kL3}}, Level::kStar);
  for (int i = 0; i < 200; ++i) {
    ASSERT_EQ(primary_->Put("key" + std::to_string(i), std::string(64, 'x'), secrecy,
                            Label::Top()),
              Status::kOk);
  }
  const uint64_t wal_reads_before = primary_->wal_read_calls();
  for (Mirror& m : mirrors) {
    SyncPair(m.session, m.replica.get());
  }
  for (Mirror& m : mirrors) {
    EXPECT_TRUE(m.session->FullySynced());
    ExpectStoreMatches(m.replica->store(), primary_.get());
  }
  // The whole point of the hub: three followers at the same offsets were fed
  // from ONE set of WAL reads. The first session misses and populates; the
  // other two hit.
  const FrameCacheStats& cache = hub_->cache_stats();
  EXPECT_GT(cache.hits, 0u);
  EXPECT_GE(cache.hits, cache.misses) << "two of three sessions should be served from cache";
  const uint64_t wal_reads = primary_->wal_read_calls() - wal_reads_before;
  EXPECT_LE(wal_reads, cache.misses + 1) << "only cache misses may touch the log";
}

TEST_F(ReplProtocolTest, StragglerSnapshotsWhileSiblingsStream) {
  OpenPrimary(2);
  std::vector<Mirror> mirrors;
  mirrors.push_back(Mirror::Open(hub_.get(), dir_.path() + "/fast1", 2, 1));
  mirrors.push_back(Mirror::Open(hub_.get(), dir_.path() + "/fast2", 2, 2));
  for (Mirror& m : mirrors) {
    SyncPair(m.session, m.replica.get());
    EXPECT_EQ(m.replica->stats().snapshots_installed, 2u) << "initial images only";
  }
  // The established pair streams a backlog through batches...
  for (int i = 0; i < 32; ++i) {
    ASSERT_EQ(primary_->Put("k" + std::to_string(i), "v", Label::Bottom(), Label::Top()),
              Status::kOk);
  }
  for (Mirror& m : mirrors) {
    SyncPair(m.session, m.replica.get());
  }
  const uint64_t fast_batches_before = mirrors[0].session->stats().batches_shipped;
  ASSERT_GT(fast_batches_before, 0u);
  // ...then a straggler joins at an offset the hub cannot recognize (fresh
  // directory): it is forced through whole-shard snapshot catch-up, while
  // the fast pair keeps streaming the NEW appends as batches, unaffected.
  mirrors.push_back(Mirror::Open(hub_.get(), dir_.path() + "/straggler", 2, 3));
  for (int i = 32; i < 48; ++i) {
    ASSERT_EQ(primary_->Put("k" + std::to_string(i), "v", Label::Bottom(), Label::Top()),
              Status::kOk);
  }
  for (Mirror& m : mirrors) {
    SyncPair(m.session, m.replica.get());
    EXPECT_TRUE(m.session->FullySynced());
    ExpectStoreMatches(m.replica->store(), primary_.get());
  }
  EXPECT_GE(mirrors[2].replica->stats().snapshots_installed, 2u) << "straggler imaged";
  EXPECT_GT(mirrors[0].session->stats().batches_shipped, fast_batches_before)
      << "fast follower streamed batches while the straggler was imaged";
  EXPECT_EQ(mirrors[0].replica->stats().snapshots_installed, 2u)
      << "fast follower was never re-imaged";
  // Snapshot frames are lease-stamped like batches: even a catch-up that
  // never saw a kBatch leaves the straggler holding a live lease.
  EXPECT_GT(mirrors[2].replica->lease_until(), 0u);
}

TEST_F(ReplProtocolTest, SuccessorIsTheLowestCaughtUpFollowerId) {
  OpenPrimary(1);
  std::vector<Mirror> mirrors;
  mirrors.push_back(Mirror::Open(hub_.get(), dir_.path() + "/m7", 1, 7));
  mirrors.push_back(Mirror::Open(hub_.get(), dir_.path() + "/m3", 1, 3));
  mirrors.push_back(Mirror::Open(hub_.get(), dir_.path() + "/m9", 1, 9));
  EXPECT_EQ(hub_->SuccessorId(), 0u) << "nobody resumed yet";
  for (Mirror& m : mirrors) {
    SyncPair(m.session, m.replica.get());
  }
  EXPECT_EQ(hub_->SuccessorId(), 3u) << "lowest caught-up follower id";
  // The designation reached every follower on the shipped batches.
  ASSERT_EQ(primary_->Put("k", "v", Label::Bottom(), Label::Top()), Status::kOk);
  for (Mirror& m : mirrors) {
    SyncPair(m.session, m.replica.get());
    EXPECT_EQ(m.replica->successor_id(), 3u);
    EXPECT_GT(m.replica->lease_until(), 0u) << "lease stamped on batches";
  }
  // Close follower 3's session (its machine died — or just its wire). The
  // designation must NOT move yet: follower 3 may still act on the
  // designation it heard, until the last lease stamped for it runs out.
  // Moving early would let a re-designation race the departed designee's
  // own expiry check into TWO promotes.
  hub_->CloseSession(mirrors[1].session);
  EXPECT_EQ(hub_->SuccessorId(), 3u) << "fenced until the departed lease expires";
  // Once follower 3's lease horizon has provably passed, it can no longer
  // act, and the designation moves to the next-lowest caught-up id.
  GetCycleAccounting().Charge(Component::kOther, 60'000'000);  // > lease interval
  EXPECT_EQ(hub_->SuccessorId(), 7u);
}

TEST_F(ReplProtocolTest, HeartbeatRefreshesLeaseWithoutData) {
  OpenPrimary(1);
  OpenReplica(1, /*follower_id=*/4);
  SyncOnce();
  const uint64_t lease_after_sync = replica_->lease_until();
  // No new appends: polling ships nothing, but an explicit heartbeat renews
  // the lease and carries the successor designation.
  std::string out;
  EXPECT_EQ(session_->PollFrames(1 << 16, ~0ULL, &out), 0u);
  GetCycleAccounting().Charge(Component::kOther, 1000);  // the clock moves on
  session_->AppendHeartbeat(&out);
  std::string acks;
  for (const replwire::WireMessage& m : Parse(std::move(out))) {
    ASSERT_EQ(replica_->HandleFrame(m, &acks), Status::kOk);
  }
  EXPECT_EQ(replica_->stats().heartbeats_seen, 1u);
  EXPECT_GT(replica_->lease_until(), lease_after_sync);
  EXPECT_EQ(replica_->successor_id(), 4u);
  EXPECT_EQ(session_->stats().heartbeats_sent, 1u);
}

// --- Compaction ride-through (retained WAL tail + kGenMark) ------------------

TEST_F(ReplProtocolTest, SyncedFollowerRidesThroughCompactionViaRetainedTail) {
  OpenPrimary(2, /*compact_min=*/1024, /*retain_tail_bytes=*/256 * 1024);
  OpenReplica(2, /*follower_id=*/1);
  const Label secrecy({{H(9), Level::kL3}}, Level::kStar);
  for (int i = 0; i < 64; ++i) {
    ASSERT_EQ(primary_->Put("k" + std::to_string(i), std::string(100, 'x'), secrecy,
                            Label::Top()),
              Status::kOk);
  }
  SyncOnce();
  ASSERT_TRUE(session_->FullySynced());
  // A fresh follower is imaged once per shard — that is the normal adoption
  // path. Ride-through means the count never grows PAST this baseline.
  const uint64_t initial_images = session_->stats().snapshots_shipped;
  ASSERT_EQ(initial_images, 2u);

  // Compaction with a retained tail: the synced follower rides through on
  // kGenMark hand-offs — the whole point of satellite retention — and the
  // session never re-images a store the follower already has.
  ASSERT_EQ(primary_->Compact(), Status::kOk);
  for (int i = 0; i < 16; ++i) {
    ASSERT_EQ(primary_->Put("post" + std::to_string(i), "y", Label::Bottom(), Label::Top()),
              Status::kOk);
  }
  SyncOnce();
  EXPECT_TRUE(session_->FullySynced());
  EXPECT_EQ(session_->stats().snapshots_shipped, initial_images)
      << "ride-through must not re-image";
  EXPECT_EQ(replica_->stats().snapshots_installed, initial_images);
  EXPECT_EQ(session_->stats().gen_marks_sent, 2u);  // one hand-off per shard
  EXPECT_EQ(replica_->stats().gen_marks_applied, 2u);
  ExpectReplicaMatchesPrimary();

  // A second compaction cycle hands off again: retention is refreshed each
  // time, not a one-shot.
  ASSERT_EQ(primary_->Compact(), Status::kOk);
  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(primary_->Put("again" + std::to_string(i), "z", Label::Bottom(), Label::Top()),
              Status::kOk);
  }
  SyncOnce();
  EXPECT_TRUE(session_->FullySynced());
  EXPECT_EQ(session_->stats().snapshots_shipped, initial_images);
  EXPECT_EQ(session_->stats().gen_marks_sent, 4u);
  ExpectReplicaMatchesPrimary();
}

TEST_F(ReplProtocolTest, LaggingFollowerStillSnapshotsAcrossCompaction) {
  OpenPrimary(1, /*compact_min=*/1024, /*retain_tail_bytes=*/64);  // tiny tail
  OpenReplica(1);
  SyncOnce();
  for (int i = 0; i < 64; ++i) {
    ASSERT_EQ(primary_->Put("k" + std::to_string(i), std::string(100, 'x'), Label::Bottom(),
                            Label::Top()),
              Status::kOk);
  }
  // The follower never applied this span, and the retained tail (64 bytes)
  // does not reach back to its cursor: compaction must re-image as before.
  ASSERT_EQ(primary_->Compact(), Status::kOk);
  SyncOnce();
  EXPECT_TRUE(session_->FullySynced());
  EXPECT_GE(session_->stats().snapshots_shipped, 1u);
  EXPECT_EQ(session_->stats().gen_marks_sent, 0u);
  ExpectReplicaMatchesPrimary();
}

// --- The read gate: lease, cursor token, labels ------------------------------

TEST_F(ReplProtocolTest, ReadGateEnforcesLeaseCursorAndLabels) {
  OpenPrimary(1);
  OpenReplica(1, /*follower_id=*/1);
  const Label secrecy({{H(7), Level::kL3}}, Level::kStar);
  ASSERT_EQ(primary_->Put("doc", "classified", secrecy, Label::Top()), Status::kOk);

  ReadGate gate(replica_.get());
  const replwire::ReadCursorToken no_token;

  // Before any traffic there is no lease at all: unbounded staleness, so
  // even a token-less read refuses.
  EXPECT_EQ(gate.Serve("doc", Label::Top(), no_token).status,
            ReadStatus::kRefusedStaleLease);

  SyncOnce();  // stamps the lease and applies the record

  // Fresh lease + sufficient clearance: served, with the record's bytes.
  ReadResult r = gate.Serve("doc", Label::Top(), no_token);
  EXPECT_EQ(r.status, ReadStatus::kOk);
  EXPECT_EQ(r.value, "classified");
  EXPECT_TRUE(r.secrecy.Equals(secrecy));

  // Insufficient clearance (no H(7) grant): the delivery check refuses —
  // same verdict a primary-side read would produce, same charged formula.
  EXPECT_EQ(gate.Serve("doc", Label(Level::kL0), no_token).status,
            ReadStatus::kAccessDenied);
  EXPECT_EQ(gate.Serve("missing", Label::Top(), no_token).status,
            ReadStatus::kNotFound);

  // Read-your-writes: a token at the primary's tail after an unreplicated
  // write refuses with cursor lag until the span ships.
  ASSERT_EQ(primary_->Put("doc2", "newer", Label::Bottom(), Label::Top()), Status::kOk);
  replwire::ReadCursorToken token;
  token.source_id = 0x5EED;  // OpenPrimary's hub source id
  token.shard = 0;
  token.generation = primary_->shard_wal_generation(0);
  token.offset = primary_->shard_wal_offset(0);
  EXPECT_EQ(gate.Serve("doc2", Label::Top(), token).status,
            ReadStatus::kRefusedCursorLag);
  SyncOnce();
  EXPECT_EQ(gate.Serve("doc2", Label::Top(), token).status, ReadStatus::kOk);

  // A token from some other primary's history never matches.
  replwire::ReadCursorToken foreign = token;
  foreign.source_id = 0xDEAD;
  EXPECT_EQ(gate.Serve("doc2", Label::Top(), foreign).status,
            ReadStatus::kRefusedCursorLag);

  // Primary-mode gate (the K=1 baseline): always admits its own tokens,
  // staleness identically zero.
  ReadGate pgate(primary_.get(), /*source_id=*/0x5EED);
  r = pgate.Serve("doc2", Label::Top(), token);
  EXPECT_EQ(r.status, ReadStatus::kOk);
  EXPECT_EQ(r.staleness_cycles, 0u);
  EXPECT_EQ(pgate.Serve("doc", Label(Level::kL0), no_token).status,
            ReadStatus::kAccessDenied);
}

TEST_F(ReplProtocolTest, RouteReadPrefersCoveredFollowersAndSticksPerKey) {
  OpenPrimary(1);
  // Two identified followers, one anonymous mirror (never routable).
  FollowerSession* a = session_;
  FollowerSession* b = hub_->OpenSession();
  FollowerSession* mirror = hub_->OpenSession();
  auto replica_a = OpenNamedReplica("ra", 1, 1);
  auto replica_b = OpenNamedReplica("rb", 1, 2);
  auto replica_m = OpenNamedReplica("rm", 1, 0);
  ASSERT_EQ(primary_->Put("k", "v", Label::Bottom(), Label::Top()), Status::kOk);
  SyncPair(a, replica_a.get());
  SyncPair(b, replica_b.get());
  SyncPair(mirror, replica_m.get());

  const replwire::ReadCursorToken no_token;
  // Sticky: the same key routes to the same follower every time.
  FollowerSession* first = hub_->RouteRead("user-alpha", no_token);
  ASSERT_NE(first, nullptr);
  EXPECT_NE(first, mirror) << "anonymous mirrors are not read targets";
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(hub_->RouteRead("user-alpha", no_token), first);
  }
  // Spread: across many keys, both identified followers get traffic.
  bool saw_a = false;
  bool saw_b = false;
  for (int i = 0; i < 64; ++i) {
    FollowerSession* s = hub_->RouteRead("user" + std::to_string(i), no_token);
    saw_a |= s == a;
    saw_b |= s == b;
  }
  EXPECT_TRUE(saw_a && saw_b);

  // A token only one follower covers steers routing to that follower.
  ASSERT_EQ(primary_->Put("k2", "v2", Label::Bottom(), Label::Top()), Status::kOk);
  SyncPair(a, replica_a.get());  // a catches up; b stays behind
  replwire::ReadCursorToken token;
  token.source_id = 0x5EED;
  token.generation = primary_->shard_wal_generation(0);
  token.offset = primary_->shard_wal_offset(0);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(hub_->RouteRead("user" + std::to_string(i), token), a);
  }
}

// --- End to end over simnet/netd ---------------------------------------------

class ReplEndToEndTest : public ::testing::Test {
 protected:
  static constexpr uint16_t kReplPort = 7000;
  static constexpr uint16_t kFollowerPortBase = 7100;
  // Every end-to-end test runs authenticated: both ends share this token.
  static constexpr uint64_t kAuthToken = 0x7E57AC75;

  void BootPrimary(const std::string& dir, uint64_t boot_key = 0x0451,
                   uint32_t max_followers = 4) {
    FileServerOptions opts;
    opts.data_dir = dir;
    opts.shards = 4;
    opts.replication.listen_tcp_port = kReplPort;
    opts.replication.auth_token = kAuthToken;
    opts.replication.max_followers = max_followers;
    fleet_ = std::make_unique<ReplicationFleet>(boot_key, opts);
  }

  size_t AddFollower(const std::string& dir, uint64_t boot_key, uint64_t follower_id = 0,
                     uint16_t read_tcp_port = 0) {
    StoreOptions opts;
    opts.dir = dir;
    opts.shards = 4;
    FollowerOptions fopts;
    fopts.auth_token = kAuthToken;
    fopts.follower_id = follower_id;
    return fleet_->AddFollower(boot_key, next_follower_port_++, opts, fopts, read_tcp_port);
  }

  void PumpUntilSynced(int max_iters = 5000) {
    ASSERT_TRUE(fleet_->PumpUntilSynced(max_iters)) << "replication never quiesced";
  }

  // A client in the primary's kernel exercising the labeled fs protocol.
  void RunFsWorkload() {
    Kernel& kernel = fleet_->primary()->kernel();
    SpawnArgs cargs;
    cargs.name = "client";
    client_ = kernel.CreateProcess(std::make_unique<RecorderProcess>(&received_), cargs);
    kernel.WithProcessContext(client_, [&](ProcessContext& ctx) {
      client_port_ = ctx.NewPort(Label::Top());
      ASSERT_EQ(ctx.SetPortLabel(client_port_, Label::Top()), Status::kOk);
    });
    // Public files.
    for (int i = 0; i < 6; ++i) {
      FsRequest(fs_proto::kCreate, "pub" + std::to_string(i), {1, 0, 0, 0, 0});
      FsWrite("pub" + std::to_string(i), "public contents " + std::to_string(i));
    }
    // Private files in fresh compartments, with integrity requirements.
    for (int i = 0; i < 6; ++i) {
      kernel.WithProcessContext(client_, [&](ProcessContext& ctx) {
        const Handle taint = ctx.NewHandle();
        const Handle grant = ctx.NewHandle();
        taints_.push_back(taint);
        grants_.push_back(grant);
        Message m;
        m.type = fs_proto::kCreate;
        m.data = "priv" + std::to_string(i);
        m.words = {1, taint.value(), LevelOrdinal(Level::kL3), grant.value(),
                   LevelOrdinal(Level::kL0)};
        m.reply_port = client_port_;
        SendArgs args;
        args.decont_send = Label({{taint, Level::kStar}}, Level::kL3);
        args.decont_receive = Label({{taint, Level::kL3}}, Level::kStar);
        ASSERT_EQ(ctx.Send(fleet_->primary()->fs()->service_port(), std::move(m), args),
                  Status::kOk);
      });
      fleet_->Pump();
      // Integrity-protected write: V must prove the grant compartment.
      SendArgs wargs;
      wargs.verify = Label({{grants_.back(), Level::kL0}}, Level::kL3);
      FsRequest(fs_proto::kWrite,
                "priv" + std::to_string(i) + "\nsecret " + std::to_string(i), {1}, wargs);
    }
    FsRequest(fs_proto::kUnlink, "pub3", {1});
  }

  void FsRequest(uint64_t type, const std::string& path, std::vector<uint64_t> words,
                 const SendArgs& args = SendArgs()) {
    fleet_->primary()->kernel().WithProcessContext(client_, [&](ProcessContext& ctx) {
      Message m;
      m.type = type;
      m.data = path;
      m.words = std::move(words);
      m.reply_port = client_port_;
      ASSERT_EQ(ctx.Send(fleet_->primary()->fs()->service_port(), std::move(m), args),
                Status::kOk);
    });
    fleet_->Pump();
  }

  void FsWrite(const std::string& path, const std::string& contents) {
    FsRequest(fs_proto::kWrite, path + "\n" + contents, {1});
  }

  static void ExpectStoresIdentical(const DurableStore& a, const DurableStore& b) {
    ASSERT_EQ(a.size(), b.size());
    a.ForEach([&](const std::string& key, const StoreRecord& want) {
      const StoreRecord* got = b.Get(key);
      ASSERT_NE(got, nullptr) << key;
      EXPECT_EQ(got->value, want.value) << key;
      EXPECT_TRUE(got->secrecy.Equals(want.secrecy)) << key;
      EXPECT_TRUE(got->integrity.Equals(want.integrity)) << key;
      // Handle state, bit for bit: same handles at the same levels.
      EXPECT_EQ(got->secrecy.Entries(), want.secrecy.Entries()) << key;
      EXPECT_EQ(got->integrity.Entries(), want.integrity.Entries()) << key;
    });
  }

  TempDir dir_;
  std::unique_ptr<ReplicationFleet> fleet_;
  uint16_t next_follower_port_ = kFollowerPortBase;
  ProcessId client_ = kNoProcess;
  Handle client_port_;
  std::vector<Handle> taints_;
  std::vector<Handle> grants_;
  std::vector<RecorderProcess::Received> received_;
};

TEST_F(ReplEndToEndTest, PrimaryKillPromoteMatchesCrashRecovery) {
  const std::string primary_dir = dir_.path() + "/primary";
  const std::string follower_dir = dir_.path() + "/follower";
  BootPrimary(primary_dir);
  AddFollower(follower_dir, 0x0452);
  RunFsWorkload();
  PumpUntilSynced();

  // Kill the primary machine mid-stream (the session is live) and promote.
  FollowerWorld* follower = fleet_->follower(0);
  EXPECT_GE(follower->follower()->sessions_accepted(), 1u);
  fleet_->KillPrimary();
  ASSERT_EQ(follower->Promote(), Status::kOk);
  EXPECT_TRUE(follower->follower()->replica()->promoted());

  // Single-node crash recovery of the dead primary's disk...
  StoreOptions recover;
  recover.dir = primary_dir;
  recover.shards = 4;
  auto recovered = DurableStore::Open(recover);
  ASSERT_TRUE(recovered.ok());
  // ...must match the promoted follower's store bit for bit.
  ExpectStoresIdentical(*recovered.value(), *follower->follower()->replica()->store());

  // And the promoted image boots a real file server: reopen the follower
  // directory as a primary file server and serve a private file with its
  // original contamination.
  fleet_.reset();
  FileServerOptions fs_opts;
  fs_opts.data_dir = follower_dir;
  fs_opts.shards = 4;
  auto fs_code = std::make_unique<FileServerProcess>(fs_opts);
  FileServerProcess* fs = fs_code.get();
  EXPECT_EQ(fs->file_count(), 11u);  // 12 created, 1 unlinked
  Kernel kernel(0x0999);
  fs->ReserveRecoveredHandles(kernel);
  kernel.CreateProcess(std::move(fs_code), fs->RecoverySpawnArgs("fs"));

  std::vector<RecorderProcess::Received> received;
  SpawnArgs cargs;
  cargs.name = "reader";
  cargs.recv_label = Label({{taints_[2], Level::kL3}}, Level::kL2);
  const ProcessId reader =
      kernel.CreateProcess(std::make_unique<RecorderProcess>(&received), cargs);
  Handle reader_port;
  kernel.WithProcessContext(reader, [&](ProcessContext& ctx) {
    reader_port = ctx.NewPort(Label::Top());
    ASSERT_EQ(ctx.SetPortLabel(reader_port, Label::Top()), Status::kOk);
    Message m;
    m.type = fs_proto::kRead;
    m.data = "priv2";
    m.words = {1};
    m.reply_port = reader_port;
    ASSERT_EQ(ctx.Send(fs->service_port(), std::move(m), SendArgs()), Status::kOk);
  });
  kernel.RunUntilIdle();
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0].msg.data, "secret 2");
  // The reply contaminated the reader with the ORIGINAL taint handle — the
  // compartment survived primary death, shipping, and promotion.
  EXPECT_EQ(received[0].send_label_after.Get(taints_[2]), Level::kL3);
}

TEST_F(ReplEndToEndTest, TornBatchesAtTheFollowerReassemble) {
  BootPrimary(dir_.path() + "/primary");
  AddFollower(dir_.path() + "/follower", 0x0452);
  fleet_->link(0)->set_max_chunk(7);  // fragment every frame across many deliveries
  RunFsWorkload();
  PumpUntilSynced(20000);
  ExpectStoresIdentical(*fleet_->primary()->fs()->store(),
                        *fleet_->follower(0)->follower()->replica()->store());
}

TEST_F(ReplEndToEndTest, ThreeFollowersFanOutFromOnePrimary) {
  BootPrimary(dir_.path() + "/primary");
  AddFollower(dir_.path() + "/f1", 0x1001, /*follower_id=*/1);
  AddFollower(dir_.path() + "/f2", 0x1002, /*follower_id=*/2);
  AddFollower(dir_.path() + "/f3", 0x1003, /*follower_id=*/3);
  RunFsWorkload();
  PumpUntilSynced();

  const ReplicationEndpoint* endpoint = fleet_->primary()->fs()->replication();
  ASSERT_NE(endpoint, nullptr);
  EXPECT_EQ(endpoint->follower_count(), 3u);
  EXPECT_EQ(endpoint->busy_refusals(), 0u);
  ASSERT_NE(endpoint->hub(), nullptr);
  EXPECT_EQ(endpoint->hub()->session_count(), 3u);
  // Every follower holds the full labeled state, each via its own cursors.
  for (size_t i = 0; i < 3; ++i) {
    ExpectStoresIdentical(*fleet_->primary()->fs()->store(),
                          *fleet_->follower(i)->follower()->replica()->store());
  }
  // Fan-out was fed through the shared frame cache, not three log reads.
  EXPECT_GT(endpoint->hub()->cache_stats().hits, 0u);
  // Lease stamps reached every replica, designating the lowest id.
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_GT(fleet_->follower(i)->follower()->replica()->lease_until(), 0u);
  }
}

TEST_F(ReplEndToEndTest, LeaseExpiryPromotesExactlyTheDesignatedSuccessor) {
  BootPrimary(dir_.path() + "/primary");
  // Deliberately out-of-order ids: the successor rule must pick id 3 (the
  // lowest), which lives at follower INDEX 1.
  AddFollower(dir_.path() + "/f-seven", 0x2001, /*follower_id=*/7);
  AddFollower(dir_.path() + "/f-three", 0x2002, /*follower_id=*/3);
  RunFsWorkload();
  PumpUntilSynced();
  // Let fresh heartbeats distribute the final designation to everyone, then
  // verify both followers agree on the one successor BEFORE the crash —
  // that agreement is what makes the promote race safe.
  for (int i = 0; i < 200; ++i) {
    fleet_->Pump();
  }
  ASSERT_EQ(fleet_->follower(0)->follower()->replica()->successor_id(), 3u);
  ASSERT_EQ(fleet_->follower(1)->follower()->replica()->successor_id(), 3u);

  fleet_->KillPrimary();
  // Nobody refreshes the lease now; the followers' own lease-check ticks
  // advance the virtual clock until it expires.
  for (int i = 0; i < 5000 && fleet_->auto_promoted_count() == 0; ++i) {
    fleet_->Pump();
  }
  EXPECT_EQ(fleet_->auto_promoted_count(), 1) << "exactly one follower may take over";
  EXPECT_EQ(fleet_->auto_promoted_index(), 1) << "the designated id-3 follower";
  EXPECT_TRUE(fleet_->follower(1)->follower()->replica()->promoted());
  EXPECT_FALSE(fleet_->follower(0)->follower()->replica()->promoted());

  // Keep pumping: the bystander sees its own lease run out too, and must
  // keep standing by — never promote late.
  for (int i = 0; i < 500; ++i) {
    fleet_->Pump();
  }
  EXPECT_EQ(fleet_->auto_promoted_count(), 1);
  EXPECT_TRUE(fleet_->follower(0)->follower()->lease_expired());
  EXPECT_FALSE(fleet_->follower(0)->follower()->replica()->promoted());

  // The auto-promoted state is bit-identical to single-node crash recovery
  // of the dead primary's disk — same acceptance bar as operator promote.
  StoreOptions recover;
  recover.dir = dir_.path() + "/primary";
  recover.shards = 4;
  auto recovered = DurableStore::Open(recover);
  ASSERT_TRUE(recovered.ok());
  ExpectStoresIdentical(*recovered.value(),
                        *fleet_->follower(1)->follower()->replica()->store());
}

TEST_F(ReplEndToEndTest, AutoPromotedImageServesAndOldPrimaryReFollows) {
  const std::string primary_dir = dir_.path() + "/primary";
  const std::string follower_dir = dir_.path() + "/follower";
  BootPrimary(primary_dir);
  AddFollower(follower_dir, 0x3001, /*follower_id=*/1);
  RunFsWorkload();
  PumpUntilSynced();
  for (int i = 0; i < 200; ++i) {
    fleet_->Pump();
  }
  ASSERT_EQ(fleet_->follower(0)->follower()->replica()->successor_id(), 1u);

  fleet_->KillPrimary();
  for (int i = 0; i < 5000 && fleet_->auto_promoted_count() == 0; ++i) {
    fleet_->Pump();
  }
  ASSERT_EQ(fleet_->auto_promoted_count(), 1);

  // Close the loop: the promoted directory boots as the NEW primary, and
  // the dead primary's directory re-follows it. Its cursor names the dead
  // primary's history, so catch-up arrives as snapshots.
  fleet_.reset();
  BootPrimary(follower_dir, /*boot_key=*/0x0777);
  AddFollower(primary_dir, 0x0778, /*follower_id=*/2);
  RunFsWorkload();  // fresh writes on the new primary
  PumpUntilSynced(20000);
  EXPECT_GE(fleet_->follower(0)->follower()->replica()->stats().snapshots_installed, 1u);
  ExpectStoresIdentical(*fleet_->primary()->fs()->store(),
                        *fleet_->follower(0)->follower()->replica()->store());
}

TEST_F(ReplEndToEndTest, OverCapacityFollowerGetsBusyFrameAndBacksOff) {
  BootPrimary(dir_.path() + "/primary", 0x0451, /*max_followers=*/1);
  AddFollower(dir_.path() + "/f1", 0x4001, /*follower_id=*/1);
  PumpUntilSynced();  // follower 1 owns the only slot
  AddFollower(dir_.path() + "/f2", 0x4002, /*follower_id=*/2);

  const int kPumps = 300;
  for (int i = 0; i < kPumps; ++i) {
    fleet_->Pump();
  }
  const ReplicationEndpoint* endpoint = fleet_->primary()->fs()->replication();
  const FollowerProcess* refused = fleet_->follower(1)->follower();
  // The refusal was explicit — a kBusy frame, not a silent close — and the
  // follower honored its back-off hint instead of hot-reconnecting: session
  // churn stays far below one per pump.
  EXPECT_GE(endpoint->busy_refusals(), 1u);
  EXPECT_GE(refused->busy_signals(), 1u);
  EXPECT_GT(refused->backoff_until_cycles(), 0u);
  EXPECT_LT(refused->sessions_accepted(), static_cast<uint64_t>(kPumps) / 2);
  EXPECT_EQ(refused->replica()->store()->size(), 0u) << "no data crossed the refusal";
  // The in-capacity follower was never disturbed.
  EXPECT_EQ(endpoint->follower_count(), 1u);
  EXPECT_TRUE(endpoint->hub()->AllFullySynced());
}

// --- Follower reads over the wire --------------------------------------------

TEST_F(ReplEndToEndTest, ReadYourWritesRefusesLaggingFollower) {
  BootPrimary(dir_.path() + "/primary");
  AddFollower(dir_.path() + "/follower", 0x0452, /*follower_id=*/1,
              /*read_tcp_port=*/7500);
  RunFsWorkload();
  PumpUntilSynced();

  const DurableStore* pstore = fleet_->primary()->fs()->store();
  const ReplicationHub* hub = fleet_->primary()->fs()->replication()->hub();
  ASSERT_NE(hub, nullptr);
  ReadClient reader(&fleet_->follower(0)->net(), 7500, kAuthToken);
  const auto pump = [&] { fleet_->Pump(); };

  // Synced follower, fresh lease, no token: the public file is served with
  // its replicated bytes.
  ReadResult r;
  ASSERT_TRUE(reader.Read("pub0", Label::Top(), {}, pump, &r));
  EXPECT_EQ(r.status, ReadStatus::kOk);
  const StoreRecord* want = pstore->Get("pub0");
  ASSERT_NE(want, nullptr);
  EXPECT_EQ(r.value, want->value);

  // Pause the wire and write at the primary: the follower now lags the
  // session's token, and the gate must refuse rather than serve the old
  // bytes — never a read below the token.
  fleet_->link(0)->set_paused(true);
  FsRequest(fs_proto::kCreate, "late", {1, 0, 0, 0, 0});
  FsWrite("late", "written after the pause");
  replwire::ReadCursorToken token;
  token.source_id = hub->source_id();
  token.shard = pstore->ShardIndexOf("late");
  token.generation = pstore->shard_wal_generation(static_cast<uint32_t>(token.shard));
  token.offset = pstore->shard_wal_offset(static_cast<uint32_t>(token.shard));
  ASSERT_TRUE(reader.Read("late", Label::Top(), token, pump, &r));
  EXPECT_EQ(r.status, ReadStatus::kRefusedCursorLag);
  EXPECT_TRUE(r.value.empty());
  // The hub's router agrees: no follower covers this token, read at the
  // primary instead.
  EXPECT_EQ(hub->RouteRead("late", token), nullptr);
  // A token-less read of OLD data is still fine: staleness is bounded by
  // the lease, and this reader never wrote.
  ASSERT_TRUE(reader.Read("pub1", Label::Top(), {}, pump, &r));
  EXPECT_EQ(r.status, ReadStatus::kOk);

  // Unpause and let the span ship: the same token is now covered and the
  // read returns the new bytes.
  fleet_->link(0)->set_paused(false);
  PumpUntilSynced();
  ASSERT_TRUE(reader.Read("late", Label::Top(), token, pump, &r));
  EXPECT_EQ(r.status, ReadStatus::kOk);
  EXPECT_EQ(r.value, "written after the pause");
  EXPECT_EQ(hub->RouteRead("late", token), hub->sessions()[0].get());

  // Label enforcement crossed the wire too: the private files refuse a
  // clearance-less reader and serve a cleared one, exactly like the
  // primary's own delivery check.
  ASSERT_TRUE(reader.Read("priv0", Label(Level::kL0), {}, pump, &r));
  EXPECT_EQ(r.status, ReadStatus::kAccessDenied);
  ASSERT_TRUE(reader.Read("priv0", Label::Top(), {}, pump, &r));
  EXPECT_EQ(r.status, ReadStatus::kOk);
  const StoreRecord* priv = pstore->Get("priv0");
  ASSERT_NE(priv, nullptr);
  EXPECT_TRUE(r.secrecy.Equals(priv->secrecy));
}

TEST_F(ReplEndToEndTest, ApplyLagGaugeReadsTheLagAnAckCloses) {
  // Each ack sets repl.apply_lag_cycles to how long the follower was behind
  // (virtual time since the previous ack). A paused wire holds an unacked
  // write back, so the ack that finally covers it must report a lag > 0.
  BootPrimary(dir_.path() + "/primary");
  AddFollower(dir_.path() + "/follower", 0x0452, /*follower_id=*/1);
  RunFsWorkload();
  PumpUntilSynced();
  const ReplicationHub* hub = fleet_->primary()->fs()->replication()->hub();
  ASSERT_NE(hub, nullptr);

  obs::Gauge& lag = obs::Registry::Get().gauge("repl.apply_lag_cycles");
  fleet_->link(0)->set_paused(true);
  FsWrite("pub0", "written while the follower is cut off");
  fleet_->link(0)->set_paused(false);
  lag.Set(0);
  double max_lag = 0;
  for (int i = 0; i < 5000 && !hub->AllFullySynced(); ++i) {
    fleet_->Pump();
    max_lag = std::max(max_lag, lag.value());
  }
  ASSERT_TRUE(hub->AllFullySynced());
  EXPECT_GT(max_lag, 0.0);
}

TEST_F(ReplEndToEndTest, StaleLeaseFollowerRefusesAllReads) {
  // A short lease so the test expires it in a few hundred pumps.
  FileServerOptions opts;
  opts.data_dir = dir_.path() + "/primary";
  opts.shards = 4;
  opts.replication.listen_tcp_port = kReplPort;
  opts.replication.auth_token = kAuthToken;
  opts.replication.lease_interval_cycles = 2'000'000;
  fleet_ = std::make_unique<ReplicationFleet>(0x0451, opts);
  StoreOptions fopts_store;
  fopts_store.dir = dir_.path() + "/follower";
  fopts_store.shards = 4;
  FollowerOptions fopts;
  fopts.auth_token = kAuthToken;
  fopts.follower_id = 1;
  fopts.auto_promote = false;  // observe the expiry, don't fail over
  fleet_->AddFollower(0x0452, kFollowerPortBase, fopts_store, fopts,
                      /*read_tcp_port=*/7500);
  RunFsWorkload();
  PumpUntilSynced();

  ReadClient reader(&fleet_->follower(0)->net(), 7500, kAuthToken);
  const auto pump = [&] { fleet_->Pump(); };
  ReadResult r;
  ASSERT_TRUE(reader.Read("pub0", Label::Top(), {}, pump, &r));
  ASSERT_EQ(r.status, ReadStatus::kOk);

  // Kill the primary. The follower keeps running; every OnIdle charges a
  // lease-check tick, so virtual time marches toward the deadline.
  fleet_->KillPrimary();
  const auto follower_pump = [&] { fleet_->follower(0)->Pump(); };
  for (int i = 0; i < 500 && !fleet_->follower(0)->follower()->lease_expired(); ++i) {
    follower_pump();
  }
  ASSERT_TRUE(fleet_->follower(0)->follower()->lease_expired());

  // Unbounded staleness: even token-less reads of data the follower holds
  // refuse until a live primary re-stamps the lease.
  ASSERT_TRUE(reader.Read("pub0", Label::Top(), {}, follower_pump, &r));
  EXPECT_EQ(r.status, ReadStatus::kRefusedStaleLease);
  EXPECT_GT(r.staleness_cycles, 0u);
}

TEST_F(ReplEndToEndTest, FleetMetricsArePerReplicaAndPerFollowerReadCounters) {
  // Two follower machines are two kernels publishing the same gauge names;
  // the fleet prefixes each by its index so one snapshot carries every
  // machine instead of whichever gauge group registered last. Adoption of
  // replicated labels also lands in the event log as adopt edges.
  obs::EventLog::SetEnabled(true);
  obs::EventLog::Get().Clear();
  BootPrimary(dir_.path() + "/primary");
  AddFollower(dir_.path() + "/f1", 0x0452, /*follower_id=*/1, /*read_tcp_port=*/7500);
  AddFollower(dir_.path() + "/f2", 0x0453, /*follower_id=*/2, /*read_tcp_port=*/7501);
  RunFsWorkload();
  PumpUntilSynced();

  const auto snap = obs::Registry::Get().Snapshot();
  // Distinct, simultaneously-present names: the primary keeps the bare
  // names; followers are replica1. / replica2. by join order.
  ASSERT_EQ(snap.count("kernel.stats.deliveries"), 1u);
  ASSERT_EQ(snap.count("replica1.kernel.stats.deliveries"), 1u);
  ASSERT_EQ(snap.count("replica2.kernel.stats.deliveries"), 1u);
  EXPECT_GT(snap.at("kernel.stats.deliveries"), 0.0);
  EXPECT_GT(snap.at("replica1.kernel.stats.deliveries"), 0.0);
  EXPECT_GT(snap.at("replica2.kernel.stats.deliveries"), 0.0);
  EXPECT_EQ(snap.count("replica1.kernel.mem.total_bytes"), 1u);
  EXPECT_EQ(snap.count("replica2.kernel.mem.total_bytes"), 1u);

  // Applying replicated records journals label adoption: every shard apply
  // of a Put is an [adopt] edge, so a replica's labels are explainable too.
  bool saw_adopt = false;
  for (const auto& e : obs::EventLog::Get().records()) {
    if (e.kind == obs::RecordKind::kAdopt) {
      EXPECT_EQ(e.subject.rfind("store.shard", 0), 0u) << e.subject;
      EXPECT_EQ(e.source, "primary");
      saw_adopt = true;
    }
  }
  EXPECT_TRUE(saw_adopt);
  obs::EventLog::Get().Clear();
  obs::EventLog::SetEnabled(false);

  // The read plane scores per follower. Counters are process-global and
  // cumulative, so assert deltas, then check the hub's DebugStatus joins
  // them onto the right session by follower_id.
  obs::Registry& reg = obs::Registry::Get();
  const uint64_t f1_served = reg.counter("repl.follower1.reads_served").value();
  const uint64_t f1_denied = reg.counter("repl.follower1.reads_access_denied").value();
  const uint64_t f2_served = reg.counter("repl.follower2.reads_served").value();
  const uint64_t f2_denied = reg.counter("repl.follower2.reads_access_denied").value();

  ReadClient r1(&fleet_->follower(0)->net(), 7500, kAuthToken);
  ReadClient r2(&fleet_->follower(1)->net(), 7501, kAuthToken);
  const auto pump = [&] { fleet_->Pump(); };
  ReadResult r;
  ASSERT_TRUE(r1.Read("pub0", Label::Top(), {}, pump, &r));
  EXPECT_EQ(r.status, ReadStatus::kOk);
  ASSERT_TRUE(r1.Read("priv0", Label(Level::kL0), {}, pump, &r));
  EXPECT_EQ(r.status, ReadStatus::kAccessDenied);
  ASSERT_TRUE(r2.Read("pub1", Label::Top(), {}, pump, &r));
  EXPECT_EQ(r.status, ReadStatus::kOk);
  ASSERT_TRUE(r2.Read("pub2", Label::Top(), {}, pump, &r));
  EXPECT_EQ(r.status, ReadStatus::kOk);

  EXPECT_EQ(reg.counter("repl.follower1.reads_served").value(), f1_served + 1);
  EXPECT_EQ(reg.counter("repl.follower1.reads_access_denied").value(), f1_denied + 1);
  EXPECT_EQ(reg.counter("repl.follower2.reads_served").value(), f2_served + 2);

  const ReplicationHub* hub = fleet_->primary()->fs()->replication()->hub();
  ASSERT_NE(hub, nullptr);
  const HubDebugStatus status = hub->DebugStatus();
  ASSERT_EQ(status.sessions.size(), 2u);
  for (const auto& session : status.sessions) {
    if (session.follower_id == 1) {
      EXPECT_EQ(session.reads_served, f1_served + 1);
      EXPECT_EQ(session.reads_access_denied, f1_denied + 1);
    } else {
      ASSERT_EQ(session.follower_id, 2u);
      EXPECT_EQ(session.reads_served, f2_served + 2);
      EXPECT_EQ(session.reads_access_denied, f2_denied);
    }
  }
}

// --- OKWS integration: idd, ok-demux, and ok-dbproxy ship their stores -------

TEST(ReplOkwsTest, IddDemuxAndDbproxyStoresReplicateFromTheFullWorld) {
  TempDir dir;
  OkwsWorldConfig config;
  config.users = {{"alice", "pw-a"}, {"bob", "pw-b"}};
  config.services.push_back(
      {"echo", [] { return std::make_unique<EchoService>(); }, false, {}});
  config.idd_options.store_dir = dir.path() + "/idd";
  config.idd_options.replication.listen_tcp_port = 7100;
  config.demux_options.store_dir = dir.path() + "/demux";
  config.demux_options.replication.listen_tcp_port = 7101;
  config.dbproxy_options.store_dir = dir.path() + "/dbproxy";
  config.dbproxy_options.replication.listen_tcp_port = 7102;
  OkwsWorld world(config);
  world.PumpUntilReady();

  FollowerWorld idd_follower(0x1111, 7200,
                             StoreOptions{dir.path() + "/idd-replica", 4, 1024, 4});
  FollowerWorld demux_follower(0x2222, 7201,
                               StoreOptions{dir.path() + "/demux-replica", 4, 1024, 4});
  FollowerWorld dbproxy_follower(0x3333, 7202,
                                 StoreOptions{dir.path() + "/dbproxy-replica", 4, 1024, 4});
  ReplicationLink idd_link(&world.net(), 7100, &idd_follower.net(), 7200);
  ReplicationLink demux_link(&world.net(), 7101, &demux_follower.net(), 7201);
  ReplicationLink dbproxy_link(&world.net(), 7102, &dbproxy_follower.net(), 7202);
  const auto step_all = [&] {
    idd_link.Step();
    demux_link.Step();
    dbproxy_link.Step();
    world.Pump();
    idd_follower.Pump();
    demux_follower.Pump();
    dbproxy_follower.Pump();
  };

  // Real logins: idd persists identity bindings, demux persists sessions,
  // and ok-dbproxy's durable tables (password rows, binding records) churn.
  HttpLoadClient client(&world.net(), 80, 4);
  client.Enqueue(OkwsWorld::MakeRequest("/echo", "alice", "pw-a"), 1);
  client.Enqueue(OkwsWorld::MakeRequest("/echo", "bob", "pw-b"), 2);
  for (int i = 0; i < 4000 && !client.idle(); ++i) {
    client.Step();
    step_all();
  }
  ASSERT_EQ(client.results().size(), 2u);

  IddProcess* idd = nullptr;
  {
    Process* p = world.kernel().FindProcessByName("idd");
    ASSERT_NE(p, nullptr);
    idd = dynamic_cast<IddProcess*>(p->code.get());
    ASSERT_NE(idd, nullptr);
  }
  DemuxProcess* demux = nullptr;
  {
    Process* p = world.kernel().FindProcessByName("demux");
    ASSERT_NE(p, nullptr);
    demux = dynamic_cast<DemuxProcess*>(p->code.get());
    ASSERT_NE(demux, nullptr);
  }
  DbproxyProcess* dbproxy = nullptr;
  {
    Process* p = world.kernel().FindProcessByName("dbproxy");
    ASSERT_NE(p, nullptr);
    dbproxy = dynamic_cast<DbproxyProcess*>(p->code.get());
    ASSERT_NE(dbproxy, nullptr);
  }
  ASSERT_NE(idd->replication(), nullptr);
  ASSERT_NE(demux->replication(), nullptr);
  ASSERT_NE(dbproxy->replication(), nullptr);

  // Let the streams quiesce.
  for (int i = 0; i < 2000; ++i) {
    step_all();
    if (idd->replication()->hub()->AllFullySynced() &&
        demux->replication()->hub()->AllFullySynced() &&
        dbproxy->replication()->hub()->AllFullySynced()) {
      break;
    }
  }
  ASSERT_TRUE(idd->replication()->hub()->AllFullySynced());
  ASSERT_TRUE(demux->replication()->hub()->AllFullySynced());
  ASSERT_TRUE(dbproxy->replication()->hub()->AllFullySynced());

  // The identity bindings — per-user taint/grant labels included — the
  // session table, and the SQL table store now live on the follower
  // machines, bit for bit.
  const DurableStore* idd_replica = idd_follower.follower()->replica()->store();
  ASSERT_EQ(idd_replica->size(), idd->store()->size());
  EXPECT_EQ(idd_replica->size(), 2u);  // alice and bob
  idd->store()->ForEach([&](const std::string& key, const StoreRecord& want) {
    const StoreRecord* got = idd_replica->Get(key);
    ASSERT_NE(got, nullptr) << key;
    EXPECT_EQ(got->value, want.value);
    EXPECT_EQ(got->secrecy.Entries(), want.secrecy.Entries());
    EXPECT_EQ(got->integrity.Entries(), want.integrity.Entries());
  });
  const DurableStore* demux_replica = demux_follower.follower()->replica()->store();
  ASSERT_EQ(demux_replica->size(), demux->store()->size());
  EXPECT_EQ(demux_replica->size(), 2u);  // one session per user
  demux->store()->ForEach([&](const std::string& key, const StoreRecord& want) {
    const StoreRecord* got = demux_replica->Get(key);
    ASSERT_NE(got, nullptr) << key;
    EXPECT_EQ(got->value, want.value);
  });
  const DurableStore* dbproxy_replica = dbproxy_follower.follower()->replica()->store();
  ASSERT_EQ(dbproxy_replica->size(), dbproxy->store()->size());
  EXPECT_GT(dbproxy_replica->size(), 0u);  // schema + password rows + bindings
  dbproxy->store()->ForEach([&](const std::string& key, const StoreRecord& want) {
    const StoreRecord* got = dbproxy_replica->Get(key);
    ASSERT_NE(got, nullptr) << key;
    EXPECT_EQ(got->value, want.value);
    EXPECT_EQ(got->secrecy.Entries(), want.secrecy.Entries());
    EXPECT_EQ(got->integrity.Entries(), want.integrity.Entries());
  });
}

}  // namespace
}  // namespace asbestos
