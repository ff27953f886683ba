// Label-preserving WAL replication (src/replication): wire format, hub ↔
// replica cursor protocol (duplicates, gaps, snapshot catch-up, multi-
// follower fan-out), lease/heartbeat
// automatic failover, and the full K-machine path over simnet/netd —
// primary kill, lease-driven promotion of exactly one successor, and
// bit-identical record/label/handle state versus single-node crash
// recovery.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/base/rng.h"
#include "src/fs/file_server.h"
#include "src/net/client.h"
#include "src/obs/event_log.h"
#include "src/obs/metrics.h"
#include "src/obs/profiler.h"
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
#include "src/store/label_codec.h"
#include "src/store/store.h"
#include "src/store/wal.h"
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
  size_t pos = 0;
  ASSERT_EQ(replwire::ParseFrame(stream, &pos, &out), replwire::FrameParse::kFrame);
  EXPECT_EQ(out.type, replwire::kBatch);
  EXPECT_EQ(out.shard, 3u);
  EXPECT_EQ(out.generation, 7u);
  EXPECT_EQ(out.offset, 4096u);
  EXPECT_EQ(out.lease_until, 123456u);
  EXPECT_EQ(out.successor_id, 9u);
  EXPECT_EQ(out.payload, batch.payload);
  ASSERT_EQ(replwire::ParseFrame(stream, &pos, &out), replwire::FrameParse::kFrame);
  EXPECT_EQ(out.type, replwire::kAck);
  EXPECT_EQ(out.source_id, 0xABCDEFu);
  EXPECT_EQ(out.offset, 8192u);
  EXPECT_EQ(out.follower_id, 42u);
  ASSERT_EQ(replwire::ParseFrame(stream, &pos, &out), replwire::FrameParse::kFrame);
  EXPECT_EQ(out.type, replwire::kHeartbeat);
  EXPECT_EQ(out.lease_until, 999u);
  EXPECT_EQ(out.successor_id, 42u);
  ASSERT_EQ(replwire::ParseFrame(stream, &pos, &out), replwire::FrameParse::kFrame);
  EXPECT_EQ(out.type, replwire::kBusy);
  EXPECT_EQ(out.retry_after, 777u);
  EXPECT_EQ(pos, stream.size());
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
    size_t pos = 0;
    ASSERT_EQ(replwire::ParseFrame(buffer, &pos, &out), replwire::FrameParse::kNeedMore);
    ASSERT_EQ(pos, 0u) << "a torn frame consumes nothing";
  }
  buffer.push_back(whole.back());
  size_t pos = 0;
  ASSERT_EQ(replwire::ParseFrame(buffer, &pos, &out), replwire::FrameParse::kFrame);
  EXPECT_EQ(pos, whole.size());
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
  size_t pos = 0;
  EXPECT_EQ(replwire::ParseFrame(stream, &pos, &out), replwire::FrameParse::kCorrupt);
}

// Lower-case hex of a byte string, for pinning wire bytes.
// Wraps `payload` in the wire's frame header: u32 length, u32 CRC-32.
std::string CrcFrame(std::string_view payload) {
  const uint32_t len = static_cast<uint32_t>(payload.size());
  const uint32_t crc = Crc32(payload);
  std::string frame;
  frame.append(reinterpret_cast<const char*>(&len), sizeof(len));
  frame.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  frame.append(payload);
  return frame;
}

std::string Hex(std::string_view bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (unsigned char c : bytes) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 0xf]);
  }
  return out;
}

// One populated frame of every message type, each with a trace id, and its
// encoding in hex.
std::vector<std::pair<replwire::WireMessage, std::string>> GoldenCases() {
  const Label label({{H(77), Level::kL3}}, Level::kStar);
  auto frame = [](replwire::MessageType type) {
    replwire::WireMessage m;
    m.type = type;
    m.trace_id = 0x1234;
    return m;
  };
  std::vector<std::pair<replwire::WireMessage, std::string>> cases;

  replwire::WireMessage hello = frame(replwire::kHello);
  hello.token = 0xA5;
  hello.source_id = 0x5EED;
  hello.shard_count = 4;
  hello.lease_until = 1000000;
  cases.emplace_back(hello,
                     "0c000000452bc32f01a501edbd0104c0843db424");

  replwire::WireMessage batch = frame(replwire::kBatch);
  batch.shard = 3;
  batch.generation = 7;
  batch.offset = 4096;
  batch.lease_until = 123456;
  batch.successor_id = 9;
  batch.payload = std::string("wal\x00\x01", 5);
  cases.emplace_back(batch,
                     "110000006d1791d30203078020c0c407090577616c0001b424");

  replwire::WireMessage snapshot = frame(replwire::kSnapshot);
  snapshot.shard = 1;
  snapshot.generation = 2;
  snapshot.offset = 300;
  snapshot.lease_until = 5000;
  snapshot.successor_id = 4;
  snapshot.payload = std::string("ASBSTOR1image");
  cases.emplace_back(snapshot,
                     "1800000075b9c215030102ac028827040d41534253544f5231696d616765b424");

  replwire::WireMessage ack = frame(replwire::kAck);
  ack.token = 0xA5;
  ack.shard = 3;
  ack.source_id = 0xABCDEF;
  ack.generation = 7;
  ack.offset = 8192;
  ack.follower_id = 42;
  cases.emplace_back(ack,
                     "0e00000097c590d504a50103ef9baf050780402ab424");

  replwire::WireMessage hb = frame(replwire::kHeartbeat);
  hb.lease_until = 999;
  hb.successor_id = 42;
  cases.emplace_back(hb,
                     "060000003d5f5c6f05e7072ab424");

  replwire::WireMessage busy = frame(replwire::kBusy);
  busy.retry_after = 2000000;
  cases.emplace_back(busy,
                     "060000007669e0a30680897ab424");

  replwire::WireMessage req = frame(replwire::kReadReq);
  req.token = 0xA5;
  req.cookie = 17;
  req.key = "notes/alice";
  req.cursor = {0x5EED, 2, 1, 640};
  req.label = label;
  cases.emplace_back(req,
                     "1d000000864facd108a501110b6e6f7465732f616c696365edbd010201800500"
                     "010c4db424");

  replwire::WireMessage resp = frame(replwire::kReadResp);
  resp.cookie = 17;
  resp.read_status = 0;
  resp.staleness = 250;
  resp.cursor = {0x5EED, 2, 1, 700};
  resp.label = label;
  resp.payload = std::string("hello");
  cases.emplace_back(resp,
                     "180000002d102a14091100fa01edbd010201bc0500010c4d0568656c6c6fb424");
  return cases;
}

// The golden frames pinned byte for byte: the wire format is a
// compatibility surface between primaries and followers of different
// builds, so an encoder refactor must leave every byte where it was.
TEST(ReplWireTest, GoldenFrames) {
  for (const auto& [msg, want] : GoldenCases()) {
    std::string bytes;
    replwire::AppendFrame(msg, &bytes);
    EXPECT_EQ(Hex(bytes), want) << "type " << msg.type;
    replwire::WireMessage out;
    size_t pos = 0;
    ASSERT_EQ(replwire::ParseFrame(bytes, &pos, &out), replwire::FrameParse::kFrame);
    EXPECT_EQ(pos, bytes.size());
    EXPECT_EQ(out.type, msg.type);
    EXPECT_EQ(out.trace_id, msg.trace_id);
    std::string again;
    replwire::AppendFrame(out, &again);
    EXPECT_EQ(Hex(again), want) << "re-encoded type " << msg.type;
  }
}

// Type 7 is unassigned (it once named a compaction hand-off frame). A
// well-framed payload carrying it is an unknown type: the session is
// poisoned rather than the frame skipped. Likewise for a frame with the
// retired trailer.
TEST(ReplWireTest, UnassignedTypeSevenIsCorrupt) {
  // CRC-frames a payload of varints.
  auto framed = [](std::vector<uint64_t> varints) {
    std::string payload;
    for (uint64_t v : varints) {
      codec::AppendVarint(v, &payload);
    }
    return CrcFrame(payload);
  };
  // The helper frames exactly like the encoder: a heartbeat round-trips.
  replwire::WireMessage hb;
  hb.type = replwire::kHeartbeat;
  hb.lease_until = 999;
  hb.successor_id = 42;
  hb.trace_id = 0x1234;
  std::string want;
  replwire::AppendFrame(hb, &want);
  std::string heartbeat = framed({replwire::kHeartbeat, 999, 42, 0x1234});
  EXPECT_EQ(heartbeat, want);
  replwire::WireMessage out;
  size_t pos = 0;
  EXPECT_EQ(replwire::ParseFrame(heartbeat, &pos, &out), replwire::FrameParse::kFrame);
  // Type 7 with the old hand-off's fields (shard, generation, offset,
  // lease_until, successor_id, trace_id) is an unknown type.
  std::string seven = framed({7, 1, 2, 300, 5000, 4, 0x1234});
  pos = 0;
  EXPECT_EQ(replwire::ParseFrame(seven, &pos, &out), replwire::FrameParse::kCorrupt);
  // The trailer is trace_id alone. A heartbeat with the retired two-field
  // trailer (trace_id, then a length-prefixed profiler stack, here empty)
  // has a byte left over, so it is corrupt, not misread.
  std::string old_trailer = framed({replwire::kHeartbeat, 999, 42, 0x1234, 0});
  pos = 0;
  EXPECT_EQ(replwire::ParseFrame(old_trailer, &pos, &out), replwire::FrameParse::kCorrupt);
}

// Mutated frame bodies, re-framed with a correct length and CRC so every
// mutation reaches the payload decoder: each must be rejected (kCorrupt) or
// decoded whole, never crash, and an accepted frame must re-encode to bytes
// that decode and re-encode to themselves. The budget is fixed (50,000
// mutations of the golden frames, one seed), so a failure replays exactly.
TEST(ReplWireTest, SeededMutation) {
  constexpr int kIterations = 50000;
  // Varint edges and length prefixes that overrun the body.
  static const char* const kRuns[] = {"\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01",
                                      "\x80\x80\x80\x80\x80", "\xff\xff\xff\x7f", "\x7f"};
  std::vector<std::string> bodies;
  for (const auto& [msg, hex] : GoldenCases()) {
    std::string bytes;
    replwire::AppendFrame(msg, &bytes);
    bodies.push_back(bytes.substr(8));
  }
  Rng rng(0x3e91e7);
  const auto pos = [&](size_t limit) { return static_cast<size_t>(rng.NextBelow(limit)); };
  int accepted = 0;
  for (int iter = 0; iter < kIterations; ++iter) {
    std::string body = bodies[rng.NextBelow(bodies.size())];
    for (uint64_t edits = rng.NextInRange(1, 4); edits > 0; --edits) {
      switch (rng.NextBelow(5)) {
        case 0:  // overwrite one byte
          if (!body.empty()) {
            body[pos(body.size())] = static_cast<char>(rng.Next());
          }
          break;
        case 1:  // insert one byte
          body.insert(pos(body.size() + 1), 1, static_cast<char>(rng.Next()));
          break;
        case 2:  // delete one byte
          if (!body.empty()) {
            body.erase(pos(body.size()), 1);
          }
          break;
        case 3:  // truncate
          body.resize(pos(body.size() + 1));
          break;
        default:
          body.insert(pos(body.size() + 1), kRuns[rng.NextBelow(std::size(kRuns))]);
          break;
      }
    }
    std::string frame = CrcFrame(body);
    replwire::WireMessage msg;
    size_t pos = 0;
    const replwire::FrameParse parse = replwire::ParseFrame(frame, &pos, &msg);
    ASSERT_NE(parse, replwire::FrameParse::kNeedMore) << "iteration " << iter;
    if (parse == replwire::FrameParse::kCorrupt) {
      continue;
    }
    ++accepted;
    EXPECT_EQ(pos, frame.size()) << "iteration " << iter;
    std::string once;
    replwire::AppendFrame(msg, &once);
    replwire::WireMessage again;
    size_t again_pos = 0;
    ASSERT_EQ(replwire::ParseFrame(once, &again_pos, &again), replwire::FrameParse::kFrame)
        << "iteration " << iter;
    std::string twice;
    replwire::AppendFrame(again, &twice);
    ASSERT_EQ(Hex(twice), Hex(once)) << "iteration " << iter;
  }
  // The edits exercise both outcomes.
  RecordProperty("accepted", accepted);
  EXPECT_GT(accepted, kIterations / 20);
  EXPECT_LT(accepted, kIterations - kIterations / 20);
}

// A stream of golden frames fed to a FrameReader in random-sized pieces, as a
// byte-stream transport delivers them: the reader answers kNeedMore until
// each frame's last byte has arrived, decodes the same sequence, and keeps
// nothing once the stream ends on a frame boundary.
TEST(ReplWireTest, TornStreamDecodesTheSameFrames) {
  std::vector<std::string> frames;
  for (const auto& [msg, hex] : GoldenCases()) {
    frames.emplace_back();
    replwire::AppendFrame(msg, &frames.back());
  }
  Rng rng(0x70a2);
  for (int stream_no = 0; stream_no < 300; ++stream_no) {
    std::string stream;
    std::vector<size_t> ends;  // stream offset just past each frame
    std::vector<std::string> sent;
    for (uint64_t n = rng.NextInRange(1, 12); n > 0; --n) {
      sent.push_back(frames[rng.NextBelow(frames.size())]);
      stream += sent.back();
      ends.push_back(stream.size());
    }
    std::string tail;
    std::vector<std::string> decoded;
    size_t fed = 0;
    while (fed < stream.size()) {
      const size_t piece = std::min<size_t>(rng.NextInRange(1, 24), stream.size() - fed);
      const std::string delivery = stream.substr(fed, piece);
      fed += piece;
      replwire::FrameReader reader(&tail, delivery);
      replwire::WireMessage msg;
      replwire::FrameParse parse;
      while ((parse = reader.Next(&msg)) == replwire::FrameParse::kFrame) {
        decoded.emplace_back();
        replwire::AppendFrame(msg, &decoded.back());
      }
      ASSERT_EQ(parse, replwire::FrameParse::kNeedMore) << "stream " << stream_no;
      reader.KeepTail();
      const size_t complete = std::upper_bound(ends.begin(), ends.end(), fed) - ends.begin();
      ASSERT_EQ(decoded.size(), complete) << "stream " << stream_no << " at byte " << fed;
    }
    EXPECT_TRUE(tail.empty());
    EXPECT_EQ(decoded, sent) << "stream " << stream_no;
  }
}

// --- Hub ↔ replica protocol (no transport) -----------------------------------

class ReplProtocolTest : public ::testing::Test {
 protected:
  void OpenPrimary(uint32_t shards, uint64_t compact_min = 1024) {
    StoreOptions opts;
    opts.dir = dir_.path() + "/primary";
    opts.shards = shards;
    opts.compact_min_log_records = compact_min;
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

  // A replica in its own directory, for multi-follower tests.
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
  static std::vector<replwire::WireMessage> Parse(const std::string& stream) {
    std::vector<replwire::WireMessage> out;
    replwire::WireMessage m;
    size_t pos = 0;
    while (replwire::ParseFrame(stream, &pos, &m) == replwire::FrameParse::kFrame) {
      out.push_back(m);
    }
    EXPECT_EQ(pos, stream.size());
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

// Profiling never changes a byte on the replication wire: a session ships
// the same snapshot and batch frames with the cycle profiler on and off.
// Nothing here charges the virtual clock, so both runs stamp the same lease
// deadlines; only the trace id differs, because every session mints a fresh
// one, so it is zeroed before the frames are compared.
TEST_F(ReplProtocolTest, FramesAreIdenticalWithTheProfilerOnAndOff) {
  const Label secrecy({{H(77), Level::kL3}}, Level::kStar);
  const auto ship = [&](const std::string& name, bool profile) {
    obs::CycleProfiler::SetEnabled(profile);
    StoreOptions opts;
    opts.dir = dir_.path() + "/" + name;
    opts.shards = 1;
    auto opened = DurableStore::Open(opts);
    EXPECT_TRUE(opened.ok());
    std::unique_ptr<DurableStore> primary = opened.take();
    const auto put = [&](const std::string& prefix) {
      for (int i = 0; i < 16; ++i) {
        EXPECT_EQ(primary->Put(prefix + std::to_string(i), "v", secrecy, Label::Top()),
                  Status::kOk);
      }
    };
    put("old");
    EXPECT_EQ(primary->Compact(), Status::kOk);  // the follower needs an image
    ReplicationHub hub(primary.get(), /*source_id=*/0x5EED);
    FollowerSession* session = hub.OpenSession();
    std::unique_ptr<ReplicaStore> replica = OpenNamedReplica(name + "-replica", 1, 0);
    std::string shipped;
    std::string acks;
    const auto deliver = [&](std::string frames) {
      for (replwire::WireMessage& m : Parse(std::move(frames))) {
        EXPECT_EQ(replica->HandleFrame(m, &acks), Status::kOk);
        m.trace_id = 0;
        replwire::AppendFrame(m, &shipped);
      }
    };
    const auto exchange = [&] {
      for (int round = 0; round < 100; ++round) {
        for (const replwire::WireMessage& a : Parse(std::move(acks))) {
          session->HandleAck(a);
        }
        acks.clear();
        std::string frames;
        if (session->PollFrames(1 << 16, ~0ULL, &frames) == 0) {
          break;
        }
        deliver(std::move(frames));
      }
    };
    deliver(session->SessionHello());
    exchange();  // the snapshot
    put("new");
    exchange();  // a batch
    EXPECT_EQ(replica->stats().snapshots_installed, 1u);
    EXPECT_GE(replica->stats().batches_applied, 1u);
    obs::CycleProfiler::SetEnabled(false);
    return shipped;
  };
  obs::CycleProfiler::Get().Clear();
  const std::string profiled = ship("on", true);
  EXPECT_EQ(obs::CycleProfiler::Get().stacks().count("repl.ship.batch"), 1u)
      << "the profiled run must actually have opened ship spans";
  obs::CycleProfiler::Get().Clear();
  const std::string plain = ship("off", false);
  EXPECT_EQ(Hex(profiled), Hex(plain));
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
  ReplicationOptions ropts_primary;
  ropts_primary.auth_token = 42;
  hub_ = std::make_unique<ReplicationHub>(primary_.get(), 0x5EED, ropts_primary);
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
  ReplicationOptions ropts_primary;
  ropts_primary.auth_token = 99;
  hub_ = std::make_unique<ReplicationHub>(primary_.get(), 0x5EED, ropts_primary);
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

// The lease is the failover window and the heartbeat is derived from it;
// there is no "leases off" configuration to fall into by accident.
TEST(ReplHubDeathTest, ZeroLeaseIntervalIsRefused) {
  TempDir dir;
  StoreOptions opts;
  opts.dir = dir.path() + "/primary";
  auto store = DurableStore::Open(opts);
  ASSERT_TRUE(store.ok());
  ReplicationOptions options;
  options.lease_interval_cycles = 0;
  EXPECT_DEATH(ReplicationHub(store.value().get(), 0x5EED, options),
               "lease_interval_cycles > 0");
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

TEST_F(ReplProtocolTest, ThreeFollowersEachReadTheLogAndMatch) {
  OpenPrimary(4);
  std::vector<Mirror> mirrors;
  for (uint64_t id = 1; id <= 3; ++id) {
    mirrors.push_back(
        Mirror::Open(hub_.get(), dir_.path() + "/m" + std::to_string(id), 4, id));
  }
  // Establish every session first (fresh replicas are imaged, not
  // streamed); the read count below is about steady-state BATCHES.
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
  uint64_t batches = 0;
  for (Mirror& m : mirrors) {
    const uint64_t shipped_before = m.session->stats().batches_shipped;
    SyncPair(m.session, m.replica.get());
    const uint64_t shipped = m.session->stats().batches_shipped - shipped_before;
    EXPECT_GT(shipped, 0u);
    batches += shipped;
  }
  for (Mirror& m : mirrors) {
    EXPECT_TRUE(m.session->FullySynced());
    ExpectStoreMatches(m.replica->store(), primary_.get());
  }
  // Nothing is shared between sessions: every batch any session shipped
  // came from its own read of the log.
  EXPECT_GE(primary_->wal_read_calls() - wal_reads_before, batches);
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

// --- Compaction catch-up ------------------------------------------------------

TEST_F(ReplProtocolTest, LaggingFollowerStillSnapshotsAcrossCompaction) {
  OpenPrimary(1);
  OpenReplica(1);
  SyncOnce();
  for (int i = 0; i < 64; ++i) {
    ASSERT_EQ(primary_->Put("k" + std::to_string(i), std::string(100, 'x'), Label::Bottom(),
                            Label::Top()),
              Status::kOk);
  }
  // The follower never applied this span, and compaction discarded it:
  // the follower is re-imaged.
  ASSERT_EQ(primary_->Compact(), Status::kOk);
  SyncOnce();
  EXPECT_TRUE(session_->FullySynced());
  EXPECT_GE(session_->stats().snapshots_shipped, 1u);
  ExpectReplicaMatchesPrimary();
}

TEST_F(ReplProtocolTest, ReadYourWritesHoldsAcrossCompactionSnapshot) {
  OpenPrimary(1);
  OpenReplica(1, /*follower_id=*/1);
  SyncOnce();  // adopt the (empty) shard and stamp the lease
  ASSERT_EQ(primary_->Put("doc", "mine", Label::Bottom(), Label::Top()), Status::kOk);
  // The session's token right after its write: the primary's tail, in the
  // generation the write landed in.
  replwire::ReadCursorToken token;
  token.source_id = 0x5EED;  // OpenPrimary's hub source id
  token.shard = 0;
  token.generation = primary_->shard_wal_generation(0);
  token.offset = primary_->shard_wal_offset(0);
  ReadGate gate(replica_.get());
  EXPECT_EQ(gate.Serve("doc", Label::Top(), token).status, ReadStatus::kRefusedCursorLag);

  // Compaction discards the span before it ships: the follower catches up
  // by snapshot and lands in a later generation than the token names.
  ASSERT_EQ(primary_->Compact(), Status::kOk);
  const uint64_t images_before = replica_->stats().snapshots_installed;
  SyncOnce();
  EXPECT_EQ(replica_->stats().snapshots_installed, images_before + 1);
  const replwire::ReadCursorToken applied = replica_->applied_cursor(0);
  EXPECT_EQ(applied.generation, token.generation + 1);
  EXPECT_EQ(applied.offset, 0u);
  const ReadResult r = gate.Serve("doc", Label::Top(), token);
  EXPECT_EQ(r.status, ReadStatus::kOk);
  EXPECT_EQ(r.value, "mine");

  // A token past the follower's applied cursor is still refused: a write
  // in the new generation that has not shipped yet...
  ASSERT_EQ(primary_->Put("doc", "newer", Label::Bottom(), Label::Top()), Status::kOk);
  replwire::ReadCursorToken ahead = token;
  ahead.generation = primary_->shard_wal_generation(0);
  ahead.offset = primary_->shard_wal_offset(0);
  EXPECT_EQ(gate.Serve("doc", Label::Top(), ahead).status, ReadStatus::kRefusedCursorLag);
  // ...and a token from a generation the follower has not reached.
  replwire::ReadCursorToken future = applied;
  future.generation += 1;
  EXPECT_EQ(gate.Serve("doc", Label::Top(), future).status, ReadStatus::kRefusedCursorLag);
  SyncOnce();
  EXPECT_EQ(gate.Serve("doc", Label::Top(), ahead).status, ReadStatus::kOk);
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
  // the kernel IPC delivery check's verdict, charged by the same formula.
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
    opts.store_dir = dir;
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
    ReplicaOptions fopts;
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

  void FsRequest(uint64_t type, const std::string& path, MessageWords words,
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
  fs_opts.store_dir = follower_dir;
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

// --- One burst, any fragmentation --------------------------------------------

// What a primary puts on the wire at once for a fresh follower: the hello,
// a snapshot per shard, then a run of small kBatch frames of labeled
// records. A real session builds it; a scratch replica answers the hello
// and the snapshots so the session goes on to ship batches.
struct Burst {
  std::unique_ptr<DurableStore> primary;
  std::string bytes;
  std::vector<size_t> frame_ends;  // offset just past each frame
};

Burst MakeBurst(const std::string& dir) {
  Burst b;
  StoreOptions opts;
  opts.dir = dir + "/primary";
  opts.shards = 4;
  auto store = DurableStore::Open(opts);
  EXPECT_TRUE(store.ok());
  b.primary = store.take();
  const Label secrecy({{H(77), Level::kL3}}, Level::kStar);
  const Label integrity({{H(88), Level::kL0}}, Level::kL3);
  const auto put = [&](int first, int last) {
    for (int i = first; i < last; ++i) {
      EXPECT_EQ(b.primary->Put("key" + std::to_string(i), "value " + std::to_string(i),
                               i % 2 == 0 ? secrecy : Label::Bottom(), integrity),
                Status::kOk);
    }
  };
  put(0, 8);
  ReplicationHub hub(b.primary.get(), /*source_id=*/0x5EED);
  FollowerSession* session = hub.OpenSession();
  opts.dir = dir + "/scratch-replica";
  auto scratch = ReplicaStore::Open(opts);
  EXPECT_TRUE(scratch.ok());
  // Appends `frames` to the burst, applies them to the scratch replica and
  // hands its acks back to the session.
  const auto ship = [&](const std::string& frames) {
    b.bytes += frames;
    std::string acks;
    replwire::WireMessage m;
    size_t pos = 0;
    while (replwire::ParseFrame(frames, &pos, &m) == replwire::FrameParse::kFrame) {
      EXPECT_EQ(scratch.value()->HandleFrame(m, &acks), Status::kOk);
    }
    pos = 0;
    while (replwire::ParseFrame(acks, &pos, &m) == replwire::FrameParse::kFrame) {
      session->HandleAck(m);
    }
  };
  ship(session->SessionHello());
  std::string frames;
  session->PollFrames(/*max_batch_bytes=*/256, ~0ULL, &frames);  // the snapshots
  ship(frames);
  put(8, 48);
  frames.clear();
  session->PollFrames(/*max_batch_bytes=*/256, ~0ULL, &frames);  // the batches
  ship(frames);
  EXPECT_GT(scratch.value()->stats().batches_applied, 4u);
  replwire::WireMessage m;
  size_t pos = 0;
  while (replwire::ParseFrame(b.bytes, &pos, &m) == replwire::FrameParse::kFrame) {
    b.frame_ends.push_back(pos);
  }
  EXPECT_EQ(pos, b.bytes.size());
  return b;
}

// What one follower machine made of a burst.
struct BurstOutcome {
  std::unique_ptr<FollowerWorld> follower;
  std::vector<replwire::ReadCursorToken> cursors;
  std::string acks;           // everything the follower sent back, in order
  bool session_ended = false;  // the follower closed the connection
};

// Queues `burst` on a bare SimNet standing in for the primary's machine and
// lets a ReplicationLink delivering at most max_chunk bytes at a time (0 =
// whole) carry it to a fresh follower machine.
BurstOutcome DeliverBurst(const std::string& dir, const std::string& burst,
                          uint64_t max_chunk) {
  constexpr uint16_t kPrimaryPort = 7000;
  constexpr uint16_t kFollowerPort = 7100;
  BurstOutcome out;
  StoreOptions opts;
  opts.dir = dir;
  opts.shards = 4;
  out.follower = std::make_unique<FollowerWorld>(0x0452, kFollowerPort, opts);
  out.follower->Pump();  // attach the listener
  SimNet primary_net;
  primary_net.ServerListen(kPrimaryPort);
  ReplicationLink link(&primary_net, kPrimaryPort, &out.follower->net(), kFollowerPort);
  link.set_max_chunk(max_chunk);
  const std::vector<SimNet::ServerEvent> dial = primary_net.DrainServerEvents();
  EXPECT_EQ(dial.size(), 1u);
  primary_net.ServerAccept(dial.at(0).conn);
  primary_net.ServerSend(dial.at(0).conn, burst);
  int quiet = 0;  // steps in a row that moved nothing, once the burst is across
  for (int i = 0; i < 100000 && quiet < 3; ++i) {
    const uint64_t moved = link.Step();
    if (!link.connected()) {
      out.session_ended = true;
      break;
    }
    out.follower->Pump();
    for (const SimNet::ServerEvent& ev : primary_net.DrainServerEvents()) {
      out.acks += ev.bytes;
    }
    if (link.bytes_to_follower() == burst.size()) {
      quiet = moved == 0 ? quiet + 1 : 0;
    }
  }
  EXPECT_TRUE(out.session_ended || quiet == 3) << "the burst never drained";
  // What the last step carried across before the link saw the close.
  for (const SimNet::ServerEvent& ev : primary_net.DrainServerEvents()) {
    out.acks += ev.bytes;
  }
  for (uint32_t shard = 0; shard < 4; ++shard) {
    out.cursors.push_back(out.follower->follower()->replica()->applied_cursor(shard));
  }
  return out;
}

void ExpectSameCursors(const std::vector<replwire::ReadCursorToken>& got,
                       const std::vector<replwire::ReadCursorToken>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t s = 0; s < want.size(); ++s) {
    EXPECT_EQ(got[s].source_id, want[s].source_id) << "shard " << s;
    EXPECT_EQ(got[s].generation, want[s].generation) << "shard " << s;
    EXPECT_EQ(got[s].offset, want[s].offset) << "shard " << s;
  }
}

// The frame reader parses each delivery where it lies and keeps only a torn
// tail: however the link cuts one burst — a byte at a time, just short of,
// on and just past a frame boundary — the follower ends with the same
// records, cursors and acks as when the burst arrives whole.
TEST_F(ReplEndToEndTest, OneBurstAppliesTheSameUnderEveryChunking) {
  const Burst burst = MakeBurst(dir_.path());
  ASSERT_GE(burst.frame_ends.size(), 10u) << "a hello, 4 snapshots and several batches";
  const uint64_t frame = burst.frame_ends[6] - burst.frame_ends[5];  // the second batch frame
  const BurstOutcome whole = DeliverBurst(dir_.path() + "/whole", burst.bytes, 0);
  EXPECT_FALSE(whole.session_ended);
  ExpectStoresIdentical(*burst.primary, *whole.follower->follower()->replica()->store());
  EXPECT_FALSE(whole.acks.empty());
  for (const uint64_t chunk : {uint64_t{1}, uint64_t{7}, uint64_t{8}, uint64_t{9}, frame - 1,
                               frame, frame + 1}) {
    SCOPED_TRACE("max_chunk " + std::to_string(chunk));
    const BurstOutcome cut =
        DeliverBurst(dir_.path() + "/chunk" + std::to_string(chunk), burst.bytes, chunk);
    EXPECT_FALSE(cut.session_ended);
    ExpectStoresIdentical(*burst.primary, *cut.follower->follower()->replica()->store());
    ExpectSameCursors(cut.cursors, whole.cursors);
    EXPECT_EQ(cut.acks, whole.acks);
    EXPECT_EQ(cut.follower->follower()->replica()->stats().batches_applied,
              whole.follower->follower()->replica()->stats().batches_applied);
  }
}

// A corrupt frame in the middle of one delivery ends the session there: the
// frames before it are applied, none after it is.
TEST_F(ReplEndToEndTest, CorruptFrameMidDeliveryAppliesExactlyTheEarlierFrames) {
  const Burst burst = MakeBurst(dir_.path());
  const size_t bad = burst.frame_ends.size() - 3;  // a batch frame with batches after it
  ASSERT_GE(bad, 7u);
  std::string poisoned = burst.bytes;
  poisoned[burst.frame_ends[bad] - 1] ^= 0x55;  // last payload byte: the CRC must catch it

  // The expected outcome: the frames before `bad`, applied to a replica in
  // process.
  StoreOptions opts;
  opts.dir = dir_.path() + "/expected";
  opts.shards = 4;
  auto expected = ReplicaStore::Open(opts);
  ASSERT_TRUE(expected.ok());
  std::string acks;
  const std::string_view good = std::string_view(burst.bytes).substr(0, burst.frame_ends[bad - 1]);
  replwire::WireMessage m;
  size_t pos = 0;
  while (replwire::ParseFrame(good, &pos, &m) == replwire::FrameParse::kFrame) {
    ASSERT_EQ(expected.value()->HandleFrame(m, &acks), Status::kOk);
  }
  ASSERT_EQ(pos, good.size());

  const BurstOutcome got = DeliverBurst(dir_.path() + "/follower", poisoned, 0);
  EXPECT_TRUE(got.session_ended);
  const ReplicaStore* replica = got.follower->follower()->replica();
  ExpectStoresIdentical(*expected.value()->store(), *replica->store());
  EXPECT_EQ(replica->stats().snapshots_installed, 4u);
  EXPECT_EQ(replica->stats().batches_applied, bad - 5) << "every batch before the bad frame";
  EXPECT_EQ(replica->stats().batches_applied, expected.value()->stats().batches_applied);
  std::vector<replwire::ReadCursorToken> want;
  for (uint32_t shard = 0; shard < 4; ++shard) {
    want.push_back(expected.value()->applied_cursor(shard));
  }
  ExpectSameCursors(got.cursors, want);
  // The acks for the frames applied before the corrupt one reach the
  // primary ahead of the close.
  EXPECT_EQ(got.acks, acks);
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
  // client's token, and the gate must refuse rather than serve the old
  // bytes — never a read below the token. The client builds its token from
  // the primary's shard position after its write.
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
  opts.store_dir = dir_.path() + "/primary";
  opts.shards = 4;
  opts.replication.listen_tcp_port = kReplPort;
  opts.replication.auth_token = kAuthToken;
  opts.replication.lease_interval_cycles = 2'000'000;
  fleet_ = std::make_unique<ReplicationFleet>(0x0451, opts);
  StoreOptions fopts_store;
  fopts_store.dir = dir_.path() + "/follower";
  fopts_store.shards = 4;
  ReplicaOptions fopts;
  fopts.auth_token = kAuthToken;
  fopts.follower_id = 0;  // a mirror: observe the expiry, don't fail over
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

// A reader whose frame header announces a 4 GiB frame would have the
// follower buffer everything it sends. Once a read connection's unparsed
// bytes pass kMaxReadRequestBytes the follower closes it; a well-formed
// reader on its own connection is served before and after.
TEST_F(ReplEndToEndTest, HostileReaderIsClosedAtTheBufferCap) {
  StoreOptions opts;
  opts.dir = dir_.path() + "/follower";
  opts.shards = 4;
  ReplicaOptions ropts;
  ropts.auth_token = kAuthToken;
  FollowerWorld follower(0x0452, kFollowerPortBase, opts, ropts, /*read_tcp_port=*/7500);
  follower.Pump();
  SimNet& net = follower.net();
  const auto pump = [&] { follower.Pump(); };
  ReadClient reader(&net, 7500, kAuthToken);
  ReadResult r;
  ASSERT_TRUE(reader.Read("k", Label::Top(), {}, pump, &r));

  const ConnId hostile = net.ClientConnect(7500);
  ASSERT_NE(hostile, kNoConn);
  net.ClientSend(hostile, std::string("\xff\xff\xff\xff\0\0\0\0", 8));  // len 2^32 - 1
  constexpr uint64_t kPiece = 64 * 1024;
  uint64_t sent = 8;
  while (sent < 2 * 1024 * 1024) {
    net.ClientSend(hostile, std::string(kPiece, 'x'));
    sent += kPiece;
    pump();
    if (sent <= FollowerProcess::kMaxReadRequestBytes) {
      ASSERT_FALSE(net.ClientSeesClosed(hostile)) << "closed below the cap, at " << sent;
    }
  }
  EXPECT_TRUE(net.ClientSeesClosed(hostile));
  EXPECT_EQ(follower.follower()->read_sessions_accepted(), 2u);

  ASSERT_TRUE(reader.Read("k", Label::Top(), {}, pump, &r)) << "the good reader is served";
  EXPECT_TRUE(reader.connected());
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
                             StoreOptions{dir.path() + "/idd-replica", 4, 1024});
  FollowerWorld demux_follower(0x2222, 7201,
                               StoreOptions{dir.path() + "/demux-replica", 4, 1024});
  FollowerWorld dbproxy_follower(0x3333, 7202,
                                 StoreOptions{dir.path() + "/dbproxy-replica", 4, 1024});
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
