// Replication benchmarks: WAL ship throughput (primary side), K-follower
// fan-out (ship throughput and per-follower apply lag vs K, WAL reads per
// batch), follower apply lag (batch arrival → records live in the replica,
// labels interned), snapshot catch-up, and the full multi-machine
// simnet/netd path.
//
// Results are machine-readable: unless the caller passes its own
// --benchmark_out, the run writes BENCH_replication.json (google-benchmark
// JSON) into the working directory. `--smoke` shrinks every measurement to
// a sanity-check run for CI.
#include <benchmark/benchmark.h>
#include <stdlib.h>

#include <algorithm>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/panic.h"
#include "src/obs/metrics.h"
#include "src/obs/reset.h"
#include "src/fs/file_server.h"
#include "src/replication/follower.h"
#include "src/replication/link.h"
#include "src/replication/read_gate.h"
#include "src/replication/replica.h"
#include "src/replication/source.h"
#include "src/sim/costs.h"
#include "src/sim/cycles.h"
#include "src/store/store.h"

namespace asbestos {
namespace {

std::string MakeTempDir() {
  char tmpl[] = "/tmp/asbestos_bench.XXXXXX";
  ASB_ASSERT(::mkdtemp(tmpl) != nullptr);
  return tmpl;
}

void RemoveTree(const std::string& dir) {
  const std::string cmd = "rm -rf '" + dir + "'";
  ASB_ASSERT(::system(cmd.c_str()) == 0);
}

// One labeled record, the file-server shape: per-record secrecy compartment
// at 3, shared integrity bound.
void PutRecord(DurableStore* store, uint64_t i, size_t value_bytes) {
  const Label secrecy({{Handle::FromValue(1000 + (i % 64)), Level::kL3}}, Level::kStar);
  const Label integrity({{Handle::FromValue(5), Level::kL0}}, Level::kL3);
  ASB_ASSERT(store->Put("key" + std::to_string(i), std::string(value_bytes, 'x'), secrecy,
                        integrity) == Status::kOk);
}

// Parses a frame stream and applies every frame to the replica, feeding
// acks back into the session.
void ApplyStream(const std::string& stream, ReplicaStore* replica, FollowerSession* session) {
  std::string acks;
  replwire::WireMessage m;
  size_t pos = 0;
  while (replwire::ParseFrame(stream, &pos, &m) == replwire::FrameParse::kFrame) {
    ASB_ASSERT(replica->HandleFrame(m, &acks) == Status::kOk);
  }
  pos = 0;
  while (replwire::ParseFrame(acks, &pos, &m) == replwire::FrameParse::kFrame) {
    session->HandleAck(m);
  }
}

// A primary store + hub fanning out to K replicas, sessions established.
struct FanOut {
  std::string dir;
  std::unique_ptr<DurableStore> primary;
  std::unique_ptr<ReplicationHub> hub;
  std::vector<std::unique_ptr<ReplicaStore>> replicas;
  std::vector<FollowerSession*> sessions;  // owned by the hub

  FanOut(uint32_t shards, size_t followers) {
    dir = MakeTempDir();
    StoreOptions popts;
    popts.dir = dir + "/primary";
    popts.shards = shards;
    auto p = DurableStore::Open(popts);
    ASB_ASSERT(p.ok());
    primary = p.take();
    hub = std::make_unique<ReplicationHub>(primary.get(), 0xBE7C);
    for (size_t k = 0; k < followers; ++k) {
      StoreOptions ropts;
      ropts.dir = dir + "/replica" + std::to_string(k);
      ropts.shards = shards;
      ReplicaOptions opts;
      opts.follower_id = k + 1;
      auto r = ReplicaStore::Open(ropts, opts);
      ASB_ASSERT(r.ok());
      replicas.push_back(r.take());
      sessions.push_back(hub->OpenSession());
      // Hello/resume handshake, then drain the (empty) initial snapshots.
      ApplyStream(sessions[k]->SessionHello(), replicas[k].get(), sessions[k]);
      std::string frames;
      sessions[k]->PollFrames(1 << 16, ~0ULL, &frames);
      ApplyStream(std::move(frames), replicas[k].get(), sessions[k]);
    }
  }

  ~FanOut() {
    replicas.clear();
    primary.reset();
    RemoveTree(dir);
  }
};

// Ship throughput: how fast the primary turns appended WAL bytes into wire
// frames AND the follower applies them (labels unpickled + interned through
// the canonical-rep table). Arg0: records per batch; Arg1: value bytes.
void BM_ShipAndApply(benchmark::State& state) {
  obs::ResetAll();  // fresh obs state per benchmark: no cross-run bleed
  const uint64_t per_batch = static_cast<uint64_t>(state.range(0));
  const size_t value_bytes = static_cast<size_t>(state.range(1));
  FanOut pair(4, 1);
  uint64_t i = 0;
  uint64_t shipped_bytes = 0;
  for (auto _ : state) {
    state.PauseTiming();  // the primary's own writes are not replication cost
    for (uint64_t k = 0; k < per_batch; ++k) {
      PutRecord(pair.primary.get(), i++, value_bytes);
    }
    state.ResumeTiming();
    std::string frames;
    pair.sessions[0]->PollFrames(1 << 16, ~0ULL, &frames);
    shipped_bytes += frames.size();
    ApplyStream(std::move(frames), pair.replicas[0].get(), pair.sessions[0]);
  }
  ASB_ASSERT(pair.sessions[0]->FullySynced());
  ASB_ASSERT(pair.replicas[0]->store()->size() == pair.primary->size());
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * per_batch));
  state.SetBytesProcessed(static_cast<int64_t>(shipped_bytes));
  state.counters["batches"] =
      static_cast<double>(pair.sessions[0]->stats().batches_shipped);
  state.counters["records_applied"] =
      static_cast<double>(pair.replicas[0]->stats().records_applied);
}
BENCHMARK(BM_ShipAndApply)->Args({16, 256})->Args({256, 256})->Args({256, 4096});

// K-follower fan-out: one primary feeding Arg0 followers in lockstep. Items
// = records × K (each record must land on every follower). Each session
// reads the log for itself, so wal_reads_per_batch (ReadShardWal calls per
// batch of 256 puts) grows with K.
void BM_FanOutShipAndApply(benchmark::State& state) {
  obs::ResetAll();  // fresh obs state per benchmark: no cross-run bleed
  const size_t followers = static_cast<size_t>(state.range(0));
  const uint64_t per_batch = 256;
  FanOut fan(4, followers);
  uint64_t i = 0;
  uint64_t shipped_bytes = 0;
  const uint64_t wal_reads_before = fan.primary->wal_read_calls();
  for (auto _ : state) {
    state.PauseTiming();
    for (uint64_t k = 0; k < per_batch; ++k) {
      PutRecord(fan.primary.get(), i++, 256);
    }
    state.ResumeTiming();
    for (size_t k = 0; k < followers; ++k) {
      std::string frames;
      fan.sessions[k]->PollFrames(1 << 16, ~0ULL, &frames);
      shipped_bytes += frames.size();
      ApplyStream(std::move(frames), fan.replicas[k].get(), fan.sessions[k]);
    }
  }
  for (size_t k = 0; k < followers; ++k) {
    ASB_ASSERT(fan.sessions[k]->FullySynced());
    ASB_ASSERT(fan.replicas[k]->store()->size() == fan.primary->size());
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * per_batch * followers));
  state.SetBytesProcessed(static_cast<int64_t>(shipped_bytes));
  state.counters["wal_reads_per_batch"] =
      static_cast<double>(fan.primary->wal_read_calls() - wal_reads_before) /
      static_cast<double>(state.iterations());
  state.counters["wal_reads"] = static_cast<double>(fan.primary->wal_read_calls());
  state.counters["records_applied_per_follower"] =
      static_cast<double>(fan.replicas[0]->stats().records_applied);
}
BENCHMARK(BM_FanOutShipAndApply)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// Follower apply lag: wall time from "batch bytes arrived" to "every record
// live in the replica's map and logged in its WAL" — the window where a
// promote would miss the newest writes. Reported per record.
void BM_FollowerApplyLag(benchmark::State& state) {
  obs::ResetAll();  // fresh obs state per benchmark: no cross-run bleed
  const uint64_t per_batch = static_cast<uint64_t>(state.range(0));
  FanOut pair(4, 1);
  uint64_t i = 0;
  for (auto _ : state) {
    state.PauseTiming();
    for (uint64_t k = 0; k < per_batch; ++k) {
      PutRecord(pair.primary.get(), i++, 256);
    }
    std::string frames;
    pair.sessions[0]->PollFrames(1 << 16, ~0ULL, &frames);
    std::vector<replwire::WireMessage> batch;
    replwire::WireMessage m;
    size_t pos = 0;
    while (replwire::ParseFrame(frames, &pos, &m) == replwire::FrameParse::kFrame) {
      batch.push_back(std::move(m));
    }
    state.ResumeTiming();
    std::string acks;
    for (const replwire::WireMessage& b : batch) {
      ASB_ASSERT(pair.replicas[0]->HandleFrame(b, &acks) == Status::kOk);
    }
    state.PauseTiming();
    pos = 0;
    while (replwire::ParseFrame(acks, &pos, &m) == replwire::FrameParse::kFrame) {
      pair.sessions[0]->HandleAck(m);
    }
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * per_batch));
  state.counters["apply_lag_ns_per_record"] = benchmark::Counter(
      static_cast<double>(state.iterations() * per_batch),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_FollowerApplyLag)->Arg(16)->Arg(256);

// Snapshot catch-up: a fresh follower joining a primary whose WAL was
// compacted away — the whole image ships and installs. Arg0: records.
void BM_SnapshotCatchUp(benchmark::State& state) {
  obs::ResetAll();  // fresh obs state per benchmark: no cross-run bleed
  const uint64_t records = static_cast<uint64_t>(state.range(0));
  const std::string dir = MakeTempDir();
  StoreOptions popts;
  popts.dir = dir + "/primary";
  popts.shards = 4;
  auto p = DurableStore::Open(popts);
  ASB_ASSERT(p.ok());
  std::unique_ptr<DurableStore> primary = p.take();
  for (uint64_t i = 0; i < records; ++i) {
    PutRecord(primary.get(), i, 256);
  }
  ASB_ASSERT(primary->Compact() == Status::kOk);
  ReplicationHub hub(primary.get(), 0xBE7C);
  FollowerSession* session = hub.OpenSession();
  uint64_t joined = 0;
  for (auto _ : state) {
    state.PauseTiming();
    const std::string rdir = dir + "/replica" + std::to_string(joined++);
    StoreOptions ropts;
    ropts.dir = rdir;
    ropts.shards = 4;
    auto r = ReplicaStore::Open(ropts);
    ASB_ASSERT(r.ok());
    std::unique_ptr<ReplicaStore> replica = r.take();
    state.ResumeTiming();
    ApplyStream(session->SessionHello(), replica.get(), session);
    std::string frames;
    session->PollFrames(1 << 16, ~0ULL, &frames);
    ApplyStream(std::move(frames), replica.get(), session);
    ASB_ASSERT(replica->store()->size() == records);
    state.PauseTiming();
    replica.reset();
    RemoveTree(rdir);
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * records));
  primary.reset();
  RemoveTree(dir);
}
BENCHMARK(BM_SnapshotCatchUp)->Arg(1000)->Arg(10000);

// Read fan-out: aggregate labeled-read throughput across K synced replicas,
// each serving through its own ReadGate (lease check + flow check + store
// lookup). The simulator's cycle clock is ONE serial CPU, so K racks serving
// in parallel cannot be timed by the wall clock: each replica's serve cycles
// are attributed separately (now() sampled around each Serve) and the
// aggregate rate is total_reads / max-per-replica-busy-time — the
// parallel-racks model. The flow-check verdict cache is warmed before
// measurement (every secrecy compartment seen once per gate), so the steady
// state pays kLabelOpBaseCycles-free cache hits, matching a server that has
// been up for more than one request per compartment.
void BM_ReadFanOut(benchmark::State& state) {
  obs::ResetAll();  // fresh obs state per benchmark: no cross-run bleed
  const size_t followers = static_cast<size_t>(state.range(0));
  const uint64_t records = 512;
  const uint64_t reads_per_round = 32;  // per replica; lease renewed each round
  FanOut fan(4, followers);
  for (uint64_t i = 0; i < records; ++i) {
    PutRecord(fan.primary.get(), i, 256);
  }
  std::vector<std::unique_ptr<ReadGate>> gates;
  for (size_t k = 0; k < followers; ++k) {
    std::string frames;
    fan.sessions[k]->PollFrames(1 << 16, ~0ULL, &frames);
    ApplyStream(std::move(frames), fan.replicas[k].get(), fan.sessions[k]);
    ASB_ASSERT(fan.sessions[k]->FullySynced());
    gates.push_back(std::make_unique<ReadGate>(fan.replicas[k].get()));
  }
  const Label clearance = Label::Top();
  const replwire::ReadCursorToken no_token;  // eventual-consistency read
  // Warm the verdict cache: one read per secrecy compartment per gate.
  for (size_t k = 0; k < followers; ++k) {
    for (uint64_t i = 0; i < 64; ++i) {
      ASB_ASSERT(gates[k]->Serve("key" + std::to_string(i), clearance, no_token).status ==
                 ReadStatus::kOk);
    }
  }
  std::vector<uint64_t> serve_cycles(followers, 0);
  uint64_t total_reads = 0;
  uint64_t refused = 0;
  uint64_t i = 0;
  for (auto _ : state) {
    state.PauseTiming();  // lease upkeep is the replication stream's cost
    for (size_t k = 0; k < followers; ++k) {
      std::string hb;
      fan.sessions[k]->AppendHeartbeat(&hb);
      ApplyStream(std::move(hb), fan.replicas[k].get(), fan.sessions[k]);
    }
    state.ResumeTiming();
    for (size_t k = 0; k < followers; ++k) {
      const uint64_t before = GetCycleAccounting().now();
      for (uint64_t r = 0; r < reads_per_round; ++r) {
        const ReadResult res =
            gates[k]->Serve("key" + std::to_string(i++ % records), clearance, no_token);
        if (res.status != ReadStatus::kOk) {
          ++refused;
        }
        benchmark::DoNotOptimize(res.value.data());
      }
      serve_cycles[k] += GetCycleAccounting().now() - before;
      total_reads += reads_per_round;
    }
  }
  uint64_t busiest = 1;
  for (size_t k = 0; k < followers; ++k) {
    busiest = std::max(busiest, serve_cycles[k]);
  }
  const double busy_sec = static_cast<double>(busiest) / costs::kCpuHz;
  state.SetItemsProcessed(static_cast<int64_t>(total_reads));
  state.counters["reads_per_sec_aggregate"] = static_cast<double>(total_reads) / busy_sec;
  state.counters["reads_per_sec_per_replica"] =
      static_cast<double>(total_reads) / static_cast<double>(followers) / busy_sec;
  state.counters["refusal_rate"] =
      total_reads == 0 ? 0.0
                       : static_cast<double>(refused) / static_cast<double>(total_reads);
}
BENCHMARK(BM_ReadFanOut)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// The full multi-machine path: file-server writes on the primary world, NIC
// pumps, netd labeled messages, one wire ferry per follower, and each
// follower's group commit. Arg0: follower machine count. Items = records
// fully replicated to EVERY follower per second, machine to machine;
// wal_reads_per_batch counts ReadShardWal calls per round of 64 puts.
void BM_EndToEndSimnet(benchmark::State& state) {
  obs::ResetAll();  // fresh obs state per benchmark: no cross-run bleed
  const size_t followers = static_cast<size_t>(state.range(0));
  const uint64_t per_round = 64;
  const std::string dir = MakeTempDir();
  FileServerOptions fs_opts;
  fs_opts.store_dir = dir + "/primary";
  fs_opts.shards = 4;
  fs_opts.replication.listen_tcp_port = 7000;
  fs_opts.replication.max_followers = static_cast<uint32_t>(followers);
  ReplicationFleet fleet(0x0451, fs_opts);
  for (size_t k = 0; k < followers; ++k) {
    StoreOptions ropts;
    ropts.dir = dir + "/follower" + std::to_string(k);
    ropts.shards = 4;
    ReplicaOptions fopts;
    fopts.follower_id = k + 1;
    fleet.AddFollower(0x0452 + k, static_cast<uint16_t>(7001 + k), ropts, fopts);
  }
  ASB_ASSERT(fleet.PumpUntilSynced(10000));

  uint64_t i = 0;
  const uint64_t wal_reads_before = fleet.primary()->fs()->store()->wal_read_calls();
  for (auto _ : state) {
    // Append straight into the file server's store (the workload driver is
    // not what this bench measures); the pump's OnIdle flushes AND ships.
    for (uint64_t k = 0; k < per_round; ++k) {
      PutRecord(const_cast<DurableStore*>(fleet.primary()->fs()->store()), i++, 256);
    }
    ASB_ASSERT(fleet.PumpUntilSynced(10000));
  }
  uint64_t wire_bytes = 0;
  for (size_t k = 0; k < followers; ++k) {
    ASB_ASSERT(fleet.follower(k)->follower()->replica()->store()->size() ==
               fleet.primary()->fs()->store()->size());
    wire_bytes += fleet.link(k)->bytes_to_follower();
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * per_round * followers));
  state.counters["wire_bytes"] = static_cast<double>(wire_bytes);
  state.counters["wal_reads_per_batch"] =
      static_cast<double>(fleet.primary()->fs()->store()->wal_read_calls() - wal_reads_before) /
      static_cast<double>(state.iterations());
  RemoveTree(dir);
}
BENCHMARK(BM_EndToEndSimnet)->Arg(1)->Arg(3);

}  // namespace
}  // namespace asbestos

// Custom main (same pattern as bench_store / bench_label_cache): default
// the run to writing BENCH_replication.json and translate `--smoke` into a
// minimal-time run for the CI Release job.
int main(int argc, char** argv) {
  std::vector<std::string> args;
  args.reserve(static_cast<size_t>(argc) + 3);
  bool has_out = false;
  bool smoke = false;
  args.emplace_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
      continue;
    }
    if (arg == "--benchmark_out" || arg.rfind("--benchmark_out=", 0) == 0) {
      has_out = true;
    }
    args.emplace_back(arg);
  }
  if (!has_out) {
    args.emplace_back("--benchmark_out=BENCH_replication.json");
    args.emplace_back("--benchmark_out_format=json");
  }
  if (smoke) {
    args.emplace_back("--benchmark_min_time=0.01");
  }
  std::vector<char*> argv2;
  argv2.reserve(args.size());
  for (std::string& a : args) {
    argv2.push_back(a.data());
  }
  int argc2 = static_cast<int>(argv2.size());
  benchmark::Initialize(&argc2, argv2.data());
  if (benchmark::ReportUnrecognizedArguments(argc2, argv2.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  // The unified metrics snapshot rides alongside the google-benchmark JSON
  // (same basename, .metrics.json suffix); see README "Observability".
  asbestos::obs::Registry::Get().WriteSnapshotFile("BENCH_replication.metrics.json");
  return 0;
}
