// Durable-store microbenchmarks: label pickle/unpickle throughput, CRC-32
// and WAL append rate, sharded put/group-commit throughput, dbproxy's
// whole-table image write and label-filtered list fan-out, and recovery
// time versus record count. These
// bound the cost of the durability layer that backs the file server and
// idd — the paper's performance story (Figures 7-9) assumes
// storage is not the bottleneck, and this bench is where we check that
// assumption as the store grows features (replication is the remaining
// ROADMAP follow-on).
//
// Results are machine-readable: unless the caller passes its own
// --benchmark_out, the run writes BENCH_store.json (google-benchmark JSON)
// into the working directory so the perf trajectory is tracked across PRs.
// `--smoke` shrinks every measurement to a sanity-check run for CI.
#include <benchmark/benchmark.h>
#include <stdlib.h>
#include <unistd.h>

#include <chrono>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/panic.h"
#include "src/db/dbproxy.h"
#include "src/kernel/kernel.h"
#include "src/obs/metrics.h"
#include "src/obs/reset.h"
#include "src/labels/label.h"
#include "src/store/label_codec.h"
#include "src/store/store.h"
#include "src/store/wal.h"

namespace asbestos {
namespace {

std::string MakeTempDir() {
  char tmpl[] = "/tmp/asbestos_bench.XXXXXX";
  ASB_ASSERT(::mkdtemp(tmpl) != nullptr);
  return tmpl;
}

// A RAM-backed directory (tmpfs), for the *Ram bench variants that isolate
// the store machinery's own overhead from the storage device's cache-flush
// latency — on virtualized disks a single flush costs ~200µs no matter how
// little is written, which floors any durable-vs-volatile ratio regardless
// of how cheap the batching discipline is. Empty when no tmpfs is writable;
// those variants then skip.
std::string MakeRamDir() {
  if (::access("/dev/shm", W_OK) != 0) {
    return "";
  }
  char tmpl[] = "/dev/shm/asbestos_bench.XXXXXX";
  if (::mkdtemp(tmpl) == nullptr) {
    return "";
  }
  return tmpl;
}

void RemoveTree(const std::string& dir) {
  // Stores are one level deep; remove files then the directories.
  const std::string cmd = "rm -rf '" + dir + "'";
  ASB_ASSERT(::system(cmd.c_str()) == 0);
}

Label MakeLabel(size_t entries, Level level, Level def) {
  Label l(def);
  for (size_t i = 0; i < entries; ++i) {
    l.Set(Handle::FromValue(1 + i * 7), level);
  }
  return l;
}

// --- Label codec -----------------------------------------------------------

void BM_PickleLabel(benchmark::State& state) {
  obs::ResetAll();  // fresh obs state per benchmark: no cross-run bleed
  const Label l = MakeLabel(static_cast<size_t>(state.range(0)), Level::kStar, Level::kL3);
  uint64_t bytes = 0;
  for (auto _ : state) {
    const std::string pickled = codec::PickleLabel(l);
    bytes += pickled.size();
    benchmark::DoNotOptimize(pickled);
  }
  state.SetBytesProcessed(static_cast<int64_t>(bytes));
  state.counters["entries"] = static_cast<double>(state.range(0));
  state.counters["pickled_bytes"] =
      static_cast<double>(codec::PickleLabel(l).size());
}
BENCHMARK(BM_PickleLabel)->Arg(0)->Arg(8)->Arg(64)->Arg(512)->Arg(4096);

void BM_UnpickleLabel(benchmark::State& state) {
  obs::ResetAll();  // fresh obs state per benchmark: no cross-run bleed
  const Label l = MakeLabel(static_cast<size_t>(state.range(0)), Level::kStar, Level::kL3);
  const std::string pickled = codec::PickleLabel(l);
  for (auto _ : state) {
    Label out;
    ASB_ASSERT(codec::UnpickleLabel(pickled, &out) == Status::kOk);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * pickled.size()));
}
BENCHMARK(BM_UnpickleLabel)->Arg(0)->Arg(8)->Arg(64)->Arg(512)->Arg(4096);

// --- CRC-32 ----------------------------------------------------------------

// Every WAL frame, snapshot and replication frame is checksummed; 36 KiB is
// the size of the notes table image a dbproxy write appends.
void BM_Crc32(benchmark::State& state) {
  std::string data(static_cast<size_t>(state.range(0)), '\0');
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<char>(i * 131 + 7);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * data.size()));
}
BENCHMARK(BM_Crc32)->Arg(1024)->Arg(36 * 1024);

// --- dbproxy table image ---------------------------------------------------

// One privileged UPDATE on a durable dbproxy whose notes table holds Arg
// rows (250 owners, 8 notes each at 2,000): the write re-encodes the whole
// table/NOTES image, hidden USER_ID column included, and appends it to the
// store's log, which the end-of-pump group commit then flushes.
void BM_DbproxyTableImage(benchmark::State& state) {
  obs::ResetAll();  // fresh obs state per benchmark: no cross-run bleed
  std::string dir = MakeRamDir();
  if (dir.empty()) {
    dir = MakeTempDir();
  }
  {
    Kernel kernel(0x1a6e);
    DurableOptions opts;
    opts.store_dir = dir + "/dbproxy";
    auto code = std::make_unique<DbproxyProcess>(opts);
    DbproxyProcess* proxy = code.get();
    SpawnArgs args;
    args.name = "dbproxy";
    args.component = Component::kOkdb;
    const ProcessId pid = kernel.CreateProcess(std::move(code), args);
    // The proxy holds its own priv port's capability, so it can send itself
    // privileged statements; with no reply port nothing comes back.
    const auto exec = [&](const std::string& sql) {
      kernel.WithProcessContext(pid, [&](ProcessContext& ctx) {
        Message q;
        q.type = dbproxy_proto::kQuery;
        q.words = {1, 0};
        q.data = "\n" + sql;
        ASB_ASSERT(ctx.Send(proxy->priv_port(), std::move(q)) == Status::kOk);
      });
      kernel.RunUntilIdle();
    };
    exec("CREATE TABLE notes (text TEXT)");
    std::string insert = "INSERT INTO notes (text, USER_ID) VALUES ";
    for (int64_t row = 0; row < state.range(0); ++row) {
      insert += (row == 0 ? "('note " : ", ('note ") + std::to_string(row) + "', " +
                std::to_string(row % 250 + 1) + ")";
    }
    exec(insert);
    uint64_t i = 0;
    for (auto _ : state) {
      exec(std::string("UPDATE notes SET text = 'edit ") + (i++ % 2 == 0 ? "a" : "b") +
           "' WHERE USER_ID = 1");
    }
    const StoreRecord* image = proxy->store()->Get("table/NOTES");
    ASB_ASSERT(image != nullptr);
    state.counters["image_bytes"] = static_cast<double>(image->value.size());
    state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * image->value.size()));
  }
  RemoveTree(dir);
}
BENCHMARK(BM_DbproxyTableImage)->Arg(2000);

// --- dbproxy list fan-out --------------------------------------------------

// Counts the rows a reader is delivered.
class RowSink : public ProcessCode {
 public:
  explicit RowSink(uint64_t* rows) : rows_(rows) {}
  void HandleMessage(ProcessContext& ctx, const Message& msg) override {
    (void)ctx;
    *rows_ += msg.type == dbproxy_proto::kRow ? 1 : 0;
  }

 private:
  uint64_t* rows_;
};

// One worker's `SELECT text FROM notes` over a 2,000-row table whose rows
// belong to 250 bound users (8 each), the OKDB list of §7.5: the proxy sends
// every row as its own message tainted {uT 3, ⋆} for the row's owner, and
// the kernel drops the 1,992 the reader, cleared for its own user only, may
// not see. Time is per SELECT, pump included; `ns_per_row` is the loop's
// steady-clock time divided by the rows sent.
void BM_DbproxyListFanOut(benchmark::State& state) {
  obs::ResetAll();  // fresh obs state per benchmark: no cross-run bleed
  constexpr int64_t kOwners = 250;
  Kernel kernel(0xfa40);
  auto code = std::make_unique<DbproxyProcess>();
  DbproxyProcess* proxy = code.get();
  SpawnArgs args;
  args.name = "dbproxy";
  args.component = Component::kOkdb;
  const ProcessId pid = kernel.CreateProcess(std::move(code), args);
  // The proxy holds its own priv port's capability, so it can send itself
  // privileged statements and bindings; with no reply port nothing comes
  // back.
  const auto self_send = [&](Message m, const SendArgs& send_args) {
    kernel.WithProcessContext(pid, [&](ProcessContext& ctx) {
      ASB_ASSERT(ctx.Send(proxy->priv_port(), std::move(m), send_args) == Status::kOk);
    });
    kernel.RunUntilIdle();
  };
  const auto exec = [&](const std::string& sql) {
    Message q;
    q.type = dbproxy_proto::kQuery;
    q.words = {1, 0};
    q.data = "\n" + sql;
    self_send(std::move(q), SendArgs());
  };
  exec("CREATE TABLE notes (text TEXT)");
  std::vector<Handle> taints;
  for (int64_t uid = 1; uid <= kOwners; ++uid) {
    Handle taint;
    Handle grant;
    kernel.WithProcessContext(pid, [&](ProcessContext& ctx) {
      taint = ctx.NewHandle();
      grant = ctx.NewHandle();
    });
    Message bind;
    bind.type = dbproxy_proto::kBind;
    bind.data = "user" + std::to_string(uid);
    bind.words = {taint.value(), grant.value(), static_cast<uint64_t>(uid)};
    SendArgs bind_args;
    bind_args.decont_receive = Label({{taint, Level::kL3}}, Level::kStar);
    self_send(std::move(bind), bind_args);
    taints.push_back(taint);
  }
  std::string insert = "INSERT INTO notes (text, USER_ID) VALUES ";
  for (int64_t row = 0; row < 2000; ++row) {
    insert += (row == 0 ? "('note " : ", ('note ") + std::to_string(row) + "', " +
              std::to_string(row % kOwners + 1) + ")";
  }
  exec(insert);

  // The reader acts for user1: tainted uT 3 and cleared to receive uT 3.
  uint64_t delivered = 0;
  SpawnArgs rargs;
  rargs.name = "worker-user1";
  rargs.send_label.Set(taints[0], Level::kL3);
  rargs.recv_label.Set(taints[0], Level::kL3);
  const ProcessId reader = kernel.CreateProcess(std::make_unique<RowSink>(&delivered), rargs);
  Handle reply;
  kernel.WithProcessContext(reader, [&](ProcessContext& ctx) {
    reply = ctx.NewPort(Label::Top());
    ASB_ASSERT(ctx.SetPortLabel(reply, Label::Top()) == Status::kOk);
  });
  const KernelStats before = kernel.stats();
  std::chrono::steady_clock::duration elapsed{};
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    kernel.WithProcessContext(reader, [&](ProcessContext& ctx) {
      Message q;
      q.type = dbproxy_proto::kQuery;
      q.words = {1, 0};
      q.data = "user1\nSELECT text FROM notes";
      q.reply_port = reply;
      ASB_ASSERT(ctx.Send(proxy->query_port(), std::move(q)) == Status::kOk);
    });
    kernel.RunUntilIdle();
    elapsed += std::chrono::steady_clock::now() - start;
  }
  const auto selects = static_cast<double>(state.iterations());
  const KernelStats& after = kernel.stats();
  const double sent = static_cast<double>(after.sends - before.sends) / selects - 2;  // query, done
  state.counters["rows_sent"] = sent;
  state.counters["rows_dropped"] =
      static_cast<double>(after.drops_label_check - before.drops_label_check) / selects;
  state.counters["rows_delivered"] = static_cast<double>(delivered) / selects;
  state.counters["ns_per_row"] =
      static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count()) /
      (sent * selects);
  state.SetItemsProcessed(static_cast<int64_t>(sent * selects));
}
BENCHMARK(BM_DbproxyListFanOut);

// --- WAL append rate -------------------------------------------------------

void BM_WalAppend(benchmark::State& state) {
  obs::ResetAll();  // fresh obs state per benchmark: no cross-run bleed
  const std::string dir = MakeTempDir();
  Wal wal;
  ASB_ASSERT(wal.Open(dir + "/wal", [](std::string_view) {}) == Status::kOk);
  const std::string record(static_cast<size_t>(state.range(0)), 'r');
  for (auto _ : state) {
    ASB_ASSERT(wal.Append(record) == Status::kOk);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * record.size()));
  wal.Close();
  RemoveTree(dir);
}
BENCHMARK(BM_WalAppend)->Arg(64)->Arg(1024)->Arg(16384);

// --- Store mutation (log + apply, no fsync) --------------------------------

void BM_StorePut(benchmark::State& state) {
  obs::ResetAll();  // fresh obs state per benchmark: no cross-run bleed
  const std::string dir = MakeTempDir();
  StoreOptions opts;
  opts.dir = dir + "/store";
  auto store = DurableStore::Open(std::move(opts));
  ASB_ASSERT(store.ok());
  const Label secrecy({{Handle::FromValue(42), Level::kL3}}, Level::kStar);
  const Label integrity({{Handle::FromValue(43), Level::kL0}}, Level::kL3);
  const std::string value(256, 'v');
  uint64_t i = 0;
  for (auto _ : state) {
    ASB_ASSERT(store.value()->Put("key" + std::to_string(i++ % 1000), value, secrecy,
                                  integrity) == Status::kOk);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  store.value().reset();
  RemoveTree(dir);
}
BENCHMARK(BM_StorePut);

// Non-durable puts across N shards: the routing + per-shard map cost as the
// log count grows. Arg = shard count.
void RunStorePutSharded(benchmark::State& state, const std::string& dir) {
  obs::ResetAll();  // fresh obs state per benchmark: no cross-run bleed
  StoreOptions opts;
  opts.dir = dir + "/store";
  opts.shards = static_cast<uint32_t>(state.range(0));
  auto store = DurableStore::Open(std::move(opts));
  ASB_ASSERT(store.ok());
  const Label secrecy({{Handle::FromValue(42), Level::kL3}}, Level::kStar);
  const std::string value(256, 'v');
  uint64_t i = 0;
  for (auto _ : state) {
    ASB_ASSERT(store.value()->Put("key" + std::to_string(i++ % 1000), value, secrecy,
                                  Label::Top()) == Status::kOk);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.counters["shards"] = static_cast<double>(state.range(0));
  store.value().reset();
  RemoveTree(dir);
}

void BM_StorePutSharded(benchmark::State& state) { RunStorePutSharded(state, MakeTempDir()); }
BENCHMARK(BM_StorePutSharded)->Arg(1)->Arg(4)->Arg(16)->UseRealTime();

void BM_StorePutShardedRam(benchmark::State& state) {
  obs::ResetAll();  // fresh obs state per benchmark: no cross-run bleed
  const std::string dir = MakeRamDir();
  if (dir.empty()) {
    state.SkipWithError("no writable tmpfs");
    return;
  }
  RunStorePutSharded(state, dir);
}
BENCHMARK(BM_StorePutShardedRam)->Arg(4)->UseRealTime();

// Durable puts under group commit: every put appends, and every `batch`
// puts one SyncPipelined() hands the dirty shards to the background
// flusher, with one Sync() at the end — the exact discipline
// DurableBacking::OnIdle applies (batch ≈ mutations per pump iteration).
// Arg = batch size; batch 1 is the old per-mutation fsync regime. The
// acceptance bar — batch 64 within 2× of non-durable at the same shard
// count — is measured by the Ram pair, which isolates the store's own
// work; the disk pair additionally pays the device's per-flush
// floor (~200µs on virtualized disks, ~3µs/put at batch 64), which bounds
// the disk ratio at ~2.5× no matter the software.
void RunStorePutGroupCommit(benchmark::State& state, const std::string& dir) {
  obs::ResetAll();  // fresh obs state per benchmark: no cross-run bleed
  StoreOptions opts;
  opts.dir = dir + "/store";
  opts.shards = 4;
  auto store = DurableStore::Open(std::move(opts));
  ASB_ASSERT(store.ok());
  const uint64_t batch = static_cast<uint64_t>(state.range(0));
  const Label secrecy({{Handle::FromValue(42), Level::kL3}}, Level::kStar);
  const std::string value(256, 'v');
  uint64_t i = 0;
  for (auto _ : state) {
    ASB_ASSERT(store.value()->Put("key" + std::to_string(i % 1000), value, secrecy,
                                  Label::Top()) == Status::kOk);
    if (++i % batch == 0) {
      ASB_ASSERT(store.value()->SyncPipelined() == Status::kOk);
    }
  }
  ASB_ASSERT(store.value()->Sync() == Status::kOk);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.counters["batch"] = static_cast<double>(batch);
  store.value().reset();
  RemoveTree(dir);
}

void BM_StorePutGroupCommit(benchmark::State& state) {
  obs::ResetAll();  // fresh obs state per benchmark: no cross-run bleed
  RunStorePutGroupCommit(state, MakeTempDir());
}
BENCHMARK(BM_StorePutGroupCommit)->Arg(1)->Arg(8)->Arg(64)->UseRealTime();

void BM_StorePutGroupCommitRam(benchmark::State& state) {
  obs::ResetAll();  // fresh obs state per benchmark: no cross-run bleed
  const std::string dir = MakeRamDir();
  if (dir.empty()) {
    state.SkipWithError("no writable tmpfs");
    return;
  }
  RunStorePutGroupCommit(state, dir);
}
BENCHMARK(BM_StorePutGroupCommitRam)->Arg(1)->Arg(64)->UseRealTime();

// --- Recovery time versus record count -------------------------------------

void BM_Recovery(benchmark::State& state) {
  obs::ResetAll();  // fresh obs state per benchmark: no cross-run bleed
  const uint64_t n = static_cast<uint64_t>(state.range(0));
  const std::string dir = MakeTempDir();
  {
    StoreOptions opts;
    opts.dir = dir + "/store";
    opts.compact_min_log_records = ~0ULL;  // keep everything in the log
    auto store = DurableStore::Open(std::move(opts));
    ASB_ASSERT(store.ok());
    const Label secrecy({{Handle::FromValue(7), Level::kL3}}, Level::kStar);
    for (uint64_t i = 0; i < n; ++i) {
      ASB_ASSERT(store.value()->Put("key" + std::to_string(i), std::string(128, 'v'), secrecy,
                                    Label::Top()) == Status::kOk);
    }
  }
  for (auto _ : state) {
    StoreOptions opts;
    opts.dir = dir + "/store";
    auto store = DurableStore::Open(std::move(opts));
    ASB_ASSERT(store.ok() && store.value()->size() == n);
    benchmark::DoNotOptimize(store);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * n));
  state.SetComplexityN(state.range(0));
  RemoveTree(dir);
}
BENCHMARK(BM_Recovery)->Arg(100)->Arg(1000)->Arg(10000)->Complexity(benchmark::oN);

// Recovery from a snapshot instead of a raw log (post-compaction shape).
void BM_RecoveryFromSnapshot(benchmark::State& state) {
  obs::ResetAll();  // fresh obs state per benchmark: no cross-run bleed
  const uint64_t n = static_cast<uint64_t>(state.range(0));
  const std::string dir = MakeTempDir();
  {
    StoreOptions opts;
    opts.dir = dir + "/store";
    auto store = DurableStore::Open(std::move(opts));
    ASB_ASSERT(store.ok());
    const Label secrecy({{Handle::FromValue(7), Level::kL3}}, Level::kStar);
    for (uint64_t i = 0; i < n; ++i) {
      ASB_ASSERT(store.value()->Put("key" + std::to_string(i), std::string(128, 'v'), secrecy,
                                    Label::Top()) == Status::kOk);
    }
    ASB_ASSERT(store.value()->Compact() == Status::kOk);
  }
  for (auto _ : state) {
    StoreOptions opts;
    opts.dir = dir + "/store";
    auto store = DurableStore::Open(std::move(opts));
    ASB_ASSERT(store.ok() && store.value()->size() == n);
    benchmark::DoNotOptimize(store);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * n));
  state.SetComplexityN(state.range(0));
  RemoveTree(dir);
}
BENCHMARK(BM_RecoveryFromSnapshot)->Arg(100)->Arg(1000)->Arg(10000)->Complexity(benchmark::oN);

// Sharded recovery: 10k records spread over N shard logs, replayed shard by
// shard on open. Arg = shard count (1 is the flat baseline above).
void BM_RecoverySharded(benchmark::State& state) {
  obs::ResetAll();  // fresh obs state per benchmark: no cross-run bleed
  const uint64_t n = 10000;
  const std::string dir = MakeTempDir();
  {
    StoreOptions opts;
    opts.dir = dir + "/store";
    opts.shards = static_cast<uint32_t>(state.range(0));
    opts.compact_min_log_records = ~0ULL;  // keep everything in the logs
    auto store = DurableStore::Open(std::move(opts));
    ASB_ASSERT(store.ok());
    const Label secrecy({{Handle::FromValue(7), Level::kL3}}, Level::kStar);
    for (uint64_t i = 0; i < n; ++i) {
      ASB_ASSERT(store.value()->Put("key" + std::to_string(i), std::string(128, 'v'), secrecy,
                                    Label::Top()) == Status::kOk);
    }
  }
  for (auto _ : state) {
    StoreOptions opts;
    opts.dir = dir + "/store";
    auto store = DurableStore::Open(std::move(opts));
    ASB_ASSERT(store.ok() && store.value()->size() == n);
    benchmark::DoNotOptimize(store);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * n));
  state.counters["shards"] = static_cast<double>(state.range(0));
  RemoveTree(dir);
}
BENCHMARK(BM_RecoverySharded)->Arg(4)->Arg(16);

}  // namespace
}  // namespace asbestos

// Custom main instead of BENCHMARK_MAIN: default the run to writing
// BENCH_store.json (JSON results tracked across PRs) and translate the
// `--smoke` convenience flag into a minimal-time run for CI regression
// checks, where only "builds, runs, produces sane numbers" matters.
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
    // Exactly the output-file flag: --benchmark_out_format alone must not
    // suppress the default output file.
    if (arg == "--benchmark_out" || arg.rfind("--benchmark_out=", 0) == 0) {
      has_out = true;
    }
    args.emplace_back(arg);
  }
  if (!has_out) {
    args.emplace_back("--benchmark_out=BENCH_store.json");
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
  asbestos::obs::Registry::Get().WriteSnapshotFile("BENCH_store.metrics.json");
  return 0;
}
