// Canonical-label benchmarks: the kernel flow-check cache on recurring
// OKWS-shaped tuples (cold = uncached baseline, warm = cache hits), the
// delivery contamination join of a ⋆-heavy send label into a small worker
// label, the send-time effective send label of a read fan-out, the general
// ⊔ merge, and store-recovery label memory with hash-consed dedup.
//
// The acceptance bar for the cache is wall-clock only: warm-cache
// CheckDeliveryAllowed on recurring tuples must be ≥5× faster than the
// uncached evaluation while charging EXACTLY the same LabelWorkStats/work
// (the fidelity is asserted here per-run, and property-tested in
// tests/label_checks_test.cc) — Figure-9 cost curves cannot tell the cache
// exists.
//
// Results are machine-readable: unless the caller passes its own
// --benchmark_out, the run writes BENCH_labels.json (google-benchmark JSON)
// into the working directory. `--smoke` shrinks every measurement to a
// sanity-check run for CI.
#include <benchmark/benchmark.h>
#include <stdlib.h>

#include <string>
#include <string_view>
#include <vector>

#include "src/base/panic.h"
#include "src/obs/metrics.h"
#include "src/obs/reset.h"
#include "src/kernel/label_checks.h"
#include "src/labels/intern.h"
#include "src/labels/label.h"
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

// One OKWS-shaped delivery tuple: a per-user-tainted effective-send label
// against a worker receive label that has grown a clearance entry per user.
// Shaped to defeat the O(1) extrema shortcut so the uncached check performs
// its charged linear merge, as the kernel hot path does at scale.
struct DeliveryTuple {
  Label es;
  Label qr;
  Label dr = Label::Bottom();
  Label v = Label::Top();
  Label pr = Label::Top();
};

DeliveryTuple MakeTuple(uint64_t salt, size_t entries) {
  DeliveryTuple t;
  LabelBuilder eb(Level::kL1);
  LabelBuilder qb(Level::kL2);
  for (size_t i = 1; i <= entries; ++i) {
    const uint64_t h = salt * 100000 + i * 3;
    eb.Append(Handle::FromValue(h), i % 2 == 0 ? Level::kL2 : Level::kL3);
    qb.Append(Handle::FromValue(h), Level::kL3);
  }
  t.es = eb.Build();
  t.qr = qb.Build();
  return t;
}

// Arg0: distinct recurring tuples (1 = one hot session, 64 = a working set);
// Arg1: entries per label.
void RunDeliveryCheck(benchmark::State& state, bool cached) {
  obs::ResetAll();  // fresh obs state per benchmark: no cross-run bleed
  const size_t tuples = static_cast<size_t>(state.range(0));
  const size_t entries = static_cast<size_t>(state.range(1));
  std::vector<DeliveryTuple> pool;
  pool.reserve(tuples);
  for (size_t i = 0; i < tuples; ++i) {
    pool.push_back(MakeTuple(i + 1, entries));
  }
  ResetLabelCheckCache();
  ResetLabelWorkStats();
  const auto check = cached ? CheckDeliveryAllowed : CheckDeliveryAllowedUncached;
  uint64_t work = 0;
  uint64_t verdicts = 0;
  size_t i = 0;
  for (auto _ : state) {
    const DeliveryTuple& t = pool[i];
    i = i + 1 == pool.size() ? 0 : i + 1;
    verdicts += check(t.es, t.qr, t.dr, t.v, t.pr, &work) ? 1 : 0;
  }
  benchmark::DoNotOptimize(verdicts);
  const LabelWorkStats& stats = GetLabelWorkStats();
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.counters["tuples"] = static_cast<double>(tuples);
  state.counters["entries_per_label"] = static_cast<double>(entries);
  // Charged-cost fidelity: work per check must be identical cached/uncached
  // (compare these counters between the Cold and Warm rows of the JSON).
  state.counters["charged_work_per_check"] =
      static_cast<double>(work) / static_cast<double>(state.iterations());
  state.counters["entries_visited_per_check"] =
      static_cast<double>(stats.entries_visited) / static_cast<double>(state.iterations());
  if (cached) {
    const LabelCheckCacheStats& cache = GetLabelCheckCacheStats();
    state.counters["cache_hit_rate"] =
        static_cast<double>(cache.hits) / static_cast<double>(cache.hits + cache.misses);
  }
}

void BM_DeliveryCheckCold(benchmark::State& state) { RunDeliveryCheck(state, false); }
BENCHMARK(BM_DeliveryCheckCold)
    ->Args({1, 256})
    ->Args({64, 256})
    ->Args({64, 32});

void BM_DeliveryCheckWarm(benchmark::State& state) { RunDeliveryCheck(state, true); }
BENCHMARK(BM_DeliveryCheckWarm)
    ->Args({1, 256})
    ->Args({64, 256})
    ->Args({64, 32});

void RunContaminationCheck(benchmark::State& state, bool cached) {
  obs::ResetAll();  // fresh obs state per benchmark: no cross-run bleed
  const size_t tuples = static_cast<size_t>(state.range(0));
  std::vector<DeliveryTuple> pool;
  for (size_t i = 0; i < tuples; ++i) {
    pool.push_back(MakeTuple(i + 1, 256));
  }
  ResetLabelCheckCache();
  const auto check = cached ? NeedsContamination : NeedsContaminationUncached;
  uint64_t work = 0;
  uint64_t verdicts = 0;
  size_t i = 0;
  for (auto _ : state) {
    const DeliveryTuple& t = pool[i];
    i = i + 1 == pool.size() ? 0 : i + 1;
    verdicts += check(t.es, t.qr, &work) ? 1 : 0;
  }
  benchmark::DoNotOptimize(verdicts);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.counters["charged_work_per_check"] =
      static_cast<double>(work) / static_cast<double>(state.iterations());
}

void BM_ContaminationCheckCold(benchmark::State& state) { RunContaminationCheck(state, false); }
BENCHMARK(BM_ContaminationCheckCold)->Arg(64);

void BM_ContaminationCheckWarm(benchmark::State& state) { RunContaminationCheck(state, true); }
BENCHMARK(BM_ContaminationCheckWarm)->Arg(64);

// --- Delivery contamination join ---------------------------------------------

// The kernel's delivery join on a login or resume: demux's effective send
// label (one ⋆ per user plus the user's taint uT 3, default 1) joined into a
// fresh worker's 5-entry send label (default 1). Every ⋆ entry drops out
// (⋆ ⊔ 1 is the default), so the result is the worker's 5 entries plus uT 3;
// the charged work is still the full merge. Arg0: ⋆ entries in the ES.
void BM_DeliveryJoin(benchmark::State& state) {
  obs::ResetAll();  // fresh obs state per benchmark: no cross-run bleed
  const uint64_t n = static_cast<uint64_t>(state.range(0));
  const uint64_t stride = 2;
  LabelBuilder eb(Level::kL1);
  for (uint64_t i = 1; i <= n; ++i) {
    eb.Append(Handle::FromValue(i * stride), i == n / 2 ? Level::kL3 : Level::kStar);
  }
  const Label es = eb.Build();
  Label qs(Level::kL1);
  for (uint64_t k = 0; k < 5; ++k) {
    qs.Set(Handle::FromValue((k + 1) * n * stride / 6 + 1), k % 2 ? Level::kL3 : Level::kL2);
  }
  ResetLabelWorkStats();
  uint64_t result_entries = 0;
  for (auto _ : state) {
    Label joined = qs;
    joined.JoinInPlace(es);
    result_entries = joined.entry_count();
    benchmark::DoNotOptimize(joined);
  }
  ASB_ASSERT(result_entries == 6);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.counters["es_entries"] = static_cast<double>(n);
  state.counters["entries_visited_per_join"] =
      static_cast<double>(GetLabelWorkStats().entries_visited) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_DeliveryJoin)->Arg(1000)->Arg(10000)->Arg(100000);

// --- Send-time effective send label of a read fan-out ------------------------

// dbproxy's OKDB read (§7.5): one message per row, each with ES = PS ⊔ CS,
// where PS holds ⋆ for every user (756 entries, default 1) and CS is the row
// owner's {uT 3, ⋆}. Rows rotate over 250 owners, and the last 2,000 results
// stay live, as a queue of in-flight lists holds them. Each ES only
// overwrites one ⋆ entry, so the rows of one owner share one canonical rep:
// live_label_bytes is the heap the 2,000 queued results hold.
void BM_FanOutEffectiveSend(benchmark::State& state) {
  obs::ResetAll();  // fresh obs state per benchmark: no cross-run bleed
  constexpr uint64_t kEntries = 756;
  constexpr uint64_t kOwners = 250;
  constexpr size_t kQueued = 2000;
  LabelBuilder pb(Level::kL1);
  for (uint64_t i = 1; i <= kEntries; ++i) {
    pb.Append(Handle::FromValue(i * 2), Level::kStar);
  }
  const Label ps = pb.Build();
  std::vector<Label> taints;
  for (uint64_t j = 0; j < kOwners; ++j) {
    taints.push_back(Label({{Handle::FromValue((j * 3 + 1) * 2), Level::kL3}}, Level::kStar));
  }
  const int64_t live_before = GetLabelMemStats().live_bytes;
  std::vector<Label> queue(kQueued, ps);
  size_t row = 0;
  for (auto _ : state) {
    queue[row % kQueued] = Label::Lub(ps, taints[row % kOwners]);
    benchmark::DoNotOptimize(queue[row % kQueued]);
    ++row;
  }
  ASB_ASSERT(queue[0].Get(Handle::FromValue(2)) == Level::kL3);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.counters["es_entries"] = static_cast<double>(kEntries);
  state.counters["owners"] = static_cast<double>(kOwners);
  state.counters["live_label_bytes"] =
      static_cast<double>(GetLabelMemStats().live_bytes - live_before);
}
BENCHMARK(BM_FanOutEffectiveSend);

// --- The general merge --------------------------------------------------------

// ⊔ of two N-entry labels with interleaved handles and no shortcut: every
// entry of both sides is visited (§5.6, "linear in the size of their input
// labels"). The guard that the survivor paths of the asymmetric merges do
// not slow the ordinary one. Arg0: entries per label.
void BM_Lub(benchmark::State& state) {
  obs::ResetAll();  // fresh obs state per benchmark: no cross-run bleed
  const auto n = static_cast<uint64_t>(state.range(0));
  Label a(Level::kL1);
  Label b(Level::kL1);
  for (uint64_t i = 0; i < n; ++i) {
    a.Set(Handle::FromValue(1 + i * 7), Level::kL3);
    b.Set(Handle::FromValue(4 + i * 7), Level::kL2);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(Label::Lub(a, b));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.counters["entries"] = static_cast<double>(n);
}
BENCHMARK(BM_Lub)->Arg(16)->Arg(1024)->Arg(16384);

// --- Store recovery with hash-consed labels ---------------------------------

// N records share `distinct` secrecy labels round-robin (the OKWS shape:
// every record of one user carries that user's {uT 3, ⋆}). Recovery builds
// each label through the interning decode path, so the label heap after
// recovery is `distinct` reps, not N — the "before" memory is
// label_bytes_recovered + label_bytes_saved_by_dedup, the "after" is
// label_bytes_recovered alone.
void BM_RecoveryLabelDedup(benchmark::State& state) {
  obs::ResetAll();  // fresh obs state per benchmark: no cross-run bleed
  const uint64_t n = static_cast<uint64_t>(state.range(0));
  const uint64_t distinct = 32;
  const std::string dir = MakeTempDir();
  {
    StoreOptions opts;
    opts.dir = dir + "/store";
    opts.shards = 4;
    opts.compact_min_log_records = ~0ULL;  // keep everything in the logs
    auto store = DurableStore::Open(std::move(opts));
    ASB_ASSERT(store.ok());
    for (uint64_t i = 0; i < n; ++i) {
      LabelBuilder sb(Level::kStar);
      for (uint64_t e = 1; e <= 64; ++e) {
        sb.Append(Handle::FromValue((i % distinct + 1) * 1000 + e), Level::kL3);
      }
      ASB_ASSERT(store.value()->Put("key" + std::to_string(i), std::string(64, 'v'), sb.Build(),
                                    Label::Top()) == Status::kOk);
    }
    ASB_ASSERT(store.value()->Sync() == Status::kOk);
  }
  for (auto _ : state) {
    StoreOptions opts;
    opts.dir = dir + "/store";
    auto store = DurableStore::Open(std::move(opts));
    ASB_ASSERT(store.ok() && store.value()->size() == n);
    benchmark::DoNotOptimize(store);
  }
  // Metrics pass (untimed): one recovery, measured precisely.
  {
    ResetLabelInternStats();
    const int64_t live_before = GetLabelMemStats().live_bytes;
    StoreOptions opts;
    opts.dir = dir + "/store";
    auto store = DurableStore::Open(std::move(opts));
    ASB_ASSERT(store.ok());
    const LabelInternStats& intern = GetLabelInternStats();
    state.counters["records"] = static_cast<double>(n);
    state.counters["distinct_labels"] = static_cast<double>(distinct);
    state.counters["label_bytes_recovered"] =
        static_cast<double>(GetLabelMemStats().live_bytes - live_before);
    state.counters["label_bytes_saved_by_dedup"] = static_cast<double>(intern.bytes_saved);
    state.counters["dedup_hits"] = static_cast<double>(intern.hits);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * n));
  RemoveTree(dir);
}
BENCHMARK(BM_RecoveryLabelDedup)->Arg(1000)->Arg(10000);

}  // namespace
}  // namespace asbestos

// Custom main (same pattern as bench_store): default the run to writing
// BENCH_labels.json and translate `--smoke` into a minimal-time run for the
// CI Release job.
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
    args.emplace_back("--benchmark_out=BENCH_labels.json");
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
  asbestos::obs::Registry::Get().WriteSnapshotFile("BENCH_labels.metrics.json");
  return 0;
}
