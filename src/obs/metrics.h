// Unified metrics plane: one process-wide registry of named counters,
// gauges, and cycle histograms, with a deterministic snapshot.
//
// The paper's whole evaluation is measurement (Figures 6-9: per-component
// cycle attribution, kernel bytes per user, per-request latency), but the
// repo's instrumentation grew as one-off accessors scattered per module
// (GetLabelCheckCacheStats, DurableStore::wal_read_calls, KernelMemReport,
// ...). This registry gives them one roof:
//
//   * Counter       monotonically increasing u64, owned by the registry;
//                   call sites cache `static obs::Counter& c = ...` so the
//                   hot path is a single increment.
//   * Gauge         a settable double for last-written-value metrics that
//                   must outlive their producer (e.g. replication lag after
//                   a hub is destroyed).
//   * CycleHistogram log2-bucketed distribution over the virtual cycle
//                   clock (count / sum / max / per-bucket counts).
//   * Gauge groups  registered callbacks that read LIVE module state at
//                   snapshot time (label-cache stats, intern table, store
//                   memory, per-component cycle totals, a Kernel's
//                   MemReport). The existing per-module structs stay the
//                   storage of record — their accessors keep live-view
//                   semantics — and the registry is the window onto them.
//
// Snapshot() flattens everything into name → value with DETERMINISTIC
// iteration order (sorted by name); SnapshotJson() renders that map as one
// flat JSON object, which the benches write next to their google-benchmark
// JSON. When two producers use the same name (e.g. two kernels in a
// replication fleet), the later registration wins in the snapshot — the
// usual one-kernel worlds never collide.
//
// Metric naming scheme: `<subsystem>.<object>.<field>`, all lower_snake,
// e.g. kernel.label_cache.hits, store.wal_read_calls, repl.hub0.sessions,
// cycles.component.kernel_ipc, okws.request_cycles.count. See README
// "Observability" for the full table.
//
// Everything here is single-threaded, like the simulator itself, and the
// registry itself never charges virtual cycles: observability must not
// perturb the Figure-9 cost attribution it reports.
#ifndef SRC_OBS_METRICS_H_
#define SRC_OBS_METRICS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace asbestos {
namespace obs {

class Counter {
 public:
  void Add(uint64_t n = 1) { value_ += n; }
  uint64_t value() const { return value_; }
  void Reset() { value_ = 0; }

 private:
  uint64_t value_ = 0;
};

class Gauge {
 public:
  void Set(double v) { value_ = v; }
  double value() const { return value_; }

 private:
  double value_ = 0;
};

// Power-of-two bucketed histogram for virtual-cycle durations. Bucket i
// counts samples in [2^(i-1), 2^i) (bucket 0 counts zeros and ones).
class CycleHistogram {
 public:
  static constexpr int kBuckets = 64;

  void Record(uint64_t cycles);

  uint64_t count() const { return count_; }
  uint64_t sum() const { return sum_; }
  uint64_t max() const { return max_; }
  uint64_t bucket(int i) const { return buckets_[i]; }
  // Upper bound of the smallest bucket prefix holding ≥ q of the samples
  // (a coarse quantile: exact to within the 2x bucket width). 0 when empty.
  uint64_t ApproxQuantile(double q) const;
  void Reset();

 private:
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t max_ = 0;
  uint64_t buckets_[kBuckets] = {};
};

// Snapshot-time sink a gauge-group callback fills with live values.
class GaugeSink {
 public:
  void Set(const std::string& name, double value) { out_[name] = value; }
  void Set(const std::string& name, uint64_t value) {
    out_[name] = static_cast<double>(value);
  }
  void Set(const std::string& name, int64_t value) {
    out_[name] = static_cast<double>(value);
  }

 private:
  friend class Registry;
  std::map<std::string, double> out_;
};

using GaugeGroupFn = std::function<void(GaugeSink&)>;

// `s` escaped for use inside a JSON string literal.
std::string EscapeJson(const std::string& s);

class Registry {
 public:
  // The process-wide registry. Leaked on purpose: call sites cache
  // references into it from static initializers and module destructors may
  // read it during teardown, so it must never be destroyed.
  static Registry& Get();

  // Create-on-first-use; the returned reference is stable forever.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  CycleHistogram& histogram(const std::string& name);

  // Registers a callback that contributes live values at snapshot time.
  // Returns an id for UnregisterGauges (RAII holders: Kernel, hubs).
  // Module-global collectors simply never unregister.
  uint64_t RegisterGauges(GaugeGroupFn fn);
  void UnregisterGauges(uint64_t id);

  // Zeroes every registered counter, gauge, and histogram VALUE in place
  // (names and cached references stay valid; gauge groups are untouched —
  // they read live module state). This is obs::ResetAll()'s registry half,
  // used between bench repetitions so one case's numbers don't bleed into
  // the next BENCH_*.metrics.json.
  void ResetValues();

  // Flattens counters, gauges, histograms (as <name>.count/.sum/.max/.avg/
  // .p50/.p99) and every gauge group into one sorted name → value map.
  // Groups are evaluated in registration order, so on a name collision the
  // latest registration wins.
  std::map<std::string, double> Snapshot() const;
  // The snapshot as one flat JSON object, keys sorted.
  std::string SnapshotJson() const;
  // Writes SnapshotJson() to `path` (plus trailing newline). False on I/O
  // failure.
  bool WriteSnapshotFile(const std::string& path) const;

 private:
  Registry() = default;
  ~Registry() = delete;  // leaked singleton

  // Pointer stability for cached references: node-based maps.
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, CycleHistogram> histograms_;
  std::vector<std::pair<uint64_t, GaugeGroupFn>> gauge_groups_;
  uint64_t next_group_id_ = 1;
};

}  // namespace obs
}  // namespace asbestos

#endif  // SRC_OBS_METRICS_H_
