// Counter snapshots and the per-layer metrics derived from their deltas.
//
// A Sample reads every counter bench_e2e reports through the simulator's
// public surfaces (cycle accounting, KernelStats, label work and check-cache
// stats, session-park stats, the metrics registry). Two samples bracket the
// measured phase; everything per-layer is a delta between them, divided by
// the phase's completed connections (or writes, or users) and reported with
// its base count.
#ifndef BENCH_E2E_LAYERS_H_
#define BENCH_E2E_LAYERS_H_

#include <array>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>

#include "src/kernel/kernel.h"
#include "src/kernel/label_checks.h"
#include "src/kernel/memstats.h"
#include "src/labels/label.h"
#include "src/obs/metrics.h"
#include "src/obs/profiler.h"
#include "src/sim/cycles.h"

namespace e2e {

// Modelled values come from the virtual clock and counters and must repeat
// bit for bit for one seed; host values are wall-clock and memory readings
// of the simulator itself and are summarized as medians over repetitions.
enum class Kind { kModelled, kHost };

struct Metric {
  double value = 0;
  std::string unit;
  Kind kind = Kind::kModelled;
};

class Metrics {
 public:
  void Modelled(const std::string& name, double value, const char* unit) {
    map_[name] = Metric{value, unit, Kind::kModelled};
  }
  void Host(const std::string& name, double value, const char* unit) {
    map_[name] = Metric{value, unit, Kind::kHost};
  }
  const std::map<std::string, Metric>& map() const { return map_; }
  double Get(const std::string& name) const {
    auto it = map_.find(name);
    return it == map_.end() ? 0 : it->second.value;
  }

 private:
  std::map<std::string, Metric> map_;
};

inline double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

struct Sample {
  uint64_t now = 0;
  std::array<uint64_t, asbestos::kComponentCount> component{};
  asbestos::KernelStats kernel;
  asbestos::LabelWorkStats label_work;
  asbestos::LabelCheckCacheStats check_cache;
  asbestos::SessionParkStats park;
  std::map<std::string, double> registry;

  double Reg(const std::string& name) const {
    auto it = registry.find(name);
    return it == registry.end() ? 0 : it->second;
  }
};

inline Sample TakeSample(const asbestos::Kernel& kernel) {
  Sample s;
  const asbestos::CycleAccounting& acct = asbestos::GetCycleAccounting();
  s.now = acct.now();
  for (int c = 0; c < asbestos::kComponentCount; ++c) {
    s.component[static_cast<size_t>(c)] = acct.total(static_cast<asbestos::Component>(c));
  }
  s.kernel = kernel.stats();
  s.label_work = asbestos::GetLabelWorkStats();
  s.check_cache = asbestos::GetLabelCheckCacheStats();
  s.park = asbestos::GetSessionParkStats();
  s.registry = asbestos::obs::Registry::Get().Snapshot();
  return s;
}

// What one measured phase did, beyond the two samples.
struct PhaseTotals {
  uint64_t conns = 0;          // completed requests
  uint64_t writes = 0;         // completed notes `add` requests
  uint64_t users = 0;          // distinct users the world holds
  uint64_t injected_idle = 0;  // cycles the open loop charged while idle
  uint64_t wal_bytes = 0;      // bytes appended to the primary's WALs
  uint64_t apply_lag_max = 0;  // replication apply lag, cycles
  double wall_s = 0;
  double loadgen_s = 0;
  double pump_s = 0;
  double link_s = 0;
  double follower_s = 0;
};

// Kernel memory at the point a workload reports it.
struct MemSnapshot {
  asbestos::KernelMemReport report;
  uint64_t peak_total_bytes = 0;
};

inline MemSnapshot TakeMemSnapshot(const asbestos::Kernel& kernel) {
  return MemSnapshot{kernel.MemReport(), kernel.peak_total_bytes()};
}

constexpr double kKilo = 1000.0;

// Per-layer metrics from the sample deltas. Also asserts the layer-sum
// invariant: the five component columns add up to the charged cycles
// exactly once the open loop's injected idle is taken out of `Other`.
// Returns false (and says why) when it does not.
inline bool PutLayerMetrics(Metrics& m, const Sample& a, const Sample& b, const PhaseTotals& t,
                            const MemSnapshot& memory, std::string* why) {
  using asbestos::Component;
  const double conns = static_cast<double>(t.conns);
  const double writes = static_cast<double>(t.writes);
  const double users = static_cast<double>(t.users);
  std::array<uint64_t, asbestos::kComponentCount> d{};
  uint64_t column_sum = 0;
  for (size_t c = 0; c < d.size(); ++c) {
    d[c] = b.component[c] - a.component[c];
  }
  d[static_cast<size_t>(Component::kOther)] -= t.injected_idle;
  for (uint64_t v : d) {
    column_sum += v;
  }
  const uint64_t charged = b.now - a.now - t.injected_idle;
  bool ok = true;
  if (column_sum != charged) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "layer columns sum to %llu cycles, clock charged %llu",
                  static_cast<unsigned long long>(column_sum),
                  static_cast<unsigned long long>(charged));
    *why = buf;
    ok = false;
  }
  auto col = [&](Component c) { return static_cast<double>(d[static_cast<size_t>(c)]); };
  m.Modelled("kcyc_per_conn", Ratio(static_cast<double>(charged), conns) / kKilo, "kcyc/conn");
  m.Modelled("net.kcyc_per_conn", Ratio(col(Component::kNetwork), conns) / kKilo, "kcyc/conn");
  m.Modelled("okws.kcyc_per_conn", Ratio(col(Component::kOkws), conns) / kKilo, "kcyc/conn");
  m.Modelled("db.kcyc_per_conn", Ratio(col(Component::kOkdb), conns) / kKilo, "kcyc/conn");
  m.Modelled("kernel.ipc_kcyc_per_conn", Ratio(col(Component::kKernelIpc), conns) / kKilo,
             "kcyc/conn");
  m.Modelled("other.kcyc_per_conn", Ratio(col(Component::kOther), conns) / kKilo, "kcyc/conn");
  m.Modelled("layers.column_sum_kcyc", static_cast<double>(column_sum) / kKilo, "kcyc");
  m.Modelled("layers.charged_kcyc", static_cast<double>(charged) / kKilo, "kcyc");

  m.Modelled("okws.eps_created_per_conn",
             Ratio(static_cast<double>(b.kernel.eps_created - a.kernel.eps_created), conns),
             "count/conn");
  m.Modelled("okws.session_parks_per_conn",
             Ratio(static_cast<double>(b.park.parks - a.park.parks), conns), "count/conn");
  m.Modelled("okws.session_resumes_per_conn",
             Ratio(static_cast<double>(b.park.resumes - a.park.resumes), conns), "count/conn");

  m.Modelled("kernel.sends_per_conn",
             Ratio(static_cast<double>(b.kernel.sends - a.kernel.sends), conns), "count/conn");
  m.Modelled("kernel.deliveries_per_conn",
             Ratio(static_cast<double>(b.kernel.deliveries - a.kernel.deliveries), conns),
             "count/conn");
  m.Modelled("kernel.drops_label_check_per_conn",
             Ratio(static_cast<double>(b.kernel.drops_label_check - a.kernel.drops_label_check),
                   conns),
             "count/conn");
  const double batches = b.Reg("pump.msgs_per_batch.count") - a.Reg("pump.msgs_per_batch.count");
  m.Modelled("kernel.msgs_per_batch_mean",
             Ratio(b.Reg("pump.msgs_per_batch.sum") - a.Reg("pump.msgs_per_batch.sum"), batches),
             "msgs/batch");
  m.Modelled("kernel.pump_batches", batches, "count");
  m.Modelled("kernel.payload_cow_bytes_per_conn",
             Ratio(b.Reg("payload.cow_bytes_copied") - a.Reg("payload.cow_bytes_copied"), conns),
             "B/conn");

  m.Modelled("labels.entries_visited_per_conn",
             Ratio(static_cast<double>(b.label_work.entries_visited - a.label_work.entries_visited),
                   conns),
             "count/conn");
  m.Modelled("labels.ops_per_conn",
             Ratio(static_cast<double>(b.label_work.ops - a.label_work.ops), conns), "count/conn");
  const double hits = static_cast<double>(b.check_cache.hits - a.check_cache.hits);
  const double misses = static_cast<double>(b.check_cache.misses - a.check_cache.misses);
  m.Modelled("labels.check_cache_hit_rate", Ratio(hits, hits + misses), "ratio");
  m.Modelled("labels.check_cache_hits", hits, "count");
  m.Modelled("labels.check_cache_misses", misses, "count");

  m.Modelled("store.wal_bytes_per_write", Ratio(static_cast<double>(t.wal_bytes), writes),
             "B/write");
  m.Modelled("store.wal_syncs_per_write",
             Ratio(b.Reg("store.wal_syncs") - a.Reg("store.wal_syncs"), writes), "count/write");
  m.Modelled("store.sync_pipelined_calls",
             b.Reg("store.sync_pipelined_calls") - a.Reg("store.sync_pipelined_calls"), "count");
  m.Modelled("replication.bytes_shipped_per_write",
             Ratio(b.Reg("repl.bytes_shipped") - a.Reg("repl.bytes_shipped"), writes), "B/write");
  m.Modelled("replication.batches_shipped",
             b.Reg("repl.batches_shipped") - a.Reg("repl.batches_shipped"), "count");
  m.Modelled("replication.snapshots_shipped",
             b.Reg("repl.snapshots_shipped") - a.Reg("repl.snapshots_shipped"), "count");
  const double fc_hits = b.Reg("repl.frame_cache.hits") - a.Reg("repl.frame_cache.hits");
  const double fc_misses = b.Reg("repl.frame_cache.misses") - a.Reg("repl.frame_cache.misses");
  m.Modelled("replication.frame_cache_hit_rate", Ratio(fc_hits, fc_hits + fc_misses), "ratio");
  m.Modelled("replication.apply_lag_cycles_max", static_cast<double>(t.apply_lag_max), "cycles");
  m.Modelled("writes", writes, "count");

  const asbestos::KernelMemReport& mem = memory.report;
  m.Modelled("bytes_per_user", Ratio(static_cast<double>(mem.total_bytes()), users), "B/user");
  m.Modelled("mem.label_bytes_per_user", Ratio(static_cast<double>(mem.label_bytes), users),
             "B/user");
  m.Modelled("mem.session_bytes_per_user", Ratio(static_cast<double>(mem.session_bytes), users),
             "B/user");
  m.Modelled("mem.binding_bytes_per_user", Ratio(static_cast<double>(mem.binding_bytes), users),
             "B/user");
  m.Modelled("mem.peak_bytes_per_user",
             Ratio(static_cast<double>(memory.peak_total_bytes), users), "B/user");
  m.Modelled("users", users, "count");

  // Host time, split by the layer bench_e2e was calling into. The
  // remainder is its own bookkeeping between calls; the five parts
  // add up to the measured wall time by construction.
  const double us = 1e6;
  m.Host("host_us_per_conn", Ratio(t.wall_s, conns) * us, "us");
  m.Host("loadgen.host_us_per_conn", Ratio(t.loadgen_s, conns) * us, "us");
  m.Host("host.pump_us_per_conn", Ratio(t.pump_s, conns) * us, "us");
  m.Host("host.link_us_per_conn", Ratio(t.link_s, conns) * us, "us");
  m.Host("replication.follower_host_us_per_conn", Ratio(t.follower_s, conns) * us, "us");
  const double remainder = t.wall_s - t.loadgen_s - t.pump_s - t.link_s - t.follower_s;
  m.Host("host.remainder_us_per_conn", Ratio(remainder, conns) * us, "us");
  m.Host("host.wall_s", t.wall_s, "s");
  return ok;
}

// Per-process self cycles and the syscall table from the cycle profiler
// (traced repetition only), against the same charged total the columns use.
// Returns the cycles the profiler attributed to some span; the rest of the
// charged total (NIC polling, scheduler ticks, delivery-time label checks)
// is reported as kernel.unattributed_kcyc_per_conn.
inline uint64_t PutProfilerMetrics(Metrics& m, uint64_t conns, uint64_t charged) {
  const asbestos::obs::CycleProfiler& prof = asbestos::obs::CycleProfiler::Get();
  std::map<std::string, uint64_t> self_by_process;
  uint64_t attributed = 0;
  for (const auto& [stack, st] : prof.stacks()) {
    attributed += st.self_cycles;
    const size_t cut = stack.rfind(';');
    const std::string leaf = cut == std::string::npos ? stack : stack.substr(cut + 1);
    const size_t dot = leaf.find('.');
    const std::string kind = leaf.substr(0, dot);
    if (dot == std::string::npos || (kind != "deliver" && kind != "idle")) {
      continue;
    }
    std::string process = leaf.substr(dot + 1);
    if (process.rfind("worker-", 0) == 0) {
      process = "worker";
    }
    self_by_process[process] += st.self_cycles;
  }
  uint64_t sys_send = 0;
  for (const auto& [key, st] : prof.syscalls()) {
    const std::string suffix = ".send";
    if (key.size() > suffix.size() &&
        key.compare(key.size() - suffix.size(), suffix.size(), suffix) == 0) {
      sys_send += st.cycles;
    }
  }
  const double n = static_cast<double>(conns);
  auto per_conn = [&](uint64_t cycles) { return Ratio(static_cast<double>(cycles), n) / kKilo; };
  m.Modelled("okws.demux.self_kcyc_per_conn", per_conn(self_by_process["demux"]), "kcyc/conn");
  m.Modelled("okws.idd.self_kcyc_per_conn", per_conn(self_by_process["idd"]), "kcyc/conn");
  m.Modelled("okws.worker.self_kcyc_per_conn", per_conn(self_by_process["worker"]),
             "kcyc/conn");
  m.Modelled("db.dbproxy.self_kcyc_per_conn", per_conn(self_by_process["dbproxy"]),
             "kcyc/conn");
  m.Modelled("net.netd.self_kcyc_per_conn", per_conn(self_by_process["netd"]), "kcyc/conn");
  m.Modelled("kernel.sys_send_kcyc_per_conn", per_conn(sys_send), "kcyc/conn");
  m.Modelled("profiler.attributed_kcyc_per_conn", per_conn(attributed), "kcyc/conn");
  m.Modelled("kernel.unattributed_kcyc_per_conn",
             per_conn(charged >= attributed ? charged - attributed : 0), "kcyc/conn");
  return attributed;
}

}  // namespace e2e

#endif  // BENCH_E2E_LAYERS_H_
