// Shared harness for the paper-evaluation benchmarks (Figures 6-9): boots a
// fresh OKWS world with N user accounts, drives the paper's workloads
// through the simulated wire, and reports throughput, latency percentiles,
// per-component cycle attribution, and memory.
#ifndef BENCH_OKWS_BENCH_HARNESS_H_
#define BENCH_OKWS_BENCH_HARNESS_H_

#include <array>
#include <cstdint>
#include <string>

#include "src/sim/cycles.h"

namespace asbestos::bench {

struct OkwsRunConfig {
  uint64_t sessions = 1;            // distinct users (= cached sessions)
  uint64_t total_connections = 0;   // 0 → max(4 × sessions, min_connections)
  uint64_t min_connections = 2000;  // floor for small session counts
  int concurrency = 16;             // paper: 16 maximizes OKWS/LWIP throughput
  std::string service = "echo";     // "echo" (Fig. 7-9) or "store" (Fig. 6)
  bool active_memory_mode = false;  // workers skip ep_clean (Fig. 6 "active")
  // Million-compartment scale (bench_scale): park idle event processes down
  // to compact records. Off for the figure benches, whose idle sessions stay
  // full event processes as in the paper.
  bool park_idle_sessions = false;
};

struct OkwsRunResult {
  uint64_t sessions = 0;
  uint64_t connections_completed = 0;
  uint64_t failures = 0;

  // Virtual-time performance.
  double elapsed_cycles = 0;
  double throughput_conn_per_sec = 0;
  uint64_t latency_p50_us = 0;
  uint64_t latency_p90_us = 0;

  // Figure-9 attribution (cycles over the whole run).
  std::array<uint64_t, kComponentCount> component_cycles{};
  double KcyclesPerConn(Component c) const {
    if (connections_completed == 0) {
      return 0;
    }
    return static_cast<double>(component_cycles[static_cast<size_t>(c)]) / 1000.0 /
           static_cast<double>(connections_completed);
  }
  double TotalKcyclesPerConn() const {
    double sum = 0;
    for (int c = 0; c < kComponentCount; ++c) {
      sum += KcyclesPerConn(static_cast<Component>(c));
    }
    return sum;
  }

  // Figure-6 memory accounting (bytes).
  uint64_t mem_before_bytes = 0;
  uint64_t mem_after_bytes = 0;
  uint64_t mem_peak_bytes = 0;
  double PagesPerSession() const;
  double PeakPagesPerSession() const;

  // The compacted per-user planes out of KernelMemReport (bench_scale),
  // plus the park/resume traffic this run generated.
  uint64_t session_bytes = 0;       // compact park records
  uint64_t binding_bytes = 0;       // interned idd + dbproxy binding tables
  uint64_t handle_table_bytes = 0;  // dense plain-handle entries
  uint64_t session_parks = 0;
  uint64_t session_resumes = 0;
  // The tentpole metric: total post-run kernel bytes over distinct users.
  double BytesPerUser() const;

  // Label-work telemetry (charged entries visited; see README "Host time").
  uint64_t label_entries_visited = 0;
};

// Boots, primes nothing, runs the workload, reports. Deterministic. After
// the world is torn down, asserts (fail-fast) that every global byte ledger
// — labels, simulated pages, stores, park records, binding tables — returned
// to within a fixed epsilon of its pre-boot value, so leaks cannot hide
// behind a fresh world in the next benchmark iteration.
OkwsRunResult RunOkwsWorkload(const OkwsRunConfig& config);

// --- Scenario matrix (bench_scale) -------------------------------------------
// The examples/ demos folded in as measured, asserting scenarios: each boots
// a small dedicated kernel, drives the paper's flows, and reports counts the
// benchmark publishes. `ok` is the full expected outcome; runners abort the
// process on violation rather than report garbage timings.

// Paper §5.5: mail reader vs. untrusted attachment. The tainted attachment's
// sends must bounce off the inbox port label and the reader's receive label.
struct MailReaderScenarioResult {
  uint64_t delivered = 0;  // untainted progress + filesystem messages
  uint64_t blocked = 0;    // label-check drops of the compromised attachment
  bool ok = false;
};
MailReaderScenarioResult RunMailReaderScenario();

// Paper §5.2: MLS clearance hierarchy over two compartments. Checks the
// 3×3 flow matrix both statically (Leq) and with live sends.
struct MlsScenarioResult {
  uint64_t flows_allowed = 0;  // static matrix entries that flow
  uint64_t flows_blocked = 0;
  uint64_t delivered = 0;      // live cross-clearance sends that arrived
  uint64_t blocked_drops = 0;  // live sends the kernel dropped
  bool ok = false;
};
MlsScenarioResult RunMlsScenario();

}  // namespace asbestos::bench

#endif  // BENCH_OKWS_BENCH_HARNESS_H_
