#include "bench/okws_bench_harness.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <unordered_set>
#include <vector>

#include "src/base/strings.h"
#include "src/kernel/address_space.h"
#include "src/kernel/memstats.h"
#include "src/obs/event_log.h"
#include "src/okws/okws_world.h"
#include "src/okws/services.h"
#include "src/sim/costs.h"
#include "src/store/store.h"

namespace asbestos::bench {

namespace {

std::string UserName(uint64_t i) { return StrFormat("user%06llu", (unsigned long long)i); }
std::string UserPass(uint64_t i) { return StrFormat("pw%06llu", (unsigned long long)i); }

// Every global byte ledger a world's lifetime moves. Snapshotted before boot
// and compared after teardown: a destroyed world must give it all back.
struct GlobalBytes {
  int64_t label_bytes = 0;
  int64_t sim_page_bytes = 0;
  int64_t store_bytes = 0;
  int64_t park_bytes = 0;
  int64_t binding_bytes = 0;
  // Upper bound on the label heap the event log's records and trace gates
  // keep alive: each label counted in full, shared reps and chunks once per
  // holder, so it is never below what the log really pins.
  int64_t log_label_bytes = 0;
};

int64_t EventLogLabelBytes() {
  const obs::EventLog& log = obs::EventLog::Get();
  std::unordered_set<uint64_t> traces;
  uint64_t bytes = 0;
  for (const obs::Record& r : log.records()) {
    bytes += r.label.heap_bytes() + r.gate.heap_bytes();
    if (traces.insert(r.trace_id).second) {
      bytes += log.TraceGate(r.trace_id).heap_bytes();
    }
  }
  return static_cast<int64_t>(bytes);
}

GlobalBytes SnapshotGlobalBytes() {
  GlobalBytes g;
  g.label_bytes = GetLabelMemStats().live_bytes;
  g.sim_page_bytes = GetSimPageStats().live_pages * static_cast<int64_t>(kPageSize);
  g.store_bytes = GetStoreMemStats().live_bytes;
  g.park_bytes = GetSessionParkStats().live_bytes;
  g.binding_bytes = GetBindingMemStats().live_bytes;
  g.log_label_bytes = EventLogLabelBytes();
  return g;
}

// Teardown drift guard: each ledger must return to within `epsilon` of its
// pre-boot value (a handful of interned singleton label reps may outlive the
// world; nothing else should). Fail fast — a leak here silently corrupts
// every later benchmark iteration's memory numbers. The one allowance: label
// reps held by event-log records. The log may grow by what it holds after
// teardown, and shrink by what it held before boot (evicted records free
// their labels); the other four ledgers stay strict.
void CheckTeardownDrift(const GlobalBytes& before) {
  constexpr int64_t kEpsilonBytes = 64 * 1024;
  const GlobalBytes after = SnapshotGlobalBytes();
  const struct {
    const char* name;
    int64_t before;
    int64_t after;
    int64_t may_shrink;  // beyond epsilon
    int64_t may_grow;
  } ledgers[] = {
      {"label", before.label_bytes, after.label_bytes, before.log_label_bytes,
       after.log_label_bytes},
      {"sim_pages", before.sim_page_bytes, after.sim_page_bytes, 0, 0},
      {"store", before.store_bytes, after.store_bytes, 0, 0},
      {"session_park", before.park_bytes, after.park_bytes, 0, 0},
      {"binding", before.binding_bytes, after.binding_bytes, 0, 0},
  };
  for (const auto& l : ledgers) {
    const int64_t drift = l.after - l.before;
    if (drift > kEpsilonBytes + l.may_grow || drift < -(kEpsilonBytes + l.may_shrink)) {
      std::fprintf(stderr,
                   "okws_bench_harness: %s bytes drifted %" PRId64
                   " across world teardown (before=%" PRId64 " after=%" PRId64
                   ", epsilon=%" PRId64 ")\n",
                   l.name, drift, l.before, l.after, kEpsilonBytes);
      std::abort();
    }
  }
}

}  // namespace

double OkwsRunResult::PagesPerSession() const {
  if (sessions == 0) {
    return 0;
  }
  return static_cast<double>(mem_after_bytes - mem_before_bytes) / 4096.0 /
         static_cast<double>(sessions);
}

double OkwsRunResult::PeakPagesPerSession() const {
  if (sessions == 0) {
    return 0;
  }
  return static_cast<double>(mem_peak_bytes - mem_before_bytes) / 4096.0 /
         static_cast<double>(sessions);
}

double OkwsRunResult::BytesPerUser() const {
  if (sessions == 0) {
    return 0;
  }
  return static_cast<double>(mem_after_bytes) / static_cast<double>(sessions);
}

OkwsRunResult RunOkwsWorkload(const OkwsRunConfig& config) {
  const GlobalBytes globals_before = SnapshotGlobalBytes();
  const SessionParkStats park_before = GetSessionParkStats();
  SetScaleAccountingEnabled(config.scale_accounting);
  OkwsRunResult result;
  {
    OkwsWorldConfig world_config;
    world_config.users.reserve(config.sessions);
    for (uint64_t i = 0; i < config.sessions; ++i) {
      world_config.users.push_back({UserName(i), UserPass(i)});
    }
    WorkerOptions options;
    options.clean_after_request = !config.active_memory_mode;
    options.park_idle_sessions = config.park_idle_sessions;
    world_config.services.push_back(
        {"echo", [] { return std::make_unique<EchoService>(); }, false, options});
    world_config.services.push_back(
        {"store", [] { return std::make_unique<StorageService>(); }, false, options});

    OkwsWorld world(std::move(world_config));
    world.PumpUntilReady();
    world.kernel().SetScaleUserCount(config.sessions);

    // Measure only the workload: boot-time cycles and label work are
    // discarded, and memory/peak baselines start here.
    GetCycleAccounting().Reset();
    ResetLabelWorkStats();
    world.kernel().ResetPeakTotalBytes();
    result.sessions = config.sessions;
    result.mem_before_bytes = world.kernel().MemReport().total_bytes();

    uint64_t total = config.total_connections;
    if (total == 0) {
      total = std::max<uint64_t>(4 * config.sessions, config.min_connections);
    }

    HttpLoadClient client(&world.net(), 80, config.concurrency);
    const std::string target =
        config.service == "store" ? "/store?d=session-payload-0123456789" : "/echo";
    // Pass-major order: the first pass over the users performs every login
    // (event-process creation + idd + database); later passes resume cached
    // sessions — the paper's 4-connections-per-session mix.
    uint64_t enqueued = 0;
    uint64_t pass = 0;
    while (enqueued < total) {
      for (uint64_t u = 0; u < config.sessions && enqueued < total; ++u, ++enqueued) {
        client.Enqueue(OkwsWorld::MakeRequest(target, UserName(u), UserPass(u)), u);
      }
      ++pass;
      if (config.sessions == 0) {
        break;
      }
    }
    (void)pass;
    world.RunClient(&client);

    result.connections_completed = client.results().size();
    result.failures = client.failures();
    const KernelMemReport mem = world.kernel().MemReport();
    result.mem_after_bytes = mem.total_bytes();
    result.mem_peak_bytes = world.kernel().peak_total_bytes();
    result.session_bytes = mem.session_bytes;
    result.binding_bytes = mem.binding_bytes;
    result.handle_table_bytes = mem.handle_table_bytes;
    result.session_parks = GetSessionParkStats().parks - park_before.parks;
    result.session_resumes = GetSessionParkStats().resumes - park_before.resumes;
    result.label_entries_visited = GetLabelWorkStats().entries_visited;

    const CycleAccounting& acct = GetCycleAccounting();
    for (int c = 0; c < kComponentCount; ++c) {
      result.component_cycles[static_cast<size_t>(c)] =
          acct.total(static_cast<Component>(c));
    }
    result.elapsed_cycles = static_cast<double>(acct.now());
    if (result.elapsed_cycles > 0) {
      result.throughput_conn_per_sec = static_cast<double>(result.connections_completed) /
                                       (result.elapsed_cycles / costs::kCpuHz);
    }

    std::vector<uint64_t> latencies;
    latencies.reserve(client.results().size());
    for (const auto& r : client.results()) {
      latencies.push_back(r.end_cycles - r.start_cycles);
    }
    std::sort(latencies.begin(), latencies.end());
    if (!latencies.empty()) {
      const double us_per_cycle = 1e6 / costs::kCpuHz;
      result.latency_p50_us = static_cast<uint64_t>(
          static_cast<double>(latencies[latencies.size() / 2]) * us_per_cycle);
      result.latency_p90_us = static_cast<uint64_t>(
          static_cast<double>(latencies[latencies.size() * 9 / 10]) * us_per_cycle);
    }
  }
  SetScaleAccountingEnabled(false);
  CheckTeardownDrift(globals_before);
  return result;
}

// --- Scenario matrix ---------------------------------------------------------

namespace {

// A process that counts what it receives (the examples print instead).
class CountingActor : public ProcessCode {
 public:
  explicit CountingActor(uint64_t* delivered) : delivered_(delivered) {}
  void HandleMessage(ProcessContext& ctx, const Message& msg) override {
    (void)ctx;
    (void)msg;
    if (delivered_ != nullptr) {
      ++*delivered_;
    }
  }

 private:
  uint64_t* delivered_;
};

}  // namespace

MailReaderScenarioResult RunMailReaderScenario() {
  MailReaderScenarioResult r;
  Kernel kernel(7);

  uint64_t delivered = 0;
  SpawnArgs reader_args;
  reader_args.name = "mail-reader";
  const ProcessId reader =
      kernel.CreateProcess(std::make_unique<CountingActor>(&delivered), reader_args);
  SpawnArgs fs_args;
  fs_args.name = "filesystem";
  const ProcessId fs =
      kernel.CreateProcess(std::make_unique<CountingActor>(&delivered), fs_args);

  // The inbox's port label {2} refuses any sender whose effective send label
  // exceeds level 2 anywhere — a receiver-imposed discretionary filter.
  Handle inbox;
  kernel.WithProcessContext(reader, [&](ProcessContext& ctx) {
    inbox = ctx.NewPort(Label::Top());
    ctx.SetPortLabel(inbox, Label(Level::kL2));
  });

  SpawnArgs att_args;
  att_args.name = "attachment";
  const ProcessId attachment =
      kernel.CreateProcess(std::make_unique<CountingActor>(&delivered), att_args);

  // 1-2: untainted progress report and a trusted filesystem message arrive.
  kernel.WithProcessContext(attachment, [&](ProcessContext& ctx) {
    Message m;
    m.data = "rendering page 1 of 2";
    ctx.Send(inbox, std::move(m));
  });
  kernel.WithProcessContext(fs, [&](ProcessContext& ctx) {
    Message m;
    m.data = "mailbox synced";
    ctx.Send(inbox, std::move(m));
  });
  kernel.RunUntilIdle();
  const uint64_t clean_deliveries = delivered;

  // 3: the attachment compromises itself with a high taint; its sends bounce
  // off the inbox port label.
  kernel.WithProcessContext(attachment, [&](ProcessContext& ctx) {
    const Handle stolen = ctx.NewHandle();
    ctx.SetSendLevel(stolen, Level::kL3);
    Message m;
    m.data = "innocent progress update (with exfiltrated bytes)";
    ctx.Send(inbox, std::move(m));
  });
  kernel.RunUntilIdle();

  // 4: the reader re-opens the port label; its own receive label {2} is the
  // second line of defence and still drops the tainted send.
  kernel.WithProcessContext(reader, [&](ProcessContext& ctx) {
    ctx.SetPortLabel(inbox, Label::Top());
  });
  kernel.WithProcessContext(attachment, [&](ProcessContext& ctx) {
    Message m;
    m.data = "try again";
    ctx.Send(inbox, std::move(m));
  });
  kernel.RunUntilIdle();

  r.delivered = delivered;
  r.blocked = kernel.stats().drops_label_check;
  r.ok = clean_deliveries == 2 && r.delivered == 2 && r.blocked == 2;
  if (!r.ok) {
    std::fprintf(stderr,
                 "mail-reader scenario violated §5.5: delivered=%llu blocked=%llu\n",
                 (unsigned long long)r.delivered, (unsigned long long)r.blocked);
    std::abort();
  }
  return r;
}

MlsScenarioResult RunMlsScenario() {
  MlsScenarioResult r;
  Kernel kernel(1976);

  SpawnArgs admin_args;
  admin_args.name = "admin";
  const ProcessId admin =
      kernel.CreateProcess(std::make_unique<CountingActor>(nullptr), admin_args);
  Handle s;  // secret compartment
  Handle t;  // top-secret compartment
  kernel.WithProcessContext(admin, [&](ProcessContext& ctx) {
    s = ctx.NewHandle();
    t = ctx.NewHandle();
  });

  struct Clearance {
    const char* name;
    Label send;
    Label recv;
  };
  const Clearance levels[3] = {
      {"unclassified", Label(Level::kL1), Label(Level::kL2)},
      {"secret", Label({{s, Level::kL3}}, Level::kL1),
       Label({{s, Level::kL3}}, Level::kL2)},
      {"top-secret", Label({{s, Level::kL3}, {t, Level::kL3}}, Level::kL1),
       Label({{s, Level::kL3}, {t, Level::kL3}}, Level::kL2)},
  };

  uint64_t delivered = 0;
  ProcessId analysts[3];
  Handle ports[3];
  for (int i = 0; i < 3; ++i) {
    SpawnArgs args;
    args.name = levels[i].name;
    args.send_label = levels[i].send;
    args.recv_label = levels[i].recv;
    analysts[i] = kernel.CreateProcess(std::make_unique<CountingActor>(&delivered), args);
    kernel.WithProcessContext(analysts[i], [&](ProcessContext& ctx) {
      ports[i] = ctx.NewPort(Label::Top());
      ctx.SetPortLabel(ports[i], Label::Top());
    });
  }

  // Static flow matrix over all 9 sender→receiver pairs.
  for (int from = 0; from < 3; ++from) {
    for (int to = 0; to < 3; ++to) {
      if (levels[from].send.Leq(levels[to].recv)) {
        ++r.flows_allowed;
      } else {
        ++r.flows_blocked;
      }
    }
  }

  // Live demonstration: every analyst briefs every other.
  for (int from = 0; from < 3; ++from) {
    for (int to = 0; to < 3; ++to) {
      if (from == to) {
        continue;
      }
      kernel.WithProcessContext(analysts[from], [&](ProcessContext& ctx) {
        Message m;
        m.data = std::string(levels[from].name) + " briefing";
        ctx.Send(ports[to], std::move(m));
      });
    }
  }
  kernel.RunUntilIdle();
  r.delivered = delivered;
  r.blocked_drops = kernel.stats().drops_label_check;

  // The "odd label" {t 3, 1}: no classical level, flow control still total.
  const Label odd({{t, Level::kL3}}, Level::kL1);
  const bool odd_ok = !odd.Leq(levels[1].recv) && odd.Leq(levels[2].recv);

  // No-read-up / no-write-down: 6 of 9 static pairs flow (self-flows
  // included), and of the 6 live cross-clearance sends exactly the 3 upward
  // ones arrive.
  r.ok = r.flows_allowed == 6 && r.flows_blocked == 3 && r.delivered == 3 &&
         r.blocked_drops == 3 && odd_ok;
  if (!r.ok) {
    std::fprintf(stderr,
                 "MLS scenario violated §5.2: allowed=%llu blocked=%llu delivered=%llu "
                 "drops=%llu odd_ok=%d\n",
                 (unsigned long long)r.flows_allowed, (unsigned long long)r.flows_blocked,
                 (unsigned long long)r.delivered, (unsigned long long)r.blocked_drops,
                 odd_ok ? 1 : 0);
    std::abort();
  }
  return r;
}

}  // namespace asbestos::bench
