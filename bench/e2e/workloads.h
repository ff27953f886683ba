// The four bench_e2e workloads, and the closed/open load loops that drive
// them through the public OKWS surfaces (OkwsWorld, HttpLoadClient, SimNet,
// FollowerWorld, ReplicationLink).
//
// Every workload runs in a fresh process (see bench_e2e.cc), builds its
// world, runs an untimed set-up, then brackets one measured phase with two
// counter Samples. Inputs come only from the seed: it fixes user order, echo
// lengths, note texts, and which user sends each open-loop arrival (the
// arrival pattern itself is fixed; see MeasureOpenLoop). The program sees
// nothing but the generated requests. Every response is checked as it
// arrives.
#ifndef BENCH_E2E_WORKLOADS_H_
#define BENCH_E2E_WORKLOADS_H_

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench/e2e/layers.h"
#include "bench/e2e/spans.h"
#include "bench/e2e/stats.h"
#include "src/base/panic.h"
#include "src/base/rng.h"
#include "src/db/dbproxy.h"
#include "src/net/client.h"
#include "src/obs/profiler.h"
#include "src/okws/okws_world.h"
#include "src/okws/services.h"
#include "src/replication/link.h"
#include "src/sim/costs.h"
#include "src/sim/cycles.h"

namespace e2e {

using asbestos::GetCycleAccounting;
using asbestos::HttpLoadClient;

// Workload sizes. The defaults are the full benchmark; --smoke shrinks them.
struct Sizes {
  uint64_t hot_warmup = 1000;
  uint64_t hot_conns = 50000;
  uint64_t many_users = 10000;
  uint64_t notes_users = 250;
  uint64_t notes_rounds = 12;
  uint64_t open_users = 1000;
  uint64_t open_requests = 10000;  // per offered rate

  static Sizes Smoke() {
    Sizes s;
    s.hot_warmup = 100;
    s.hot_conns = 3000;
    s.many_users = 1500;
    s.notes_users = 40;
    s.notes_rounds = 6;
    s.open_users = 200;
    s.open_requests = 3000;
    return s;
  }
};

constexpr int kConcurrency = 16;
constexpr uint16_t kHttpPort = 80;
// Open-loop service-level objective: p99 latency at most 20 ms of virtual
// time, and at least 98% of the offered requests answered by the time the
// last one was due (no growing backlog).
constexpr double kSloP99Ms = 20.0;
constexpr double kSloCompletedRatio = 0.98;
constexpr double kRateLo = 200;
constexpr double kRateHi = 4000;
constexpr double kRateResolution = 1.01;
constexpr double kFixedRates[] = {500, 1000};
constexpr uint64_t kArrivalPatternSeed = 1;

struct Options {
  uint64_t seed = 1;
  Sizes sizes;
  bool traced = false;
  std::string scratch_dir;  // parent of the per-repetition store directory
};

struct RepResult {
  Metrics metrics;
  uint64_t attempted = 0;  // requests sent
  uint64_t failed = 0;     // requests with no answer or a wrong one
  uint64_t errors = 0;     // failed requests plus broken invariants
  std::vector<std::string> error_samples;
  std::string trace_json;  // traced repetition only

  void Error(const std::string& what) {
    ++errors;
    if (error_samples.size() < 8) {
      error_samples.push_back(what);
    }
  }
  void Failed(const std::string& what) {
    ++failed;
    Error(what);
  }
};

inline double CyclesToMs(double cycles) { return cycles / asbestos::costs::kCpuHz * 1e3; }

inline std::string UserName(uint64_t i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "u%06llu", static_cast<unsigned long long>(i));
  return buf;
}
inline std::string UserPass(uint64_t i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "pw%06llu", static_cast<unsigned long long>(i));
  return buf;
}

// Each input stream gets its own generator, so e.g. changing how note texts
// are drawn never shifts the arrival sequence of the same seed.
inline asbestos::Rng StreamRng(uint64_t seed, uint64_t stream) {
  return asbestos::Rng(seed * 0x9E3779B97F4A7C15ULL + stream);
}

// Users 0..n-1 in a random order (Fisher-Yates).
inline std::vector<uint64_t> ShuffledUsers(uint64_t n, asbestos::Rng& rng) {
  std::vector<uint64_t> order(n);
  for (uint64_t i = 0; i < n; ++i) {
    order[i] = i;
  }
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.NextBelow(i)]);
  }
  return order;
}

// Echo bodies are 1..256 bytes: the paper's echo service answers with a
// body whose length the client picks (§9.2).
inline uint32_t EchoLength(asbestos::Rng& rng) {
  return static_cast<uint32_t>(rng.NextInRange(1, 256));
}

// --- Requests and response checks -------------------------------------------

struct Expect {
  enum Kind : uint8_t { kEcho, kAdded, kList } kind = kEcho;
  uint32_t n = 0;     // echo body length
  uint32_t user = 0;  // list owner
};

struct Request {
  std::string http;
  Expect expect;
};

inline Request EchoRequest(uint64_t user, uint32_t n) {
  Request r;
  r.http = asbestos::OkwsWorld::MakeRequest("/echo?n=" + std::to_string(n), UserName(user),
                                            UserPass(user));
  r.expect.kind = Expect::kEcho;
  r.expect.n = n;
  return r;
}

// notes[u] = the note texts user u has added so far (the expected `list`).
using NotesBook = std::vector<std::vector<std::string>>;

inline std::vector<std::string> SplitLines(const std::string& body) {
  std::vector<std::string> lines;
  size_t start = 0;
  while (start < body.size()) {
    size_t nl = body.find('\n', start);
    if (nl == std::string::npos) {
      nl = body.size();
    }
    lines.push_back(body.substr(start, nl - start));
    start = nl + 1;
  }
  return lines;
}

// Checks one response; records an error on `out` when it is wrong.
inline void CheckResponse(const Expect& e, const HttpLoadClient::Result& r,
                          const NotesBook& notes, RepResult* out) {
  if (r.status != 200) {
    out->Failed("status " + std::to_string(r.status) + " for request " + std::to_string(r.tag));
    return;
  }
  switch (e.kind) {
    case Expect::kEcho:
      if (r.body.size() != e.n ||
          std::any_of(r.body.begin(), r.body.end(), [](char c) { return c != 'x'; })) {
        out->Failed("echo body mismatch for request " + std::to_string(r.tag));
      }
      return;
    case Expect::kAdded:
      if (r.body != "added 1") {
        out->Failed("add answered '" + r.body.substr(0, 40) + "'");
      }
      return;
    case Expect::kList: {
      std::vector<std::string> got = SplitLines(r.body);
      std::vector<std::string> want = notes[e.user];
      const std::string owner = UserName(e.user) + "-";
      for (const std::string& line : got) {
        if (line.rfind(owner, 0) != 0) {
          out->Failed("isolation failure: " + UserName(e.user) + " was shown '" + line + "'");
          return;
        }
      }
      std::sort(got.begin(), got.end());
      std::sort(want.begin(), want.end());
      if (got != want) {
        out->Failed("list for " + UserName(e.user) + " returned " + std::to_string(got.size()) +
                    " notes, expected " + std::to_string(want.size()));
      }
      return;
    }
  }
}

// --- The machine under test ---------------------------------------------------

// Sums appended WAL bytes across the primary's durable stores by polling
// every shard's log size after each pump. A compaction resets a shard's
// log; the bytes appended to it earlier in that same pump are not seen.
class WalWatch {
 public:
  void Add(const asbestos::DurableStore* store) {
    if (store == nullptr) {
      return;
    }
    for (uint32_t s = 0; s < store->shard_count(); ++s) {
      const auto st = store->shard_stats(s);
      shards_.push_back({store, s, st.wal_bytes, st.compactions});
    }
  }
  void Poll() {
    for (Shard& sh : shards_) {
      const auto st = sh.store->shard_stats(sh.shard);
      if (st.compactions == sh.compactions) {
        appended_ += st.wal_bytes - sh.wal_bytes;
      } else {
        appended_ += st.wal_bytes;
        sh.compactions = st.compactions;
      }
      sh.wal_bytes = st.wal_bytes;
    }
  }
  uint64_t appended() const { return appended_; }

 private:
  struct Shard {
    const asbestos::DurableStore* store;
    uint32_t shard;
    uint64_t wal_bytes;
    uint64_t compactions;
  };
  std::vector<Shard> shards_;
  uint64_t appended_ = 0;
};

// One pump of everything the request path runs on: the replication wire
// (when a follower is attached), the OKWS machine, then the follower
// machine. Host time is accumulated per layer; spans are recorded around
// each call when the recorder is on.
class Machine {
 public:
  Machine(asbestos::OkwsWorld* world, SpanRecorder* spans) : world_(world), spans_(spans) {}

  void AttachReplica(asbestos::FollowerWorld* follower, asbestos::ReplicationLink* link,
                     const asbestos::ReplicationHub* hub, WalWatch* wal) {
    follower_ = follower;
    link_ = link;
    hub_ = hub;
    wal_ = wal;
  }

  void Pump(uint32_t parent) {
    if (link_ != nullptr) {
      Timed(&link_s, "repl.link_step", parent, [&] { link_->Step(); });
    }
    Timed(&pump_s, "machine.pump", parent, [&] { world_->Pump(); });
    if (follower_ != nullptr) {
      Timed(&follower_s, "repl.follower_pump", parent, [&] { follower_->Pump(); });
      // Sampled here rather than from the repl.apply_lag_cycles gauge, which
      // is written at ack time, just after the lag it measures was reset.
      for (const auto& s : hub_->DebugStatus().sessions) {
        apply_lag_max = std::max(apply_lag_max, s.apply_lag_cycles);
      }
      wal_->Poll();
    }
  }

  asbestos::OkwsWorld& world() { return *world_; }
  SpanRecorder& spans() { return *spans_; }

  double pump_s = 0;
  double link_s = 0;
  double follower_s = 0;
  uint64_t apply_lag_max = 0;

 private:
  template <typename Fn>
  void Timed(double* acc, const char* name, uint32_t parent, Fn&& fn) {
    const uint32_t span = spans_->Begin(name, parent);
    const Clock::time_point t0 = Clock::now();
    fn();
    *acc += SecondsBetween(t0, Clock::now());
    spans_->End(span);
  }

  asbestos::OkwsWorld* world_;
  SpanRecorder* spans_;
  asbestos::FollowerWorld* follower_ = nullptr;
  asbestos::ReplicationLink* link_ = nullptr;
  const asbestos::ReplicationHub* hub_ = nullptr;
  WalWatch* wal_ = nullptr;
};

// What one closed- or open-loop phase observed.
struct PhaseResult {
  uint64_t attempted = 0;
  uint64_t completed = 0;
  uint64_t writes = 0;
  std::vector<uint64_t> latencies;  // cycles; sorted on return
  uint64_t injected_idle = 0;       // open loop: cycles charged while idle
  uint64_t send_lag_max = 0;        // open loop: cycles
  uint64_t completed_by_last_due = 0;
  uint64_t late = 0;  // open loop: completed later than the SLO
  bool aborted = false;
  double loadgen_s = 0;
  uint64_t cycles = 0;  // clock advance over the phase, idle included

  double P(double q) const { return CyclesToMs(static_cast<double>(NearestRank(latencies, q))); }
};

// Drives one phase. Closed loop: `concurrency` clients, each sending its
// next request when the previous one completes. Open loop: request i is
// sent once the virtual clock reaches due[i], however many are in flight;
// while nothing is in flight the clock is advanced straight to the next
// arrival (charged to Other as injected idle) and latency counts from the
// due time, so a stall delays every request queued behind it.
class LoadLoop {
 public:
  LoadLoop(Machine* machine, const NotesBook* notes, RepResult* out)
      : machine_(machine), notes_(notes), out_(out) {}

  PhaseResult RunClosed(uint64_t count, const std::function<Request(uint64_t)>& gen,
                        uint32_t parent) {
    return Run(count, gen, nullptr, 0, parent);
  }

  // abort_late > 0 stops offering new requests once that many have
  // completed later than the SLO (the probe has failed), then drains.
  PhaseResult RunOpen(const std::vector<uint64_t>& due,
                      const std::function<Request(uint64_t)>& gen, uint64_t abort_late,
                      uint32_t parent) {
    return Run(due.size(), gen, &due, abort_late, parent);
  }

 private:
  struct Pending {
    Expect expect;
    uint64_t due = 0;
    uint32_t span = 0;
  };

  PhaseResult Run(uint64_t count, const std::function<Request(uint64_t)>& gen,
                  const std::vector<uint64_t>* due, uint64_t abort_late, uint32_t parent) {
    const bool open = due != nullptr;
    const uint64_t slo_cycles =
        static_cast<uint64_t>(kSloP99Ms / 1e3 * asbestos::costs::kCpuHz);
    PhaseResult res;
    res.latencies.reserve(count);
    SpanRecorder& spans = machine_->spans();
    asbestos::CycleAccounting& acct = GetCycleAccounting();
    HttpLoadClient client(&machine_->world().net(), kHttpPort,
                          open ? (1 << 30) : kConcurrency);
    std::unordered_map<uint64_t, Pending> pending;
    uint64_t next = 0;
    uint64_t failures_seen = 0;
    int stagnant = 0;
    int idle_pumps = 0;
    uint64_t last_done = 0;
    const uint64_t start_cycles = acct.now();

    auto issue = [&] {
      const uint64_t now = acct.now();
      while (next < count && !res.aborted) {
        if (open ? (*due)[next] > now : pending.size() >= static_cast<size_t>(kConcurrency)) {
          break;
        }
        Request rq = gen(next);
        Pending p;
        p.expect = rq.expect;
        if (open) {
          p.due = (*due)[next];
          res.send_lag_max = std::max(res.send_lag_max, now - p.due);
        }
        p.span = spans.Begin("request", parent, next);
        client.Enqueue(std::move(rq.http), next);
        pending.emplace(next, p);
        ++next;
        ++res.attempted;
      }
    };
    auto collect = [&] {
      for (const HttpLoadClient::Result& r : client.results()) {
        auto it = pending.find(r.tag);
        if (it == pending.end()) {
          out_->Error("response for unknown request " + std::to_string(r.tag));
          continue;
        }
        const Pending& p = it->second;
        const uint64_t begin = open ? p.due : r.start_cycles;
        const uint64_t latency = r.end_cycles - begin;
        res.latencies.push_back(latency);
        if (open) {
          if (r.end_cycles <= due->back()) {
            ++res.completed_by_last_due;
          }
          if (latency > slo_cycles) {
            ++res.late;
          }
        }
        if (p.expect.kind == Expect::kAdded) {
          ++res.writes;
        }
        CheckResponse(p.expect, r, *notes_, out_);
        spans.End(p.span);
        pending.erase(it);
        ++res.completed;
      }
      client.results().clear();
      if (client.failures() != failures_seen) {
        for (uint64_t i = failures_seen; i < client.failures(); ++i) {
          out_->Failed("transport failure");
        }
        failures_seen = client.failures();
      }
      if (abort_late > 0 && res.late >= abort_late) {
        res.aborted = true;
      }
    };

    while (true) {
      const Clock::time_point t0 = Clock::now();
      const uint32_t step_span = spans.Begin("loadgen.step", parent);
      issue();
      client.Step();
      collect();
      spans.End(step_span);
      res.loadgen_s += SecondsBetween(t0, Clock::now());

      if (client.idle()) {
        if (next >= count || res.aborted) {
          break;
        }
        if (open) {
          // Nothing in flight: the machine idles until the next arrival.
          const uint64_t gap = (*due)[next] - std::min((*due)[next], acct.now());
          acct.Charge(asbestos::Component::kOther, gap);
          res.injected_idle += gap;
          continue;
        }
      }
      // Wedge guard: the clock stopped, or (with a follower, whose lease
      // timer charges every pump) nothing has completed for a long while.
      const uint64_t before = acct.now();
      const uint64_t done = res.completed + failures_seen;
      machine_->Pump(parent);
      stagnant = acct.now() == before ? stagnant + 1 : 0;
      idle_pumps = done == last_done ? idle_pumps + 1 : 0;
      last_done = done;
      if (stagnant > 1000 || idle_pumps > 100000) {
        break;  // whatever is still pending is reported below
      }
    }
    // Let the machine finish what the last responses set off (connection
    // teardown, session parking), so the next phase starts quiescent.
    for (int i = 0; i < 100; ++i) {
      const uint64_t delivered = machine_->world().kernel().stats().deliveries;
      machine_->Pump(parent);
      if (machine_->world().kernel().stats().deliveries == delivered) {
        break;
      }
    }
    for (uint64_t i = 0; i < pending.size() - std::min<uint64_t>(pending.size(), failures_seen);
         ++i) {
      out_->Failed("request never answered");
    }
    res.cycles = acct.now() - start_cycles;
    std::sort(res.latencies.begin(), res.latencies.end());
    out_->attempted += res.attempted;
    return res;
  }

  Machine* machine_;
  const NotesBook* notes_;
  RepResult* out_;
};

// --- Shared world set-up --------------------------------------------------------

inline asbestos::OkwsWorldConfig WorldConfig(uint64_t users, bool park, bool notes) {
  asbestos::OkwsWorldConfig config;
  config.users.reserve(users);
  for (uint64_t i = 0; i < users; ++i) {
    config.users.push_back({UserName(i), UserPass(i)});
  }
  asbestos::WorkerOptions options;
  options.park_idle_sessions = park;
  config.services.push_back(
      {"echo", [] { return std::make_unique<asbestos::EchoService>(); }, false, options});
  if (notes) {
    config.services.push_back(
        {"notes", [] { return std::make_unique<asbestos::NotesService>(); }, false, options});
    config.extra_tables = {asbestos::NotesService::kTableSql};
  }
  return config;
}

// Brackets the measured phase: samples, profiler on/off, totals, metrics.
class Measurement {
 public:
  Measurement(const Options& opt, Machine* machine, RepResult* out)
      : opt_(opt), machine_(machine), out_(out) {
    machine_->world().kernel().ResetPeakTotalBytes();
    machine_->apply_lag_max = 0;
    if (opt_.traced) {
      asbestos::obs::CycleProfiler::Get().Clear();
      asbestos::obs::CycleProfiler::SetEnabled(true);
    }
    before_ = TakeSample(machine_->world().kernel());
    wall0_ = Clock::now();
  }

  // `phases` are the measured phases; users is the world's user count.
  // Memory is read now unless the workload captured it at a fixed point.
  void Finish(const std::vector<const PhaseResult*>& phases, uint64_t users, uint64_t wal_bytes,
              const MemSnapshot* memory = nullptr) {
    const double wall = SecondsBetween(wall0_, Clock::now());
    asbestos::obs::CycleProfiler::SetEnabled(false);
    const Sample after = TakeSample(machine_->world().kernel());
    const MemSnapshot now = TakeMemSnapshot(machine_->world().kernel());
    PhaseTotals t;
    t.users = users;
    t.wall_s = wall;
    t.pump_s = machine_->pump_s - pump0_;
    t.link_s = machine_->link_s - link0_;
    t.follower_s = machine_->follower_s - follower0_;
    t.apply_lag_max = machine_->apply_lag_max;
    t.wal_bytes = wal_bytes;
    for (const PhaseResult* p : phases) {
      t.conns += p->completed;
      t.writes += p->writes;
      t.injected_idle += p->injected_idle;
      t.loadgen_s += p->loadgen_s;
    }
    std::string why;
    if (!PutLayerMetrics(out_->metrics, before_, after, t, memory ? *memory : now, &why)) {
      out_->Error(why);
    }
    if (out_->metrics.Get("host.remainder_us_per_conn") < -1e-3) {
      out_->Error("host layer times exceed the measured wall time");
    }
    if (opt_.traced) {
      const uint64_t charged = after.now - before_.now - t.injected_idle;
      if (PutProfilerMetrics(out_->metrics, t.conns, charged) > charged) {
        out_->Error("profiler self cycles exceed the charged cycles");
      }
    }
  }

 private:
  const Options& opt_;
  Machine* machine_;
  RepResult* out_;
  Sample before_;
  Clock::time_point wall0_;
  double pump0_ = machine_->pump_s;
  double link0_ = machine_->link_s;
  double follower0_ = machine_->follower_s;
};

inline void PutLatencies(Metrics& m, const PhaseResult& p, const std::string& suffix) {
  m.Modelled("latency_p50_ms" + suffix, p.P(0.50), "ms");
  m.Modelled("latency_p99_ms" + suffix, p.P(0.99), "ms");
  m.Modelled("latency_samples" + suffix, static_cast<double>(p.latencies.size()), "count");
}

// Closed-loop headline numbers: the virtual CPU's throughput over the whole
// measured window (charged cycles per completed connection) and the
// latency distribution of `p`.
inline void PutClosedLoop(Metrics& m, const PhaseResult& p) {
  m.Modelled("conn_per_s", Ratio(asbestos::costs::kCpuHz, m.Get("kcyc_per_conn") * kKilo),
             "conn/s");
  PutLatencies(m, p, "");
  m.Modelled("loadgen.send_lag_max_ms", 0, "ms");
}

// --- Rigs ----------------------------------------------------------------------------

// Store directory for one set-up; removed when its rig is torn down.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& parent) {
    static int count = 0;
    path_ = parent + "/rep-" + std::to_string(::getpid()) + "-" + std::to_string(count++);
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

template <typename T>
T* FindProcess(asbestos::OkwsWorld& world, const char* name) {
  asbestos::Process* p = world.kernel().FindProcessByName(name);
  return p == nullptr ? nullptr : dynamic_cast<T*>(p->code.get());
}

// Everything one set-up builds and the measured phase then drives. Members
// are destroyed in reverse order: the machine and the link before the
// worlds they join, the stores before their directory.
struct Rig {
  Rig(const Options& o, SpanRecorder* s, RepResult* r) : opt(o), spans(s), out(r) {}

  void Boot(asbestos::OkwsWorldConfig config) {
    world = std::make_unique<asbestos::OkwsWorld>(std::move(config));
    world->PumpUntilReady();
    machine = std::make_unique<Machine>(world.get(), spans);
  }
  LoadLoop Loop() { return LoadLoop(machine.get(), &notes, out); }

  const Options& opt;
  SpanRecorder* spans;
  RepResult* out;
  std::unique_ptr<ScratchDir> dir;
  std::unique_ptr<asbestos::OkwsWorld> world;
  std::unique_ptr<asbestos::FollowerWorld> follower;
  std::unique_ptr<asbestos::ReplicationLink> link;
  const asbestos::ReplicationHub* hub = nullptr;
  WalWatch wal;
  std::unique_ptr<Machine> machine;
  NotesBook notes;
  // Request stream a set-up starts and the measured phase continues.
  asbestos::Rng rng{0};
};

// --- hot_session ------------------------------------------------------------------------

inline void SetupHotSession(Rig& rig, uint32_t parent) {
  rig.Boot(WorldConfig(1, false, false));
  rig.rng = StreamRng(rig.opt.seed, 1);
  rig.Loop().RunClosed(
      rig.opt.sizes.hot_warmup, [&](uint64_t) { return EchoRequest(0, EchoLength(rig.rng)); },
      parent);
}

inline void MeasureHotSession(Rig& rig, uint32_t parent) {
  Measurement measure(rig.opt, rig.machine.get(), rig.out);
  const PhaseResult p = rig.Loop().RunClosed(
      rig.opt.sizes.hot_conns, [&](uint64_t) { return EchoRequest(0, EchoLength(rig.rng)); },
      parent);
  measure.Finish({&p}, 1, 0);
  PutClosedLoop(rig.out->metrics, p);
}

// --- many_users ---------------------------------------------------------------------------

inline void SetupManyUsers(Rig& rig, uint32_t) {
  rig.Boot(WorldConfig(rig.opt.sizes.many_users, true, false));
}

inline void MeasureManyUsers(Rig& rig, uint32_t parent) {
  const uint64_t users = rig.opt.sizes.many_users;
  asbestos::Rng order_rng = StreamRng(rig.opt.seed, 2);
  asbestos::Rng echo_rng = StreamRng(rig.opt.seed, 3);
  // Pass 1 logs every user in; pass 2 resumes every one from its parked
  // record. Each pass visits the users in its own shuffled order.
  std::vector<uint64_t> order;
  for (int pass = 0; pass < 2; ++pass) {
    const std::vector<uint64_t> perm = ShuffledUsers(users, order_rng);
    order.insert(order.end(), perm.begin(), perm.end());
  }
  Measurement measure(rig.opt, rig.machine.get(), rig.out);
  const PhaseResult p = rig.Loop().RunClosed(
      order.size(), [&](uint64_t i) { return EchoRequest(order[i], EchoLength(echo_rng)); },
      parent);
  measure.Finish({&p}, users, 0);
  PutClosedLoop(rig.out->metrics, p);
}

// --- notes_rw -------------------------------------------------------------------------------

constexpr uint16_t kDbReplPort = 7102;
constexpr uint16_t kFollowerPort = 7202;

inline std::string NoteText(uint64_t user, uint64_t round, asbestos::Rng& rng) {
  static const char kAlphabet[] = "abcdefghijklmnopqrstuvwxyz0123456789";
  std::string text = UserName(user) + "-" + std::to_string(round) + "-";
  const uint64_t len = rng.NextInRange(4, 24);
  for (uint64_t i = 0; i < len; ++i) {
    text += kAlphabet[rng.NextBelow(sizeof(kAlphabet) - 1)];
  }
  return text;
}

inline Request ListRequest(uint64_t user) {
  Request rq;
  rq.http = asbestos::OkwsWorld::MakeRequest("/notes?op=list", UserName(user), UserPass(user));
  rq.expect.kind = Expect::kList;
  rq.expect.user = static_cast<uint32_t>(user);
  return rq;
}

// Pumps until the follower holds everything dbproxy has written.
inline bool SyncFollower(Rig& rig, uint32_t parent) {
  for (int i = 0; i < 20000 && !rig.hub->AllFullySynced(); ++i) {
    rig.machine->Pump(parent);
  }
  return rig.hub->AllFullySynced();
}

inline void SetupNotesRw(Rig& rig, uint32_t parent) {
  rig.dir = std::make_unique<ScratchDir>(rig.opt.scratch_dir);
  const std::string& dir = rig.dir->path();
  asbestos::OkwsWorldConfig config = WorldConfig(rig.opt.sizes.notes_users, false, true);
  config.idd_options.store_dir = dir + "/idd";
  config.demux_options.store_dir = dir + "/demux";
  config.dbproxy_options.store_dir = dir + "/dbproxy";
  config.dbproxy_options.replication.listen_tcp_port = kDbReplPort;
  rig.Boot(std::move(config));
  asbestos::StoreOptions replica;
  replica.dir = dir + "/dbproxy-replica";
  replica.shards = 4;
  rig.follower = std::make_unique<asbestos::FollowerWorld>(0x3333, kFollowerPort, replica);
  rig.follower->kernel().SetMetricsPrefix("replica1.");
  rig.follower->Pump();
  rig.link = std::make_unique<asbestos::ReplicationLink>(&rig.world->net(), kDbReplPort,
                                                         &rig.follower->net(), kFollowerPort);
  auto* dbproxy = FindProcess<asbestos::DbproxyProcess>(*rig.world, "dbproxy");
  auto* idd = FindProcess<asbestos::IddProcess>(*rig.world, "idd");
  auto* demux = FindProcess<asbestos::DemuxProcess>(*rig.world, "demux");
  if (dbproxy == nullptr || dbproxy->replication() == nullptr || idd == nullptr ||
      demux == nullptr) {
    ASB_PANIC("notes_rw: durable OKWS processes missing");
  }
  rig.hub = dbproxy->replication()->hub();
  rig.wal.Add(idd->store());
  rig.wal.Add(demux->store());
  rig.wal.Add(dbproxy->store());
  rig.machine->AttachReplica(rig.follower.get(), rig.link.get(), rig.hub, &rig.wal);
  // Every user logs in with one (empty) list, so the measured rounds are
  // notes traffic only. Without this the set-up is a few ms of store
  // creation and fsyncs, and its time follows the disk, not the program.
  const uint64_t users = rig.opt.sizes.notes_users;
  rig.notes.assign(users, {});
  asbestos::Rng order_rng = StreamRng(rig.opt.seed, 9);
  const std::vector<uint64_t> order = ShuffledUsers(users, order_rng);
  rig.Loop().RunClosed(users, [&](uint64_t i) { return ListRequest(order[i]); }, parent);
  if (!SyncFollower(rig, parent)) {
    rig.out->Error("notes_rw: follower never synced during set-up");
  }
}

inline void MeasureNotesRw(Rig& rig, uint32_t parent) {
  const uint64_t users = rig.opt.sizes.notes_users;
  asbestos::Rng order_rng = StreamRng(rig.opt.seed, 4);
  asbestos::Rng text_rng = StreamRng(rig.opt.seed, 5);
  Measurement measure(rig.opt, rig.machine.get(), rig.out);
  const uint64_t wal0 = rig.wal.appended();
  std::vector<PhaseResult> rounds;
  rounds.reserve(rig.opt.sizes.notes_rounds);
  for (uint64_t r = 0; r < rig.opt.sizes.notes_rounds; ++r) {
    const std::vector<uint64_t> order = ShuffledUsers(users, order_rng);
    const bool add = r % 3 != 2;
    // Each round drains before the next starts, so a `list` sees exactly
    // the notes its user added in earlier rounds.
    rounds.push_back(rig.Loop().RunClosed(
        users,
        [&](uint64_t i) {
          const uint64_t u = order[i];
          if (!add) {
            return ListRequest(u);
          }
          const std::string text = NoteText(u, r, text_rng);
          rig.notes[u].push_back(text);
          Request rq;
          rq.http = asbestos::OkwsWorld::MakeRequest("/notes?op=add&text=" + text, UserName(u),
                                                     UserPass(u));
          rq.expect.kind = Expect::kAdded;
          return rq;
        },
        parent));
  }
  // Writes count as served once the follower holds them.
  if (!SyncFollower(rig, parent)) {
    rig.out->Error("notes_rw: follower never caught up after the writes");
  }
  PhaseResult all;
  std::vector<const PhaseResult*> phases;
  for (const PhaseResult& p : rounds) {
    phases.push_back(&p);
    all.latencies.insert(all.latencies.end(), p.latencies.begin(), p.latencies.end());
  }
  std::sort(all.latencies.begin(), all.latencies.end());
  measure.Finish(phases, users, rig.wal.appended() - wal0);
  PutClosedLoop(rig.out->metrics, all);
}

// --- open_loop -------------------------------------------------------------------------------

inline void SetupOpenLoop(Rig& rig, uint32_t parent) {
  rig.Boot(WorldConfig(rig.opt.sizes.open_users, true, false));
  rig.rng = StreamRng(rig.opt.seed, 6);
  // Log every user in once, so the measured traffic resumes parked
  // sessions, as a long-running site's does.
  rig.Loop().RunClosed(
      rig.opt.sizes.open_users,
      [&](uint64_t i) { return EchoRequest(i, EchoLength(rig.rng)); }, parent);
}

inline void MeasureOpenLoop(Rig& rig, uint32_t parent) {
  const uint64_t users = rig.opt.sizes.open_users;
  Metrics& m = rig.out->metrics;
  SpanRecorder& spans = *rig.spans;
  // The arrival pattern is the same for every seed (common random numbers):
  // near the knee the burst pattern of 10^4 Poisson arrivals alone moves p99
  // by ±8% and the max rate by ±2.5% between seeds, which would hide any
  // change under test. The seed still picks who sends what.
  asbestos::Rng arrival_rng = StreamRng(kArrivalPatternSeed, 7);
  const std::vector<double> unit = UnitRateArrivals(arrival_rng, rig.opt.sizes.open_requests);
  // Every probe offers the same users and echo lengths, only faster or slower.
  asbestos::Rng pick_rng = StreamRng(rig.opt.seed, 8);
  std::vector<Request> requests;
  requests.reserve(unit.size());
  for (size_t i = 0; i < unit.size(); ++i) {
    const uint64_t u = pick_rng.NextBelow(users);
    requests.push_back(EchoRequest(u, EchoLength(pick_rng)));
  }
  const uint64_t n = unit.size();
  // Nearest-rank p99 exceeds the SLO once this many samples do.
  const uint64_t late_budget = n - static_cast<uint64_t>(std::ceil(0.99 * n)) + 1;

  Measurement measure(rig.opt, rig.machine.get(), rig.out);
  LoadLoop loop = rig.Loop();
  std::vector<std::unique_ptr<PhaseResult>> probes;
  std::map<double, bool> verdicts;
  auto probe = [&](double rate, bool full) -> const PhaseResult& {
    const uint32_t span = spans.Begin("probe", parent, static_cast<uint64_t>(rate));
    const std::vector<uint64_t> due =
        ScaleArrivals(unit, rate, asbestos::costs::kCpuHz, GetCycleAccounting().now());
    probes.push_back(std::make_unique<PhaseResult>(
        loop.RunOpen(due, [&](uint64_t i) { return requests[i]; }, full ? 0 : late_budget,
                     span)));
    spans.End(span);
    const PhaseResult& p = *probes.back();
    verdicts[rate] = !p.aborted && p.P(0.99) <= kSloP99Ms &&
                     static_cast<double>(p.completed_by_last_due) >=
                         kSloCompletedRatio * static_cast<double>(n);
    return p;
  };
  for (double rate : kFixedRates) {
    const PhaseResult& p = probe(rate, true);
    const std::string at = "_at_" + std::to_string(static_cast<int>(rate));
    PutLatencies(m, p, at);
    m.Modelled("open_loop.busy_fraction" + at,
               1.0 - Ratio(static_cast<double>(p.injected_idle), static_cast<double>(p.cycles)),
               "ratio");
    m.Modelled("open_loop.completed_ratio" + at,
               Ratio(static_cast<double>(p.completed_by_last_due), static_cast<double>(n)),
               "ratio");
    m.Modelled("loadgen.send_lag_max_ms" + at, CyclesToMs(static_cast<double>(p.send_lag_max)),
               "ms");
  }
  // Memory is read after the fixed-rate probes: how many requests the
  // bisection serves depends on where the knee falls for this seed.
  const MemSnapshot memory = TakeMemSnapshot(rig.world->kernel());
  const double max_rate = BisectMaxPassing(kRateLo, kRateHi, kRateResolution, [&](double rate) {
    if (verdicts.count(rate) == 0) {
      probe(rate, false);
    }
    return verdicts[rate];
  });
  std::vector<const PhaseResult*> phases;
  uint64_t send_lag_max = 0;
  for (const auto& p : probes) {
    phases.push_back(p.get());
    send_lag_max = std::max(send_lag_max, p->send_lag_max);
  }
  measure.Finish(phases, users, 0, &memory);

  // The headline numbers of an open loop: the highest rate meeting the SLO
  // stands in for throughput, and latency is read at the 1000/s probe.
  m.Modelled("max_rate_at_slo", max_rate, "conn/s");
  m.Modelled("conn_per_s", max_rate, "conn/s");
  m.Modelled("latency_p50_ms", m.Get("latency_p50_ms_at_1000"), "ms");
  m.Modelled("latency_p99_ms", m.Get("latency_p99_ms_at_1000"), "ms");
  m.Modelled("latency_samples", m.Get("latency_samples_at_1000"), "count");
  m.Modelled("open_loop.probes", static_cast<double>(probes.size()), "count");
  m.Modelled("loadgen.send_lag_max_ms", CyclesToMs(static_cast<double>(send_lag_max)), "ms");
}

// --- Workloads and one repetition ----------------------------------------------------------

struct Workload {
  const char* name;
  const char* why;
  void (*setup)(Rig&, uint32_t parent_span);
  void (*measure)(Rig&, uint32_t parent_span);
  // With the profiler on, replication frames carry the shipping span's
  // stack (WireMessage::prof_ctx), so the traced run moves more wire bytes
  // and charges more network cycles than the untraced ones. For such a
  // workload the traced-vs-untraced difference is reported, not failed.
  bool profiler_stamps_wire = false;
};

inline const std::vector<Workload>& AllWorkloads() {
  static const std::vector<Workload> kAll = {
      {"hot_session",
       "one cached session, closed loop: the Fig. 7/9 calibration point, where fixed "
       "netd/demux/worker costs dominate",
       SetupHotSession, MeasureHotSession},
      {"many_users",
       "10^4 parked users logged in then resumed: O(users) labels, db lookups and kernel IPC",
       SetupManyUsers, MeasureManyUsers},
      {"notes_rw", "durable notes writes replicated to a follower beside label-filtered reads",
       SetupNotesRw, MeasureNotesRw, true},
      {"open_loop",
       "Poisson arrivals over 1,000 parked users: queueing, latency at fixed rates, max rate "
       "at the SLO",
       SetupOpenLoop, MeasureOpenLoop},
  };
  return kAll;
}

// The traced repetition's file section: bench-side spans and their host
// self times, the profiler's collapsed stacks, and its syscall table.
inline std::string TraceJson(const SpanRecorder& spans) {
  const asbestos::obs::CycleProfiler& prof = asbestos::obs::CycleProfiler::Get();
  char buf[96];
  std::string syscalls;
  for (const auto& [key, st] : prof.syscalls()) {
    std::snprintf(buf, sizeof(buf), ": {\"cycles\": %llu, \"calls\": %llu}",
                  static_cast<unsigned long long>(st.cycles),
                  static_cast<unsigned long long>(st.calls));
    syscalls += (syscalls.empty() ? "" : ", ") + JsonQuote(key) + buf;
  }
  std::string self;
  for (const auto& [name, s] : spans.SelfSecondsByName()) {
    std::snprintf(buf, sizeof(buf), ": %.9f", s);
    self += (self.empty() ? "" : ", ") + JsonQuote(name) + buf;
  }
  return "{\"bench_spans\": " + spans.ToJson() + ", \"bench_self_s\": {" + self +
         "}, \"profiler_collapsed_stacks\": " + JsonQuote(prof.CollapsedStacks()) +
         ", \"profiler_syscalls\": {" + syscalls + "}}";
}

// Set-ups per untraced repetition: the measured one, then fresh rigs built
// and torn down only to time them, until at least kMinSetups set-ups and
// kMinSetupSeconds of set-up time (at most kMaxSetups). setup_s is their
// median: one set-up takes 4-130 ms, where a single preemption is a
// large share.
constexpr size_t kMinSetups = 5;
constexpr size_t kMaxSetups = 50;
constexpr double kMinSetupSeconds = 0.25;

// Peak resident set of this process so far, in MB.
inline double PeakRssMb() {
  struct rusage ru {};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// One repetition: set up, measure, and (untraced) time further set-ups.
inline RepResult RunRep(const Workload& w, const Options& opt) {
  RepResult out;
  SpanRecorder spans(opt.traced);
  std::vector<double> setup_s;
  {
    Rig rig(opt, &spans, &out);
    const uint32_t root = spans.Begin("run", 0);
    const uint32_t setup = spans.Begin("setup", root);
    const Clock::time_point t0 = Clock::now();
    w.setup(rig, setup);
    setup_s.push_back(SecondsBetween(t0, Clock::now()));
    spans.End(setup);
    const uint32_t timed = spans.Begin("timed", root);
    w.measure(rig, timed);
    spans.End(timed);
    spans.End(root);
    // Read before the extra set-ups below can raise it.
    out.metrics.Host("host_peak_rss_mb", PeakRssMb(), "MB");
    if (opt.traced) {
      out.trace_json = TraceJson(spans);
    }
  }
  SpanRecorder off(false);
  double total = setup_s.front();
  while (!opt.traced && setup_s.size() < kMaxSetups &&
         (setup_s.size() < kMinSetups || total < kMinSetupSeconds)) {
    Rig rig(opt, &off, &out);
    const Clock::time_point t0 = Clock::now();
    w.setup(rig, 0);
    setup_s.push_back(SecondsBetween(t0, Clock::now()));
    total += setup_s.back();
  }
  out.metrics.Host("setup_s", Median(setup_s), "s");
  return out;
}

}  // namespace e2e

#endif  // BENCH_E2E_WORKLOADS_H_
