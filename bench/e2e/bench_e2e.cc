// bench_e2e: one end-to-end and per-layer benchmark for OKWS on Asbestos.
//
// Four workloads (hot_session, many_users, notes_rw, open_loop; see
// workloads.h and README.md) each run as several repetitions, every
// repetition in a freshly forked process so no process-global state (label
// intern table, check cache, metrics registry) warms the next one, and so
// the process's peak RSS is that repetition's. One extra repetition per
// workload runs with the cycle profiler and bench-side spans on; it alone
// supplies the `*.self_kcyc_*` and `kernel.sys_*` numbers and the trace file.
//
// Two kinds of numbers come out:
//   modelled  virtual cycles and counters on the simulated 2.8 GHz machine.
//             They must repeat bit for bit across repetitions of one seed
//             and between the traced and untraced runs; any difference is
//             reported as an error.
//   host      wall-clock time and memory of the simulator process itself,
//             reported as the median over repetitions with quartiles.
//
//   bench_e2e [--workload NAME|all] [--seed N] [--reps N] [--seconds S]
//             [--out FILE] [--trace FILE] [--no-traced-run] [--scratch DIR]
//             [--smoke] [--self-check]
//
// --seconds S keeps adding repetitions (beyond --reps) while the next one
// is expected to finish within S seconds of the first. Exit status: 0 when
// every response was correct and every modelled number repeated, 1 on any
// error or mismatch, 2 on bad usage or an unoptimized build asked for a
// full run.
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench/e2e/layers.h"
#include "bench/e2e/spans.h"
#include "bench/e2e/stats.h"
#include "bench/e2e/workloads.h"

#ifndef BENCH_E2E_BUILD_TYPE
#define BENCH_E2E_BUILD_TYPE "unknown"
#endif
#ifndef BENCH_E2E_CXX_FLAGS
#define BENCH_E2E_CXX_FLAGS "unknown"
#endif

namespace e2e {
namespace {

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

struct Args {
  std::string workload = "all";
  uint64_t seed = 1;
  int reps = -1;  // -1: 5, or 1 with --smoke
  double seconds = 0;
  std::string out;
  std::string trace;
  std::string scratch = "bench_e2e.scratch";
  bool traced_run = true;
  bool smoke = false;
  bool self_check = false;
};

// --- Child process transport ----------------------------------------------------

// A repetition's result crosses the fork as text lines:
//   M|H <name> <unit> <value>   modelled / host metric (%.17g)
//   A <attempted> <failed> <errors>
//   E <error sample>
//   T <trace json>
std::string Serialize(const RepResult& r) {
  std::string out;
  char buf[256];
  for (const auto& [name, m] : r.metrics.map()) {
    std::snprintf(buf, sizeof(buf), "%c %s %s %.17g\n", m.kind == Kind::kModelled ? 'M' : 'H',
                  name.c_str(), m.unit.c_str(), m.value);
    out += buf;
  }
  std::snprintf(buf, sizeof(buf), "A %llu %llu %llu\n",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed),
                static_cast<unsigned long long>(r.errors));
  out += buf;
  for (std::string e : r.error_samples) {
    for (char& c : e) {
      c = c == '\n' ? ' ' : c;
    }
    out += "E " + e + "\n";
  }
  if (!r.trace_json.empty()) {
    out += "T " + r.trace_json + "\n";
  }
  return out;
}

bool Deserialize(const std::string& text, RepResult* r) {
  std::istringstream in(text);
  std::string line;
  bool saw_counts = false;
  while (std::getline(in, line)) {
    if (line.size() < 2) {
      continue;
    }
    const char tag = line[0];
    const std::string rest = line.substr(2);
    if (tag == 'M' || tag == 'H') {
      std::istringstream f(rest);
      std::string name;
      std::string unit;
      std::string value;
      f >> name >> unit >> value;
      const double v = std::strtod(value.c_str(), nullptr);
      if (tag == 'M') {
        r->metrics.Modelled(name, v, unit.c_str());
      } else {
        r->metrics.Host(name, v, unit.c_str());
      }
    } else if (tag == 'A') {
      unsigned long long a = 0;
      unsigned long long f = 0;
      unsigned long long e = 0;
      saw_counts = std::sscanf(rest.c_str(), "%llu %llu %llu", &a, &f, &e) == 3;
      r->attempted = a;
      r->failed = f;
      r->errors = e;
    } else if (tag == 'E') {
      r->error_samples.push_back(rest);
    } else if (tag == 'T') {
      r->trace_json = rest;
    }
  }
  return saw_counts;
}

struct ChildOutcome {
  bool ok = false;
  std::string failure;
  RepResult result;
};

// Runs one repetition in a forked child and collects its result. The child
// runs only the workload and exits; the parent waits for it.
ChildOutcome RunForked(const Workload& w, const Options& opt) {
  ChildOutcome oc;
  int fds[2];
  if (::pipe(fds) != 0) {
    oc.failure = std::string("pipe: ") + std::strerror(errno);
    return oc;
  }
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    oc.failure = std::string("fork: ") + std::strerror(errno);
    ::close(fds[0]);
    ::close(fds[1]);
    return oc;
  }
  if (pid == 0) {
    ::close(fds[0]);
    const std::string out = Serialize(RunRep(w, opt));
    size_t off = 0;
    while (off < out.size()) {
      const ssize_t n = ::write(fds[1], out.data() + off, out.size() - off);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) {
          continue;
        }
        ::_exit(3);
      }
      off += static_cast<size_t>(n);
    }
    ::close(fds[1]);
    ::_exit(0);
  }
  ::close(fds[1]);
  std::string text;
  char buf[1 << 16];
  while (true) {
    const ssize_t n = ::read(fds[0], buf, sizeof(buf));
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      break;
    }
    text.append(buf, static_cast<size_t>(n));
  }
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    oc.failure = WIFSIGNALED(status)
                     ? "repetition died with signal " + std::to_string(WTERMSIG(status))
                     : "repetition exited with status " + std::to_string(WEXITSTATUS(status));
    return oc;
  }
  if (!Deserialize(text, &oc.result)) {
    oc.failure = "repetition returned no result";
    return oc;
  }
  oc.ok = true;
  return oc;
}

// --- Aggregation ---------------------------------------------------------------------

struct Aggregate {
  double value = 0;
  std::string unit;
  Kind kind = Kind::kModelled;
  double q1 = 0;
  double q3 = 0;
  std::vector<double> values;  // one per untraced repetition (host metrics)
};

Aggregate Single(double value, const std::string& unit, Kind kind) {
  Aggregate a;
  a.value = a.q1 = a.q3 = value;
  a.unit = unit;
  a.kind = kind;
  return a;
}

struct WorkloadReport {
  const Workload* workload = nullptr;
  int reps = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t errors = 0;
  std::vector<std::string> error_samples;
  std::map<std::string, Aggregate> metrics;
  std::string trace_json;
  double elapsed_s = 0;

  void Error(const std::string& what) {
    ++errors;
    if (error_samples.size() < 12) {
      error_samples.push_back(what);
    }
  }
  // Folds in one repetition's counts and error samples.
  void Absorb(const RepResult& r, const std::string& prefix) {
    attempted += r.attempted;
    failed += r.failed;
    for (const std::string& e : r.error_samples) {
      Error(prefix + e);
    }
    errors += r.errors - std::min<uint64_t>(r.errors, r.error_samples.size());
  }
};

std::string Exact(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Every modelled metric of `a` must be present in `b` with the same bits.
// Returns the number of differences, each also recorded on `rep` if given.
int CompareModelled(const RepResult& a, const RepResult& b, const std::string& what,
                    WorkloadReport* rep) {
  int diffs = 0;
  for (const auto& [name, m] : a.metrics.map()) {
    if (m.kind != Kind::kModelled) {
      continue;
    }
    auto it = b.metrics.map().find(name);
    const std::string got = it == b.metrics.map().end() ? "missing" : Exact(it->second.value);
    if (got != Exact(m.value)) {
      ++diffs;
      if (rep != nullptr) {
        rep->Error(what + ": " + name + " is " + got + ", expected " + Exact(m.value));
      }
    }
  }
  return diffs;
}

WorkloadReport RunWorkload(const Workload& w, const Args& args, const Options& base) {
  WorkloadReport rep;
  rep.workload = &w;
  std::vector<RepResult> results;
  const Clock::time_point start = Clock::now();
  double last_rep_s = 0;
  while (static_cast<int>(results.size()) < args.reps ||
         (args.seconds > 0 && results.size() < 200 &&
          SecondsBetween(start, Clock::now()) + last_rep_s <= args.seconds)) {
    const Clock::time_point t0 = Clock::now();
    ChildOutcome oc = RunForked(w, base);
    last_rep_s = SecondsBetween(t0, Clock::now());
    if (!oc.ok) {
      rep.Error(oc.failure);
      break;
    }
    rep.Absorb(oc.result, "");
    results.push_back(std::move(oc.result));
  }
  rep.reps = static_cast<int>(results.size());
  for (size_t i = 1; i < results.size(); ++i) {
    CompareModelled(results[0], results[i], "repetition " + std::to_string(i + 1), &rep);
  }
  if (!results.empty()) {
    for (const auto& [name, m] : results[0].metrics.map()) {
      if (m.kind == Kind::kModelled) {
        rep.metrics[name] = Single(m.value, m.unit, m.kind);
        continue;
      }
      Aggregate a;
      a.unit = m.unit;
      a.kind = m.kind;
      for (const RepResult& r : results) {
        a.values.push_back(r.metrics.Get(name));
      }
      a.value = Median(a.values);
      const Quartiles q = QuartilesOf(a.values);
      a.q1 = q.q1;
      a.q3 = q.q3;
      rep.metrics[name] = a;
    }
  }

  if (args.traced_run && !results.empty()) {
    Options traced = base;
    traced.traced = true;
    ChildOutcome oc = RunForked(w, traced);
    if (!oc.ok) {
      rep.Error("traced run: " + oc.failure);
    } else {
      rep.Absorb(oc.result, "traced run: ");
      // The profiler must not perturb a single charge, except where it
      // stamps its own context onto the replication wire.
      const int diffs = CompareModelled(results[0], oc.result, "traced run",
                                        w.profiler_stamps_wire ? nullptr : &rep);
      if (diffs != 0 && w.profiler_stamps_wire) {
        std::printf("   note: %s traced run differs from the untraced ones in %d modelled "
                    "numbers (profiler context on replication frames)\n",
                    w.name, diffs);
      }
      rep.metrics["profiler.perturbation_kcyc_per_conn"] =
          Single(oc.result.metrics.Get("kcyc_per_conn") - results[0].metrics.Get("kcyc_per_conn"),
                 "kcyc/conn", Kind::kModelled);
      for (const auto& [name, m] : oc.result.metrics.map()) {
        if (m.kind == Kind::kModelled && rep.metrics.count(name) == 0) {
          rep.metrics[name] = Single(m.value, m.unit, m.kind);
        }
      }
      rep.metrics["host.tracing_overhead"] =
          Single(Ratio(oc.result.metrics.Get("host_us_per_conn"),
                       rep.metrics["host_us_per_conn"].value),
                 "ratio", Kind::kHost);
      rep.trace_json = std::move(oc.result.trace_json);
    }
  }
  rep.metrics["error_rate"] =
      Single(Ratio(static_cast<double>(rep.failed), static_cast<double>(rep.attempted)), "ratio",
             Kind::kModelled);
  rep.elapsed_s = SecondsBetween(start, Clock::now());
  return rep;
}

// --- Output ------------------------------------------------------------------------------

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    return "0";
  }
  return Exact(v);
}

std::string ContextJson(const Args& args, const Sizes& sizes) {
  std::ostringstream o;
  o << "{\"build_type\": " << JsonQuote(BENCH_E2E_BUILD_TYPE)
    << ", \"cxx_flags\": " << JsonQuote(BENCH_E2E_CXX_FLAGS)
    << ", \"compiler\": " << JsonQuote(__VERSION__)
    << ", \"optimized\": " << (kOptimized ? "true" : "false") << ", \"seed\": " << args.seed
    << ", \"reps\": " << args.reps << ", \"seconds\": " << JsonNumber(args.seconds)
    << ", \"smoke\": " << (args.smoke ? "true" : "false")
    << ", \"cpu_hz\": " << JsonNumber(asbestos::costs::kCpuHz) << ", \"slo_p99_ms\": "
    << JsonNumber(kSloP99Ms) << ", \"sizes\": {\"hot_warmup\": " << sizes.hot_warmup
    << ", \"hot_conns\": " << sizes.hot_conns << ", \"many_users\": " << sizes.many_users
    << ", \"notes_users\": " << sizes.notes_users << ", \"notes_rounds\": " << sizes.notes_rounds
    << ", \"open_users\": " << sizes.open_users << ", \"open_requests\": " << sizes.open_requests
    << "}}";
  return o.str();
}

std::string ResultsJson(const Args& args, const Sizes& sizes,
                        const std::vector<WorkloadReport>& reports) {
  std::ostringstream o;
  o << "{\n  \"context\": " << ContextJson(args, sizes) << ",\n  \"workloads\": {";
  for (size_t i = 0; i < reports.size(); ++i) {
    const WorkloadReport& r = reports[i];
    o << (i == 0 ? "\n" : ",\n") << "    \"" << r.workload->name << "\": {\n"
      << "      \"why\": " << JsonQuote(r.workload->why) << ",\n"
      << "      \"reps\": " << r.reps << ", \"attempted\": " << r.attempted
      << ", \"failed\": " << r.failed << ", \"errors\": " << r.errors
      << ", \"correct\": " << (r.errors == 0 ? "true" : "false")
      << ", \"elapsed_s\": " << JsonNumber(r.elapsed_s) << ",\n      \"error_samples\": [";
    for (size_t e = 0; e < r.error_samples.size(); ++e) {
      o << (e == 0 ? "" : ", ") << JsonQuote(r.error_samples[e]);
    }
    o << "],\n      \"metrics\": {";
    bool first = true;
    for (const auto& [name, a] : r.metrics) {
      o << (first ? "\n" : ",\n") << "        \"" << name << "\": {\"value\": "
        << JsonNumber(a.value) << ", \"unit\": \"" << a.unit << "\", \"kind\": \""
        << (a.kind == Kind::kModelled ? "modelled" : "host") << "\", \"q1\": "
        << JsonNumber(a.q1) << ", \"q3\": " << JsonNumber(a.q3);
      if (!a.values.empty()) {
        o << ", \"values\": [";
        for (size_t k = 0; k < a.values.size(); ++k) {
          o << (k == 0 ? "" : ", ") << JsonNumber(a.values[k]);
        }
        o << "]";
      }
      o << "}";
      first = false;
    }
    o << "\n      }\n    }";
  }
  o << "\n  }\n}\n";
  return o.str();
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

void PrintReport(const WorkloadReport& r) {
  std::printf("\n== %s (%d reps, %llu requests, %llu failed, %llu errors, %.1f s)\n   %s\n",
              r.workload->name, r.reps, static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), static_cast<unsigned long long>(r.errors),
              r.elapsed_s, r.workload->why);
  for (const auto& [name, a] : r.metrics) {
    if (a.kind == Kind::kHost && a.values.size() > 1) {
      std::printf("   %-42s %16.6g %-10s host  [q1 %.6g, q3 %.6g]\n", name.c_str(), a.value,
                  a.unit.c_str(), a.q1, a.q3);
    } else {
      std::printf("   %-42s %16.6g %-10s %s\n", name.c_str(), a.value, a.unit.c_str(),
                  a.kind == Kind::kModelled ? "modelled" : "host");
    }
  }
  for (const std::string& e : r.error_samples) {
    std::printf("   ERROR %s\n", e.c_str());
  }
}

// --- Self-check ------------------------------------------------------------------------

int SelfCheck() {
  int failures = 0;
  auto expect = [&](bool cond, const char* what) {
    if (!cond) {
      std::fprintf(stderr, "self-check FAILED: %s\n", what);
      ++failures;
    }
  };
  auto near = [](double a, double b) { return std::fabs(a - b) <= 1e-12 * std::max(1.0, std::fabs(b)); };
  // Reference values from Python's statistics.quantiles(v, n=4,
  // method='inclusive') and statistics.median(v).
  const struct {
    std::vector<double> v;
    double q1, q3, median;
  } kQuartiles[] = {
      {{1, 2, 3, 4, 5}, 2.0, 4.0, 3},
      {{7, 1, 3}, 2.0, 5.0, 3},
      {{2.5, 2.5}, 2.5, 2.5, 2.5},
      {{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, 32.5, 77.5, 55},
      {{3, 1, 4, 1, 5, 9, 2, 6}, 1.75, 5.25, 3.5},
      {{0.0298, 0.0287, 0.0305, 0.0300, 0.0445}, 0.0298, 0.0305, 0.0300},
      {{42}, 42, 42, 42},
  };
  for (const auto& k : kQuartiles) {
    const Quartiles q = QuartilesOf(k.v);
    expect(near(q.q1, k.q1) && near(q.q3, k.q3), "quartiles match statistics.quantiles");
    expect(near(Median(k.v), k.median), "median");
  }
  std::vector<uint64_t> hundred(100);
  for (uint64_t i = 0; i < 100; ++i) {
    hundred[i] = i + 1;
  }
  expect(NearestRank(hundred, 0.50) == 50, "nearest-rank p50 of 1..100");
  expect(NearestRank(hundred, 0.99) == 99, "nearest-rank p99 of 1..100");
  expect(NearestRank(hundred, 1.0) == 100, "nearest-rank p100 of 1..100");
  expect(NearestRank(std::vector<uint64_t>{7}, 0.99) == 7, "nearest-rank of one sample");

  // Bisection on a synthetic monotone curve: passes below 1234.5.
  int probes = 0;
  const double found = BisectMaxPassing(kRateLo, kRateHi, kRateResolution, [&](double r) {
    ++probes;
    return r <= 1234.5;
  });
  expect(found <= 1234.5 && found * kRateResolution > 1234.5, "bisection brackets the knee");
  expect(probes <= 10, "bisection to 1% over [200, 4000] needs at most 10 probes");

  // Poisson scaling: one unit-rate sequence with exponential gaps, scaled;
  // the mean gap is exactly 1/rate.
  asbestos::Rng rng(42);
  const std::vector<double> unit = UnitRateArrivals(rng, 20000);
  expect(std::fabs(unit.back() - 20000.0) < 1e-6, "unit-rate sequence ends at n seconds");
  size_t long_gaps = 0;
  for (size_t i = 1; i < unit.size(); ++i) {
    long_gaps += unit[i] - unit[i - 1] > 1.0 ? 1 : 0;
  }
  expect(std::fabs(static_cast<double>(long_gaps) / 20000.0 - std::exp(-1.0)) < 0.015,
         "P(gap > mean) is e^-1, as for exponential gaps");
  const std::vector<uint64_t> slow = ScaleArrivals(unit, 500, asbestos::costs::kCpuHz, 0);
  const std::vector<uint64_t> fast = ScaleArrivals(unit, 1000, asbestos::costs::kCpuHz, 0);
  expect(std::fabs(static_cast<double>(fast.back()) - 20.0 * asbestos::costs::kCpuHz) <= 2,
         "20000 arrivals at 1000/s end at 20 s");
  bool halves = true;
  for (size_t i = 0; i < fast.size(); ++i) {
    halves = halves && (slow[i] / 2 == fast[i] || slow[i] / 2 == fast[i] + 1 ||
                        slow[i] / 2 + 1 == fast[i]);
  }
  expect(halves, "doubling the rate halves every due time");
  asbestos::Rng again(42);
  expect(UnitRateArrivals(again, 20000) == unit, "one seed gives one arrival sequence");
  std::printf("self-check: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "bench_e2e: %s\nusage: bench_e2e [--workload NAME|all] [--seed N] [--reps N] "
               "[--seconds S] [--out FILE] [--trace FILE] [--no-traced-run] [--scratch DIR] "
               "[--smoke] [--self-check]\n",
               why);
  return 2;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  using namespace e2e;
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;
    if (a == "--smoke") {
      args.smoke = true;
    } else if (a == "--self-check") {
      args.self_check = true;
    } else if (a == "--no-traced-run") {
      args.traced_run = false;
    } else if (a == "--workload" && (v = value())) {
      args.workload = v;
    } else if (a == "--seed" && (v = value())) {
      args.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--reps" && (v = value())) {
      args.reps = std::atoi(v);
    } else if (a == "--seconds" && (v = value())) {
      args.seconds = std::strtod(v, nullptr);
    } else if (a == "--out" && (v = value())) {
      args.out = v;
    } else if (a == "--trace" && (v = value())) {
      args.trace = v;
    } else if (a == "--scratch" && (v = value())) {
      args.scratch = v;
    } else {
      return Usage(("unknown or incomplete argument " + a).c_str());
    }
  }
  if (args.self_check) {
    return SelfCheck();
  }
  if (args.reps < 0) {
    args.reps = args.smoke ? 1 : 5;
  }
  if (args.reps < 1) {
    return Usage("--reps must be at least 1");
  }
  if (!kOptimized && !args.smoke) {
    std::fprintf(stderr,
                 "bench_e2e: refusing a full run from an unoptimized build (%s, flags '%s'); "
                 "configure with -DCMAKE_BUILD_TYPE=Release or pass --smoke\n",
                 BENCH_E2E_BUILD_TYPE, BENCH_E2E_CXX_FLAGS);
    return 2;
  }
  std::vector<const Workload*> selected;
  for (const Workload& w : AllWorkloads()) {
    if (args.workload == "all" || args.workload == w.name) {
      selected.push_back(&w);
    }
  }
  if (selected.empty()) {
    return Usage(("no workload named " + args.workload).c_str());
  }

  Options opt;
  opt.seed = args.seed;
  opt.sizes = args.smoke ? Sizes::Smoke() : Sizes();
  std::error_code ec;
  std::filesystem::create_directories(args.scratch, ec);
  opt.scratch_dir = std::filesystem::absolute(args.scratch, ec).string();

  std::printf("bench_e2e: seed %llu, %d reps%s, build %s (%s)\n",
              static_cast<unsigned long long>(args.seed), args.reps,
              args.smoke ? ", smoke sizes" : "", BENCH_E2E_BUILD_TYPE, BENCH_E2E_CXX_FLAGS);
  std::vector<WorkloadReport> reports;
  bool ok = true;
  for (const Workload* w : selected) {
    reports.push_back(RunWorkload(*w, args, opt));
    PrintReport(reports.back());
    ok = ok && reports.back().errors == 0;
  }
  std::filesystem::remove(args.scratch, ec);  // only if empty

  if (!args.out.empty() && !WriteFile(args.out, ResultsJson(args, opt.sizes, reports))) {
    std::fprintf(stderr, "bench_e2e: cannot write %s\n", args.out.c_str());
    ok = false;
  }
  if (!args.trace.empty()) {
    std::string trace = "{\"context\": " + ContextJson(args, opt.sizes) + ", \"workloads\": {";
    bool first = true;
    for (const WorkloadReport& r : reports) {
      if (r.trace_json.empty()) {
        continue;
      }
      trace += std::string(first ? "" : ", ") + "\"" + r.workload->name + "\": " + r.trace_json;
      first = false;
    }
    trace += "}}\n";
    if (!WriteFile(args.trace, trace)) {
      std::fprintf(stderr, "bench_e2e: cannot write %s\n", args.trace.c_str());
      ok = false;
    }
  }
  std::printf("\nbench_e2e: %s\n", ok ? "all responses correct, modelled numbers repeat"
                                      : "ERRORS (see above)");
  return ok ? 0 : 1;
}
