// Order statistics, bisection, and arrival generation for bench_e2e.
//
// Everything here is pure and deterministic, so `bench_e2e --self-check`
// can verify it against hand-computed vectors before any number it produces
// is trusted.
#ifndef BENCH_E2E_STATS_H_
#define BENCH_E2E_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <vector>

#include "src/base/rng.h"

namespace e2e {

// Nearest-rank percentile (q in (0, 1]) of an ascending vector: the
// smallest sample with at least q of the samples at or below it. Latency
// percentiles use this form so every reported value is an observed one.
template <typename T>
T NearestRank(const std::vector<T>& sorted, double q) {
  if (sorted.empty()) {
    return T{};
  }
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

inline double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// First and third quartiles over repetitions, computed exactly like
// Python's statistics.quantiles(values, n=4, method='inclusive') (numpy's
// default). With the 5 repetitions of a full run the 'exclusive' method
// puts q3 halfway to the maximum, so one slow repetition alone would make
// the spread look wide. One value gives (v, v).
struct Quartiles {
  double q1 = 0;
  double q3 = 0;
};

inline Quartiles QuartilesOf(std::vector<double> v) {
  Quartiles q;
  if (v.empty()) {
    return q;
  }
  std::sort(v.begin(), v.end());
  const size_t m = v.size() - 1;
  auto at = [&](size_t i) {
    if (m == 0) {
      return v[0];
    }
    const size_t j = i * m / 4;
    const double delta = static_cast<double>(i * m - j * 4);
    return (v[j] * (4 - delta) + v[j + 1] * delta) / 4;
  };
  q.q1 = at(1);
  q.q3 = at(3);
  return q;
}

// Geometric bisection for the largest value in [lo, hi] at which a
// monotone (pass below the threshold, fail above it) predicate holds: lo is
// assumed to pass and hi to fail, and the search stops once hi/lo is within
// `ratio` (1.01 = 1% resolution). Returns the last passing value.
inline double BisectMaxPassing(double lo, double hi, double ratio,
                               const std::function<bool(double)>& passes) {
  while (hi / lo > ratio) {
    const double mid = std::sqrt(lo * hi);
    if (passes(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

// A unit-rate Poisson arrival sequence: cumulative sums of Exp(1) gaps, in
// seconds at 1 request/s. One sequence is scaled to every offered rate, so
// the probes of a bisection differ only in rate, never in the arrival
// pattern. The sequence is stretched so its last arrival lands at
// exactly n seconds: the offered rate is then the nominal rate, not a
// sample of it, which keeps the seed from shifting the load near the knee
// (where a 1% rate error moves queueing delay by several percent).
inline std::vector<double> UnitRateArrivals(asbestos::Rng& rng, size_t n) {
  std::vector<double> t(n);
  double acc = 0;
  for (size_t i = 0; i < n; ++i) {
    acc += -std::log1p(-rng.NextDouble());
    t[i] = acc;
  }
  for (double& x : t) {
    x *= static_cast<double>(n) / acc;
  }
  return t;
}

// Due times, in virtual cycles from `origin`, of the unit-rate sequence
// offered at `rate` requests/s on a `cpu_hz` clock.
inline std::vector<uint64_t> ScaleArrivals(const std::vector<double>& unit, double rate,
                                           double cpu_hz, uint64_t origin) {
  std::vector<uint64_t> due(unit.size());
  for (size_t i = 0; i < unit.size(); ++i) {
    due[i] = origin + static_cast<uint64_t>(unit[i] / rate * cpu_hz);
  }
  return due;
}

}  // namespace e2e

#endif  // BENCH_E2E_STATS_H_
