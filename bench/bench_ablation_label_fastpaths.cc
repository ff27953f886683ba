// Ablation: the asymmetric label fast paths (README "Host time") versus the
// literal linear evaluation the paper's kernel performs. The fast paths are
// exact (tests/label_checks_test.cc) and the *charged* virtual cycles stay
// linear either way; this bench shows the real host-time difference that
// makes the Figure 7/9 sweeps tractable, and how the naive path scales with
// label size while the fast path does not.
#include <benchmark/benchmark.h>

#include "src/kernel/label_checks.h"
#include "src/labels/label.h"

namespace asbestos {
namespace {

// netd-shaped receiver: n user taints at 3 in the receive label.
Label WideReceiveLabel(size_t n) {
  Label l(kDefaultReceiveLevel);
  for (size_t i = 0; i < n; ++i) {
    l.Set(Handle::FromValue(1000 + i * 3), Level::kL3);
  }
  return l;
}

// netd-shaped sender: n ⋆ capabilities plus one level-3 taint.
Label WideStarSendLabel(size_t n, Handle taint) {
  Label l(kDefaultSendLevel);
  for (size_t i = 0; i < n; ++i) {
    l.Set(Handle::FromValue(500000 + i * 3), Level::kStar);
  }
  l.Set(taint, Level::kL3);
  return l;
}

void BM_DeliveryCheckFused_WideReceiver(benchmark::State& state) {
  const Label qr = WideReceiveLabel(static_cast<size_t>(state.range(0)));
  const Handle taint = Handle::FromValue(1000);  // cleared in qr
  Label es(kDefaultSendLevel);
  es.Set(taint, Level::kL3);
  const Label dr = Label::Bottom();
  const Label v = Label::Top();
  const Label pr = Label({{Handle::FromValue(7), Level::kL0}, {taint, Level::kL3}},
                         Level::kL2);
  for (auto _ : state) {
    uint64_t work = 0;
    benchmark::DoNotOptimize(CheckDeliveryAllowed(es, qr, dr, v, pr, &work));
  }
}
BENCHMARK(BM_DeliveryCheckFused_WideReceiver)->Range(64, 1 << 14);

void BM_DeliveryCheckNaive_WideReceiver(benchmark::State& state) {
  const Label qr = WideReceiveLabel(static_cast<size_t>(state.range(0)));
  const Handle taint = Handle::FromValue(1000);
  Label es(kDefaultSendLevel);
  es.Set(taint, Level::kL3);
  const Label dr = Label::Bottom();
  const Label v = Label::Top();
  const Label pr = Label({{Handle::FromValue(7), Level::kL0}, {taint, Level::kL3}},
                         Level::kL2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(CheckDeliveryAllowedNaive(es, qr, dr, v, pr));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_DeliveryCheckNaive_WideReceiver)->Range(64, 1 << 14)->Complexity(benchmark::oN);

void BM_DeliveryCheckFused_WideSender(benchmark::State& state) {
  const Handle taint = Handle::FromValue(42);
  const Label es = WideStarSendLabel(static_cast<size_t>(state.range(0)), taint);
  const Label qr({{taint, Level::kL3}}, kDefaultReceiveLevel);
  const Label dr = Label::Bottom();
  const Label v = Label::Top();
  const Label pr = Label(Level::kL3);
  for (auto _ : state) {
    uint64_t work = 0;
    benchmark::DoNotOptimize(CheckDeliveryAllowed(es, qr, dr, v, pr, &work));
  }
}
BENCHMARK(BM_DeliveryCheckFused_WideSender)->Range(64, 1 << 14);

void BM_DeliveryCheckNaive_WideSender(benchmark::State& state) {
  const Handle taint = Handle::FromValue(42);
  const Label es = WideStarSendLabel(static_cast<size_t>(state.range(0)), taint);
  const Label qr({{taint, Level::kL3}}, kDefaultReceiveLevel);
  const Label dr = Label::Bottom();
  const Label v = Label::Top();
  const Label pr = Label(Level::kL3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(CheckDeliveryAllowedNaive(es, qr, dr, v, pr));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_DeliveryCheckNaive_WideSender)->Range(64, 1 << 14)->Complexity(benchmark::oN);

void BM_ContaminationFused_WideStarReceiver(benchmark::State& state) {
  // Delivery to netd: small tainted ES against a huge ⋆-rich QS.
  const Handle taint = Handle::FromValue(42);
  Label es(kDefaultSendLevel);
  es.Set(taint, Level::kL3);
  const Label qs = WideStarSendLabel(static_cast<size_t>(state.range(0)), taint);
  for (auto _ : state) {
    uint64_t work = 0;
    benchmark::DoNotOptimize(NeedsContamination(es, qs, &work));
  }
}
BENCHMARK(BM_ContaminationFused_WideStarReceiver)->Range(64, 1 << 14);

void BM_ContaminationNaive_WideStarReceiver(benchmark::State& state) {
  const Handle taint = Handle::FromValue(42);
  Label es(kDefaultSendLevel);
  es.Set(taint, Level::kL3);
  const Label qs = WideStarSendLabel(static_cast<size_t>(state.range(0)), taint);
  for (auto _ : state) {
    benchmark::DoNotOptimize(NeedsContaminationNaive(es, qs));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ContaminationNaive_WideStarReceiver)
    ->Range(64, 1 << 14)
    ->Complexity(benchmark::oN);

void BM_AsymmetricJoin_GrantIntoWideLabel(benchmark::State& state) {
  // QR ⊔ DR on every ADD_TAINT delivery: a two-entry grant folded into a
  // wide receive label — chunk-sharing makes this O(small), the naive merge
  // rebuilds all n entries.
  const Label qr = WideReceiveLabel(static_cast<size_t>(state.range(0)));
  const Label dr({{Handle::FromValue(99), Level::kL3}}, Level::kStar);
  for (auto _ : state) {
    Label copy = qr;
    copy.JoinInPlace(dr);
    benchmark::DoNotOptimize(copy);
  }
}
BENCHMARK(BM_AsymmetricJoin_GrantIntoWideLabel)->Range(64, 1 << 14);

}  // namespace
}  // namespace asbestos

BENCHMARK_MAIN();
