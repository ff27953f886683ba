// IPC microbenchmarks: message round-trips through the kernel's Figure-4
// checks, as a function of receiver label size — the per-message mechanism
// behind Figure 9's "Kernel IPC" line — plus the zero-copy payload plane:
// payload-size sweeps (small words vs 4 KiB vs 64 KiB) and a 1→K fan-out
// pair that proves K receivers share one refcounted buffer instead of K
// copies (see src/kernel/payload.h).
//
// Results are machine-readable: unless the caller passes its own
// --benchmark_out, the run writes BENCH_ipc.json (google-benchmark JSON)
// into the working directory so the perf trajectory is tracked across PRs.
// `--smoke` shrinks every measurement to a sanity-check run for CI.
#include <benchmark/benchmark.h>

#include <string>
#include <string_view>
#include <vector>

#include "src/kernel/kernel.h"
#include "src/kernel/payload.h"
#include "src/obs/metrics.h"
#include "src/obs/reset.h"
#include "src/sim/cycles.h"

namespace asbestos {
namespace {

class Sink : public ProcessCode {
 public:
  void HandleMessage(ProcessContext&, const Message&) override {}
};

struct PingPongWorld {
  explicit PingPongWorld(size_t receiver_label_entries) : kernel(42) {
    SpawnArgs rargs;
    rargs.name = "receiver";
    // Give the receiver a wide receive label, like netd's after N users.
    Label recv(kDefaultReceiveLevel);
    for (size_t i = 0; i < receiver_label_entries; ++i) {
      recv.Set(Handle::FromValue(1000 + i * 3), Level::kL3);
    }
    rargs.recv_label = recv;
    rx = kernel.CreateProcess(std::make_unique<Sink>(), rargs);
    kernel.WithProcessContext(rx, [&](ProcessContext& ctx) {
      port = ctx.NewPort(Label::Top());
      ASB_ASSERT(ctx.SetPortLabel(port, Label::Top()) == Status::kOk);
    });
    SpawnArgs sargs;
    sargs.name = "sender";
    tx = kernel.CreateProcess(std::make_unique<Sink>(), sargs);
    kernel.WithProcessContext(tx, [&](ProcessContext& ctx) {
      taint = ctx.NewHandle();
    });
  }

  Kernel kernel;
  ProcessId rx = kNoProcess;
  ProcessId tx = kNoProcess;
  Handle port;
  Handle taint;
};

void BM_SendDeliverPlain(benchmark::State& state) {
  obs::ResetAll();  // fresh obs state per benchmark: no cross-run bleed
  PingPongWorld world(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    world.kernel.WithProcessContext(world.tx, [&](ProcessContext& ctx) {
      Message m;
      m.type = 1;
      ASB_ASSERT(ctx.Send(world.port, std::move(m)) == Status::kOk);
    });
    world.kernel.RunUntilIdle();
  }
  state.counters["virtual_cycles_per_msg"] = benchmark::Counter(
      static_cast<double>(GetCycleAccounting().total(Component::kKernelIpc)),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_SendDeliverPlain)->Range(1, 1 << 13);

void BM_SendDeliverContaminating(benchmark::State& state) {
  obs::ResetAll();  // fresh obs state per benchmark: no cross-run bleed
  // Contaminating sends force a real ES materialization and a merge against
  // the receiver's wide label — the slow path netd/idd exercise per message.
  PingPongWorld world(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    world.kernel.WithProcessContext(world.tx, [&](ProcessContext& ctx) {
      Message m;
      m.type = 1;
      SendArgs args;
      args.contaminate = Label({{world.taint, Level::kL2}}, Level::kStar);
      ASB_ASSERT(ctx.Send(world.port, std::move(m), args) == Status::kOk);
    });
    world.kernel.RunUntilIdle();
  }
}
BENCHMARK(BM_SendDeliverContaminating)->Range(1, 1 << 13);

// Words-only messages (handle values, counts): the small-message floor the
// payload plane must not tax. Arg = word count.
void BM_SendDeliverSmallWords(benchmark::State& state) {
  obs::ResetAll();  // fresh obs state per benchmark: no cross-run bleed
  PingPongWorld world(0);
  MessageWords words;
  for (int64_t i = 0; i < state.range(0); ++i) {
    words.push_back(0x51u);
  }
  for (auto _ : state) {
    world.kernel.WithProcessContext(world.tx, [&](ProcessContext& ctx) {
      Message m;
      m.type = 1;
      m.words = words;
      ASB_ASSERT(ctx.Send(world.port, std::move(m)) == Status::kOk);
    });
    world.kernel.RunUntilIdle();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0) * 8);
}
BENCHMARK(BM_SendDeliverSmallWords)->Arg(1)->Arg(8);

void BM_SendDeliverWithPayload(benchmark::State& state) {
  obs::ResetAll();  // fresh obs state per benchmark: no cross-run bleed
  PingPongWorld world(0);
  const Payload payload(std::string(static_cast<size_t>(state.range(0)), 'x'));
  for (auto _ : state) {
    world.kernel.WithProcessContext(world.tx, [&](ProcessContext& ctx) {
      Message m;
      m.type = 1;
      m.data = payload;  // refcount bump; send/enqueue/deliver move it
      ASB_ASSERT(ctx.Send(world.port, std::move(m)) == Status::kOk);
    });
    world.kernel.RunUntilIdle();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_SendDeliverWithPayload)->Range(16, 1 << 16);

// 1→K fan-out, one buffer: the sender stamps the SAME Payload onto K
// messages, so every queue entry and every delivery shares one allocation.
// The payload.* counter deltas are the proof — bytes_shared_saved grows by
// (K-1)·size per iteration while cow_copies stays flat.
void BM_FanOutSharedPayload(benchmark::State& state) {
  obs::ResetAll();  // fresh obs state per benchmark: no cross-run bleed
  const size_t fanout = static_cast<size_t>(state.range(0));
  const size_t bytes = 64 * 1024;
  PingPongWorld world(0);
  std::vector<Handle> ports;
  world.kernel.WithProcessContext(world.rx, [&](ProcessContext& ctx) {
    for (size_t k = 0; k < fanout; ++k) {
      Handle p = ctx.NewPort(Label::Top());
      ASB_ASSERT(ctx.SetPortLabel(p, Label::Top()) == Status::kOk);
      ports.push_back(p);
    }
  });
  const Payload payload(std::string(bytes, 'x'));
  const PayloadStats before = GetPayloadStats();
  for (auto _ : state) {
    world.kernel.WithProcessContext(world.tx, [&](ProcessContext& ctx) {
      for (Handle p : ports) {
        Message m;
        m.type = 1;
        m.data = payload;
        ASB_ASSERT(ctx.Send(p, std::move(m)) == Status::kOk);
      }
    });
    world.kernel.RunUntilIdle();
  }
  const PayloadStats after = GetPayloadStats();
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * fanout * bytes));
  state.counters["fanout"] = static_cast<double>(fanout);
  // Bytes a copying design would have duplicated, per delivered message —
  // ≈ payload size when sharing works, 0 if a copy sneaks back in.
  state.counters["bytes_shared_saved_per_msg"] = benchmark::Counter(
      static_cast<double>(after.bytes_shared_saved - before.bytes_shared_saved) /
          static_cast<double>(fanout),
      benchmark::Counter::kAvgIterations);
  state.counters["payload_cow_copies"] =
      static_cast<double>(after.cow_copies - before.cow_copies);
}
BENCHMARK(BM_FanOutSharedPayload)->Arg(4)->Arg(16);

// The same fan-out with a fresh buffer per message — what the pre-Payload
// kernel did implicitly. The wall-clock and bytes_shared_saved gap against
// BM_FanOutSharedPayload is the K× copy reduction.
void BM_FanOutPrivatePayload(benchmark::State& state) {
  obs::ResetAll();  // fresh obs state per benchmark: no cross-run bleed
  const size_t fanout = static_cast<size_t>(state.range(0));
  const size_t bytes = 64 * 1024;
  PingPongWorld world(0);
  std::vector<Handle> ports;
  world.kernel.WithProcessContext(world.rx, [&](ProcessContext& ctx) {
    for (size_t k = 0; k < fanout; ++k) {
      Handle p = ctx.NewPort(Label::Top());
      ASB_ASSERT(ctx.SetPortLabel(p, Label::Top()) == Status::kOk);
      ports.push_back(p);
    }
  });
  const std::string body(bytes, 'x');
  for (auto _ : state) {
    world.kernel.WithProcessContext(world.tx, [&](ProcessContext& ctx) {
      for (Handle p : ports) {
        Message m;
        m.type = 1;
        m.data = std::string(body);  // deliberate per-message allocation
        ASB_ASSERT(ctx.Send(p, std::move(m)) == Status::kOk);
      }
    });
    world.kernel.RunUntilIdle();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * fanout * bytes));
  state.counters["fanout"] = static_cast<double>(fanout);
}
BENCHMARK(BM_FanOutPrivatePayload)->Arg(4)->Arg(16);

}  // namespace
}  // namespace asbestos

// Custom main instead of BENCHMARK_MAIN: default the run to writing
// BENCH_ipc.json (JSON results tracked across PRs) and translate the
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
    args.emplace_back("--benchmark_out=BENCH_ipc.json");
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
  asbestos::obs::Registry::Get().WriteSnapshotFile("BENCH_ipc.metrics.json");
  return 0;
}
