#include "src/obs/profiler.h"

#include <cstdio>

#include "src/obs/metrics.h"
#include "src/sim/cycles.h"

namespace asbestos {
namespace obs {

bool CycleProfiler::enabled_ = false;

CycleProfiler::CycleProfiler() {
  // Module-global gauge group (never unregistered): publishes the flat
  // syscall table and tree totals at snapshot time under obs.prof.*.
  Registry::Get().RegisterGauges([this](GaugeSink& sink) {
    sink.Set("obs.prof.enabled", static_cast<uint64_t>(enabled_ ? 1 : 0));
    uint64_t spans = 0;
    uint64_t self_total = 0;
    for (const auto& [stack, st] : stacks_) {
      spans += st.count;
      self_total += st.self_cycles;
    }
    sink.Set("obs.prof.spans_recorded", spans);
    sink.Set("obs.prof.distinct_stacks", static_cast<uint64_t>(stacks_.size()));
    sink.Set("obs.prof.self_cycles_total", self_total);
    for (const auto& [key, st] : syscalls_) {
      sink.Set("obs.prof.sys." + key + ".cycles", st.cycles);
      sink.Set("obs.prof.sys." + key + ".calls", st.calls);
    }
  });
}

CycleProfiler& CycleProfiler::Get() {
  static CycleProfiler* prof = new CycleProfiler();
  return *prof;
}

void CycleProfiler::Begin(const std::string& name) {
  Frame f;
  f.stack = frames_.empty() ? name : frames_.back().stack + ";" + name;
  f.enter_cycles = GetCycleAccounting().now();
  frames_.push_back(std::move(f));
}

void CycleProfiler::End() {
  if (frames_.empty()) {
    return;
  }
  Frame f = std::move(frames_.back());
  frames_.pop_back();
  uint64_t total = GetCycleAccounting().now() - f.enter_cycles;
  uint64_t self = total >= f.child_cycles ? total - f.child_cycles : 0;
  StackStat& st = stacks_[f.stack];
  st.self_cycles += self;
  st.total_cycles += total;
  st.count += 1;
  // The enclosing span paid these cycles too.
  if (!frames_.empty()) {
    frames_.back().child_cycles += total;
  }
}

void CycleProfiler::AttributeSyscall(const std::string& process,
                                     const char* syscall, uint64_t cycles) {
  SyscallStat& st = syscalls_[process + "." + syscall];
  st.cycles += cycles;
  st.calls += 1;
}

std::string CycleProfiler::CollapsedStacks() const {
  std::string out;
  char buf[32];
  for (const auto& [stack, st] : stacks_) {
    if (st.self_cycles == 0) {
      continue;
    }
    out += stack;
    std::snprintf(buf, sizeof(buf), " %llu\n",
                  static_cast<unsigned long long>(st.self_cycles));
    out += buf;
  }
  return out;
}

void CycleProfiler::Clear() {
  stacks_.clear();
  syscalls_.clear();
}

}  // namespace obs
}  // namespace asbestos
