// Hierarchical virtual-cycle profiler over the syscall dispatch table.
//
// The paper's evaluation is cycle attribution (Figure 9), and the simulator
// already charges every component's work to one deterministic virtual clock
// (src/sim/cycles.h). This profiler turns that clock into *call-tree*
// attribution: spans nest ("deliver.ok-demux" → "sys.send" → ...), each
// span's SELF time is its clock delta minus its children's, and the result
// dumps as collapsed-stack flamegraph text (one "a;b;c <self_cycles>" line
// per distinct stack — the format flamegraph.pl and speedscope ingest).
// Alongside the tree it keeps a flat per-(process, syscall) table fed by
// the kernel's dispatch table, exposed as obs.prof.* metrics.
//
// Spans stay on their own machine: a follower's "repl.apply.*" span nests
// under the follower's own "deliver.<process>" span. The event log's
// trace_id, carried by every replication frame, is what correlates the
// primary's ship with the follower's apply (src/obs/event_log.h).
//
// Like the event log (src/obs/event_log.h), the profiler is DISABLED
// by default behind one global bool; every instrumented site pays one
// branch when off and builds no strings. Measurement reads the virtual
// clock but never charges it: profiling must not perturb the Figure-9
// numbers it reports.
#ifndef SRC_OBS_PROFILER_H_
#define SRC_OBS_PROFILER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace asbestos {
namespace obs {

class CycleProfiler {
 public:
  static CycleProfiler& Get();

  static bool enabled() { return enabled_; }
  static void SetEnabled(bool on) { enabled_ = on; }

  // Opens a span nested under the current innermost span (or at top level).
  void Begin(const std::string& name);
  // Closes the innermost span, folding its total into the enclosing span's
  // child time. No-op when no span is open.
  void End();

  // Flat per-(process, syscall) cycle table, fed by Kernel::Dispatch.
  void AttributeSyscall(const std::string& process, const char* syscall,
                        uint64_t cycles);

  struct StackStat {
    uint64_t self_cycles = 0;
    uint64_t total_cycles = 0;
    uint64_t count = 0;
  };
  struct SyscallStat {
    uint64_t cycles = 0;
    uint64_t calls = 0;
  };

  const std::map<std::string, StackStat>& stacks() const { return stacks_; }
  // Keyed "<process>.<syscall>".
  const std::map<std::string, SyscallStat>& syscalls() const {
    return syscalls_;
  }

  // Collapsed-stack flamegraph text: one "stack self_cycles" line per
  // distinct stack with nonzero self time, sorted by stack.
  std::string CollapsedStacks() const;

  // Drops all recorded stats (open spans survive: their End() still runs
  // but records into the fresh tables).
  void Clear();

 private:
  CycleProfiler();

  struct Frame {
    std::string stack;
    uint64_t enter_cycles = 0;
    uint64_t child_cycles = 0;
  };

  static bool enabled_;

  std::vector<Frame> frames_;
  std::map<std::string, StackStat> stacks_;
  std::map<std::string, SyscallStat> syscalls_;
};

// Call-site guard: declared inactive, armed only behind the caller's
// enabled() branch so disabled sites build no span-name strings.
//
//   obs::ProfSpan span;
//   if (obs::CycleProfiler::enabled()) span.Begin("deliver." + proc->name);
class ProfSpan {
 public:
  ProfSpan() = default;
  ~ProfSpan() {
    if (active_) {
      CycleProfiler::Get().End();
    }
  }

  void Begin(const std::string& name) {
    CycleProfiler::Get().Begin(name);
    active_ = true;
  }

  ProfSpan(const ProfSpan&) = delete;
  ProfSpan& operator=(const ProfSpan&) = delete;

 private:
  bool active_ = false;
};

}  // namespace obs
}  // namespace asbestos

#endif  // SRC_OBS_PROFILER_H_
