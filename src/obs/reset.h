// One switch to drop all observability state between measurement runs.
//
// The benches run several cases in one process and write ONE metrics
// snapshot at exit; without a reset between cases, the snapshot is the sum
// of every case that ran before it and BENCH_*.metrics.json numbers bleed
// across benchmark repetitions. ResetAll() zeroes the registry's stored
// values (counters/gauges/histograms — names and cached references stay
// valid) and clears the event log and the cycle profiler. It does NOT touch
// the virtual cycle clock, the label work/mem stats, or the check caches:
// those are the *measured* state, owned by the harnesses that reset them
// explicitly.
#ifndef SRC_OBS_RESET_H_
#define SRC_OBS_RESET_H_

namespace asbestos {
namespace obs {

void ResetAll();

}  // namespace obs
}  // namespace asbestos

#endif  // SRC_OBS_RESET_H_
