// The figure benches' OKWS harness (bench/okws_bench_harness.h): a run must
// complete and pass its teardown drift guard with the event log on as well
// as off. Retained log records keep label reps alive past the world, and
// the guard must allow for exactly those.
#include <gtest/gtest.h>

#include "bench/okws_bench_harness.h"
#include "src/obs/event_log.h"

namespace asbestos::bench {
namespace {

OkwsRunConfig SmallRun() {
  OkwsRunConfig config;
  config.sessions = 50;
  config.total_connections = 200;
  return config;
}

TEST(OkwsBenchHarnessTest, SmallRunPassesTheTeardownGuard) {
  const OkwsRunResult r = RunOkwsWorkload(SmallRun());
  EXPECT_EQ(r.connections_completed, 200u);
  EXPECT_EQ(r.failures, 0u);
}

TEST(OkwsBenchHarnessTest, TeardownGuardAllowsLabelsTheEventLogRetains) {
  obs::EventLog& log = obs::EventLog::Get();
  log.Clear();
  obs::EventLog::SetEnabled(true);
  const OkwsRunResult first = RunOkwsWorkload(SmallRun());
  // The log still holds the first world's records; a second run evicts some
  // of them, which frees label heap the guard saw before boot.
  const OkwsRunResult second = RunOkwsWorkload(SmallRun());
  obs::EventLog::SetEnabled(false);
  EXPECT_GT(log.records().size(), 0u);
  EXPECT_GT(log.total_appended(), log.capacity()) << "the ring must have wrapped";
  log.Clear();
  for (const OkwsRunResult& r : {first, second}) {
    EXPECT_EQ(r.connections_completed, 200u);
    EXPECT_EQ(r.failures, 0u);
  }
}

}  // namespace
}  // namespace asbestos::bench
