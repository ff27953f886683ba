// Baseline comparators: Apache 1.3 (+CGI) and "Mod-Apache" on Linux.
//
// The paper compares OKWS-on-Asbestos against Apache with a forked CGI
// binary per request and against the same service compiled into the server
// ("Mod-Apache"), both on a mature Unix kernel (paper §9.2). These exist to
// anchor the crossover points of Figures 7 and 8, so they are deterministic
// closed-loop cost models over a single simulated CPU, calibrated against
// the paper's own measurements (Mod-Apache ≈ 2,800 conn/s and 999 µs median;
// Apache+CGI ≈ 1,050 conn/s and 3,374 µs median; see src/sim/costs.h and
// README "Reproducing Figures 6–9"). Neither provides any inter-user isolation — that is the
// point of the comparison.
#ifndef SRC_BASELINE_UNIX_SIM_H_
#define SRC_BASELINE_UNIX_SIM_H_

#include <cstdint>
#include <vector>

#include "src/base/rng.h"

namespace asbestos {

enum class ApacheMode {
  kCgi,     // pre-forked pool + fork/exec of the CGI binary per request
  kModule,  // handler compiled into the server process ("Mod-Apache")
};

struct ApacheConfig {
  ApacheMode mode = ApacheMode::kCgi;
  int pool_size = 400;  // paper: 400 for Apache, 16 for Mod-Apache
  uint64_t seed = 1;
  uint64_t request_bytes = 90;    // typical GET with auth header
  uint64_t response_bytes = 144;  // paper: 144-byte responses
};

struct BaselineRequestResult {
  uint64_t arrival_cycles = 0;
  uint64_t completion_cycles = 0;
  uint64_t latency_cycles() const { return completion_cycles - arrival_cycles; }
};

struct BaselineRunStats {
  std::vector<BaselineRequestResult> requests;
  uint64_t total_cycles = 0;

  double throughput_per_sec(double cpu_hz) const;
  uint64_t latency_percentile_cycles(double pct) const;  // pct in (0,100]
};

class UnixApacheSim {
 public:
  explicit UnixApacheSim(const ApacheConfig& config) : config_(config), rng_(config.seed) {}

  // Closed-loop run: `concurrency` clients each issue their next request as
  // soon as the previous one completes, until n_requests have been served.
  BaselineRunStats Run(uint64_t n_requests, int concurrency);

  // Cycles of CPU work one request costs (before queueing). Exposed for
  // tests; `jitter` indexes the deterministic per-request variability.
  uint64_t RequestServiceCycles(uint64_t request_index);

 private:
  ApacheConfig config_;
  Rng rng_;
};

}  // namespace asbestos

#endif  // SRC_BASELINE_UNIX_SIM_H_
