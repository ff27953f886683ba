// Bench-side spans: the host-time trace bench_e2e records around every call
// it makes into a layer (setup, loadgen.step, machine.pump, repl.link_step,
// repl.follower_pump, and open-loop probes) and one `request` span per
// request.
//
// Each span carries both clocks: host nanoseconds since the run began and
// the simulator's virtual cycle clock, so a slow host call can be matched to
// the modelled work it performed. Spans are kept in memory and serialized
// once, after the measured phase. Only the traced repetition records; a
// disabled recorder costs one branch per Begin/End.
#ifndef BENCH_E2E_SPANS_H_
#define BENCH_E2E_SPANS_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "src/sim/cycles.h"

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// `s` as a JSON string literal.
inline std::string JsonQuote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

class SpanRecorder {
 public:
  struct Span {
    uint32_t name = 0;
    uint32_t parent = 0;  // span id (index + 1); 0 = top level
    uint64_t request = 0;  // request id for `request` spans, else 0
    int64_t host_start_ns = 0;
    int64_t host_end_ns = 0;
    uint64_t cycles_start = 0;
    uint64_t cycles_end = 0;
  };

  explicit SpanRecorder(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  // Opens a span and returns its id (0 when recording is off).
  uint32_t Begin(const char* name, uint32_t parent, uint64_t request = 0) {
    if (!enabled_) {
      return 0;
    }
    Span s;
    s.name = NameId(name);
    s.parent = parent;
    s.request = request;
    s.host_start_ns = NowNs();
    s.cycles_start = asbestos::GetCycleAccounting().now();
    spans_.push_back(s);
    return static_cast<uint32_t>(spans_.size());
  }

  void End(uint32_t id) {
    if (id == 0) {
      return;
    }
    Span& s = spans_[id - 1];
    s.host_end_ns = NowNs();
    s.cycles_end = asbestos::GetCycleAccounting().now();
  }

  // {"fields": [...], "names": [...], "spans": [[...], ...]}.
  std::string ToJson() const {
    std::string out =
        "{\"fields\": [\"name\", \"id\", \"parent\", \"request\", \"host_start_ns\", "
        "\"host_end_ns\", \"cycles_start\", \"cycles_end\"], \"names\": [";
    for (size_t i = 0; i < names_.size(); ++i) {
      out += (i == 0 ? "\"" : ", \"") + names_[i] + "\"";
    }
    out += "], \"spans\": [";
    char buf[192];
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::snprintf(buf, sizeof(buf), "%s[%u, %zu, %u, %llu, %lld, %lld, %llu, %llu]",
                    i == 0 ? "" : ", ", s.name, i + 1, s.parent,
                    static_cast<unsigned long long>(s.request),
                    static_cast<long long>(s.host_start_ns),
                    static_cast<long long>(s.host_end_ns),
                    static_cast<unsigned long long>(s.cycles_start),
                    static_cast<unsigned long long>(s.cycles_end));
      out += buf;
    }
    out += "]}";
    return out;
  }

  // Host self time per span name: each span's duration minus the durations
  // of its children. `request` spans overlap the loop spans that serve them,
  // so they are left out on both sides.
  std::map<std::string, double> SelfSecondsByName() const {
    std::vector<int64_t> child_ns(spans_.size(), 0);
    const uint32_t request_name = FindName("request");
    for (const Span& s : spans_) {
      if (s.parent != 0 && s.name != request_name) {
        child_ns[s.parent - 1] += s.host_end_ns - s.host_start_ns;
      }
    }
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.name != request_name) {
        out[names_[s.name]] +=
            static_cast<double>(s.host_end_ns - s.host_start_ns - child_ns[i]) / 1e9;
      }
    }
    return out;
  }

 private:
  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
  }

  uint32_t NameId(const char* name) {
    const uint32_t id = FindName(name);
    if (id != UINT32_MAX) {
      return id;
    }
    names_.emplace_back(name);
    return static_cast<uint32_t>(names_.size() - 1);
  }

  uint32_t FindName(const char* name) const {
    for (size_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == name) {
        return static_cast<uint32_t>(i);
      }
    }
    return UINT32_MAX;
  }

  bool enabled_;
  Clock::time_point origin_;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
};

}  // namespace e2e

#endif  // BENCH_E2E_SPANS_H_
