#include "src/obs/metrics.h"

#include <cmath>
#include <cstdio>
#include <fstream>

namespace asbestos {
namespace obs {

namespace {

int BucketFor(uint64_t v) {
  int b = 0;
  while ((1ull << b) < v && b < CycleHistogram::kBuckets - 1) {
    ++b;
  }
  return b;
}

// JSON number: integral values print without a fraction so snapshot files
// diff cleanly; everything else gets full round-trip precision.
std::string NumberToJson(double v) {
  if (!std::isfinite(v)) {
    return "0";
  }
  double integral = 0;
  if (std::modf(v, &integral) == 0.0 && std::fabs(v) < 9.007199254740992e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    return buf;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string EscapeJson(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void CycleHistogram::Record(uint64_t cycles) {
  ++count_;
  sum_ += cycles;
  if (cycles > max_) {
    max_ = cycles;
  }
  ++buckets_[BucketFor(cycles)];
}

uint64_t CycleHistogram::ApproxQuantile(double q) const {
  if (count_ == 0) {
    return 0;
  }
  if (q < 0) {
    q = 0;
  }
  if (q > 1) {
    q = 1;
  }
  uint64_t target = static_cast<uint64_t>(q * static_cast<double>(count_));
  if (target == 0) {
    target = 1;
  }
  uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += buckets_[i];
    if (seen >= target) {
      uint64_t upper = 1ull << i;
      return upper < max_ ? upper : max_;
    }
  }
  return max_;
}

void CycleHistogram::Reset() {
  count_ = 0;
  sum_ = 0;
  max_ = 0;
  for (int i = 0; i < kBuckets; ++i) {
    buckets_[i] = 0;
  }
}

Registry& Registry::Get() {
  static Registry* r = new Registry();  // leaked; see header
  return *r;
}

Counter& Registry::counter(const std::string& name) {
  return counters_[name];
}

Gauge& Registry::gauge(const std::string& name) { return gauges_[name]; }

CycleHistogram& Registry::histogram(const std::string& name) {
  return histograms_[name];
}

uint64_t Registry::RegisterGauges(GaugeGroupFn fn) {
  uint64_t id = next_group_id_++;
  gauge_groups_.emplace_back(id, std::move(fn));
  return id;
}

void Registry::UnregisterGauges(uint64_t id) {
  for (auto it = gauge_groups_.begin(); it != gauge_groups_.end(); ++it) {
    if (it->first == id) {
      gauge_groups_.erase(it);
      return;
    }
  }
}

void Registry::ResetValues() {
  for (auto& [name, c] : counters_) {
    (void)name;
    c.Reset();
  }
  for (auto& [name, g] : gauges_) {
    (void)name;
    g.Set(0);
  }
  for (auto& [name, h] : histograms_) {
    (void)name;
    h.Reset();
  }
}

std::map<std::string, double> Registry::Snapshot() const {
  std::map<std::string, double> out;
  for (const auto& [name, c] : counters_) {
    out[name] = static_cast<double>(c.value());
  }
  for (const auto& [name, g] : gauges_) {
    out[name] = g.value();
  }
  for (const auto& [name, h] : histograms_) {
    out[name + ".count"] = static_cast<double>(h.count());
    out[name + ".sum"] = static_cast<double>(h.sum());
    out[name + ".max"] = static_cast<double>(h.max());
    out[name + ".avg"] =
        h.count() == 0 ? 0.0
                       : static_cast<double>(h.sum()) /
                             static_cast<double>(h.count());
    out[name + ".p50"] = static_cast<double>(h.ApproxQuantile(0.5));
    out[name + ".p99"] = static_cast<double>(h.ApproxQuantile(0.99));
  }
  for (const auto& [id, fn] : gauge_groups_) {
    (void)id;
    GaugeSink sink;
    fn(sink);
    for (const auto& [name, value] : sink.out_) {
      out[name] = value;  // registration order: latest wins
    }
  }
  return out;
}

std::string Registry::SnapshotJson() const {
  std::map<std::string, double> snap = Snapshot();
  std::string out = "{";
  bool first = true;
  for (const auto& [name, value] : snap) {
    if (!first) {
      out += ",";
    }
    first = false;
    out += "\n  \"";
    out += EscapeJson(name);
    out += "\": ";
    out += NumberToJson(value);
  }
  out += first ? "}" : "\n}";
  return out;
}

bool Registry::WriteSnapshotFile(const std::string& path) const {
  std::ofstream f(path, std::ios::trunc);
  if (!f) {
    return false;
  }
  f << SnapshotJson() << "\n";
  return static_cast<bool>(f);
}

}  // namespace obs
}  // namespace asbestos
