#include "src/obs/event_log.h"

#include <algorithm>
#include <array>
#include <cstdio>

#include "src/kernel/label_checks.h"
#include "src/obs/metrics.h"
#include "src/sim/cycles.h"

namespace asbestos {
namespace obs {

namespace {

// The log's own label algebra (gates, trace lubs, clearance checks) must be
// invisible to the paper's linear work counters: observing an event cannot
// change the Figure-9 label-work attribution of the event being observed.
// Restores LabelWorkStats on scope exit.
class ScopedWorkStatsShield {
 public:
  ScopedWorkStatsShield() : saved_(GetLabelWorkStats()) {}
  ~ScopedWorkStatsShield() { GetLabelWorkStats() = saved_; }

  ScopedWorkStatsShield(const ScopedWorkStatsShield&) = delete;
  ScopedWorkStatsShield& operator=(const ScopedWorkStatsShield&) = delete;

 private:
  LabelWorkStats saved_;
};

// Every explicitly-mentioned handle to level 3, default at least 1. Knowing
// that an event touched compartment h is as secret as h-data itself,
// regardless of the LEVEL the event moved (a ⋆ grant is the extreme case:
// the label says ⋆, the knowledge is worth 3).
Label ExposureGate(const Label& l) {
  LabelBuilder b(LevelMax(l.default_level() == Level::kL3 ? Level::kL1 : l.default_level(),
                          Level::kL1));
  for (auto it = l.IterateEntries(); !it.done(); it.Advance()) {
    b.Append(it.handle(), Level::kL3);
  }
  return b.Build();
}

Label GateOf(const Record& r) {
  switch (r.kind) {
    case RecordKind::kSpan:
    case RecordKind::kContaminate:
    case RecordKind::kAdopt:
      return r.label;
    case RecordKind::kOrigin:
    case RecordKind::kGrant:
    case RecordKind::kDeclassify:
      return ExposureGate(r.label);
    case RecordKind::kRefusal:
      return Label::Lub(r.label, ExposureGate(r.label));
  }
  return Label::Top();
}

Counter& KindCounter(RecordKind k) {
  static const std::array<Counter*, kNumRecordKinds> counters = [] {
    std::array<Counter*, kNumRecordKinds> c{};
    for (unsigned i = 0; i < kNumRecordKinds; ++i) {
      c[i] = &Registry::Get().counter(std::string("obs.log.") +
                                      RecordKindName(static_cast<RecordKind>(i)));
    }
    return c;
  }();
  return *counters[static_cast<unsigned>(k)];
}

}  // namespace

const char* RecordKindName(RecordKind k) {
  switch (k) {
    case RecordKind::kSpan:
      return "span";
    case RecordKind::kOrigin:
      return "origin";
    case RecordKind::kContaminate:
      return "contaminate";
    case RecordKind::kGrant:
      return "grant";
    case RecordKind::kDeclassify:
      return "declassify";
    case RecordKind::kAdopt:
      return "adopt";
    case RecordKind::kRefusal:
      return "refusal";
  }
  return "?";
}

bool EventLog::enabled_ = false;

EventLog& EventLog::Get() {
  static EventLog* log = new EventLog();
  return *log;
}

void EventLog::Span(uint64_t trace_id, const std::string& component,
                    const std::string& name, const std::string& detail, const Label& label) {
  Record r;
  r.kind = RecordKind::kSpan;
  r.trace_id = trace_id;
  r.subject = component;
  r.name = name;
  r.detail = detail;
  r.label = label;
  Append(std::move(r));
}

void EventLog::Edge(RecordKind kind, const std::string& subject, const std::string& source,
                    uint64_t pre_rep, uint64_t post_rep, const Label& cause,
                    uint64_t trace_id) {
  Record r;
  r.kind = kind;
  r.trace_id = trace_id;
  r.subject = subject;
  r.source = source;
  r.label = cause;
  r.pre_rep = pre_rep;
  r.post_rep = post_rep;
  Append(std::move(r));
}

void EventLog::Refusal(const std::string& site, const std::string& subject,
                       const std::string& detail, uint64_t handle, Level observed,
                       Level bound, const Label& es, const Label& bound_label,
                       uint64_t trace_id) {
  Record r;
  r.kind = RecordKind::kRefusal;
  r.trace_id = trace_id;
  r.name = site;
  r.subject = subject;
  r.detail = detail;
  r.label = es;
  r.bound_rep = bound_label.rep_id();
  r.handle = handle;
  r.observed = observed;
  r.bound = bound;
  Append(std::move(r));
}

void EventLog::Append(Record r) {
  if (!enabled_) {
    return;
  }
  ScopedWorkStatsShield shield;
  r.seq = next_seq_++;
  r.at_cycles = GetCycleAccounting().now();
  r.gate = GateOf(r);
  if (r.trace_id != 0) {
    auto [it, fresh] = gates_.try_emplace(r.trace_id);
    TraceEntry& e = it->second;
    if (fresh) {
      // A trace below the watermark had records that were all evicted: its
      // history is gone, so its gate can no longer be known to be low.
      e.gate = r.trace_id < retired_below_ ? Label::Top() : r.gate;
    } else {
      e.gate = Label::Lub(e.gate, r.gate);
    }
    e.live += 1;
  }
  KindCounter(r.kind).Add();
  records_.push_back(std::move(r));
  while (records_.size() > capacity_) {
    EvictOldest();
  }
}

void EventLog::EvictOldest() {
  const uint64_t tid = records_.front().trace_id;
  records_.pop_front();
  if (tid == 0) {
    return;
  }
  auto it = gates_.find(tid);
  if (--it->second.live == 0) {
    gates_.erase(it);
    retired_below_ = std::max(retired_below_, tid + 1);
  }
}

Label EventLog::TraceGate(uint64_t trace_id) const {
  if (trace_id == 0) {
    return Label::Bottom();
  }
  auto it = gates_.find(trace_id);
  if (it != gates_.end()) {
    return it->second.gate;
  }
  return trace_id < retired_below_ ? Label::Top() : Label::Bottom();
}

void EventLog::SetCapacity(size_t cap) {
  capacity_ = cap == 0 ? 1 : cap;
  while (records_.size() > capacity_) {
    EvictOldest();
  }
}

void EventLog::Clear() {
  records_.clear();
  gates_.clear();
  retired_below_ = 0;
  next_seq_ = 0;
}

// Reading a record is delivering its history to the reader: the Figure-4
// rule ES ⊑ (QR ⊔ DR) ⊓ V ⊓ pR with QR = clearance, DR = ⊥, V = pR = ⊤
// reduces to gate ⊑ clearance.
bool Reader::Flows(const Label& gate) const {
  ScopedWorkStatsShield shield;
  uint64_t work = 0;
  return CheckDeliveryAllowed(gate, clearance_, Label::Bottom(), Label::Top(), Label::Top(),
                              &work);
}

bool Reader::CanObserve(const Record& r) const {
  ScopedWorkStatsShield shield;
  return Flows(Label::Lub(r.gate, EventLog::Get().TraceGate(r.trace_id)));
}

bool Reader::CanObserveTrace(uint64_t trace_id) const {
  return Flows(EventLog::Get().TraceGate(trace_id));
}

std::vector<Record> Reader::Visible(KindMask kinds) const {
  std::vector<Record> out;
  for (const Record& r : EventLog::Get().records()) {
    if ((kinds & KindBit(r.kind)) != 0 && CanObserve(r)) {
      out.push_back(r);
    }
  }
  return out;
}

size_t Reader::VisibleCount(KindMask kinds) const {
  size_t n = 0;
  for (const Record& r : EventLog::Get().records()) {
    if ((kinds & KindBit(r.kind)) != 0 && CanObserve(r)) {
      ++n;
    }
  }
  return n;
}

std::string Reader::VisibleJson(KindMask kinds) const {
  std::string out = "[";
  bool first = true;
  char buf[128];
  for (const Record& r : Visible(kinds)) {
    out += first ? "\n  {" : ",\n  {";
    first = false;
    std::snprintf(buf, sizeof(buf), "\"trace_id\": %llu, \"seq\": %llu, \"at_cycles\": %llu, ",
                  static_cast<unsigned long long>(r.trace_id),
                  static_cast<unsigned long long>(r.seq),
                  static_cast<unsigned long long>(r.at_cycles));
    out += buf;
    out += std::string("\"kind\": \"") + RecordKindName(r.kind) + "\", ";
    out += "\"name\": \"" + EscapeJson(r.name) + "\", ";
    out += "\"subject\": \"" + EscapeJson(r.subject) + "\", ";
    out += "\"source\": \"" + EscapeJson(r.source) + "\", ";
    out += "\"detail\": \"" + EscapeJson(r.detail) + "\", ";
    out += "\"label\": \"" + EscapeJson(r.label.ToString()) + "\"}";
  }
  out += first ? "]" : "\n]";
  return out;
}

namespace {

// Does this edge speak about `handle`? Contamination/adoption edges mention
// it when the label carries taint there (≥ 2); privilege/origin edges when
// the label names it explicitly (the interesting levels are ⋆ and 0, below
// every default).
bool EdgeMentions(const Record& e, uint64_t handle) {
  const Handle h = Handle::FromValue(handle);
  if (e.kind == RecordKind::kContaminate || e.kind == RecordKind::kAdopt) {
    return LevelLeq(Level::kL2, e.label.Get(h));
  }
  return e.label.HasExplicit(h);
}

}  // namespace

std::vector<TaintHop> Reader::WhyTainted(const std::string& subject, uint64_t handle) const {
  ScopedWorkStatsShield shield;
  const auto& records = EventLog::Get().records();
  std::vector<TaintHop> chain;
  std::string current = subject;
  // Each hop must be strictly older than the previous one, which also makes
  // the walk terminate.
  uint64_t below_seq = ~0ULL;
  while (true) {
    const Record* found = nullptr;
    for (auto it = records.rbegin(); it != records.rend(); ++it) {
      if (it->seq < below_seq && (KindBit(it->kind) & kEdges) != 0 &&
          it->subject == current && EdgeMentions(*it, handle)) {
        found = &*it;
        break;
      }
    }
    if (found == nullptr) {
      break;
    }
    // All or nothing: a partial chain would reveal the shape of history the
    // reader is not cleared for.
    if (!CanObserve(*found)) {
      return {};
    }
    TaintHop hop;
    hop.edge = *found;
    hop.via = found->subject;
    if (!found->source.empty()) {
      hop.via += " \xe2\x86\x90 " + found->source;  // "subject ← source"
    }
    hop.via += std::string(" [") + RecordKindName(found->kind) + "]";
    below_seq = found->seq;
    chain.push_back(std::move(hop));
    if (found->kind == RecordKind::kOrigin || found->source.empty()) {
      break;
    }
    current = found->source;
  }
  return chain;
}

}  // namespace obs
}  // namespace asbestos
