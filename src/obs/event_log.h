// One bounded, clearance-gated event log.
//
// Everything the observability plane remembers about what happened — and
// why labels are what they are — is one stream of Records:
//
//   span         a hop of a request (netd accept, demux dispatch, worker,
//                dbproxy statement, replication ship/apply, kernel delivery)
//                stamped with the contamination label of the message that
//                produced it
//   origin       a handle was minted / a process raised its own taint
//   contaminate  receive-side lub in the delivery pump: QS ← QS ⊔ (ES ⊓ QS⋆)
//   grant        ⋆ privilege exercised via D_S / D_R
//   declassify   a verify label V lowered the delivery bound
//   adopt        a replicated record's secrecy label adopted on apply
//   refusal      a refusal site's exact failing comparison: which handle,
//                the level presented, the bound it exceeded
//
// A trace id is minted where a request enters the system (netd accept, a
// replication session hello) and rides the kernel Message envelope, so one
// labeled request can be followed end to end, and Reader::WhyTainted walks
// the edge records of a process back to the taint's origin.
//
// In an IFC system this history is state, and reading it is a delivery.
// Every record carries a gate — the secrecy of knowing it exists:
//   span, contaminate, adopt    the label itself (the taint is the secret);
//   origin, grant, declassify   ExposureGate(label): every explicit handle
//                               at 3, default at least 1, because a ⋆/0-
//                               shaped privilege label would gate nothing,
//                               yet which handles a process holds ⋆ for is
//                               itself a disclosure;
//   refusal                     the presented label lub its exposure.
// Each trace also has a gate, the lub of every gate it has appended. A
// Reader at clearance C sees a record iff lub(record gate, trace gate) ⊑ C,
// decided by the kernel's own CheckDeliveryAllowed. A trace is as secret as
// its most secret record, so a low reader can neither read nor COUNT a
// secret request by its early public records (tests/covert_channel_test.cc).
//
// Memory is bounded: the ring holds at most capacity() records, and a
// trace's gate lives only while the trace has live records. When its last
// record is evicted the gate is erased and a retirement watermark advances
// past the trace id; a later record of a trace below the watermark with no
// live gate is gated at ⊤ — its history is gone, so nothing about it may be
// assumed public. Hence at most capacity() records and capacity() gates.
//
// The log is DISABLED by default behind one global bool, so instrumented hot
// paths cost one branch when off. Appending and reading never charge virtual
// cycles and never perturb LabelWorkStats (the log's own label algebra is
// shielded), so the Figure 6-9 attribution does not depend on the log.
#ifndef SRC_OBS_EVENT_LOG_H_
#define SRC_OBS_EVENT_LOG_H_

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/labels/label.h"

namespace asbestos {
namespace obs {

enum class RecordKind : uint8_t {
  kSpan = 0,
  kOrigin = 1,
  kContaminate = 2,
  kGrant = 3,
  kDeclassify = 4,
  kAdopt = 5,
  kRefusal = 6,
};
constexpr unsigned kNumRecordKinds = 7;

const char* RecordKindName(RecordKind k);

// A set of record kinds, for filtering a Reader's view.
using KindMask = uint32_t;
constexpr KindMask KindBit(RecordKind k) { return 1u << static_cast<unsigned>(k); }
constexpr KindMask kAllKinds = (1u << kNumRecordKinds) - 1;
constexpr KindMask kSpans = KindBit(RecordKind::kSpan);
constexpr KindMask kRefusals = KindBit(RecordKind::kRefusal);
constexpr KindMask kEdges = kAllKinds & ~kSpans & ~kRefusals;

struct Record {
  RecordKind kind = RecordKind::kSpan;
  uint64_t seq = 0;        // global append order (monotone)
  uint64_t at_cycles = 0;  // virtual clock at append
  uint64_t trace_id = 0;   // flow id of the producing message (0 = untraced)
  std::string name;        // span name ("netd.accept") or refusal site
  std::string subject;     // span: emitting module; edge: entity whose label
                           // changed; refusal: the refused entity
  std::string source;      // edge: where it came from ("" for origins)
  std::string detail;      // span context; refusal's failing comparison
  // span: contamination; edge: the label that moved (ES, D_S, D_R, V, ...);
  // refusal: the presented label.
  Label label = Label::Bottom();
  Label gate = Label::Bottom();   // secrecy of knowing this record exists
  uint64_t pre_rep = 0;           // edge: subject label rep id before ...
  uint64_t post_rep = 0;          // ... and after (equal: no Lub ran)
  uint64_t bound_rep = 0;         // refusal: rep id of the bound label
  uint64_t handle = 0;            // refusal: first failing handle (0: defaults)
  Level observed = Level::kStar;  // refusal: level presented at `handle`
  Level bound = Level::kStar;     // refusal: bound it had to flow below
};

class EventLog {
 public:
  static EventLog& Get();

  // Global on/off switch. Off by default; when off every append is a no-op
  // and call sites skip building labels and strings entirely.
  static bool enabled() { return enabled_; }
  static void SetEnabled(bool on) { enabled_ = on; }

  // Mints a fresh nonzero trace id. Works even when disabled, so ids stay
  // deterministic across enable/disable toggles.
  uint64_t MintTraceId() { return next_trace_id_++; }

  void Span(uint64_t trace_id, const std::string& component, const std::string& name,
            const std::string& detail, const Label& label);
  // `kind` is one of the five edge kinds.
  void Edge(RecordKind kind, const std::string& subject, const std::string& source,
            uint64_t pre_rep, uint64_t post_rep, const Label& cause, uint64_t trace_id);
  void Refusal(const std::string& site, const std::string& subject,
               const std::string& detail, uint64_t handle, Level observed, Level bound,
               const Label& es, const Label& bound_label, uint64_t trace_id);

  // The gate of a trace: lub of every gate it appended while it had live
  // records; ⊤ once retired; ⊥ for untraced (0) or not-yet-seen ids.
  Label TraceGate(uint64_t trace_id) const;

  const std::deque<Record>& records() const { return records_; }
  uint64_t total_appended() const { return next_seq_; }
  // Number of per-trace gates held: at most one per live record.
  size_t live_gates() const { return gates_.size(); }
  size_t capacity() const { return capacity_; }
  void SetCapacity(size_t cap);

  // Drops every record, gate and the watermark (trace ids stay unique).
  void Clear();

 private:
  struct TraceEntry {
    Label gate;
    size_t live = 0;  // records of this trace still in the ring
  };

  EventLog() = default;
  void Append(Record r);
  void EvictOldest();

  static bool enabled_;

  std::deque<Record> records_;
  std::unordered_map<uint64_t, TraceEntry> gates_;
  uint64_t retired_below_ = 0;  // the watermark
  size_t capacity_ = 8192;
  uint64_t next_trace_id_ = 1;
  uint64_t next_seq_ = 0;
};

// One hop of a WhyTainted answer, newest first.
struct TaintHop {
  Record edge;
  std::string via;  // rendered "subject ← source [kind]"
};

// Clearance-gated view of the log. Every method applies the same rule,
// lub(record gate, trace gate) ⊑ clearance, so counting is not a side
// channel around reading.
class Reader {
 public:
  explicit Reader(const Label& clearance) : clearance_(clearance) {}

  bool CanObserve(const Record& r) const;
  // Whether the trace's gate flows to the clearance (⊤ once retired).
  bool CanObserveTrace(uint64_t trace_id) const;

  std::vector<Record> Visible(KindMask kinds = kAllKinds) const;
  size_t VisibleCount(KindMask kinds = kAllKinds) const;
  // Visible records as a JSON array (one object per record, ring order).
  std::string VisibleJson(KindMask kinds = kAllKinds) const;

  // Walks the edges from `subject`'s most recent one mentioning `handle`
  // back to the taint's origin, hopping subject → source. Returns the hop
  // chain newest-first, or an EMPTY chain if any hop on the path is above
  // the clearance — a partial answer would itself leak.
  std::vector<TaintHop> WhyTainted(const std::string& subject, uint64_t handle) const;

 private:
  bool Flows(const Label& gate) const;

  Label clearance_;
};

}  // namespace obs
}  // namespace asbestos

#endif  // SRC_OBS_EVENT_LOG_H_
