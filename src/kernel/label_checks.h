// Fused evaluation of the Figure-4 label rules for the kernel hot path.
//
// Requirement (1) of send — ES ⊑ (QR ⊔ DR) ⊓ V ⊓ pR — and the contamination
// predicate of Eq. (5) are evaluated without materializing intermediate
// labels. Each function reports the *entry visits a linear merge would have
// performed* through `work`, which the kernel charges as cycles: the paper's
// implementation is linear in label size (§5.6, §9.3) and the cost model
// stays faithful to it even where we compute the same answer faster
// (asymmetric small-versus-huge shapes resolved via level histograms and
// point lookups).
//
// On top of the fused evaluation sits a bounded memo cache keyed on the
// labels' rep ids (src/labels/intern.h). A rep id names one extensional
// content forever — canonical reps are immutable and in-place mutations
// re-key — so cached verdicts never need invalidation and are evicted only
// by capacity. The million-user OKWS hot path re-checks the same
// (ES, QR, DR, V, pR) tuple per request; with hash-consed labels those
// tuples hit the cache and the check collapses to a table probe.
//
// Charged-cycles fidelity: a cache hit replays exactly the `work` and
// LabelWorkStats deltas the uncached evaluation produced at insertion time
// (which are deterministic per id tuple), so Figure-9 cost curves are
// bit-identical to the uncached evaluation; only wall-clock changes. The
// cache is always on. The *Uncached variants are the evaluation it
// memoizes, exported as the reference the fidelity test and the cold
// benchmark rows compare against.
//
// The *Naive variants materialize the label algebra literally and exist as
// the reference semantics for property tests.
#ifndef SRC_KERNEL_LABEL_CHECKS_H_
#define SRC_KERNEL_LABEL_CHECKS_H_

#include <cstdint>

#include "src/labels/label.h"

namespace asbestos {

// True iff ES ⊑ (QR ⊔ DR) ⊓ V ⊓ pR.
bool CheckDeliveryAllowed(const Label& es, const Label& qr, const Label& dr, const Label& v,
                          const Label& pr, uint64_t* work);
bool CheckDeliveryAllowedUncached(const Label& es, const Label& qr, const Label& dr,
                                  const Label& v, const Label& pr, uint64_t* work);
bool CheckDeliveryAllowedNaive(const Label& es, const Label& qr, const Label& dr,
                               const Label& v, const Label& pr);

// True iff QS ⊔ (ES ⊓ QS⋆) differs from QS: some handle has QS(h) ≠ ⋆ and
// ES(h) > QS(h).
bool NeedsContamination(const Label& es, const Label& qs, uint64_t* work);
bool NeedsContaminationUncached(const Label& es, const Label& qs, uint64_t* work);
bool NeedsContaminationNaive(const Label& es, const Label& qs);

// Forensics for a FAILED delivery check: the first (lowest-handle) violating
// comparison and the materialized bound it exceeded. Only meaningful when
// CheckDeliveryAllowed returned false on the same labels. This is the slow,
// explanatory path — it materializes (QR ⊔ DR) ⊓ V ⊓ pR — and is invisible
// to LabelWorkStats/the verdict cache: explaining a refusal for the
// event log must not change the charged cost of refusing.
struct DeliveryRefusal {
  uint64_t handle = 0;  // first failing handle; 0 = the defaults already fail
  Level es_level = Level::kStar;     // ES at that handle (or ES default)
  Level bound_level = Level::kStar;  // bound at that handle (or its default)
  Label bound = Label::Top();        // (QR ⊔ DR) ⊓ V ⊓ pR
};
DeliveryRefusal ExplainDeliveryRefusal(const Label& es, const Label& qr,
                                       const Label& dr, const Label& v,
                                       const Label& pr);

// --- Flow-check verdict cache ------------------------------------------------

// Cumulative counters across both caches (delivery and contamination).
struct LabelCheckCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;      // ran the uncached evaluation and inserted
  uint64_t evictions = 0;   // insertions that displaced a live entry
};

const LabelCheckCacheStats& GetLabelCheckCacheStats();
// Drops every cached verdict and zeroes the stats.
void ResetLabelCheckCache();

// Fixed capacities (entries), exposed for the eviction tests.
inline constexpr size_t kDeliveryCacheSlots = 4096;
inline constexpr size_t kContaminationCacheSlots = 4096;

}  // namespace asbestos

#endif  // SRC_KERNEL_LABEL_CHECKS_H_
