// Hash-consing of label representations (the canonical-rep layer).
//
// The paper makes labels ref-counted, copy-on-write, and immutable (§5.6) so
// entities can share label memory; this layer takes the next step and makes
// extensionally equal labels share ONE canonical rep. Every construction
// that finishes a label from sorted entries (LabelBuilder::Build — and
// through it codec::ReadLabel — plus the merge paths of Lub/Glb/StarsOnly
// and Label::Parse) probes a global structural-hash table before allocating:
// on a hit the existing canonical rep is shared, on a miss the fresh rep is
// registered as canonical. Store recovery of N records carrying the same
// label therefore allocates one rep, and the kernel can treat label identity
// as a pointer comparison.
//
// Identity contract (what the kernel's check cache relies on):
//   * every rep carries a 64-bit id, unique since process start;
//   * an id value refers to exactly one extensional label content, forever:
//     canonical reps are immutable (copy-on-write clones them before any
//     mutation), and non-canonical reps get a FRESH id on every in-place
//     mutation — so a (rep id → anything derived from its content) cache
//     never needs invalidation, only capacity eviction;
//   * two simultaneously-live canonical reps are structurally distinct,
//     which makes canonical-vs-canonical equality a pointer/id comparison.
//
// The table holds weak references: a canonical rep unregisters itself when
// its last owner drops it, so interning never pins dead labels. Table index
// overhead is accounted separately (KernelMemReport) from the label heap the
// reps themselves occupy (LabelMemStats).
//
// The table is one open-addressing array of (structural hash, rep) slots:
// linear probing from slot `hash & (slots - 1)`, doubling when an insert
// would pass half full, and backward-shift erase (no tombstones), so
// registering and unregistering a rep allocate nothing. Its host bytes are
// not the modelled index bytes (kLabelInternEntryBytes per live rep).
//
// Lub memo: the asymmetric small ⊔ big with a one-entry small side (every
// send's ES = PS ⊔ {uT 3, ⋆}) is remembered in a constant-size,
// direct-mapped memo keyed by (big rep id, small default, small entry). A
// miss builds the result with Label::Set and canonicalizes it, and records
// the result's id and hash and the entries_visited its build measured. A
// hit finds that rep in the table by id with an uncounted InternFind, then
// replays the recorded work and counts the probe, hit and dedup bytes
// Canonicalize would have counted on finding it, so LabelWorkStats and
// LabelInternStats are the same with and without the memo. The rule that
// keeps `label_bytes` honest: the memo never pins a rep. It holds ids and
// hashes only; when the remembered rep has died, the merge is built and
// charged as if the memo were empty.
//
// Cost accounting: the intern machinery itself (hashing, probing, table
// upkeep) is invisible to the work counters (LabelWorkStats) — it is an
// implementation artifact the paper's linear cost model must not see. Note
// one deliberate interaction: the label algebra's pre-existing
// pointer-identity fast paths (Lub/Glb/Leq on `a == b`, sanctioned by §5.6's
// "entities share label memory, so common comparisons are O(1)") fire more
// often once equal constructions share a rep, and charge as the fast-path
// hits they always were. The *check cache* (src/kernel/label_checks.h) makes
// the stronger guarantee: cached-vs-uncached charged cycles are
// bit-identical, because hits replay the recorded uncached cost.
#ifndef SRC_LABELS_INTERN_H_
#define SRC_LABELS_INTERN_H_

#include <cstddef>
#include <cstdint>

#include "src/base/hash.h"

namespace asbestos {

// Cumulative interning counters. `hits` are constructions that reused a live
// canonical rep instead of allocating (`bytes_saved` sums the rep + chunk
// heap they avoided); `misses` registered a new canonical rep.
struct LabelInternStats {
  uint64_t probes = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t bytes_saved = 0;
  int64_t live_canonical = 0;  // reps currently registered in the table
};

const LabelInternStats& GetLabelInternStats();
// Zeroes the counters; live_canonical tracks live state and is preserved.
void ResetLabelInternStats();

namespace internal {

struct LabelRep;  // defined in label.cc

// Monotonic rep-id source (never reuses a value; 0 is never issued).
uint64_t InternNextRepId();

// The structural hash the intern table buckets on is order-independent:
//
//   hash = seed(default level) + Σ mix(packed entry)   (mod 2^64)
//
// so every rep keeps its hash current in O(1) per entry change (Label::Set
// subtracts the old entry's mix and adds the new one), builders accumulate
// it as they append, and canonicalizing a label never rehashes it. Both
// terms are one HashMix64 round (src/base/hash.h): in-memory only, free to
// change.
inline uint64_t InternHashSeed(uint8_t default_ordinal) {
  return HashMix64(kFnv1aOffsetBasis, default_ordinal);
}
inline uint64_t InternHashEntry(uint64_t packed_entry) {
  return HashMix64(kFnv1aOffsetBasis, packed_entry);
}

// The same hash recomputed from scratch over a flat entry array: the
// reference Label::CheckRep holds every rep's incremental hash to.
uint64_t InternHashEntries(uint8_t default_ordinal, const uint64_t* entries, size_t count);

// Probes the table bucket for `hash`, calling `match` on each candidate
// until it returns true. Returns the matching canonical rep (caller must
// take its own reference) or nullptr. Counts a probe; the caller reports the
// outcome via InternNoteDedup (hit) or InternInsert (miss).
using InternMatchFn = bool (*)(const LabelRep* candidate, const void* ctx);
LabelRep* InternLookup(uint64_t hash, InternMatchFn match, const void* ctx);
// InternLookup without the probe count: for a caller that counts the probe
// only when it uses what it finds (InternNoteProbedDedup).
LabelRep* InternFind(uint64_t hash, InternMatchFn match, const void* ctx);

// Registers `rep` as the canonical rep for `hash` (a miss).
void InternInsert(uint64_t hash, LabelRep* rep);
// Unregisters a canonical rep (called from the rep's free path).
void InternErase(uint64_t hash, const LabelRep* rep);
// Records a dedup hit and the heap bytes it avoided allocating.
void InternNoteDedup(uint64_t bytes_saved);
// Counts a probe and its dedup hit together, as InternLookup followed by
// InternNoteDedup would.
void InternNoteProbedDedup(uint64_t bytes_saved);

// Empties the Lub memo (defined in label.cc; obs::ResetAll calls it).
void ResetLubMemo();

}  // namespace internal
}  // namespace asbestos

#endif  // SRC_LABELS_INTERN_H_
