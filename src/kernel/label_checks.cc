#include "src/kernel/label_checks.h"

#include <array>
#include <cstddef>

#include "src/base/hash.h"
#include "src/obs/metrics.h"

namespace asbestos {

namespace {

constexpr size_t kFusedSmallLimit = 96;  // combined entries for plain merges
constexpr size_t kSparseHighLimit = 64;  // max non-⋆ entries for the sparse path
constexpr size_t kWalkLimit = 64;        // bound labels walked pointwise

Level BoundAt(Level qr, Level dr, Level v, Level pr) {
  return LevelMin(LevelMin(LevelMax(qr, dr), v), pr);
}

// Full k-way merge over the five labels' explicit entries: the literal
// linear evaluation, used for small inputs and as the fallback.
bool CheckDeliveryFullMerge(const Label& es, const Label& qr, const Label& dr, const Label& v,
                            const Label& pr, uint64_t* work) {
  Label::EntryIter iters[5] = {es.IterateEntries(), qr.IterateEntries(), dr.IterateEntries(),
                               v.IterateEntries(), pr.IterateEntries()};
  const Level defaults[5] = {es.default_level(), qr.default_level(), dr.default_level(),
                             v.default_level(), pr.default_level()};
  for (;;) {
    Handle h = Handle::Invalid();
    bool any = false;
    for (auto& it : iters) {
      if (!it.done() && (!any || it.handle() < h)) {
        h = it.handle();
        any = true;
      }
    }
    if (!any) {
      return true;
    }
    Level levels[5];
    for (int i = 0; i < 5; ++i) {
      if (!iters[i].done() && iters[i].handle() == h) {
        levels[i] = iters[i].level();
        iters[i].Advance();
        *work += 1;
      } else {
        levels[i] = defaults[i];
      }
    }
    if (!LevelLeq(levels[0], BoundAt(levels[1], levels[2], levels[3], levels[4]))) {
      return false;
    }
  }
}

bool NeedsContaminationFullMerge(const Label& es, const Label& qs, uint64_t* work) {
  Label::EntryIter ie = es.IterateEntries();
  Label::EntryIter iq = qs.IterateEntries();
  while (!ie.done() || !iq.done()) {
    *work += 1;
    Level le;
    Level lq;
    if (iq.done() || (!ie.done() && ie.handle() < iq.handle())) {
      le = ie.level();
      lq = qs.default_level();
      ie.Advance();
    } else if (ie.done() || iq.handle() < ie.handle()) {
      le = es.default_level();
      lq = iq.level();
      iq.Advance();
    } else {
      le = ie.level();
      lq = iq.level();
      ie.Advance();
      iq.Advance();
    }
    if (lq != Level::kStar && !LevelLeq(le, lq)) {
      return true;
    }
  }
  return false;
}

// --- Flow-check verdict cache ------------------------------------------------
//
// Direct-mapped, fixed capacity. Keys are rep-id tuples: ids name one
// extensional content forever (intern.h), so an entry is valid until
// displaced — there is no invalidation path at all. Each entry records, in
// addition to the verdict, the exact `work` and LabelWorkStats deltas the
// uncached evaluation produced, replayed verbatim on every hit so cycle
// accounting cannot tell the cache exists.

struct CacheStatsDeltas {
  uint64_t work = 0;            // the *work the evaluation added
  uint64_t entries_visited = 0;  // g_work.entries_visited delta (Get probes)
  uint64_t fast_path_hits = 0;   // g_work.fast_path_hits delta
};

// Two-way set-associative with MRU-at-way-0 ordering: a handful of hot
// tuples that collide into one set (the 64-session working set) would
// ping-pong a direct-mapped slot; two ways absorb that without the cost of
// a real LRU structure.
template <size_t KeyArity, size_t Slots>
struct CheckCache {
  static constexpr size_t kWays = 2;
  static constexpr size_t kSets = Slots / kWays;
  static_assert(Slots % kWays == 0, "slot count must split into sets");
  // The set index is a bitmask of the hash; a non-power-of-two set count
  // would silently make part of the cache unreachable.
  static_assert(kSets != 0 && (kSets & (kSets - 1)) == 0,
                "set count must be a power of two");

  struct Entry {
    std::array<uint64_t, KeyArity> key;
    bool valid = false;
    bool verdict = false;
    CacheStatsDeltas deltas;
  };

  std::array<Entry, Slots>* slots = nullptr;  // allocated on first use

  // First entry of the key's set; the set is kWays consecutive entries.
  Entry* SetFor(const std::array<uint64_t, KeyArity>& key) {
    if (slots == nullptr) {
      slots = new std::array<Entry, Slots>();
    }
    uint64_t h = kFnv1aOffsetBasis;
    for (uint64_t k : key) {
      h = HashMix64(h, k);  // shared word mixer, src/base/hash.h
    }
    return &(*slots)[(h & (kSets - 1)) * kWays];
  }

  void Clear() {
    if (slots != nullptr) {
      for (Entry& e : *slots) {
        e.valid = false;
      }
    }
  }
};

LabelCheckCacheStats g_cache_stats;
CheckCache<5, kDeliveryCacheSlots> g_delivery_cache;
CheckCache<2, kContaminationCacheSlots> g_contamination_cache;

// Runs `eval` (the uncached check) while recording the LabelWorkStats and
// *work deltas it produces, then installs the result in `entry`.
template <typename Entry, typename EvalFn>
bool EvaluateAndInsert(Entry& entry, const std::array<uint64_t, std::tuple_size<decltype(entry.key)>::value>& key,
                       uint64_t* work, const EvalFn& eval) {
  const LabelWorkStats before = GetLabelWorkStats();
  uint64_t local_work = 0;
  const bool verdict = eval(&local_work);
  const LabelWorkStats& after = GetLabelWorkStats();
  g_cache_stats.misses += 1;
  if (entry.valid) {
    g_cache_stats.evictions += 1;
  }
  entry.key = key;
  entry.valid = true;
  entry.verdict = verdict;
  entry.deltas.work = local_work;
  entry.deltas.entries_visited = after.entries_visited - before.entries_visited;
  entry.deltas.fast_path_hits = after.fast_path_hits - before.fast_path_hits;
  *work += local_work;
  return verdict;
}

// Replays the recorded cost of the uncached evaluation (cycle-accounting
// fidelity), then returns the memoized verdict.
template <typename Entry>
bool ReplayHit(const Entry& entry, uint64_t* work) {
  g_cache_stats.hits += 1;
  *work += entry.deltas.work;
  LabelWorkStats& stats = GetLabelWorkStats();
  stats.entries_visited += entry.deltas.entries_visited;
  stats.fast_path_hits += entry.deltas.fast_path_hits;
  return entry.verdict;
}

}  // namespace

const LabelCheckCacheStats& GetLabelCheckCacheStats() { return g_cache_stats; }

namespace {
// Metrics-plane window onto the live cache stats. The struct remains the
// storage of record — tests bind references to it across operations — and
// the registry reads it only at snapshot time.
[[maybe_unused]] const uint64_t g_cache_stats_gauges =
    obs::Registry::Get().RegisterGauges([](obs::GaugeSink& sink) {
      sink.Set("kernel.label_cache.hits", g_cache_stats.hits);
      sink.Set("kernel.label_cache.misses", g_cache_stats.misses);
      sink.Set("kernel.label_cache.evictions", g_cache_stats.evictions);
    });
}  // namespace

void ResetLabelCheckCache() {
  g_delivery_cache.Clear();
  g_contamination_cache.Clear();
  g_cache_stats = LabelCheckCacheStats();
}

namespace {

// Probe-or-evaluate over one 2-way set: hits promote to way 0 (MRU), misses
// evaluate uncached and install over an invalid way or the LRU way 1.
template <typename Cache, size_t KeyArity, typename EvalFn>
bool CachedCheck(Cache& cache, const std::array<uint64_t, KeyArity>& key, uint64_t* work,
                 const EvalFn& eval) {
  auto* set = cache.SetFor(key);
  for (size_t way = 0; way < Cache::kWays; ++way) {
    if (set[way].valid && set[way].key == key) {
      if (way != 0) {
        std::swap(set[0], set[way]);
      }
      return ReplayHit(set[0], work);
    }
  }
  auto& victim = !set[0].valid ? set[0] : set[Cache::kWays - 1];
  const bool verdict = EvaluateAndInsert(victim, key, work, eval);
  if (&victim != &set[0]) {
    std::swap(set[0], victim);  // freshly inserted = most recently used
  }
  return verdict;
}

}  // namespace

bool CheckDeliveryAllowed(const Label& es, const Label& qr, const Label& dr, const Label& v,
                          const Label& pr, uint64_t* work) {
  const std::array<uint64_t, 5> key = {es.rep_id(), qr.rep_id(), dr.rep_id(), v.rep_id(),
                                       pr.rep_id()};
  return CachedCheck(g_delivery_cache, key, work, [&](uint64_t* w) {
    return CheckDeliveryAllowedUncached(es, qr, dr, v, pr, w);
  });
}

bool NeedsContamination(const Label& es, const Label& qs, uint64_t* work) {
  const std::array<uint64_t, 2> key = {es.rep_id(), qs.rep_id()};
  return CachedCheck(g_contamination_cache, key, work, [&](uint64_t* w) {
    return NeedsContaminationUncached(es, qs, w);
  });
}

bool CheckDeliveryAllowedUncached(const Label& es, const Label& qr, const Label& dr,
                                  const Label& v, const Label& pr, uint64_t* work) {
  const Level bound_default =
      BoundAt(qr.default_level(), dr.default_level(), v.default_level(), pr.default_level());
  if (!LevelLeq(es.default_level(), bound_default)) {
    return false;  // decisive: unboundedly many unmentioned handles
  }
  // Extrema fast path: everything in ES is below everything in the bound.
  const Level bound_min =
      BoundAt(qr.min_level(), dr.min_level(), v.min_level(), pr.min_level());
  if (LevelLeq(es.max_level(), bound_min)) {
    GetLabelWorkStats().fast_path_hits += 1;
    return true;
  }

  const Label* bounds[4] = {&qr, &dr, &v, &pr};
  const size_t total = es.entry_count() + qr.entry_count() + dr.entry_count() +
                       v.entry_count() + pr.entry_count();
  if (total <= kFusedSmallLimit) {
    return CheckDeliveryFullMerge(es, qr, dr, v, pr, work);
  }
  // Charge the scan the paper's linear implementation performs, whatever
  // shortcut decides the answer below (§5.6/§9.3 cost fidelity).
  *work += total;

  // Sparse-high scheme. ⋆ entries in ES can never violate a ≤ bound, so if
  // ES has few non-⋆ entries (netd's and idd's send labels are ⋆ for every
  // user handle), checking ES reduces to point probes. Bound labels are
  // walked pointwise while small; huge ones (netd's receive label) are
  // covered wholesale through their cached minima.
  if (es.CountEntriesAbove(Level::kStar) <= kSparseHighLimit) {
    bool sound = true;
    // (a) every non-⋆ ES entry, pointwise.
    for (Label::NonStarIter it = es.IterateNonStarEntries(); !it.done(); it.Advance()) {
      const Handle h = it.handle();
      if (!LevelLeq(it.level(),
                    BoundAt(qr.Get(h), dr.Get(h), v.Get(h), pr.Get(h)))) {
        return false;
      }
    }
    // (b) handles explicit in small bound labels, pointwise (ES falls back
    // to its default or a ⋆ entry there; both handled by Get).
    bool any_deferred = false;
    for (const Label* b : bounds) {
      if (b->entry_count() > kWalkLimit) {
        any_deferred = true;
        continue;
      }
      for (Label::EntryIter it = b->IterateEntries(); !it.done(); it.Advance()) {
        const Handle h = it.handle();
        const Level es_h = es.Get(h);
        if (es_h == Level::kStar) {
          continue;
        }
        if (!LevelLeq(es_h, BoundAt(qr.Get(h), dr.Get(h), v.Get(h), pr.Get(h)))) {
          return false;
        }
      }
    }
    // (c) handles living only in deferred (huge) bound labels: ES is at its
    // default (non-⋆ ES entries were handled in (a)); the bound there is at
    // least the combination of every label's minimum, so one comparison
    // covers them all. If it fails we cannot decide wholesale.
    if (any_deferred) {
      Level floors[4];
      for (int i = 0; i < 4; ++i) {
        floors[i] = bounds[i]->entry_count() > kWalkLimit ? bounds[i]->min_level()
                                                          : bounds[i]->default_level();
      }
      if (!LevelLeq(es.default_level(),
                    BoundAt(floors[0], floors[1], floors[2], floors[3]))) {
        sound = false;
      }
    }
    if (sound) {
      return true;
    }
  }
  return CheckDeliveryFullMerge(es, qr, dr, v, pr, work);
}

bool CheckDeliveryAllowedNaive(const Label& es, const Label& qr, const Label& dr,
                               const Label& v, const Label& pr) {
  return es.Leq(Label::Glb(Label::Glb(Label::Lub(qr, dr), v), pr));
}

bool NeedsContaminationUncached(const Label& es, const Label& qs, uint64_t* work) {
  if (LevelLeq(es.max_level(), qs.min_level())) {
    GetLabelWorkStats().fast_path_hits += 1;
    return false;
  }
  if (qs.default_level() != Level::kStar &&
      !LevelLeq(es.default_level(), qs.default_level())) {
    return true;
  }
  const size_t total = es.entry_count() + qs.entry_count();
  if (total <= kFusedSmallLimit) {
    return NeedsContaminationFullMerge(es, qs, work);
  }
  *work += total;

  // Sparse-high scheme (see CheckDeliveryAllowed): ⋆ entries of ES never
  // contaminate, non-⋆ ones get point probes; QS's explicit entries are
  // walked while small or covered wholesale by the level histogram.
  if (es.CountEntriesAbove(Level::kStar) <= kSparseHighLimit) {
    for (Label::NonStarIter it = es.IterateNonStarEntries(); !it.done(); it.Advance()) {
      const Level lq = qs.Get(it.handle());
      if (lq != Level::kStar && !LevelLeq(it.level(), lq)) {
        return true;
      }
    }
    if (qs.entry_count() <= kWalkLimit) {
      for (Label::EntryIter it = qs.IterateEntries(); !it.done(); it.Advance()) {
        if (it.level() != Level::kStar && !LevelLeq(es.Get(it.handle()), it.level())) {
          return true;
        }
      }
      return false;
    }
    // Huge QS: its entries face ES's default (ES's non-⋆ entries were
    // handled above; its ⋆ entries are harmless).
    if (LevelLeq(es.default_level(), qs.MinNonStarEntryLevel())) {
      return false;
    }
  }
  return NeedsContaminationFullMerge(es, qs, work);
}

bool NeedsContaminationNaive(const Label& es, const Label& qs) {
  Label after = qs;
  after.JoinInPlace(Label::Glb(es, qs.StarsOnly()));
  return !after.Equals(qs);
}

DeliveryRefusal ExplainDeliveryRefusal(const Label& es, const Label& qr,
                                       const Label& dr, const Label& v,
                                       const Label& pr) {
  // Explanation is observability, not delivery: shield the linear work
  // counters so the refusal's charged cost is identical with and without
  // the event log watching.
  LabelWorkStats saved = GetLabelWorkStats();
  DeliveryRefusal out;
  out.bound = Label::Glb(Label::Glb(Label::Lub(qr, dr), v), pr);

  // First violating handle in increasing handle order: merge-scan the
  // explicit entries of ES and the bound, each side falling back to the
  // other's default where it has no entry.
  Label::EntryIter ie = es.IterateEntries();
  Label::EntryIter ib = out.bound.IterateEntries();
  while (!ie.done() || !ib.done()) {
    Handle h;
    Level le;
    Level lb;
    if (ib.done() || (!ie.done() && ie.handle() < ib.handle())) {
      h = ie.handle();
      le = ie.level();
      lb = out.bound.default_level();
      ie.Advance();
    } else if (ie.done() || ib.handle() < ie.handle()) {
      h = ib.handle();
      le = es.default_level();
      lb = ib.level();
      ib.Advance();
    } else {
      h = ie.handle();
      le = ie.level();
      lb = ib.level();
      ie.Advance();
      ib.Advance();
    }
    if (!LevelLeq(le, lb)) {
      out.handle = h.value();
      out.es_level = le;
      out.bound_level = lb;
      GetLabelWorkStats() = saved;
      return out;
    }
  }
  // No explicit entry violates: the defaults themselves must.
  out.handle = 0;
  out.es_level = es.default_level();
  out.bound_level = out.bound.default_level();
  GetLabelWorkStats() = saved;
  return out;
}

}  // namespace asbestos
