// Hash-consed canonical labels (src/labels/intern.h): interned construction
// must be semantically invisible — every operation agrees extensionally with
// the reference pointwise semantics — while extensionally equal completed
// constructions share one canonical rep with one stable id, and mutation can
// never corrupt a canonical rep or resurrect a stale id.
#include <gtest/gtest.h>

#include <map>
#include <tuple>
#include <vector>

#include "src/base/rng.h"
#include "src/labels/intern.h"
#include "src/labels/label.h"
#include "src/store/label_codec.h"

namespace asbestos {
namespace {

// Builds a label through the interned bulk path (sorted entries).
Label BuildInterned(const std::vector<std::pair<uint64_t, Level>>& entries, Level def) {
  LabelBuilder builder(def);
  for (const auto& [h, l] : entries) {
    if (l != def) {
      builder.Append(Handle::FromValue(h), l);
    }
  }
  return builder.Build();
}

class LabelInternPropertyTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override { rng_ = std::make_unique<Rng>(GetParam()); }

  Level RandomLevel() { return static_cast<Level>(rng_->NextBelow(5)); }

  // Random sorted entry list over a shared pool (overlaps are common).
  std::vector<std::pair<uint64_t, Level>> RandomEntries(uint64_t max_entries) {
    std::vector<std::pair<uint64_t, Level>> out;
    const uint64_t n = rng_->NextBelow(max_entries + 1);
    uint64_t h = 0;
    for (uint64_t i = 0; i < n; ++i) {
      h += rng_->NextInRange(1, 5);
      out.emplace_back(h, RandomLevel());
    }
    return out;
  }

  // The same label built two ways: interned bulk path and mutable Set path.
  std::pair<Label, Label> RandomLabelBothWays(uint64_t max_entries = 25) {
    const Level def = RandomLevel();
    const auto entries = RandomEntries(max_entries);
    Label by_set(def);
    for (const auto& [h, l] : entries) {
      by_set.Set(Handle::FromValue(h), l);
    }
    return {BuildInterned(entries, def), by_set};
  }

  std::unique_ptr<Rng> rng_;
};

TEST_P(LabelInternPropertyTest, InternedConstructionMatchesMutableConstruction) {
  for (int t = 0; t < 80; ++t) {
    const auto [interned, by_set] = RandomLabelBothWays();
    interned.CheckRep();
    EXPECT_TRUE(interned.Equals(by_set));
    EXPECT_TRUE(interned.rep_canonical());
    for (uint64_t h = 1; h <= 130; ++h) {
      EXPECT_EQ(interned.Get(Handle::FromValue(h)), by_set.Get(Handle::FromValue(h)));
    }
  }
}

TEST_P(LabelInternPropertyTest, EqualConstructionsShareOneCanonicalRep) {
  for (int t = 0; t < 80; ++t) {
    const Level def = RandomLevel();
    const auto entries = RandomEntries(25);
    const Label a = BuildInterned(entries, def);
    const Label b = BuildInterned(entries, def);
    EXPECT_EQ(a.rep_id(), b.rep_id()) << "twin builds must hash-cons to one rep";
    EXPECT_TRUE(a.rep_canonical());
    // And an unequal build must not share.
    auto other = entries;
    other.emplace_back((other.empty() ? 0 : other.back().first) + 1,
                       def == Level::kL3 ? Level::kStar : Level::kL3);
    const Label c = BuildInterned(other, def);
    EXPECT_NE(a.rep_id(), c.rep_id());
    EXPECT_FALSE(a.Equals(c));
  }
}

TEST_P(LabelInternPropertyTest, InternedAlgebraMatchesNaivePointwise) {
  // Lub/Glb/StarsOnly/Leq over interned operands: the interned results must
  // be extensionally identical to the reference pointwise semantics, and
  // repeating the operation must return the SAME canonical rep.
  for (int t = 0; t < 60; ++t) {
    const Label a = BuildInterned(RandomEntries(20), RandomLevel());
    const Label b = BuildInterned(RandomEntries(20), RandomLevel());
    const Label join = Label::Lub(a, b);
    const Label meet = Label::Glb(a, b);
    const Label stars = a.StarsOnly();
    join.CheckRep();
    meet.CheckRep();
    stars.CheckRep();
    bool leq_pointwise = true;
    for (uint64_t h = 0; h <= 120; ++h) {
      const Handle hh = Handle::FromValue(h == 0 ? 9999 : h);
      EXPECT_EQ(join.Get(hh), LevelMax(a.Get(hh), b.Get(hh)));
      EXPECT_EQ(meet.Get(hh), LevelMin(a.Get(hh), b.Get(hh)));
      EXPECT_EQ(stars.Get(hh),
                a.Get(hh) == Level::kStar ? Level::kStar : Level::kL3);
      leq_pointwise = leq_pointwise && LevelLeq(a.Get(hh), b.Get(hh));
    }
    EXPECT_EQ(a.Leq(b), leq_pointwise && LevelLeq(a.default_level(), b.default_level()));
    // Determinism of identity: same operands, same canonical result rep.
    EXPECT_EQ(Label::Lub(a, b).rep_id(), join.rep_id());
    EXPECT_EQ(Label::Glb(a, b).rep_id(), meet.rep_id());
    EXPECT_EQ(a.StarsOnly().rep_id(), stars.rep_id());
  }
}

TEST_P(LabelInternPropertyTest, MutationUnsharesAndRekeys) {
  for (int t = 0; t < 60; ++t) {
    const Level def = RandomLevel();
    const auto entries = RandomEntries(20);
    const Label canonical = BuildInterned(entries, def);
    const uint64_t canonical_id = canonical.rep_id();
    Label mutated = canonical;
    const Level l = RandomLevel();
    const Handle h = Handle::FromValue(rng_->NextInRange(1, 100));
    mutated.Set(h, l);
    // The canonical label is immutable: the copy diverged, it did not.
    EXPECT_EQ(canonical.rep_id(), canonical_id);
    EXPECT_EQ(canonical.Get(h), BuildInterned(entries, def).Get(h));
    canonical.CheckRep();
    mutated.CheckRep();
    if (mutated.Get(h) != canonical.Get(h)) {
      EXPECT_NE(mutated.rep_id(), canonical_id);
      EXPECT_FALSE(mutated.rep_canonical());
      // Every further in-place mutation retires the previous snapshot id.
      const uint64_t before = mutated.rep_id();
      mutated.Set(h, mutated.Get(h) == Level::kL3 ? Level::kStar : Level::kL3);
      EXPECT_NE(mutated.rep_id(), before);
    }
  }
}

TEST_P(LabelInternPropertyTest, ParseAndUnpickleLandOnTheCanonicalRep) {
  for (int t = 0; t < 40; ++t) {
    const Label original = BuildInterned(RandomEntries(20), RandomLevel());
    Label parsed;
    ASSERT_TRUE(Label::Parse(original.ToString(), &parsed));
    EXPECT_EQ(parsed.rep_id(), original.rep_id()) << original.ToString();

    Label unpickled;
    ASSERT_EQ(codec::UnpickleLabel(codec::PickleLabel(original), &unpickled), Status::kOk);
    EXPECT_EQ(unpickled.rep_id(), original.rep_id());
  }
}

TEST_P(LabelInternPropertyTest, EqualsFastPathsAgreeWithEntryWalk) {
  // Shared-chunk and canonical-id shortcuts must never change the verdict.
  for (int t = 0; t < 60; ++t) {
    const auto [interned, by_set] = RandomLabelBothWays();
    EXPECT_TRUE(interned.Equals(by_set));
    EXPECT_TRUE(by_set.Equals(interned));
    // COW copy diverged in (at most) one chunk: remaining chunks stay shared.
    Label copy = by_set;
    const Handle h = Handle::FromValue(rng_->NextInRange(1, 100));
    const Level old = copy.Get(h);
    const Level changed = old == Level::kL3 ? Level::kStar : Level::kL3;
    copy.Set(h, changed);
    EXPECT_FALSE(copy.Equals(by_set));
    copy.Set(h, old);
    EXPECT_TRUE(copy.Equals(by_set));
  }
}

// Every rep carries an incremental structural hash (intern.h) that Set,
// clones, builders and merges keep current without rehashing. A random walk
// of 2,000 operations per seed (10^4 over the five seeds) checks after each
// one that the hash equals a from-scratch recomputation (CheckRep), and
// that the result's content, rebuilt by the builder and by Set and then
// canonicalized, lands on one rep id.
TEST_P(LabelInternPropertyTest, IncrementalHashHoldsAcrossRandomOperations) {
  // Small labels draw handles from 1..64; big ⋆-rich ones span 1..1600, so
  // merges hit both the asymmetric (small with big) and the general paths.
  const auto small_label = [&] {
    Label l(RandomLevel());
    const uint64_t n = rng_->NextBelow(12);
    for (uint64_t i = 0; i < n; ++i) {
      l.Set(Handle::FromValue(rng_->NextInRange(1, 64)), RandomLevel());
    }
    return l;
  };
  const auto big_label = [&] {
    LabelBuilder builder(RandomLevel() == Level::kL3 ? Level::kL3 : Level::kL1);
    for (uint64_t h = 4; h <= 1600; h += 4) {
      builder.Append(Handle::FromValue(h), rng_->NextBelow(8) == 0 ? Level::kL2 : Level::kStar);
    }
    return builder.Build();
  };
  std::vector<Label> pool;
  for (int i = 0; i < 12; ++i) {
    pool.push_back(i % 4 == 0 ? big_label() : small_label());
  }
  const auto pick = [&]() -> Label& { return pool[rng_->NextBelow(pool.size())]; };

  for (int step = 0; step < 2000; ++step) {
    Label result;
    switch (rng_->NextBelow(11)) {
      case 0: {  // Set, to a random level
        result = pick();
        result.Set(Handle::FromValue(rng_->NextInRange(1, 64)), RandomLevel());
        break;
      }
      case 1: {  // Set an existing entry back to the default: a removal
        result = pick();
        const auto entries = result.Entries();
        if (!entries.empty()) {
          const Handle h = entries[rng_->NextBelow(entries.size())].first;
          result.Set(h, result.default_level());
          EXPECT_FALSE(result.HasExplicit(h));
        }
        break;
      }
      case 2:
        result = Label::Lub(pick(), pick());
        break;
      case 3:
        result = Label::Glb(pick(), pick());
        break;
      case 4:
        result = pick().StarsOnly();
        break;
      case 5:
        result = pick();
        result.JoinInPlace(pick());
        break;
      case 6:
        result = pick();
        result.MeetInPlace(pick());
        break;
      case 7:
        ASSERT_TRUE(Label::Parse(pick().ToString(), &result));
        break;
      case 8:
        ASSERT_EQ(codec::UnpickleLabel(codec::PickleLabel(pick()), &result), Status::kOk);
        break;
      case 9:
        result = small_label();
        break;
      default:
        result = big_label();
        break;
    }
    result.CheckRep();

    // The same content by two more paths: the builder (canonical on
    // arrival) and Set on a fresh label (private until canonicalized).
    const auto entries = result.Entries();
    LabelBuilder builder(result.default_level());
    Label by_set(result.default_level());
    for (const auto& [h, l] : entries) {
      builder.Append(h, l);
      by_set.Set(h, l);
    }
    by_set.CheckRep();
    // Alternate which path registers first, so Canonicalize both adopts a
    // private rep and finds a live twin.
    Label canon = result;
    Label built;
    if (step % 2 == 0) {
      built = builder.Build();
      canon.Canonicalize();
    } else {
      canon.Canonicalize();
      built = builder.Build();
    }
    by_set.Canonicalize();
    ASSERT_EQ(canon.rep_id(), built.rep_id()) << result.ToString();
    ASSERT_EQ(by_set.rep_id(), built.rep_id()) << result.ToString();
    EXPECT_TRUE(canon.Equals(result));
    canon.CheckRep();

    pool[rng_->NextBelow(pool.size())] = result;
  }
}

// The asymmetric small ⊔ big of Label::Lub (the kernel's send-time
// ES = PS ⊔ CS). Big sides are ⋆-rich, default 1, on handles 3, 6, 9, ...
// with full 64-entry chunks; small sides carry 1–24 entries, default ⋆, of
// one change shape each (or a random mix). For every shape the result must
// be the pointwise max, pass CheckRep, be canonical whenever it differs from
// the big side (and be the big side's own rep when it does not), repeat to
// the same rep id, and charge exactly what the reference below charges: a
// copy of the big side with one Get and one Set per small entry.
enum class LubShape { kOverwrite, kInsert, kRemoveToDefault, kChunkSplit, kNoChange, kMixed };

Label ReferenceAsymmetricLub(const Label& big, const Label& small) {
  LabelWorkStats& work = GetLabelWorkStats();
  work.ops += 1;
  work.entries_visited += big.entry_count() + small.entry_count();
  Label result = big;
  for (const auto& [h, l] : small.Entries()) {
    result.Set(h, LevelMax(big.Get(h), l));
  }
  return result;
}

LabelWorkStats WorkSince(const LabelWorkStats& before) {
  const LabelWorkStats& now = GetLabelWorkStats();
  return {now.ops - before.ops, now.entries_visited - before.entries_visited,
          now.fast_path_hits - before.fast_path_hits};
}

void ExpectSameWork(const LabelWorkStats& got, const LabelWorkStats& want) {
  EXPECT_EQ(got.ops, want.ops);
  EXPECT_EQ(got.entries_visited, want.entries_visited);
  EXPECT_EQ(got.fast_path_hits, want.fast_path_hits);
}

TEST_P(LabelInternPropertyTest, AsymmetricLubIsCanonicalAndChargesAsTheSetLoop) {
  const auto big_label = [&](uint64_t n) {
    LabelBuilder builder(Level::kL1);
    for (uint64_t i = 1; i <= n; ++i) {
      const uint64_t r = rng_->NextBelow(10);
      builder.Append(Handle::FromValue(3 * i),
                     r < 7 ? Level::kStar : (r < 9 ? Level::kL0 : Level::kL2));
    }
    return builder.Build();
  };
  // Raises of an existing entry at level `old` that keep it explicit.
  const auto overwrite_level = [&](Level old) {
    std::vector<Level> up;
    for (Level l : {Level::kL0, Level::kL2, Level::kL3}) {
      if (LevelLeq(old, l) && l != old) {
        up.push_back(l);
      }
    }
    return up.empty() ? Level::kStar : up[rng_->NextBelow(up.size())];
  };

  for (int t = 0; t < 60; ++t) {
    const uint64_t n = rng_->NextInRange(300, 700);
    Label big = big_label(n);
    if (rng_->NextBool()) {
      // A private, mutable big side (a process's send label mid-life).
      big.Set(Handle::FromValue(3 * rng_->NextInRange(1, n)), Level::kL3);
    }
    const auto shape = static_cast<LubShape>(t % 6);
    const uint64_t k = rng_->NextInRange(1, 24);
    std::map<uint64_t, Level> small_entries;
    for (uint64_t i = 0; i < k; ++i) {
      LubShape s = shape;
      if (s == LubShape::kMixed) {
        s = static_cast<LubShape>(rng_->NextBelow(5));
      }
      uint64_t h = 3 * rng_->NextInRange(1, n);
      const Level old = big.Get(Handle::FromValue(h));
      Level l = Level::kStar;
      switch (s) {
        case LubShape::kOverwrite:
          l = overwrite_level(old);
          break;
        case LubShape::kInsert:
          h += 1;
          l = rng_->NextBool() ? Level::kL2 : Level::kL3;
          break;
        case LubShape::kRemoveToDefault:
          l = LevelLeq(old, Level::kL0) ? Level::kL1 : Level::kStar;
          break;
        case LubShape::kChunkSplit:  // inserts into the first, full chunk
          h = 3 * rng_->NextInRange(1, 60) + 2;
          l = Level::kL3;
          break;
        default:  // kNoChange: at most the big side's level
          l = rng_->NextBool() ? Level::kStar : old;
          break;
      }
      if (l != Level::kStar) {
        small_entries[h] = l;
      }
    }
    if (small_entries.empty()) {
      continue;  // {⋆} ⊔ big is a fast path, not the asymmetric one
    }
    Label small(Level::kStar);
    for (const auto& [h, l] : small_entries) {
      small.Set(Handle::FromValue(h), l);
    }

    // The pointwise max, computed from the two entry lists.
    std::map<uint64_t, Level> want;
    for (const auto& [h, l] : big.Entries()) {
      want[h.value()] = l;
    }
    for (const auto& [h, l] : small_entries) {
      const auto it = want.find(h);
      const Level old = it == want.end() ? Level::kL1 : it->second;
      const Level joined = LevelMax(old, l);
      if (joined == old) {
        continue;
      }
      if (joined == Level::kL1) {
        want.erase(h);
      } else {
        want[h] = joined;
      }
    }

    LabelWorkStats before = GetLabelWorkStats();
    const Label reference = ReferenceAsymmetricLub(big, small);
    const LabelWorkStats reference_work = WorkSince(before);

    before = GetLabelWorkStats();
    const Label result = Label::Lub(small, big);
    ExpectSameWork(WorkSince(before), reference_work);
    result.CheckRep();
    ASSERT_EQ(result.default_level(), Level::kL1);
    std::vector<std::pair<Handle, Level>> want_entries;
    for (const auto& [h, l] : want) {
      want_entries.emplace_back(Handle::FromValue(h), l);
    }
    ASSERT_EQ(result.Entries(), want_entries) << "shape " << static_cast<int>(shape);
    EXPECT_TRUE(result.Equals(reference));

    if (result.Equals(big)) {
      // No change: the big side's own rep, left exactly as canonical (or
      // as mutable) as it was.
      EXPECT_EQ(result.rep_id(), big.rep_id());
      EXPECT_EQ(result.rep_canonical(), big.rep_canonical());
    } else {
      EXPECT_TRUE(result.rep_canonical());
      EXPECT_NE(result.rep_id(), big.rep_id());
    }
    if (shape == LubShape::kNoChange) {
      EXPECT_EQ(result.rep_id(), big.rep_id());
    }
    if (shape == LubShape::kChunkSplit) {
      EXPECT_GT(result.entry_count(), big.entry_count());
    }

    // Repeating the merge while `result` lives lands on its rep and charges
    // the same. A one-entry small side is answered by the memo: no rep is
    // created in between. A larger one is built again and canonicalized
    // onto `result`, registering no new canonical rep.
    const uint64_t id_before = internal::InternNextRepId();
    const int64_t live_before = GetLabelInternStats().live_canonical;
    before = GetLabelWorkStats();
    const Label again = Label::Lub(big, small);
    ExpectSameWork(WorkSince(before), reference_work);
    if (result.rep_id() != big.rep_id()) {
      if (small.entry_count() == 1) {
        EXPECT_EQ(internal::InternNextRepId(), id_before + 1) << "memo hit must not build";
      }
      EXPECT_EQ(GetLabelInternStats().live_canonical, live_before);
    }
    EXPECT_EQ(again.rep_id(), result.rep_id());

    // So does the merge with a big side of equal content but another chunk
    // layout (built by Set, whose chunks split in halves): Canonicalize's
    // match is extensional, not a chunk-by-chunk comparison.
    Label relaid(Level::kL1);
    for (const auto& [h, l] : big.Entries()) {
      relaid.Set(h, l);
    }
    EXPECT_EQ(Label::Lub(small, relaid).rep_id(),
              result.rep_id() == big.rep_id() ? relaid.rep_id() : result.rep_id());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LabelInternPropertyTest,
                         ::testing::Values(2ULL, 11ULL, 77ULL, 4096ULL, 123456789ULL));

TEST(LabelInternTest, DedupCountersAndMemory) {
  ResetLabelInternStats();
  const LabelMemStats& mem = GetLabelMemStats();
  const LabelInternStats& stats = GetLabelInternStats();
  int64_t canonical_with_label = 0;

  {
    LabelBuilder builder(Level::kL1);
    for (uint64_t i = 1; i <= 200; ++i) {
      builder.Append(Handle::FromValue(i * 3), Level::kL3);
    }
    const Label first = builder.Build();
    EXPECT_GE(stats.misses, 1u);
    canonical_with_label = stats.live_canonical;
    const uint64_t hits_before = stats.hits;
    const int64_t live_before = mem.live_bytes;

    // 50 more builds of the same label: zero new label heap, one hit each.
    std::vector<Label> copies;
    for (int i = 0; i < 50; ++i) {
      LabelBuilder b(Level::kL1);
      for (uint64_t h = 1; h <= 200; ++h) {
        b.Append(Handle::FromValue(h * 3), Level::kL3);
      }
      copies.push_back(b.Build());
      EXPECT_EQ(copies.back().rep_id(), first.rep_id());
    }
    EXPECT_EQ(stats.hits, hits_before + 50);
    EXPECT_EQ(mem.live_bytes, live_before) << "deduped builds must not allocate";
    EXPECT_EQ(stats.bytes_saved, 50 * first.heap_bytes());
  }

  // Dropping every owner unregisters the canonical rep: interning holds
  // weak references and never pins dead labels.
  EXPECT_EQ(stats.live_canonical, canonical_with_label - 1);
}

TEST(LabelInternTest, EmptyLabelsSharePerLevelSingletons) {
  LabelBuilder builder(Level::kL2);
  const Label built = builder.Build();
  const Label direct(Level::kL2);
  EXPECT_EQ(built.rep_id(), direct.rep_id());
  EXPECT_TRUE(built.rep_canonical());
}

// The kernel's receive/send labels mutate in place on every contamination;
// routing the merged result through the intern table means equal label
// HISTORIES converge to one rep id — the key the flow-check cache needs to
// keep hitting on steady-state traffic (ROADMAP: live-path hit rate).
TEST(LabelInternTest, JoinInPlaceCanonicalizesTheMergedResult) {
  // Big ⋆-rich label (an OKWS server's send label shape) joined with a
  // small contamination label: the asymmetric merge path runs, which used
  // to leave a private rep with a fresh id per call.
  const auto big_entries = [] {
    std::vector<std::pair<uint64_t, Level>> out;
    for (uint64_t i = 1; i <= 400; ++i) {
      out.emplace_back(i * 7, Level::kStar);
    }
    return out;
  }();
  const Label contam({{Handle::FromValue(5), Level::kL3}}, Level::kStar);

  Label a = BuildInterned(big_entries, Level::kL1);
  a.JoinInPlace(contam);
  EXPECT_TRUE(a.rep_canonical());

  // An independently rebuilt history lands on the SAME canonical rep.
  Label b = BuildInterned(big_entries, Level::kL1);
  b.JoinInPlace(Label({{Handle::FromValue(5), Level::kL3}}, Level::kStar));
  EXPECT_EQ(a.rep_id(), b.rep_id());

  // And the semantics are the pointwise reference, unchanged.
  EXPECT_EQ(a.Get(Handle::FromValue(5)), Level::kL3);
  EXPECT_EQ(a.Get(Handle::FromValue(7)), Level::kStar);
  EXPECT_EQ(a.Get(Handle::FromValue(9999991)), Level::kL1);
  a.CheckRep();
}

TEST(LabelInternTest, MeetInPlaceCanonicalizesTheMergedResult) {
  const auto entries = [] {
    std::vector<std::pair<uint64_t, Level>> out;
    for (uint64_t i = 1; i <= 300; ++i) {
      out.emplace_back(i * 3, Level::kL3);
    }
    return out;
  }();
  const Label ds({{Handle::FromValue(6), Level::kL0}}, Level::kL3);
  Label a = BuildInterned(entries, Level::kL2);
  a.MeetInPlace(ds);
  EXPECT_TRUE(a.rep_canonical());
  Label b = BuildInterned(entries, Level::kL2);
  b.MeetInPlace(Label({{Handle::FromValue(6), Level::kL0}}, Level::kL3));
  EXPECT_EQ(a.rep_id(), b.rep_id());
  EXPECT_EQ(a.Get(Handle::FromValue(6)), Level::kL0);
}

TEST(LabelInternTest, CanonicalizeRegistersAPrivateRepWithoutCopying) {
  Label l(Level::kL1);
  for (uint64_t i = 1; i <= 40; ++i) {
    l.Set(Handle::FromValue(i * 11), Level::kL2);  // Set path: private rep
  }
  ASSERT_FALSE(l.rep_canonical());
  const uint64_t heap_before = GetLabelMemStats().live_bytes;
  l.Canonicalize();
  EXPECT_TRUE(l.rep_canonical());
  // No twin existed, so the rep itself was adopted: no new heap.
  EXPECT_EQ(GetLabelMemStats().live_bytes, heap_before);
  // A later equal construction now dedups onto it.
  LabelBuilder builder(Level::kL1);
  for (uint64_t i = 1; i <= 40; ++i) {
    builder.Append(Handle::FromValue(i * 11), Level::kL2);
  }
  const Label twin = builder.Build();
  EXPECT_EQ(twin.rep_id(), l.rep_id());
  // Mutating the (now canonical) label clones first — the registered rep
  // stays immutable and the mutated copy re-keys.
  Label mutated = l;
  mutated.Set(Handle::FromValue(1), Level::kL3);
  EXPECT_NE(mutated.rep_id(), l.rep_id());
  EXPECT_TRUE(l.rep_canonical());
  l.CheckRep();
  mutated.CheckRep();
}

// --- The intern table itself -------------------------------------------------
//
// InternInsert/InternLookup/InternErase driven with chosen hashes. The reps
// are stand-in addresses the table never dereferences (only the match
// function sees them). The table's slot count is a power of two of at most
// 2^20 here, so hashes equal modulo 2^20 share a home slot, and a hash of
// 2^20 - 1 has its home in the last slot: its run wraps to slot 0.
class InternTableTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kModulus = uint64_t{1} << 20;

  internal::LabelRep* Fake(size_t i) {
    return reinterpret_cast<internal::LabelRep*>(&storage_[i]);
  }

  static bool SamePointer(const internal::LabelRep* candidate, const void* want) {
    return candidate == want;
  }

  static bool Found(uint64_t hash, internal::LabelRep* rep) {
    return internal::InternLookup(hash, SamePointer, rep) == rep;
  }

  void Insert(uint64_t hash, size_t i) {
    internal::InternInsert(hash, Fake(i));
    live_.emplace_back(hash, i);
  }

  // Erases the nth live entry; it must be gone, and (when `check_rest`)
  // every other entry still found.
  void Erase(size_t nth, bool check_rest = true) {
    const auto [hash, i] = live_[nth];
    internal::InternErase(hash, Fake(i));
    live_.erase(live_.begin() + static_cast<ptrdiff_t>(nth));
    ASSERT_FALSE(Found(hash, Fake(i))) << "erased entry " << i << " still found";
    if (check_rest) {
      ExpectAllLiveFound();
    }
  }

  void ExpectAllLiveFound() {
    for (const auto& [hash, i] : live_) {
      EXPECT_TRUE(Found(hash, Fake(i))) << "entry " << i << " lost";
    }
  }

  void TearDown() override {
    while (!live_.empty()) {
      Erase(live_.size() - 1, /*check_rest=*/live_.size() < 64);
    }
    EXPECT_EQ(GetLabelInternStats().live_canonical, live_at_start_);
  }

  const int64_t live_at_start_ = GetLabelInternStats().live_canonical;
  uint64_t storage_[8192] = {};
  std::vector<std::pair<uint64_t, size_t>> live_;  // (hash, fake index)
};

TEST_F(InternTableTest, EqualHashesShareARunAndEraseFromEachEnd) {
  const uint64_t h = 0x5eed'0000'0000'0123;
  for (size_t i = 0; i < 6; ++i) {
    Insert(h, i);
  }
  EXPECT_EQ(GetLabelInternStats().live_canonical, live_at_start_ + 6);
  ExpectAllLiveFound();
  Erase(0);  // start of the run
  Erase(2);  // middle
  Erase(live_.size() - 1);  // end
  EXPECT_EQ(GetLabelInternStats().live_canonical, live_at_start_ + 3);
}

TEST_F(InternTableTest, HashesEqualModuloTheSlotCountInterleave) {
  // Three homes, interleaved: a hole left by an erase must be filled only
  // by an entry whose home does not lie between the hole and it.
  const uint64_t base = 0x4000'0000'0000'0777 % kModulus;
  for (size_t i = 0; i < 12; ++i) {
    Insert(base + (i % 3) + kModulus * (i + 1), i);
  }
  ExpectAllLiveFound();
  for (const size_t nth : {1, 0, 4, 5, 2}) {
    Erase(nth);
  }
  for (size_t i = 12; i < 16; ++i) {
    Insert(base + (i % 3) + kModulus * (i + 1), i);
  }
  ExpectAllLiveFound();
}

TEST_F(InternTableTest, ARunWrapsTheArrayEnd) {
  // Homes in the last two slots and in slot 0: the run wraps.
  for (size_t i = 0; i < 10; ++i) {
    Insert(kModulus - 2 + (i % 3) + kModulus * (i + 5), i);
  }
  ExpectAllLiveFound();
  Erase(0);                 // from the end of the array, before the wrap
  Erase(live_.size() / 2);  // past the wrap
  Erase(live_.size() - 1);
  Insert(kModulus - 1, 10);
  Insert(0, 11);
  ExpectAllLiveFound();
}

TEST_F(InternTableTest, GrowsWithLiveEntries) {
  // Enough entries to double the table more than once, with one long run
  // of a shared home among spread homes; every entry survives each growth
  // and the erases.
  Rng rng(0x7ab1e);
  for (size_t i = 0; i < 3000; ++i) {
    const uint64_t hash = i % 32 == 0 ? 0x1234 + kModulus * i : rng.Next();
    Insert(hash, i);
  }
  ExpectAllLiveFound();
  for (int k = 1; k <= 1500; ++k) {
    Erase(rng.NextBelow(live_.size()), /*check_rest=*/k % 100 == 0);
  }
  EXPECT_EQ(GetLabelInternStats().live_canonical, live_at_start_ + 1500);
}

// --- The Lub memo --------------------------------------------------------------
//
// The memo of the one-entry asymmetric ⊔ must be invisible to every counter:
// over random (big, one-entry small) pairs, a schedule run with the memo
// warm and the same schedule run with the memo emptied before every call
// charge the same LabelWorkStats and LabelInternStats deltas call by call,
// and return the same rep (told apart by which earlier live result, if any,
// it is).
struct InternDelta {
  uint64_t probes;
  uint64_t hits;
  uint64_t misses;
  uint64_t bytes_saved;
  int64_t live_canonical;
  bool operator==(const InternDelta& o) const {
    return probes == o.probes && hits == o.hits && misses == o.misses &&
           bytes_saved == o.bytes_saved && live_canonical == o.live_canonical;
  }
};

InternDelta InternSince(const LabelInternStats& before) {
  const LabelInternStats& now = GetLabelInternStats();
  return {now.probes - before.probes, now.hits - before.hits, now.misses - before.misses,
          now.bytes_saved - before.bytes_saved, now.live_canonical - before.live_canonical};
}

struct MemoCall {
  LabelWorkStats work;
  InternDelta intern;
  int same_as_held;  // index of the held result it shares a rep with, or -1
  bool canonical;
};

TEST(LubMemoTest, WarmMemoChargesAndReturnsWhatAnEmptyOneDoes) {
  Rng rng(0x3e30);
  // Big sides: ⋆-rich, default 1, on handles 3, 6, 9, ...; some canonical,
  // some private (a process's send label mid-life).
  std::vector<Label> bigs;
  for (int b = 0; b < 6; ++b) {
    LabelBuilder builder(Level::kL1);
    const uint64_t n = rng.NextInRange(200, 500);
    for (uint64_t i = 1; i <= n; ++i) {
      builder.Append(Handle::FromValue(3 * i), rng.NextBelow(4) == 0 ? Level::kL0 : Level::kStar);
    }
    bigs.push_back(builder.Build());
    if (b % 2 == 1) {
      bigs.back().Set(Handle::FromValue(3 * rng.NextInRange(1, n)), Level::kL2);
    }
  }
  // One-entry small sides {h l, ⋆}: overwrites (the memo's shape), inserts,
  // raises to the default, and no-ops.
  struct Call {
    size_t big;
    uint64_t handle;
    Level level;
    bool hold;     // keep the result alive
    int drop;      // drop the held result at this index first (-1: none)
  };
  std::vector<Call> schedule;
  for (int c = 0; c < 600; ++c) {
    Call call;
    call.big = rng.NextBelow(bigs.size());
    call.handle = 3 * rng.NextInRange(1, 40) + (rng.NextBelow(5) == 0 ? 1 : 0);
    call.level = static_cast<Level>(rng.NextInRange(1, 4));
    call.hold = rng.NextBool();
    call.drop = rng.NextBelow(3) == 0 ? static_cast<int>(rng.NextBelow(16)) : -1;
    schedule.push_back(call);
  }

  const auto run = [&](bool empty_before_each) {
    internal::ResetLubMemo();
    std::vector<Label> held;
    std::vector<MemoCall> out;
    for (const Call& call : schedule) {
      if (call.drop >= 0 && static_cast<size_t>(call.drop) < held.size()) {
        held.erase(held.begin() + call.drop);
      }
      const Label small({{Handle::FromValue(call.handle), call.level}}, Level::kStar);
      if (empty_before_each) {
        internal::ResetLubMemo();
      }
      const LabelWorkStats work_before = GetLabelWorkStats();
      const LabelInternStats intern_before = GetLabelInternStats();
      const Label result = Label::Lub(small, bigs[call.big]);
      MemoCall got{WorkSince(work_before), InternSince(intern_before), -1,
                   result.rep_canonical()};
      for (size_t i = 0; i < held.size(); ++i) {
        if (held[i].rep_id() == result.rep_id()) {
          got.same_as_held = static_cast<int>(i);
          break;
        }
      }
      EXPECT_EQ(result.Get(Handle::FromValue(call.handle)),
                LevelMax(bigs[call.big].Get(Handle::FromValue(call.handle)), call.level));
      out.push_back(got);
      if (call.hold) {
        held.push_back(result);
      }
    }
    return out;
  };

  const std::vector<MemoCall> cold = run(/*empty_before_each=*/true);
  const std::vector<MemoCall> warm = run(/*empty_before_each=*/false);
  ASSERT_EQ(cold.size(), warm.size());
  int shared = 0;
  for (size_t c = 0; c < cold.size(); ++c) {
    ExpectSameWork(warm[c].work, cold[c].work);
    EXPECT_TRUE(warm[c].intern == cold[c].intern) << "call " << c;
    EXPECT_EQ(warm[c].same_as_held, cold[c].same_as_held) << "call " << c;
    EXPECT_EQ(warm[c].canonical, cold[c].canonical) << "call " << c;
    shared += cold[c].same_as_held >= 0 ? 1 : 0;
  }
  EXPECT_GT(shared, 50) << "the schedule must revisit live results";
}

TEST(LubMemoTest, AMemoEntryWhoseResultDiedRebuildsAndChargesTheBuildPath) {
  const auto build_big = [] {
    LabelBuilder builder(Level::kL1);
    for (uint64_t i = 1; i <= 300; ++i) {
      builder.Append(Handle::FromValue(3 * i), Level::kStar);
    }
    return builder.Build();
  };
  const Label big = build_big();
  const Label small({{Handle::FromValue(30), Level::kL3}}, Level::kStar);
  const auto delta = [&](bool empty_memo) {
    if (empty_memo) {
      internal::ResetLubMemo();
    }
    const LabelWorkStats work_before = GetLabelWorkStats();
    const LabelInternStats intern_before = GetLabelInternStats();
    const uint64_t id_before = internal::InternNextRepId();
    const Label result = Label::Lub(small, big);
    EXPECT_EQ(result.Get(Handle::FromValue(30)), Level::kL3);
    EXPECT_TRUE(result.rep_canonical());
    return std::make_tuple(WorkSince(work_before), InternSince(intern_before),
                           internal::InternNextRepId() - id_before);
  };

  // The first merge builds and is remembered; its result dies with it.
  internal::ResetLubMemo();
  const auto first = delta(/*empty_memo=*/false);
  // The memo now names a dead rep: the merge is built again, charged as the
  // uncached build (no dedup hit), and registers a fresh canonical rep.
  const auto again = delta(/*empty_memo=*/false);
  const auto cold = delta(/*empty_memo=*/true);
  ExpectSameWork(std::get<0>(again), std::get<0>(cold));
  EXPECT_TRUE(std::get<1>(again) == std::get<1>(cold));
  EXPECT_TRUE(std::get<1>(again) == std::get<1>(first));
  EXPECT_EQ(std::get<1>(again).hits, 0u);
  EXPECT_EQ(std::get<1>(again).misses, 1u);
  EXPECT_GT(std::get<2>(again), 1u) << "a dead memo entry must not skip the build";

  // A twin built by another path after the remembered rep died is found by
  // content, exactly as without the memo.
  (void)delta(/*empty_memo=*/false);  // remember a result, let it die
  LabelBuilder twin_builder(Level::kL1);
  for (uint64_t i = 1; i <= 300; ++i) {
    twin_builder.Append(Handle::FromValue(3 * i), i == 10 ? Level::kL3 : Level::kStar);
  }
  const Label twin = twin_builder.Build();
  const LabelWorkStats work_before = GetLabelWorkStats();
  const LabelInternStats intern_before = GetLabelInternStats();
  const Label found = Label::Lub(small, big);
  const LabelWorkStats warm_work = WorkSince(work_before);
  const InternDelta warm_intern = InternSince(intern_before);
  EXPECT_EQ(found.rep_id(), twin.rep_id());
  internal::ResetLubMemo();
  const LabelWorkStats cold_before = GetLabelWorkStats();
  const LabelInternStats cold_intern_before = GetLabelInternStats();
  EXPECT_EQ(Label::Lub(small, big).rep_id(), twin.rep_id());
  ExpectSameWork(warm_work, WorkSince(cold_before));
  EXPECT_TRUE(warm_intern == InternSince(cold_intern_before));
  EXPECT_EQ(warm_intern.hits, 1u);
}

}  // namespace
}  // namespace asbestos
