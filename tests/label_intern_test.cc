// Hash-consed canonical labels (src/labels/intern.h): interned construction
// must be semantically invisible — every operation agrees extensionally with
// the reference pointwise semantics — while extensionally equal completed
// constructions share one canonical rep with one stable id, and mutation can
// never corrupt a canonical rep or resurrect a stale id.
#include <gtest/gtest.h>

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

}  // namespace
}  // namespace asbestos
