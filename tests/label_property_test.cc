// Property tests for the label lattice (paper §5.1): labels under ⊑ form a
// lattice with ⊔ as least upper bound and ⊓ as greatest lower bound. Each
// property is checked over randomized labels drawn from a shared handle pool
// (so labels overlap), across several seeds via TEST_P.
#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "src/base/rng.h"
#include "src/labels/label.h"

namespace asbestos {
namespace {

constexpr int kTrialsPerSeed = 60;

class LabelPropertyTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override { rng_ = std::make_unique<Rng>(GetParam()); }

  Level RandomLevel() { return static_cast<Level>(rng_->NextBelow(5)); }

  Handle RandomPoolHandle() {
    // Small pool: distinct labels frequently mention the same handles.
    return Handle::FromValue(rng_->NextInRange(1, 40));
  }

  Label RandomLabel() {
    Label l(RandomLevel());
    const uint64_t n = rng_->NextBelow(25);
    for (uint64_t i = 0; i < n; ++i) {
      l.Set(RandomPoolHandle(), RandomLevel());
    }
    l.CheckRep();
    return l;
  }

  std::unique_ptr<Rng> rng_;
};

TEST_P(LabelPropertyTest, LeqReflexive) {
  for (int t = 0; t < kTrialsPerSeed; ++t) {
    const Label a = RandomLabel();
    EXPECT_TRUE(a.Leq(a));
  }
}

TEST_P(LabelPropertyTest, LeqAntisymmetric) {
  for (int t = 0; t < kTrialsPerSeed; ++t) {
    const Label a = RandomLabel();
    const Label b = RandomLabel();
    if (a.Leq(b) && b.Leq(a)) {
      EXPECT_TRUE(a.Equals(b));
    }
  }
}

TEST_P(LabelPropertyTest, LeqTransitive) {
  for (int t = 0; t < kTrialsPerSeed; ++t) {
    const Label a = RandomLabel();
    const Label b = RandomLabel();
    const Label c = RandomLabel();
    if (a.Leq(b) && b.Leq(c)) {
      EXPECT_TRUE(a.Leq(c));
    }
  }
}

TEST_P(LabelPropertyTest, LeqAgreesWithPointwiseGet) {
  for (int t = 0; t < kTrialsPerSeed; ++t) {
    const Label a = RandomLabel();
    const Label b = RandomLabel();
    bool pointwise = LevelLeq(a.default_level(), b.default_level());
    for (uint64_t h = 1; h <= 40 && pointwise; ++h) {
      pointwise = LevelLeq(a.Get(Handle::FromValue(h)), b.Get(Handle::FromValue(h)));
    }
    EXPECT_EQ(a.Leq(b), pointwise);
  }
}

TEST_P(LabelPropertyTest, LubIsUpperBound) {
  for (int t = 0; t < kTrialsPerSeed; ++t) {
    const Label a = RandomLabel();
    const Label b = RandomLabel();
    const Label j = Label::Lub(a, b);
    EXPECT_TRUE(a.Leq(j));
    EXPECT_TRUE(b.Leq(j));
    j.CheckRep();
  }
}

TEST_P(LabelPropertyTest, LubIsLeastUpperBound) {
  for (int t = 0; t < kTrialsPerSeed; ++t) {
    const Label a = RandomLabel();
    const Label b = RandomLabel();
    const Label c = RandomLabel();
    if (a.Leq(c) && b.Leq(c)) {
      EXPECT_TRUE(Label::Lub(a, b).Leq(c));
    }
  }
}

TEST_P(LabelPropertyTest, GlbIsLowerBound) {
  for (int t = 0; t < kTrialsPerSeed; ++t) {
    const Label a = RandomLabel();
    const Label b = RandomLabel();
    const Label m = Label::Glb(a, b);
    EXPECT_TRUE(m.Leq(a));
    EXPECT_TRUE(m.Leq(b));
    m.CheckRep();
  }
}

TEST_P(LabelPropertyTest, GlbIsGreatestLowerBound) {
  for (int t = 0; t < kTrialsPerSeed; ++t) {
    const Label a = RandomLabel();
    const Label b = RandomLabel();
    const Label c = RandomLabel();
    if (c.Leq(a) && c.Leq(b)) {
      EXPECT_TRUE(c.Leq(Label::Glb(a, b)));
    }
  }
}

TEST_P(LabelPropertyTest, LubGlbPointwise) {
  for (int t = 0; t < kTrialsPerSeed; ++t) {
    const Label a = RandomLabel();
    const Label b = RandomLabel();
    const Label j = Label::Lub(a, b);
    const Label m = Label::Glb(a, b);
    for (uint64_t h = 0; h <= 41; ++h) {
      const Handle hh = Handle::FromValue(h == 0 ? 9999 : h);  // include a non-pool handle
      EXPECT_EQ(j.Get(hh), LevelMax(a.Get(hh), b.Get(hh)));
      EXPECT_EQ(m.Get(hh), LevelMin(a.Get(hh), b.Get(hh)));
    }
  }
}

TEST_P(LabelPropertyTest, LatticeAlgebraLaws) {
  for (int t = 0; t < kTrialsPerSeed; ++t) {
    const Label a = RandomLabel();
    const Label b = RandomLabel();
    const Label c = RandomLabel();
    // Commutativity.
    EXPECT_TRUE(Label::Lub(a, b).Equals(Label::Lub(b, a)));
    EXPECT_TRUE(Label::Glb(a, b).Equals(Label::Glb(b, a)));
    // Associativity.
    EXPECT_TRUE(Label::Lub(Label::Lub(a, b), c).Equals(Label::Lub(a, Label::Lub(b, c))));
    EXPECT_TRUE(Label::Glb(Label::Glb(a, b), c).Equals(Label::Glb(a, Label::Glb(b, c))));
    // Idempotence.
    EXPECT_TRUE(Label::Lub(a, a).Equals(a));
    EXPECT_TRUE(Label::Glb(a, a).Equals(a));
    // Absorption.
    EXPECT_TRUE(Label::Lub(a, Label::Glb(a, b)).Equals(a));
    EXPECT_TRUE(Label::Glb(a, Label::Lub(a, b)).Equals(a));
  }
}

TEST_P(LabelPropertyTest, LeqIffLubEqualsUpper) {
  for (int t = 0; t < kTrialsPerSeed; ++t) {
    const Label a = RandomLabel();
    const Label b = RandomLabel();
    EXPECT_EQ(a.Leq(b), Label::Lub(a, b).Equals(b));
    EXPECT_EQ(a.Leq(b), Label::Glb(a, b).Equals(a));
  }
}

TEST_P(LabelPropertyTest, StarsOnlyDefinition) {
  for (int t = 0; t < kTrialsPerSeed; ++t) {
    const Label a = RandomLabel();
    const Label s = a.StarsOnly();
    for (uint64_t h = 1; h <= 41; ++h) {
      const Handle hh = Handle::FromValue(h);
      const Level expected = a.Get(hh) == Level::kStar ? Level::kStar : Level::kL3;
      EXPECT_EQ(s.Get(hh), expected);
    }
    s.CheckRep();
  }
}

TEST_P(LabelPropertyTest, ContaminationPreservesStars) {
  // QS ← QS ⊔ (ES ⊓ QS⋆) never removes a ⋆ from QS (paper Eq. 5).
  for (int t = 0; t < kTrialsPerSeed; ++t) {
    Label qs = RandomLabel();
    const Label es = RandomLabel();
    const Label before = qs;
    Label contam = Label::Glb(es, qs.StarsOnly());
    qs.JoinInPlace(contam);
    for (uint64_t h = 1; h <= 41; ++h) {
      const Handle hh = Handle::FromValue(h);
      if (before.Get(hh) == Level::kStar) {
        EXPECT_EQ(qs.Get(hh), Level::kStar);
      } else {
        EXPECT_EQ(qs.Get(hh), LevelMax(before.Get(hh), es.Get(hh)));
      }
    }
  }
}

TEST_P(LabelPropertyTest, ParseToStringRoundTrip) {
  for (int t = 0; t < kTrialsPerSeed; ++t) {
    const Label a = RandomLabel();
    Label parsed;
    ASSERT_TRUE(Label::Parse(a.ToString(), &parsed)) << a.ToString();
    EXPECT_TRUE(parsed.Equals(a));
  }
}

TEST_P(LabelPropertyTest, InPlaceMatchesFunctional) {
  for (int t = 0; t < kTrialsPerSeed; ++t) {
    const Label a = RandomLabel();
    const Label b = RandomLabel();
    Label join_in_place = a;
    join_in_place.JoinInPlace(b);
    EXPECT_TRUE(join_in_place.Equals(Label::Lub(a, b)));
    Label meet_in_place = a;
    meet_in_place.MeetInPlace(b);
    EXPECT_TRUE(meet_in_place.Equals(Label::Glb(a, b)));
  }
}

TEST_P(LabelPropertyTest, LargeLabelStress) {
  // Wide labels with interleaved inserts and removals keep their invariants.
  Label l(Level::kL1);
  Rng& rng = *rng_;
  for (int i = 0; i < 3000; ++i) {
    const Handle h = Handle::FromValue(rng.NextInRange(1, 700));
    l.Set(h, static_cast<Level>(rng.NextBelow(5)));
  }
  l.CheckRep();
  const Label copy = l;
  for (int i = 0; i < 500; ++i) {
    l.Set(Handle::FromValue(rng.NextInRange(1, 700)), Level::kL1);  // removals
  }
  l.CheckRep();
  copy.CheckRep();  // the shared-then-unshared copy must be unaffected
}

// --- Survivor paths ------------------------------------------------------------
//
// A handful of entries meeting a huge label (demux's send label at 10^3–10^4
// users meeting a worker's) takes the survivor paths, which skip the huge
// side's entries that cannot affect the outcome. They must agree with a
// pointwise reference built from Entries(), stay canonical, and charge
// exactly the full walk: one op, the union's size for a merge, and for ⊑ the
// union's handles up to and including the first violation.

struct Point {
  Handle h;
  Level a;
  Level b;
};

// Both labels' explicit handles in increasing order, with each side's level.
std::vector<Point> UnionPoints(const Label& a, const Label& b) {
  const auto ea = a.Entries();
  const auto eb = b.Entries();
  std::vector<Point> out;
  size_t i = 0;
  size_t j = 0;
  while (i < ea.size() || j < eb.size()) {
    if (j == eb.size() || (i < ea.size() && ea[i].first < eb[j].first)) {
      out.push_back({ea[i].first, ea[i].second, b.default_level()});
      ++i;
    } else if (i == ea.size() || eb[j].first < ea[i].first) {
      out.push_back({eb[j].first, a.default_level(), eb[j].second});
      ++j;
    } else {
      out.push_back({ea[i].first, ea[i].second, eb[j].second});
      ++i;
      ++j;
    }
  }
  return out;
}

struct Work {
  uint64_t ops = 0;
  uint64_t entries_visited = 0;
  uint64_t fast_path_hits = 0;
};

Work operator+(Work x, Work y) {
  return {x.ops + y.ops, x.entries_visited + y.entries_visited,
          x.fast_path_hits + y.fast_path_hits};
}

// Runs fn and returns the LabelWorkStats it added.
template <typename Fn>
Work Measure(Fn&& fn) {
  const LabelWorkStats before = GetLabelWorkStats();
  fn();
  const LabelWorkStats& after = GetLabelWorkStats();
  return {after.ops - before.ops, after.entries_visited - before.entries_visited,
          after.fast_path_hits - before.fast_path_hits};
}

void ExpectWork(const Work& got, const Work& want, const char* what) {
  EXPECT_EQ(got.ops, want.ops) << what;
  EXPECT_EQ(got.entries_visited, want.entries_visited) << what;
  EXPECT_EQ(got.fast_path_hits, want.fast_path_hits) << what;
}

// Pointwise a ⊔ b (join) or a ⊓ b, and the work a full merge charges.
std::pair<Label, Work> ReferenceMerge(const Label& a, const Label& b, bool join) {
  const auto op = join ? LevelMax : LevelMin;
  if (LevelLeq(b.max_level(), a.min_level()) || LevelLeq(a.max_level(), b.min_level())) {
    const bool a_wins = join == LevelLeq(b.max_level(), a.min_level());
    return {a_wins ? a : b, {1, 0, 1}};
  }
  const std::vector<Point> points = UnionPoints(a, b);
  LabelBuilder out(op(a.default_level(), b.default_level()));
  for (const Point& p : points) {
    if (op(p.a, p.b) != op(a.default_level(), b.default_level())) {
      out.Append(p.h, op(p.a, p.b));
    }
  }
  return {out.Build(), {1, points.size(), 0}};
}

// Pointwise a ⊑ b, and the work the ⊑ walk charges.
std::pair<bool, Work> ReferenceLeq(const Label& a, const Label& b) {
  if (LevelLeq(a.max_level(), b.min_level())) {
    return {true, {1, 0, 1}};
  }
  if (!LevelLeq(a.default_level(), b.default_level())) {
    return {false, {1, 0, 0}};
  }
  uint64_t visited = 0;
  for (const Point& p : UnionPoints(a, b)) {
    ++visited;
    if (!LevelLeq(p.a, p.b)) {
      return {false, {1, visited, 0}};
    }
  }
  return {true, {1, visited, 0}};
}

class SurvivorPathTest : public LabelPropertyTest {
 protected:
  static constexpr uint64_t kStride = 3;  // leaves room for handles only the small side has

  // `n` entries at `bulk`, plus 1–6 `rare` entries on the other side of the
  // default; the first rare level is always present.
  Label HugeLabel(uint64_t n, Level def, Level bulk, std::vector<Level> rare) {
    std::vector<Level> levels(n, bulk);
    levels[rng_->NextBelow(n)] = rare[0];
    for (uint64_t k = rng_->NextBelow(6); k > 0; --k) {
      levels[rng_->NextBelow(n)] = rare[rng_->NextBelow(rare.size())];
    }
    LabelBuilder b(def);
    for (uint64_t i = 0; i < n; ++i) {
      b.Append(Handle::FromValue((i + 1) * kStride), levels[i]);
    }
    return b.Build();
  }

  // Up to 10 entries at any level, about half on handles `big` mentions.
  Label SmallLabel(uint64_t big_n) {
    const Level def = rng_->NextBelow(2) == 0 ? Level::kL1 : Level::kL2;
    std::map<uint64_t, Level> entries;
    for (uint64_t k = rng_->NextBelow(11); k > 0; --k) {
      const uint64_t h = rng_->NextBelow(2) == 0 ? rng_->NextInRange(1, big_n) * kStride
                                                 : rng_->NextInRange(1, big_n * kStride + 10);
      entries[h] = RandomLevel();
    }
    LabelBuilder b(def);
    for (const auto& [h, l] : entries) {
      if (l != def) {
        b.Append(Handle::FromValue(h), l);
      }
    }
    return b.Build();
  }

  void CheckAll(const Label& a, const Label& b) {
    for (const bool join : {true, false}) {
      const char* what = join ? "Lub" : "Glb";
      const auto [want, want_work] = ReferenceMerge(a, b, join);
      Label got;
      ExpectWork(Measure([&] { got = join ? Label::Lub(a, b) : Label::Glb(a, b); }), want_work,
                 what);
      EXPECT_EQ(got.default_level(), want.default_level()) << what;
      EXPECT_EQ(got.Entries(), want.Entries()) << what;
      EXPECT_TRUE(got.rep_canonical()) << what;
      got.CheckRep();

      // In place: the no-op check, then ⊑, then the merge if ⊑ failed.
      Label in_place = a;
      const bool noop = join ? LevelLeq(b.max_level(), a.min_level())
                             : LevelLeq(a.max_level(), b.min_level());
      Work want_in_place{1, 0, 1};
      if (!noop) {
        const auto [leq, leq_work] = join ? ReferenceLeq(b, a) : ReferenceLeq(a, b);
        want_in_place = leq ? leq_work : leq_work + want_work;
      }
      ExpectWork(Measure([&] {
                   if (join) {
                     in_place.JoinInPlace(b);
                   } else {
                     in_place.MeetInPlace(b);
                   }
                 }),
                 want_in_place, join ? "JoinInPlace" : "MeetInPlace");
      EXPECT_EQ(in_place.Entries(), want.Entries()) << what;
      EXPECT_EQ(in_place.default_level(), want.default_level()) << what;
      EXPECT_TRUE(in_place.rep_canonical()) << what;
    }
    const auto [want_leq, want_leq_work] = ReferenceLeq(a, b);
    bool got_leq = false;
    ExpectWork(Measure([&] { got_leq = a.Leq(b); }), want_leq_work, "Leq");
    EXPECT_EQ(got_leq, want_leq);
  }
};

TEST_P(SurvivorPathTest, MatchesPointwiseReferenceAndChargesTheFullWalk) {
  for (int t = 0; t < 6; ++t) {
    const uint64_t n = rng_->NextInRange(1000, 10000);
    // ⋆-heavy with a taint above the default (demux's send label), and the
    // mirror image for ⊓: 3-heavy with a few entries below the default.
    const Label stars = HugeLabel(n, Level::kL1, Level::kStar, {Level::kL3, Level::kL2});
    const Label threes = HugeLabel(n, Level::kL2, Level::kL3, {Level::kStar, Level::kL0});
    for (int s = 0; s < 4; ++s) {
      const Label small = SmallLabel(n);
      for (const Label* big : {&stars, &threes}) {
        SCOPED_TRACE(small.ToString());
        CheckAll(*big, small);
        CheckAll(small, *big);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SurvivorPathTest,
                         ::testing::Values(1ULL, 7ULL, 42ULL, 1234ULL, 987654321ULL));

INSTANTIATE_TEST_SUITE_P(Seeds, LabelPropertyTest,
                         ::testing::Values(1ULL, 7ULL, 42ULL, 1234ULL, 987654321ULL));

}  // namespace
}  // namespace asbestos
