#include "src/labels/label.h"

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/labels/handle.h"
#include "src/labels/level.h"

namespace asbestos {
namespace {

Handle H(uint64_t v) { return Handle::FromValue(v); }

TEST(LabelTest, FactoriesAndDefaults) {
  EXPECT_EQ(Label::Top().default_level(), Level::kL3);
  EXPECT_EQ(Label::Bottom().default_level(), Level::kStar);
  EXPECT_EQ(Label::DefaultSend().default_level(), Level::kL1);
  EXPECT_EQ(Label::DefaultReceive().default_level(), Level::kL2);
  EXPECT_EQ(Label().default_level(), Level::kL3);
  EXPECT_EQ(Label::Top().entry_count(), 0u);
}

TEST(LabelTest, GetFallsBackToDefault) {
  const Label l({{H(5), Level::kL3}}, Level::kL1);
  EXPECT_EQ(l.Get(H(5)), Level::kL3);
  EXPECT_EQ(l.Get(H(6)), Level::kL1);
  EXPECT_TRUE(l.HasExplicit(H(5)));
  EXPECT_FALSE(l.HasExplicit(H(6)));
}

TEST(LabelTest, SetAndRemove) {
  Label l(Level::kL1);
  l.Set(H(10), Level::kL3);
  EXPECT_EQ(l.entry_count(), 1u);
  EXPECT_EQ(l.Get(H(10)), Level::kL3);
  l.Set(H(10), Level::kL1);  // back to default removes the entry
  EXPECT_EQ(l.entry_count(), 0u);
  EXPECT_FALSE(l.HasExplicit(H(10)));
  l.CheckRep();
}

TEST(LabelTest, SetOverwrites) {
  Label l(Level::kL1);
  l.Set(H(10), Level::kL3);
  l.Set(H(10), Level::kStar);
  EXPECT_EQ(l.Get(H(10)), Level::kStar);
  EXPECT_EQ(l.entry_count(), 1u);
  l.CheckRep();
}

TEST(LabelTest, MinMaxCaching) {
  Label l(Level::kL1);
  EXPECT_EQ(l.min_level(), Level::kL1);
  EXPECT_EQ(l.max_level(), Level::kL1);
  l.Set(H(1), Level::kL3);
  EXPECT_EQ(l.max_level(), Level::kL3);
  l.Set(H(2), Level::kStar);
  EXPECT_EQ(l.min_level(), Level::kStar);
  l.Set(H(2), Level::kL1);  // removal restores extrema
  EXPECT_EQ(l.min_level(), Level::kL1);
  l.CheckRep();
}

TEST(LabelTest, LeqDefaultDecides) {
  // Unmentioned handles compare default-to-default: {1} ⊑ {2} but not {2} ⊑ {1}.
  EXPECT_TRUE(Label::DefaultSend().Leq(Label::DefaultReceive()));
  EXPECT_FALSE(Label::DefaultReceive().Leq(Label::DefaultSend()));
}

TEST(LabelTest, LeqWithEntries) {
  // Paper Figure 2: VS = {vT 3, 1} is not ⊑ UTR = {uT 3, 2} because
  // VS(vT) = 3 > UTR(vT) = 2; US = {uT 3, 1} ⊑ UTR.
  const Handle ut = H(100);
  const Handle vt = H(200);
  const Label us({{ut, Level::kL3}}, Level::kL1);
  const Label vs({{vt, Level::kL3}}, Level::kL1);
  const Label utr({{ut, Level::kL3}}, Level::kL2);
  EXPECT_TRUE(us.Leq(utr));
  EXPECT_FALSE(vs.Leq(utr));
}

TEST(LabelTest, LeqStarBelowEverything) {
  const Label starry({{H(1), Level::kStar}}, Level::kL1);
  const Label zero({{H(1), Level::kL0}}, Level::kL1);
  EXPECT_TRUE(starry.Leq(zero));
  EXPECT_FALSE(zero.Leq(starry));
}

TEST(LabelTest, LubPointwiseMax) {
  const Label a({{H(1), Level::kL3}, {H(2), Level::kL0}}, Level::kL1);
  const Label b({{H(2), Level::kL2}, {H(3), Level::kStar}}, Level::kL1);
  const Label j = Label::Lub(a, b);
  EXPECT_EQ(j.default_level(), Level::kL1);
  EXPECT_EQ(j.Get(H(1)), Level::kL3);
  EXPECT_EQ(j.Get(H(2)), Level::kL2);
  EXPECT_EQ(j.Get(H(3)), Level::kL1);  // max(⋆, default 1) = 1 → folded into default
  EXPECT_EQ(j.entry_count(), 2u);
  j.CheckRep();
}

TEST(LabelTest, GlbPointwiseMin) {
  const Label a({{H(1), Level::kL3}, {H(2), Level::kL0}}, Level::kL2);
  const Label b({{H(2), Level::kL2}, {H(3), Level::kStar}}, Level::kL1);
  const Label m = Label::Glb(a, b);
  EXPECT_EQ(m.default_level(), Level::kL1);
  EXPECT_EQ(m.Get(H(1)), Level::kL1);  // min(3, default 1)
  EXPECT_EQ(m.Get(H(2)), Level::kL0);
  EXPECT_EQ(m.Get(H(3)), Level::kStar);
  m.CheckRep();
}

TEST(LabelTest, LubWithBottomIsIdentity) {
  const Label a({{H(9), Level::kL3}}, Level::kL1);
  EXPECT_TRUE(Label::Lub(a, Label::Bottom()).Equals(a));
  EXPECT_TRUE(Label::Lub(Label::Bottom(), a).Equals(a));
}

TEST(LabelTest, GlbWithTopIsIdentity) {
  const Label a({{H(9), Level::kL0}}, Level::kL1);
  EXPECT_TRUE(Label::Glb(a, Label::Top()).Equals(a));
  EXPECT_TRUE(Label::Glb(Label::Top(), a).Equals(a));
}

TEST(LabelTest, StarsOnlyDefaultNonStar) {
  // L⋆(h) = ⋆ where L(h) = ⋆, else 3.
  const Label l({{H(1), Level::kStar}, {H(2), Level::kL0}, {H(3), Level::kL3}}, Level::kL1);
  const Label s = l.StarsOnly();
  EXPECT_EQ(s.default_level(), Level::kL3);
  EXPECT_EQ(s.Get(H(1)), Level::kStar);
  EXPECT_EQ(s.Get(H(2)), Level::kL3);
  EXPECT_EQ(s.Get(H(3)), Level::kL3);
  EXPECT_EQ(s.entry_count(), 1u);
  s.CheckRep();
}

TEST(LabelTest, StarsOnlyDefaultStar) {
  const Label l({{H(1), Level::kL2}}, Level::kStar);
  const Label s = l.StarsOnly();
  EXPECT_EQ(s.default_level(), Level::kStar);
  EXPECT_EQ(s.Get(H(1)), Level::kL3);
  EXPECT_EQ(s.Get(H(2)), Level::kStar);
  s.CheckRep();
}

TEST(LabelTest, JoinInPlaceNoChangeWhenDominated) {
  Label a({{H(1), Level::kL3}}, Level::kL1);
  const Label b({{H(1), Level::kL2}}, Level::kL1);
  a.JoinInPlace(b);
  EXPECT_EQ(a.Get(H(1)), Level::kL3);
  EXPECT_EQ(a.entry_count(), 1u);
}

TEST(LabelTest, JoinInPlaceRaises) {
  Label a(Level::kL1);
  const Label taint({{H(7), Level::kL3}}, Level::kStar);
  a.JoinInPlace(taint);
  EXPECT_EQ(a.Get(H(7)), Level::kL3);
  EXPECT_EQ(a.default_level(), Level::kL1);
}

TEST(LabelTest, MeetInPlaceLowers) {
  Label a({{H(7), Level::kL1}}, Level::kL1);
  const Label grant({{H(7), Level::kStar}}, Level::kL3);
  a.MeetInPlace(grant);
  EXPECT_EQ(a.Get(H(7)), Level::kStar);
  EXPECT_EQ(a.default_level(), Level::kL1);
}

TEST(LabelTest, CopyIsIndependentCow) {
  Label a({{H(5), Level::kL3}}, Level::kL1);
  Label b = a;
  b.Set(H(5), Level::kL0);
  EXPECT_EQ(a.Get(H(5)), Level::kL3) << "mutating a copy must not affect the original";
  EXPECT_EQ(b.Get(H(5)), Level::kL0);
  a.CheckRep();
  b.CheckRep();
}

TEST(LabelTest, CopySharesMemoryUntilWrite) {
  const int64_t before = GetLabelMemStats().live_bytes;
  Label a({{H(5), Level::kL3}}, Level::kL1);
  const int64_t with_a = GetLabelMemStats().live_bytes;
  Label b = a;  // shares the representation
  EXPECT_EQ(GetLabelMemStats().live_bytes, with_a);
  b.Set(H(6), Level::kL3);  // forces an unshare
  EXPECT_GT(GetLabelMemStats().live_bytes, with_a);
  (void)before;
}

TEST(LabelTest, MemStatsReturnToBaseline) {
  const int64_t before = GetLabelMemStats().live_bytes;
  {
    Label a(Level::kL1);
    for (uint64_t i = 1; i <= 500; ++i) {
      a.Set(H(i), Level::kL3);
    }
    EXPECT_GT(GetLabelMemStats().live_bytes, before);
  }
  EXPECT_EQ(GetLabelMemStats().live_bytes, before);
}

TEST(LabelTest, SmallestLabelIsAboutThreeHundredBytes) {
  // Paper §5.6: "The smallest label is about 300 bytes long, including space
  // for one chunk."
  const Label l({{H(1), Level::kL3}}, Level::kL1);
  EXPECT_GE(l.heap_bytes(), 200u);
  EXPECT_LE(l.heap_bytes(), 450u);
}

TEST(LabelTest, ManyEntriesChunkSplitting) {
  Label l(Level::kL1);
  // Insert out of order to exercise mid-chunk insertion and splitting.
  for (uint64_t i = 1; i <= 1000; ++i) {
    const uint64_t h = (i * 2654435761u) % 100000 + 1;
    l.Set(H(h), Level::kL3);
    if (i % 100 == 0) {
      l.CheckRep();
    }
  }
  l.CheckRep();
  // Every explicit entry reads back.
  for (const auto& [h, level] : l.Entries()) {
    EXPECT_EQ(l.Get(h), level);
  }
}

// The label memory model: a rep is kRepBytes (sizeof(LabelRep), 96) and a
// chunk ChunkBytes(capacity) = 24 (the header) + 8 per entry slot + 8 (the
// rep's pointer to it), whatever the host layout behind them. A chunk is one
// host block and a one-chunk rep keeps its chunk pointer inline, and the
// accounted bytes must not notice.
constexpr int64_t kRepBytes = 96;
constexpr int64_t ChunkBytes(int64_t capacity) { return 24 + 8 * capacity + 8; }

class LabelMemModelTest : public ::testing::Test {
 protected:
  // Live label memory above what the test started from.
  struct Delta {
    int64_t bytes;
    int64_t reps;
    int64_t chunks;
  };
  Delta Live() const {
    const LabelMemStats& now = GetLabelMemStats();
    return {now.live_bytes - start_.live_bytes, now.live_reps - start_.live_reps,
            now.live_chunks - start_.live_chunks};
  }
  void ExpectLive(int64_t bytes, int64_t reps, int64_t chunks) const {
    const Delta d = Live();
    EXPECT_EQ(d.bytes, bytes);
    EXPECT_EQ(d.reps, reps);
    EXPECT_EQ(d.chunks, chunks);
  }

  Label label_{Level::kL1};  // the shared {1} rep exists before start_
  LabelMemStats start_ = GetLabelMemStats();
};

TEST_F(LabelMemModelTest, OneEntryLabelIsOneRepAndOneSmallChunk) {
  label_.Set(H(7), Level::kL3);
  ExpectLive(kRepBytes + ChunkBytes(32), 1, 1);
  EXPECT_EQ(label_.heap_bytes(), static_cast<uint64_t>(kRepBytes + ChunkBytes(32)));
  label_.CheckRep();
  label_ = Label(Level::kL1);
  ExpectLive(0, 0, 0);
}

TEST_F(LabelMemModelTest, SixtyFourEntriesSplitIntoTwoChunksOfThirtyTwo) {
  for (uint64_t h = 1; h <= 32; ++h) {
    label_.Set(H(h * 10), Level::kL3);
  }
  ExpectLive(kRepBytes + ChunkBytes(32), 1, 1);
  label_.Set(H(330), Level::kL3);  // the 33rd entry regrows the chunk to 64 slots
  ExpectLive(kRepBytes + ChunkBytes(64), 1, 1);
  for (uint64_t h = 34; h <= 64; ++h) {
    label_.Set(H(h * 10), Level::kL3);
  }
  ExpectLive(kRepBytes + ChunkBytes(64), 1, 1);
  label_.Set(H(5), Level::kL3);  // a full chunk splits 32 + 32 before the insert
  ExpectLive(kRepBytes + 2 * ChunkBytes(64), 1, 2);
  EXPECT_EQ(label_.heap_bytes(), static_cast<uint64_t>(kRepBytes + 2 * ChunkBytes(64)));
  label_.CheckRep();
  EXPECT_EQ(label_.entry_count(), 65u);
  for (uint64_t h = 1; h <= 64; ++h) {
    EXPECT_EQ(label_.Get(H(h * 10)), Level::kL3);
  }
  EXPECT_EQ(label_.Get(H(5)), Level::kL3);
  // A copy shares both chunks: one more rep, no chunk bytes.
  Label copy = label_;
  copy.Set(H(640), Level::kL2);  // unshares the rep and the right chunk only
  ExpectLive(2 * kRepBytes + 3 * ChunkBytes(64), 2, 3);
  copy = label_;
  ExpectLive(kRepBytes + 2 * ChunkBytes(64), 1, 2);
}

TEST_F(LabelMemModelTest, ErasingAChunksLastEntryFreesTheChunk) {
  for (uint64_t h = 1; h <= 65; ++h) {
    label_.Set(H(h), Level::kL3);  // in order: splits into 32 + 33
  }
  ExpectLive(kRepBytes + 2 * ChunkBytes(64), 1, 2);
  for (uint64_t h = 1; h <= 32; ++h) {
    label_.Set(H(h), Level::kL1);  // back to the default: removes the entry
  }
  ExpectLive(kRepBytes + ChunkBytes(64), 1, 1);  // the first chunk is gone
  label_.CheckRep();
  EXPECT_EQ(label_.entry_count(), 33u);
  EXPECT_EQ(label_.Get(H(33)), Level::kL3);
  EXPECT_EQ(label_.Get(H(1)), Level::kL1);
  for (uint64_t h = 33; h <= 65; ++h) {
    label_.Set(H(h), Level::kL1);
  }
  ExpectLive(kRepBytes, 1, 0);  // an entry-less private rep keeps no chunk
  label_.CheckRep();
  label_ = Label(Level::kL1);
  ExpectLive(0, 0, 0);
}

TEST(LabelTest, EntriesSorted) {
  Label l(Level::kL1);
  for (uint64_t v : {900ULL, 1ULL, 44ULL, 500ULL, 7ULL}) {
    l.Set(H(v), Level::kL3);
  }
  const auto entries = l.Entries();
  ASSERT_EQ(entries.size(), 5u);
  for (size_t i = 1; i < entries.size(); ++i) {
    EXPECT_LT(entries[i - 1].first, entries[i].first);
  }
}

TEST(LabelTest, ToStringFormat) {
  const Label l({{H(5), Level::kStar}, {H(9), Level::kL3}}, Level::kL1);
  EXPECT_EQ(l.ToString(), "{5 *, 9 3, 1}");
  EXPECT_EQ(Label::Top().ToString(), "{3}");
}

TEST(LabelTest, ParseRoundTrip) {
  Label l({{H(5), Level::kStar}, {H(9), Level::kL3}, {H(77), Level::kL0}}, Level::kL2);
  Label parsed;
  ASSERT_TRUE(Label::Parse(l.ToString(), &parsed));
  EXPECT_TRUE(parsed.Equals(l));
}

TEST(LabelTest, ParseRejectsMalformed) {
  Label out;
  EXPECT_FALSE(Label::Parse("", &out));
  EXPECT_FALSE(Label::Parse("{", &out));
  EXPECT_FALSE(Label::Parse("{4}", &out));       // invalid level
  EXPECT_FALSE(Label::Parse("{x 3, 1}", &out));  // bad handle
  EXPECT_FALSE(Label::Parse("{0 3, 1}", &out));  // handle 0 is reserved
  EXPECT_FALSE(Label::Parse("5 3, 1", &out));    // missing braces
  EXPECT_FALSE(Label::Parse("{5 1, 5 2, 3}", &out));  // duplicate handle
  EXPECT_FALSE(Label::Parse("{9 3, 5 2, 3}", &out));  // out of order
  EXPECT_FALSE(Label::Parse("{5 4, 3}", &out));       // no such level name
}

TEST(LabelTest, ParseEdgeCases) {
  Label out;
  // ⋆ default.
  ASSERT_TRUE(Label::Parse("{*}", &out));
  EXPECT_TRUE(out.Equals(Label::Bottom()));
  // Maximum 61-bit handle round-trips; one past it is rejected.
  const Label max_label({{H(Handle::kMaxValue), Level::kL0}}, Level::kStar);
  ASSERT_TRUE(Label::Parse(max_label.ToString(), &out));
  EXPECT_TRUE(out.Equals(max_label));
  out.CheckRep();
  EXPECT_FALSE(Label::Parse("{2305843009213693952 *, 3}", &out));
  EXPECT_FALSE(Label::Parse("{18446744073709551616 *, 3}", &out));
  // Entries written at the default level are degenerate but parseable (they
  // simply vanish, as Set() keeps the rep canonical).
  ASSERT_TRUE(Label::Parse("{5 *, *}", &out));
  EXPECT_TRUE(out.Equals(Label::Bottom()));
  out.CheckRep();
  // Whitespace is tolerated where ToString may not put it.
  ASSERT_TRUE(Label::Parse("{ 5  * , 2 }", &out));
  EXPECT_EQ(out.Get(H(5)), Level::kStar);
  EXPECT_EQ(out.default_level(), Level::kL2);
}

TEST(LabelTest, EqualsIsExtensional) {
  Label a(Level::kL1);
  a.Set(H(5), Level::kL3);
  a.Set(H(5), Level::kL1);  // removed again
  EXPECT_TRUE(a.Equals(Label(Level::kL1)));
  EXPECT_FALSE(a.Equals(Label(Level::kL2)));
}

TEST(LabelTest, LevelHistogramTracksEntries) {
  Label l(Level::kL1);
  l.Set(H(1), Level::kStar);
  l.Set(H(2), Level::kStar);
  l.Set(H(3), Level::kL0);
  l.Set(H(4), Level::kL3);
  EXPECT_EQ(l.CountEntriesAtLevel(Level::kStar), 2u);
  EXPECT_EQ(l.CountEntriesAtLevel(Level::kL0), 1u);
  EXPECT_EQ(l.CountEntriesAtLevel(Level::kL1), 0u) << "default-valued entries don't exist";
  EXPECT_EQ(l.CountEntriesAbove(Level::kStar), 2u);
  EXPECT_EQ(l.CountEntriesAbove(Level::kL2), 1u);
  EXPECT_EQ(l.EntryMinLevel(), Level::kStar);
  EXPECT_EQ(l.EntryMaxLevel(), Level::kL3);
  EXPECT_EQ(l.MinNonStarEntryLevel(), Level::kL0);

  l.Set(H(3), Level::kL1);  // remove
  EXPECT_EQ(l.CountEntriesAtLevel(Level::kL0), 0u);
  EXPECT_EQ(l.MinNonStarEntryLevel(), Level::kL3);
  l.Set(H(4), Level::kL2);  // overwrite
  EXPECT_EQ(l.CountEntriesAtLevel(Level::kL3), 0u);
  EXPECT_EQ(l.CountEntriesAtLevel(Level::kL2), 1u);
  l.CheckRep();
}

TEST(LabelTest, HistogramOnEmptyLabel) {
  const Label l(Level::kL1);
  EXPECT_EQ(l.CountEntriesAbove(Level::kStar), 0u);
  EXPECT_EQ(l.EntryMinLevel(), Level::kL3) << "neutral for ≤ comparisons";
  EXPECT_EQ(l.EntryMaxLevel(), Level::kStar);
  EXPECT_EQ(l.MinNonStarEntryLevel(), Level::kL3);
}

TEST(LabelTest, NonStarIterSkipsStarEntries) {
  Label l(Level::kL1);
  // Many ⋆ entries (whole chunks of them) with a few non-⋆ sprinkled in.
  for (uint64_t i = 1; i <= 300; ++i) {
    l.Set(H(i * 10), Level::kStar);
  }
  l.Set(H(5), Level::kL3);     // before all stars
  l.Set(H(1505), Level::kL0);  // middle of a star run
  l.Set(H(9999), Level::kL2);  // after
  std::vector<std::pair<uint64_t, Level>> seen;
  for (Label::NonStarIter it = l.IterateNonStarEntries(); !it.done(); it.Advance()) {
    seen.emplace_back(it.handle().value(), it.level());
  }
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], (std::pair<uint64_t, Level>{5, Level::kL3}));
  EXPECT_EQ(seen[1], (std::pair<uint64_t, Level>{1505, Level::kL0}));
  EXPECT_EQ(seen[2], (std::pair<uint64_t, Level>{9999, Level::kL2}));
}

TEST(LabelTest, NonStarIterOnAllStarAndEmptyLabels) {
  Label all_star(Level::kL1);
  for (uint64_t i = 1; i <= 100; ++i) {
    all_star.Set(H(i), Level::kStar);
  }
  EXPECT_TRUE(all_star.IterateNonStarEntries().done());
  EXPECT_TRUE(Label(Level::kL2).IterateNonStarEntries().done());
}

// The cursor shapes: EntryIter must yield exactly Entries(), and
// NonStarIter exactly its non-⋆ subsequence, whatever the chunk layout
// underneath — no chunks, one, a full one, a split, whole all-⋆ chunks
// (skipped wholesale), non-⋆ entries on chunk edges, an erased chunk, and
// chunks shared copy-on-write.
using EntryList = std::vector<std::pair<Handle, Level>>;

void ExpectCursorsMatchEntries(const Label& l) {
  const EntryList entries = l.Entries();
  EntryList non_star;
  for (const auto& e : entries) {
    if (e.second != Level::kStar) {
      non_star.push_back(e);
    }
  }
  EntryList walked;
  for (Label::EntryIter it = l.IterateEntries(); !it.done(); it.Advance()) {
    walked.emplace_back(it.handle(), it.level());
  }
  EXPECT_EQ(walked, entries);
  EntryList walked_non_star;
  for (Label::NonStarIter it = l.IterateNonStarEntries(); !it.done(); it.Advance()) {
    walked_non_star.emplace_back(it.handle(), it.level());
  }
  EXPECT_EQ(walked_non_star, non_star);
}

// Levels other than the default {1}, ⋆ included, in a fixed rotation.
Level RotatingLevel(uint64_t i) {
  constexpr Level kLevels[4] = {Level::kStar, Level::kL3, Level::kL0, Level::kL2};
  return kLevels[i % 4];
}

TEST(LabelTest, CursorsOnEntrylessLabels) {
  ExpectCursorsMatchEntries(Label(Level::kL2));  // the shared default-only rep
  Label emptied(Level::kL1);
  emptied.Set(H(9), Level::kL3);
  emptied.Set(H(9), Level::kL1);  // a private rep left with no chunk
  ASSERT_EQ(emptied.entry_count(), 0u);
  ExpectCursorsMatchEntries(emptied);
  EXPECT_TRUE(emptied.IterateEntries().done());
  EXPECT_TRUE(emptied.IterateNonStarEntries().done());
}

TEST(LabelTest, CursorsAcrossOneAndTwoChunks) {
  // Rotation 0 starts every chunk on a ⋆ entry, rotation 1 on a non-⋆ one.
  for (const uint64_t rotation : {uint64_t{0}, uint64_t{1}}) {
    for (const uint64_t n : {uint64_t{1}, uint64_t{64}, uint64_t{65}}) {
      SCOPED_TRACE("entries " + std::to_string(n) + ", rotation " + std::to_string(rotation));
      Label l(Level::kL1);
      for (uint64_t i = 0; i < n; ++i) {
        l.Set(H(10 + 3 * i), RotatingLevel(i + rotation));
      }
      l.CheckRep();
      ASSERT_EQ(l.entry_count(), n);
      ExpectCursorsMatchEntries(l);
    }
  }
}

TEST(LabelTest, CursorsOverAStarRichLabelWithAllStarChunks) {
  // Built in bulk, so chunk k holds entries [64k, 64k + 64). Chunks 20–39
  // are all ⋆; every other chunk has a non-⋆ entry on its last edge and a
  // few inside. Chunks below 20 have one on their first edge too, chunks
  // from 40 on open with a run of ⋆ entries instead. The last chunk is
  // partial (10^4 = 156 · 64 + 16).
  constexpr uint64_t kCount = 10000;
  LabelBuilder b(Level::kL1);
  for (uint64_t i = 0; i < kCount; ++i) {
    const uint64_t chunk = i / 64;
    const uint64_t pos = i % 64;
    Level l = Level::kStar;
    if (chunk < 20 || chunk >= 40) {
      if (chunk < 20 ? pos == 0 : pos == 5) {
        l = Level::kL3;
      } else if (pos == 63 || i == kCount - 1) {
        l = Level::kL0;
      } else if (i % 97 == 0) {
        l = Level::kL2;
      }
    }
    b.Append(H(3 + 7 * i), l);
  }
  const Label l = b.Build();
  l.CheckRep();
  ASSERT_EQ(l.entry_count(), kCount);
  EXPECT_GT(l.CountEntriesAtLevel(Level::kStar), l.entry_count() / 2);
  ExpectCursorsMatchEntries(l);
}

TEST(LabelTest, CursorsAfterSetToDefaultErasesAChunk) {
  LabelBuilder b(Level::kL1);
  for (uint64_t i = 0; i < 192; ++i) {
    b.Append(H(100 + i), RotatingLevel(i));  // three full chunks
  }
  Label l = b.Build();
  for (uint64_t i = 64; i < 128; ++i) {
    l.Set(H(100 + i), Level::kL1);  // the middle chunk, entry by entry
  }
  l.CheckRep();
  ASSERT_EQ(l.entry_count(), 128u);
  ExpectCursorsMatchEntries(l);
}

TEST(LabelTest, CursorsOnACopyOnWriteCopyAndItsOriginal) {
  Label original(Level::kL1);
  for (uint64_t i = 0; i < 200; ++i) {
    original.Set(H(5 + 2 * i), RotatingLevel(i));
  }
  const EntryList before = original.Entries();
  Label copy = original;
  copy.Set(H(6), Level::kL3);  // unshares the copy's first chunk only
  ASSERT_EQ(copy.entry_count(), original.entry_count() + 1);
  ExpectCursorsMatchEntries(copy);
  ExpectCursorsMatchEntries(original);
  EXPECT_EQ(original.Entries(), before);
}

TEST(LabelTest, WorkStatsCountOps) {
  ResetLabelWorkStats();
  Label big(Level::kL1);
  for (uint64_t i = 1; i <= 200; ++i) {
    big.Set(H(i * 10), Level::kL3);
  }
  const uint64_t before = GetLabelWorkStats().entries_visited;
  const Label other({{H(15), Level::kL2}}, Level::kL1);
  (void)big.Leq(other);
  EXPECT_GT(GetLabelWorkStats().entries_visited, before)
      << "a non-fast-path comparison must count entry visits";
}

TEST(LabelTest, FastPathSkipsEntryScan) {
  ResetLabelWorkStats();
  Label a(Level::kL1);  // max 1
  Label b(Level::kL2);  // min 2
  const uint64_t visits_before = GetLabelWorkStats().entries_visited;
  EXPECT_TRUE(a.Leq(b));
  EXPECT_EQ(GetLabelWorkStats().entries_visited, visits_before);
  EXPECT_GT(GetLabelWorkStats().fast_path_hits, 0u);
}

// --- LabelBuilder (the bulk unpickle path) ----------------------------------

TEST(LabelBuilderTest, BuildsSameLabelAsSet) {
  LabelBuilder builder(Level::kL1);
  Label expected(Level::kL1);
  // Enough entries to cross several 64-entry chunk boundaries, with level
  // variety so extrema and histogram caches carry information.
  const Level levels[] = {Level::kStar, Level::kL0, Level::kL2, Level::kL3};
  for (uint64_t i = 1; i <= 500; ++i) {
    const Level l = levels[i % 4];
    builder.Append(H(i * 3), l);
    expected.Set(H(i * 3), l);
  }
  EXPECT_EQ(builder.entry_count(), 500u);
  const Label built = builder.Build();
  built.CheckRep();
  EXPECT_TRUE(built.Equals(expected));
  EXPECT_EQ(built.entry_count(), 500u);
  EXPECT_EQ(built.CountEntriesAtLevel(Level::kStar), 125u);
  EXPECT_EQ(built.min_level(), Level::kStar);
  EXPECT_EQ(built.max_level(), Level::kL3);
}

TEST(LabelBuilderTest, EmptyBuildIsDefaultLabel) {
  LabelBuilder builder(Level::kStar);
  const Label built = builder.Build();
  built.CheckRep();
  EXPECT_TRUE(built.Equals(Label::Bottom()));
  EXPECT_EQ(built.entry_count(), 0u);
}

TEST(LabelBuilderTest, BuildResetsForReuse) {
  LabelBuilder builder(Level::kL3);
  builder.Append(H(10), Level::kStar);
  const Label first = builder.Build();
  EXPECT_EQ(builder.entry_count(), 0u);
  // Reuse with a smaller handle than the first batch ever held: the reset
  // must have cleared the monotonicity watermark too.
  builder.Append(H(1), Level::kL0);
  const Label second = builder.Build();
  first.CheckRep();
  second.CheckRep();
  EXPECT_TRUE(first.Equals(Label({{H(10), Level::kStar}}, Level::kL3)));
  EXPECT_TRUE(second.Equals(Label({{H(1), Level::kL0}}, Level::kL3)));
}

TEST(LabelBuilderTest, BuiltLabelsInteroperateWithAlgebra) {
  LabelBuilder builder(Level::kStar);
  for (uint64_t i = 1; i <= 100; ++i) {
    builder.Append(H(i), Level::kL3);
  }
  Label built = builder.Build();
  const Label other({{H(50), Level::kL3}, {H(200), Level::kL2}}, Level::kStar);
  EXPECT_TRUE(other.Leq(built) == false);
  Label joined = Label::Lub(built, other);
  joined.CheckRep();
  EXPECT_EQ(joined.Get(H(200)), Level::kL2);
  EXPECT_EQ(joined.Get(H(50)), Level::kL3);
  // Mutation after bulk construction goes through the normal COW path.
  built.Set(H(1000), Level::kL0);
  built.CheckRep();
  EXPECT_EQ(built.Get(H(1000)), Level::kL0);
}

}  // namespace
}  // namespace asbestos
