// Property tests for the kernel's fused label-rule evaluation: the fast
// paths (extrema pruning, histogram wholesale tests, asymmetric
// small-vs-huge shapes) must agree exactly with the naive materialized
// algebra on every input, including adversarially shaped ones.
#include <gtest/gtest.h>

#include "src/base/rng.h"
#include "src/kernel/label_checks.h"

namespace asbestos {
namespace {

class LabelChecksPropertyTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override { rng_ = std::make_unique<Rng>(GetParam()); }

  Level RandomLevel() { return static_cast<Level>(rng_->NextBelow(5)); }

  // Labels draw handles from a shared pool so overlaps are common.
  Label RandomLabel(uint64_t max_entries, uint64_t pool = 60) {
    Label l(RandomLevel());
    const uint64_t n = rng_->NextBelow(max_entries + 1);
    for (uint64_t i = 0; i < n; ++i) {
      l.Set(Handle::FromValue(rng_->NextInRange(1, pool)), RandomLevel());
    }
    return l;
  }

  // A huge label shaped like the OKWS system labels: mostly one level, a few
  // exceptions, drawn from a disjoint high handle range plus the shared pool.
  Label HugeLabel(Level bulk_level) {
    Label l(RandomLevel());
    const uint64_t n = 400 + rng_->NextBelow(600);
    for (uint64_t i = 0; i < n; ++i) {
      l.Set(Handle::FromValue(1000 + i * 3), bulk_level);
    }
    // A few overlapping and off-level entries.
    for (int i = 0; i < 6; ++i) {
      l.Set(Handle::FromValue(rng_->NextInRange(1, 60)), RandomLevel());
    }
    for (int i = 0; i < 3; ++i) {
      l.Set(Handle::FromValue(1000 + rng_->NextBelow(600) * 3), RandomLevel());
    }
    return l;
  }

  std::unique_ptr<Rng> rng_;
};

TEST_P(LabelChecksPropertyTest, DeliveryCheckMatchesNaiveSmall) {
  for (int t = 0; t < 150; ++t) {
    const Label es = RandomLabel(10);
    const Label qr = RandomLabel(10);
    const Label dr = RandomLabel(6);
    const Label v = RandomLabel(6);
    const Label pr = RandomLabel(6);
    uint64_t work = 0;
    EXPECT_EQ(CheckDeliveryAllowed(es, qr, dr, v, pr, &work),
              CheckDeliveryAllowedNaive(es, qr, dr, v, pr))
        << "ES=" << es.ToString() << " QR=" << qr.ToString() << " DR=" << dr.ToString()
        << " V=" << v.ToString() << " pR=" << pr.ToString();
  }
}

TEST_P(LabelChecksPropertyTest, DeliveryCheckMatchesNaiveHugeReceiver) {
  uint64_t total_work = 0;
  for (int t = 0; t < 40; ++t) {
    const Label es = RandomLabel(8);
    const Label qr = HugeLabel(Level::kL3);  // netd-shaped receive label
    const Label dr = RandomLabel(4);
    const Label v = RandomLabel(4);
    const Label pr = RandomLabel(4);
    uint64_t work = 0;
    EXPECT_EQ(CheckDeliveryAllowed(es, qr, dr, v, pr, &work),
              CheckDeliveryAllowedNaive(es, qr, dr, v, pr))
        << "ES=" << es.ToString();
    total_work += work;
  }
  // The O(1) extrema/default fast paths legitimately charge nothing, but
  // across many random shapes the linear-as-charged paths must show up.
  EXPECT_GT(total_work, 0u) << "big-label checks must charge linear work";
}

TEST_P(LabelChecksPropertyTest, DeliveryCheckMatchesNaiveHugeSender) {
  for (int t = 0; t < 40; ++t) {
    const Label es = HugeLabel(Level::kStar);  // netd-shaped send label
    const Label qr = RandomLabel(8);
    const Label dr = RandomLabel(4);
    const Label v = RandomLabel(4);
    const Label pr = RandomLabel(4);
    uint64_t work = 0;
    EXPECT_EQ(CheckDeliveryAllowed(es, qr, dr, v, pr, &work),
              CheckDeliveryAllowedNaive(es, qr, dr, v, pr));
  }
}

TEST_P(LabelChecksPropertyTest, DeliveryCheckMatchesNaiveHugeSenderWithTaint) {
  // The exact OKWS hot shape: a huge ⋆-rich sender label with a few level-3
  // taints that may or may not be covered by the receiver's clearances.
  for (int t = 0; t < 40; ++t) {
    Label es = HugeLabel(Level::kStar);
    es.Set(Handle::FromValue(rng_->NextInRange(1, 60)), Level::kL3);
    Label qr = RandomLabel(8);
    if (rng_->NextBool()) {
      qr.Set(Handle::FromValue(rng_->NextInRange(1, 60)), Level::kL3);
    }
    const Label dr = RandomLabel(4);
    const Label v = RandomLabel(4);
    const Label pr = RandomLabel(4);
    uint64_t work = 0;
    EXPECT_EQ(CheckDeliveryAllowed(es, qr, dr, v, pr, &work),
              CheckDeliveryAllowedNaive(es, qr, dr, v, pr));
  }
}

TEST_P(LabelChecksPropertyTest, ContaminationMatchesNaiveSmall) {
  for (int t = 0; t < 200; ++t) {
    const Label es = RandomLabel(12);
    const Label qs = RandomLabel(12);
    uint64_t work = 0;
    EXPECT_EQ(NeedsContamination(es, qs, &work), NeedsContaminationNaive(es, qs))
        << "ES=" << es.ToString() << " QS=" << qs.ToString();
  }
}

TEST_P(LabelChecksPropertyTest, ContaminationMatchesNaiveHugeReceiver) {
  for (int t = 0; t < 40; ++t) {
    const Label es = RandomLabel(8);
    const Label qs = HugeLabel(Level::kStar);  // netd's send label shape
    uint64_t work = 0;
    EXPECT_EQ(NeedsContamination(es, qs, &work), NeedsContaminationNaive(es, qs));
  }
}

TEST_P(LabelChecksPropertyTest, ContaminationMatchesNaiveHugeSender) {
  for (int t = 0; t < 40; ++t) {
    Label es = HugeLabel(Level::kStar);
    es.Set(Handle::FromValue(rng_->NextInRange(1, 60)), Level::kL3);
    const Label qs = RandomLabel(8);
    uint64_t work = 0;
    EXPECT_EQ(NeedsContamination(es, qs, &work), NeedsContaminationNaive(es, qs))
        << "ES(high)=" << es.CountEntriesAbove(qs.default_level())
        << " QS=" << qs.ToString();
  }
}

TEST_P(LabelChecksPropertyTest, AsymmetricAlgebraMatchesPointwise) {
  // Lub/Glb/Leq over small-vs-huge shapes agree with pointwise evaluation at
  // every probed handle (the asymmetric fast paths must be exact).
  for (int t = 0; t < 30; ++t) {
    const Label small = RandomLabel(6);
    const Label huge = HugeLabel(static_cast<Level>(rng_->NextBelow(5)));
    const Label join = Label::Lub(small, huge);
    const Label meet = Label::Glb(small, huge);
    for (uint64_t probe = 0; probe < 80; ++probe) {
      const Handle h = probe < 60 ? Handle::FromValue(probe + 1)
                                  : Handle::FromValue(1000 + (probe - 60) * 3);
      EXPECT_EQ(join.Get(h), LevelMax(small.Get(h), huge.Get(h)));
      EXPECT_EQ(meet.Get(h), LevelMin(small.Get(h), huge.Get(h)));
    }
    join.CheckRep();
    meet.CheckRep();
    EXPECT_TRUE(small.Leq(join));
    EXPECT_TRUE(huge.Leq(join));
    EXPECT_TRUE(meet.Leq(small));
    EXPECT_TRUE(meet.Leq(huge));
    // Leq both directions agrees with the join/meet characterization.
    EXPECT_EQ(small.Leq(huge), Label::Lub(small, huge).Equals(huge));
    EXPECT_EQ(huge.Leq(small), Label::Lub(huge, small).Equals(small));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LabelChecksPropertyTest,
                         ::testing::Values(3ULL, 17ULL, 99ULL, 2024ULL, 31337ULL));

// --- Flow-check verdict cache ------------------------------------------------

// Drops cached verdicts so these tests cannot leak state into each other.
class LabelCheckCacheTest : public ::testing::Test {
 protected:
  void SetUp() override { ResetLabelCheckCache(); }
  void TearDown() override { ResetLabelCheckCache(); }
};

TEST_F(LabelCheckCacheTest, HitMissCountersAndVerdictStability) {
  LabelBuilder eb(Level::kL1);
  for (uint64_t h = 1; h <= 150; ++h) {
    eb.Append(Handle::FromValue(h * 2), h % 3 == 0 ? Level::kL3 : Level::kL2);
  }
  const Label es = eb.Build();
  LabelBuilder qb(Level::kL2);
  for (uint64_t h = 1; h <= 150; ++h) {
    qb.Append(Handle::FromValue(h * 2), Level::kL3);
  }
  const Label qr = qb.Build();
  const Label dr = Label::Bottom();
  const Label v = Label::Top();
  const Label pr = Label::Top();

  const LabelCheckCacheStats& stats = GetLabelCheckCacheStats();
  uint64_t work_miss = 0;
  const bool verdict = CheckDeliveryAllowed(es, qr, dr, v, pr, &work_miss);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 0u);

  uint64_t work_hit = 0;
  EXPECT_EQ(CheckDeliveryAllowed(es, qr, dr, v, pr, &work_hit), verdict);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(work_hit, work_miss) << "a hit must charge exactly the uncached work";
  EXPECT_EQ(verdict, CheckDeliveryAllowedNaive(es, qr, dr, v, pr));

  // Mutating a COPY re-keys it: the tuple with the mutated label is a miss,
  // and the original tuple still hits (no invalidation, ever).
  Label qr2 = qr;
  qr2.Set(Handle::FromValue(2), Level::kL0);
  uint64_t work2 = 0;
  (void)CheckDeliveryAllowed(es, qr2, dr, v, pr, &work2);
  EXPECT_EQ(stats.misses, 2u);
  uint64_t work3 = 0;
  EXPECT_EQ(CheckDeliveryAllowed(es, qr, dr, v, pr, &work3), verdict);
  EXPECT_EQ(stats.hits, 2u);
}

TEST_F(LabelCheckCacheTest, InPlaceMutationNeverServesStaleVerdicts) {
  // The dangerous shape: the SAME Label object mutates between checks (the
  // kernel's receive labels do exactly this). The id re-key must force a
  // fresh evaluation.
  Label es({{Handle::FromValue(7), Level::kL3}}, Level::kL1);
  Label qs(Level::kL2);
  uint64_t work = 0;
  EXPECT_TRUE(NeedsContamination(es, qs, &work));
  qs.Set(Handle::FromValue(7), Level::kL3);  // in place: already contaminated
  EXPECT_FALSE(NeedsContamination(es, qs, &work));
  qs.Set(Handle::FromValue(7), Level::kL2);  // in place again
  EXPECT_TRUE(NeedsContamination(es, qs, &work));
}

TEST_F(LabelCheckCacheTest, ChargedWorkMatchesUncachedBaselineExactly) {
  // Run a recurring-tuple workload twice — through the cache, then through
  // the exported uncached reference — and require bit-identical
  // LabelWorkStats deltas and per-call work: Figure-9 cost curves must not
  // be able to tell the cache exists.
  Rng rng(20240731ULL);
  std::vector<Label> es_pool;
  std::vector<Label> qr_pool;
  for (int i = 0; i < 6; ++i) {
    LabelBuilder eb(Level::kL1);
    LabelBuilder qb(Level::kL2);
    uint64_t he = 0;
    uint64_t hq = 0;
    const uint64_t n = 40 + rng.NextBelow(200);
    for (uint64_t k = 0; k < n; ++k) {
      he += 1 + rng.NextBelow(4);
      hq += 1 + rng.NextBelow(4);
      eb.Append(Handle::FromValue(he), rng.NextBool() ? Level::kL2 : Level::kL3);
      qb.Append(Handle::FromValue(hq), Level::kL3);
    }
    es_pool.push_back(eb.Build());
    qr_pool.push_back(qb.Build());
  }
  const Label dr = Label::Bottom();
  const Label v = Label::Top();
  const Label pr = Label::Top();

  const auto run_workload = [&](bool cached) {
    std::vector<uint64_t> works;
    std::vector<bool> verdicts;
    for (int round = 0; round < 20; ++round) {
      for (size_t i = 0; i < es_pool.size(); ++i) {
        for (size_t j = 0; j < qr_pool.size(); ++j) {
          uint64_t w = 0;
          verdicts.push_back(
              cached ? CheckDeliveryAllowed(es_pool[i], qr_pool[j], dr, v, pr, &w)
                     : CheckDeliveryAllowedUncached(es_pool[i], qr_pool[j], dr, v, pr, &w));
          works.push_back(w);
          w = 0;
          verdicts.push_back(cached ? NeedsContamination(es_pool[i], qr_pool[j], &w)
                                    : NeedsContaminationUncached(es_pool[i], qr_pool[j], &w));
          works.push_back(w);
        }
      }
    }
    return std::make_pair(works, verdicts);
  };

  ResetLabelWorkStats();
  const auto cached = run_workload(true);
  const LabelWorkStats cached_stats = GetLabelWorkStats();
  EXPECT_GT(GetLabelCheckCacheStats().hits, 0u) << "the workload must actually hit";

  ResetLabelWorkStats();
  const auto uncached = run_workload(false);
  const LabelWorkStats uncached_stats = GetLabelWorkStats();

  EXPECT_EQ(cached.first, uncached.first) << "per-call charged work must match";
  EXPECT_EQ(cached.second, uncached.second);
  EXPECT_EQ(cached_stats.entries_visited, uncached_stats.entries_visited);
  EXPECT_EQ(cached_stats.fast_path_hits, uncached_stats.fast_path_hits);
  EXPECT_EQ(cached_stats.ops, uncached_stats.ops);
}

TEST_F(LabelCheckCacheTest, CapacityEvictionOnly) {
  // More distinct tuples than slots: entries leave by displacement, never by
  // invalidation. (Direct-mapped: collisions guarantee evictions well before
  // the slot count is exceeded, but exceeding it makes them certain.)
  const Label qs(Level::kL2);
  const LabelCheckCacheStats& stats = GetLabelCheckCacheStats();
  for (uint64_t i = 0; i < kContaminationCacheSlots + 512; ++i) {
    LabelBuilder b(Level::kL1);
    b.Append(Handle::FromValue(1 + i), Level::kL3);
    const Label es = b.Build();
    uint64_t w = 0;
    (void)NeedsContamination(es, qs, &w);
  }
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_EQ(stats.hits, 0u) << "all tuples were distinct";
  EXPECT_EQ(stats.misses, kContaminationCacheSlots + 512);
}

TEST_F(LabelCheckCacheTest, SteadyStateReceiveLabelUpdatesKeepHitting) {
  // The live OKWS shape the ROADMAP called out: receive labels mutate in
  // place (JoinInPlace per contamination/D_R), so before the merge paths
  // canonicalized their results every entity's label carried a private rep
  // with a fresh id and equal tuples never re-keyed to cache hits. Two LIVE
  // entities (worker event processes, say) whose labels went through the
  // same update history must now share one canonical rep — the second
  // entity's checks are pure cache hits.
  const auto grow_qr = [] {
    LabelBuilder qb(Level::kL2);
    for (uint64_t h = 1; h <= 200; ++h) {
      qb.Append(Handle::FromValue(h * 4), Level::kL3);
    }
    Label qr = qb.Build();
    // Per-request receive-label raises (D_R for three user taints).
    for (uint64_t u = 1; u <= 3; ++u) {
      qr.JoinInPlace(Label({{Handle::FromValue(u * 1000), Level::kL3}}, Level::kStar));
    }
    return qr;
  };
  const Label qr_worker1 = grow_qr();
  const Label qr_worker2 = grow_qr();  // both alive, one canonical rep
  ASSERT_EQ(qr_worker1.rep_id(), qr_worker2.rep_id());

  LabelBuilder eb(Level::kL1);
  for (uint64_t h = 1; h <= 200; ++h) {
    eb.Append(Handle::FromValue(h * 4), h % 2 == 0 ? Level::kL2 : Level::kL3);
  }
  const Label es = eb.Build();

  const LabelCheckCacheStats& stats = GetLabelCheckCacheStats();
  uint64_t work_first = 0;
  const bool verdict_first = CheckDeliveryAllowed(es, qr_worker1, Label::Bottom(),
                                                  Label::Top(), Label::Top(), &work_first);
  const uint64_t misses_after_first = stats.misses;
  EXPECT_EQ(stats.hits, 0u);

  uint64_t work_second = 0;
  const bool verdict_second = CheckDeliveryAllowed(es, qr_worker2, Label::Bottom(),
                                                   Label::Top(), Label::Top(), &work_second);
  EXPECT_EQ(verdict_second, verdict_first);
  EXPECT_EQ(stats.misses, misses_after_first) << "the second worker must not re-miss";
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(work_second, work_first) << "hits replay the exact charged work";
}

}  // namespace
}  // namespace asbestos
