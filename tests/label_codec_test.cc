// The binary label codec: lossless pickling, canonical compactness, and
// strict rejection of truncated or corrupt input.
#include "src/store/label_codec.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/labels/label.h"

namespace asbestos {
namespace {

Handle H(uint64_t v) { return Handle::FromValue(v); }

const Level kAllLevels[] = {Level::kStar, Level::kL0, Level::kL1, Level::kL2, Level::kL3};

TEST(VarintTest, RoundTripBoundaries) {
  const uint64_t values[] = {0,       1,          127,        128,
                             16383,   16384,      (1ULL << 32), Handle::kMaxValue,
                             ~0ULL};
  for (uint64_t v : values) {
    std::string buf;
    codec::AppendVarint(v, &buf);
    size_t pos = 0;
    uint64_t out = 0;
    ASSERT_EQ(codec::ReadVarint(buf, &pos, &out), Status::kOk) << v;
    EXPECT_EQ(out, v);
    EXPECT_EQ(pos, buf.size());
  }
}

TEST(VarintTest, TruncatedAndOversized) {
  std::string buf;
  codec::AppendVarint(~0ULL, &buf);
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    size_t pos = 0;
    uint64_t out = 0;
    EXPECT_EQ(codec::ReadVarint(buf.substr(0, cut), &pos, &out), Status::kBufferTooSmall);
  }
  // Eleven continuation bytes can never be a valid 64-bit varint.
  const std::string over(11, '\x80');
  size_t pos = 0;
  uint64_t out = 0;
  EXPECT_NE(codec::ReadVarint(over, &pos, &out), Status::kOk);
  // A 10th byte carrying more than the final bit overflows 64 bits.
  std::string overflow(9, '\x80');
  overflow.push_back('\x02');
  pos = 0;
  EXPECT_EQ(codec::ReadVarint(overflow, &pos, &out), Status::kInvalidArgs);
}

TEST(LabelCodecTest, DefaultOnlyLabels) {
  for (Level def : kAllLevels) {
    const Label l(def);
    const std::string pickled = codec::PickleLabel(l);
    EXPECT_EQ(pickled.size(), 2u) << "default-only labels are 2 bytes";
    Label out;
    ASSERT_EQ(codec::UnpickleLabel(pickled, &out), Status::kOk);
    EXPECT_TRUE(out.Equals(l));
    out.CheckRep();
  }
}

TEST(LabelCodecTest, StarDefaultWithEntries) {
  const Label l({{H(5), Level::kL3}, {H(9), Level::kL0}}, Level::kStar);
  Label out;
  ASSERT_EQ(codec::UnpickleLabel(codec::PickleLabel(l), &out), Status::kOk);
  EXPECT_TRUE(out.Equals(l));
  EXPECT_EQ(out.default_level(), Level::kStar);
  EXPECT_EQ(out.Get(H(5)), Level::kL3);
  EXPECT_EQ(out.Get(H(9)), Level::kL0);
}

TEST(LabelCodecTest, MaximumHandle) {
  const Label l({{H(Handle::kMaxValue), Level::kL0}, {H(1), Level::kL3}}, Level::kL1);
  Label out;
  ASSERT_EQ(codec::UnpickleLabel(codec::PickleLabel(l), &out), Status::kOk);
  EXPECT_TRUE(out.Equals(l));
  EXPECT_EQ(out.Get(H(Handle::kMaxValue)), Level::kL0);
  out.CheckRep();
}

TEST(LabelCodecTest, StarRichLabelIsCompact) {
  // idd/netd-shaped label: thousands of ⋆ entries, a few non-⋆. Run-length
  // level encoding pays the level byte per run, so the whole thing stays
  // near 1–2 bytes per entry.
  Label l(Level::kL3);
  for (uint64_t i = 1; i <= 4000; ++i) {
    l.Set(H(i * 3), Level::kStar);
  }
  l.Set(H(100000), Level::kL0);
  const std::string pickled = codec::PickleLabel(l);
  EXPECT_LT(pickled.size(), l.entry_count() * 2 + 16)
      << "⋆-rich labels must not pay per-entry level bytes";
  Label out;
  ASSERT_EQ(codec::UnpickleLabel(pickled, &out), Status::kOk);
  EXPECT_TRUE(out.Equals(l));
}

TEST(LabelCodecTest, RejectsEveryTruncation) {
  const Label l({{H(3), Level::kStar}, {H(70), Level::kL0}, {H(5000), Level::kL3}}, Level::kL2);
  const std::string pickled = codec::PickleLabel(l);
  for (size_t cut = 0; cut < pickled.size(); ++cut) {
    Label out;
    const Status s = codec::UnpickleLabel(pickled.substr(0, cut), &out);
    EXPECT_NE(s, Status::kOk) << "prefix of length " << cut << " must not decode";
  }
}

TEST(LabelCodecTest, RejectsTrailingBytes) {
  std::string pickled = codec::PickleLabel(Label({{H(3), Level::kStar}}, Level::kL2));
  pickled.push_back('\x00');
  Label out;
  EXPECT_EQ(codec::UnpickleLabel(pickled, &out), Status::kInvalidArgs);
}

TEST(LabelCodecTest, RejectsCorruptStructure) {
  Label out;
  // Bad default level ordinal.
  EXPECT_EQ(codec::UnpickleLabel(std::string("\x07\x00", 2), &out), Status::kInvalidArgs);
  // Run whose level equals the default (non-canonical).
  {
    std::string buf;
    buf.push_back('\x04');                        // default 3
    codec::AppendVarint(1, &buf);                 // one run
    codec::AppendVarint((1 << 3) | 4, &buf);      // len 1, level 3 == default
    codec::AppendVarint(1, &buf);                 // delta
    EXPECT_EQ(codec::UnpickleLabel(buf, &out), Status::kInvalidArgs);
  }
  // Overlong varint: 85 00 spells delta 5 in two bytes (canonical: 05).
  {
    std::string buf;
    buf.push_back('\x04');                    // default 3
    codec::AppendVarint(1, &buf);             // one run
    codec::AppendVarint((1 << 3) | 0, &buf);  // len 1, level ⋆
    buf.append("\x85\x00", 2);                // delta 5, overlong
    EXPECT_EQ(codec::UnpickleLabel(buf, &out), Status::kInvalidArgs);
    buf.resize(buf.size() - 2);
    buf.push_back('\x05');
    EXPECT_EQ(codec::UnpickleLabel(buf, &out), Status::kOk);
    EXPECT_EQ(codec::PickleLabel(out), buf);
  }
  // One run of two ⋆ entries split into two runs of one: runs are maximal.
  {
    std::string buf;
    buf.push_back('\x04');                    // default 3
    codec::AppendVarint(2, &buf);             // two runs
    codec::AppendVarint((1 << 3) | 0, &buf);  // run 1: len 1, level ⋆
    codec::AppendVarint(5, &buf);             // handle 5
    codec::AppendVarint((1 << 3) | 0, &buf);  // run 2: len 1, level ⋆ again
    codec::AppendVarint(1, &buf);             // handle 6
    EXPECT_EQ(codec::UnpickleLabel(buf, &out), Status::kInvalidArgs);
  }
  // Zero-length run.
  {
    std::string buf;
    buf.push_back('\x04');
    codec::AppendVarint(1, &buf);
    codec::AppendVarint((0 << 3) | 0, &buf);  // len 0, level ⋆
    EXPECT_EQ(codec::UnpickleLabel(buf, &out), Status::kInvalidArgs);
  }
  // Zero delta (duplicate handle).
  {
    std::string buf;
    buf.push_back('\x04');
    codec::AppendVarint(1, &buf);
    codec::AppendVarint((2 << 3) | 0, &buf);
    codec::AppendVarint(5, &buf);
    codec::AppendVarint(0, &buf);
    EXPECT_EQ(codec::UnpickleLabel(buf, &out), Status::kInvalidArgs);
  }
  // Handle overflow past 61 bits.
  {
    std::string buf;
    buf.push_back('\x04');
    codec::AppendVarint(1, &buf);
    codec::AppendVarint((2 << 3) | 0, &buf);
    codec::AppendVarint(Handle::kMaxValue, &buf);
    codec::AppendVarint(2, &buf);
    EXPECT_EQ(codec::UnpickleLabel(buf, &out), Status::kInvalidArgs);
  }
  // A second run restarting below the first (zero delta at a run boundary):
  // deltas accumulate across runs, so the stream cannot express unsorted or
  // overlapping runs — the boundary delta of 0 is the only encoding of a
  // repeat, and it must be rejected like any other duplicate.
  {
    std::string buf;
    buf.push_back('\x04');                    // default 3
    codec::AppendVarint(2, &buf);             // two runs
    codec::AppendVarint((1 << 3) | 0, &buf);  // run 1: len 1, level ⋆
    codec::AppendVarint(9, &buf);             // handle 9
    codec::AppendVarint((1 << 3) | 1, &buf);  // run 2: len 1, level 0
    codec::AppendVarint(0, &buf);             // "handle 9 again"
    EXPECT_EQ(codec::UnpickleLabel(buf, &out), Status::kInvalidArgs);
  }
  // A run length exceeding the remaining buffer must fail fast as a
  // truncation (each delta costs at least one byte), not be believed.
  {
    std::string buf;
    buf.push_back('\x04');
    codec::AppendVarint(1, &buf);
    codec::AppendVarint((1000 << 3) | 0, &buf);  // run claims 1000 entries
    codec::AppendVarint(1, &buf);                // ...but only one follows
    EXPECT_EQ(codec::UnpickleLabel(buf, &out), Status::kBufferTooSmall);
  }
}

// Decode failures must never leave a half-built label in *out: services
// unpickling a label into a field they already hold (recovery paths) would
// otherwise see corrupt state after a bad record.
TEST(LabelCodecTest, FailedDecodeLeavesOutputUntouched) {
  const Label sentinel({{H(77), Level::kL1}}, Level::kL2);
  // Valid prefix (two good entries), then a zero delta.
  std::string buf;
  buf.push_back('\x04');
  codec::AppendVarint(1, &buf);
  codec::AppendVarint((3 << 3) | 0, &buf);
  codec::AppendVarint(5, &buf);
  codec::AppendVarint(3, &buf);
  codec::AppendVarint(0, &buf);  // corrupt third entry
  Label out = sentinel;
  EXPECT_EQ(codec::UnpickleLabel(buf, &out), Status::kInvalidArgs);
  EXPECT_TRUE(out.Equals(sentinel));
  out.CheckRep();
}

TEST(LabelCodecTest, FuzzedGarbageNeverPanics) {
  Rng rng(0xC0DEC);
  for (int i = 0; i < 2000; ++i) {
    std::string garbage;
    const size_t len = rng.NextBelow(64);
    for (size_t j = 0; j < len; ++j) {
      garbage.push_back(static_cast<char>(rng.NextBelow(256)));
    }
    Label out;
    (void)codec::UnpickleLabel(garbage, &out);  // must return, never abort
  }
}

// The cross-check the ISSUE asks for: random labels through the binary codec
// AND the text form, both reproducing the original, reps always valid.
TEST(LabelCodecPropertyTest, RandomLabelsRoundTripBothCodecs) {
  Rng rng(0x5EED);
  for (int iter = 0; iter < 500; ++iter) {
    const Level def = kAllLevels[rng.NextBelow(5)];
    Label l(def);
    const size_t entries = rng.NextBelow(200);
    for (size_t e = 0; e < entries; ++e) {
      // Mix dense low handles (delta-friendly) with sparse huge ones.
      const uint64_t h = rng.NextBool() ? rng.NextInRange(1, 500)
                                        : rng.NextInRange(1, Handle::kMaxValue);
      l.Set(H(h), kAllLevels[rng.NextBelow(5)]);
    }
    l.CheckRep();

    Label binary;
    ASSERT_EQ(codec::UnpickleLabel(codec::PickleLabel(l), &binary), Status::kOk);
    binary.CheckRep();
    EXPECT_TRUE(binary.Equals(l)) << l.ToString();

    Label text;
    ASSERT_TRUE(Label::Parse(l.ToString(), &text)) << l.ToString();
    text.CheckRep();
    EXPECT_TRUE(text.Equals(l)) << l.ToString();

    // And the two decoded forms agree with each other bit-for-bit when
    // re-pickled: the codec is canonical.
    EXPECT_EQ(codec::PickleLabel(binary), codec::PickleLabel(text));
  }
}

// Randomized round-trip over the shapes the bulk unpickle path was built
// for — large ⋆-rich labels with scattered non-⋆ runs — checking rep
// invariants after EVERY unpickle. The builder memcpys entries into chunks
// without per-entry rebalancing, so CheckRep (sorted, deduped, extrema and
// histogram caches correct) is the test that its chunks are real labels and
// not just bags of bytes.
TEST(LabelCodecPropertyTest, RandomStarRichLabelsRoundTripWithValidReps) {
  Rng rng(0xB111D);
  for (int iter = 0; iter < 200; ++iter) {
    const Level def = kAllLevels[rng.NextBelow(5)];
    Label l(def);
    // Mostly-⋆ entries over a dense handle range (long runs), sprinkled
    // with other levels (run breaks), sized to cross many chunk boundaries.
    const size_t entries = 1 + rng.NextBelow(2000);
    uint64_t handle = 0;
    for (size_t e = 0; e < entries; ++e) {
      handle += 1 + rng.NextBelow(4);
      const Level level = rng.NextBelow(8) != 0
                              ? Level::kStar
                              : kAllLevels[rng.NextBelow(5)];
      l.Set(H(handle), level);
    }
    Label out;
    ASSERT_EQ(codec::UnpickleLabel(codec::PickleLabel(l), &out), Status::kOk);
    out.CheckRep();
    ASSERT_TRUE(out.Equals(l));
    // Canonical: re-pickling the decoded label reproduces the bytes.
    ASSERT_EQ(codec::PickleLabel(out), codec::PickleLabel(l));
  }
}

// One to four byte-level edits: flip a bit, overwrite, insert, delete,
// truncate, or splice in a varint byte run (continuation bits, an overlong
// zero, a 2^64-scale value).
std::string Mutate(std::string s, Rng& rng) {
  static const char* const kRuns[] = {"\xff", "\x80\x00", "\xff\xff\xff\xff\xff\xff\xff\xff\x01",
                                      "\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01", "\x00"};
  static const size_t kRunSizes[] = {1, 2, 9, 10, 1};
  const auto pos = [&](size_t limit) { return static_cast<size_t>(rng.NextBelow(limit)); };
  for (uint64_t edits = rng.NextInRange(1, 4); edits > 0; --edits) {
    switch (rng.NextBelow(6)) {
      case 0:
        if (!s.empty()) {
          s[pos(s.size())] ^= static_cast<char>(1u << rng.NextBelow(8));
        }
        break;
      case 1:
        if (!s.empty()) {
          s[pos(s.size())] = static_cast<char>(rng.Next());
        }
        break;
      case 2:
        s.insert(pos(s.size() + 1), 1, static_cast<char>(rng.Next()));
        break;
      case 3:
        if (!s.empty()) {
          s.erase(pos(s.size()), 1);
        }
        break;
      case 4:
        s.resize(pos(s.size() + 1));
        break;
      default: {
        const size_t run = rng.NextBelow(5);
        s.insert(pos(s.size() + 1), kRuns[run], kRunSizes[run]);
        break;
      }
    }
  }
  return s;
}

// "Reject and leave the output alone, or decode a valid label" for mutated
// encodings of random labels and of ⋆-rich labels of about 10^3 entries (the
// shape of netd's and idd's send labels). The decoder accepts only the
// canonical spelling (minimal varints, maximal runs), so an accepted decode
// must pass CheckRep and re-encode to exactly its input bytes. The budget
// and seed are fixed so a failure replays exactly.
TEST(LabelCodecTest, SeededMutation) {
  constexpr int kIterations = 20000;
  Rng rng(0x1abe1'c0dec);
  std::vector<std::string> encodings;
  for (int i = 0; i < 48; ++i) {
    Label l(kAllLevels[rng.NextBelow(5)]);
    if (i % 3 == 0) {
      uint64_t handle = 0;
      for (uint64_t e = rng.NextInRange(800, 1200); e > 0; --e) {
        handle += 1 + rng.NextBelow(4);
        l.Set(H(handle), rng.NextBelow(8) != 0 ? Level::kStar : kAllLevels[rng.NextBelow(5)]);
      }
    } else {
      for (uint64_t e = rng.NextBelow(40); e > 0; --e) {
        const uint64_t h = rng.NextBool() ? rng.NextInRange(1, 500)
                                          : rng.NextInRange(1, Handle::kMaxValue);
        l.Set(H(h), kAllLevels[rng.NextBelow(5)]);
      }
    }
    encodings.push_back(codec::PickleLabel(l));
  }

  const Label sentinel({{H(77), Level::kL1}}, Level::kL2);
  int accepted = 0;
  int rejected = 0;
  for (int iter = 0; iter < kIterations; ++iter) {
    const std::string mutated = Mutate(encodings[rng.NextBelow(encodings.size())], rng);
    Label out = sentinel;
    if (!IsOk(codec::UnpickleLabel(mutated, &out))) {
      ++rejected;
      ASSERT_EQ(out.rep_id(), sentinel.rep_id()) << "iteration " << iter;
      continue;
    }
    ++accepted;
    out.CheckRep();
    ASSERT_EQ(codec::PickleLabel(out), mutated) << "iteration " << iter;
  }
  // The edits exercise both outcomes.
  EXPECT_GT(accepted, kIterations / 20);
  EXPECT_GT(rejected, kIterations / 20);
}

}  // namespace
}  // namespace asbestos
