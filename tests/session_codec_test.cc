// The demux session record codec (src/okws/session_codec.h) under hostile
// bytes: a follower decodes whatever the primary's WAL holds, so DecodeValue
// must round-trip every record EncodeValue writes and reject, never crash
// on, anything else.
#include "src/okws/session_codec.h"

#include <gtest/gtest.h>

#include <string>

#include "src/base/rng.h"

namespace asbestos {
namespace {

Handle RandomHandle(Rng& rng) {
  switch (rng.NextBelow(4)) {
    case 0:
      return Handle::FromValue(1);
    case 1:
      return Handle::FromValue(Handle::kMaxValue);
    case 2:
      return Handle::FromValue(rng.NextInRange(1, 1000));
    default:
      return Handle::FromValue(rng.NextInRange(1, Handle::kMaxValue));
  }
}

std::string RandomPassword(Rng& rng) {
  std::string pw(rng.NextBelow(rng.NextBool() ? 8 : 200), '\0');
  for (char& c : pw) {
    c = static_cast<char>(rng.Next());
  }
  return pw;
}

// One to four byte-level edits: overwrite, insert, delete, truncate, or
// splice in a varint byte run (continuation bits, an overlong zero, a
// 2^64-scale length).
std::string Mutate(std::string s, Rng& rng) {
  static const char* const kRuns[] = {"\xff", "\x80\x00", "\xff\xff\xff\xff\xff\xff\xff\xff\x01",
                                      "\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01", "\x00"};
  static const size_t kRunSizes[] = {1, 2, 9, 10, 1};
  const auto pos = [&](size_t limit) { return static_cast<size_t>(rng.NextBelow(limit)); };
  for (uint64_t edits = rng.NextInRange(1, 4); edits > 0; --edits) {
    switch (rng.NextBelow(5)) {
      case 0:
        if (!s.empty()) {
          s[pos(s.size())] = static_cast<char>(rng.Next());
        }
        break;
      case 1:
        s.insert(pos(s.size() + 1), 1, static_cast<char>(rng.Next()));
        break;
      case 2:
        if (!s.empty()) {
          s.erase(pos(s.size()), 1);
        }
        break;
      case 3:
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

// Round trip for random records, and "reject or decode, never crash" for
// mutated ones. The budget and seed are fixed so a failure replays exactly.
TEST(SessionCodecTest, SeededMutation) {
  constexpr int kIterations = 20000;
  Rng rng(0x5e55'10de);
  int accepted = 0;
  int rejected = 0;
  for (int iter = 0; iter < kIterations; ++iter) {
    const Handle taint = RandomHandle(rng);
    const Handle grant = RandomHandle(rng);
    const std::string password = RandomPassword(rng);
    const std::string encoded = okws_session::EncodeValue(taint, grant, password);
    Handle t;
    Handle g;
    std::string pw;
    ASSERT_TRUE(okws_session::DecodeValue(encoded, &t, &g, &pw)) << "iteration " << iter;
    ASSERT_EQ(t, taint) << "iteration " << iter;
    ASSERT_EQ(g, grant) << "iteration " << iter;
    ASSERT_EQ(pw, password) << "iteration " << iter;

    const std::string mutated = Mutate(encoded, rng);
    if (!okws_session::DecodeValue(mutated, &t, &g, &pw)) {
      ++rejected;
      continue;
    }
    ++accepted;
    // An accepted record names valid handles, and its canonical encoding
    // (shortest varints) is no longer than the bytes it came from.
    ASSERT_TRUE(t.valid() && t.value() <= Handle::kMaxValue) << "iteration " << iter;
    ASSERT_TRUE(g.valid() && g.value() <= Handle::kMaxValue) << "iteration " << iter;
    const std::string again = okws_session::EncodeValue(t, g, pw);
    ASSERT_LE(again.size(), mutated.size()) << "iteration " << iter;
    Handle t2;
    Handle g2;
    std::string pw2;
    ASSERT_TRUE(okws_session::DecodeValue(again, &t2, &g2, &pw2)) << "iteration " << iter;
    ASSERT_EQ(t2, t) << "iteration " << iter;
    ASSERT_EQ(g2, g) << "iteration " << iter;
    ASSERT_EQ(pw2, pw) << "iteration " << iter;
  }
  // The edits exercise both outcomes.
  EXPECT_GT(accepted, kIterations / 20);
  EXPECT_GT(rejected, kIterations / 20);
}

}  // namespace
}  // namespace asbestos
