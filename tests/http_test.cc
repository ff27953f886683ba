#include "src/http/http.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/base/rng.h"

namespace asbestos {
namespace {

TEST(HttpRequestParserTest, SimpleGet) {
  HttpRequestParser p;
  EXPECT_EQ(p.Feed("GET /store?op=get&k=a%20b HTTP/1.0\r\nHost: x\r\n\r\n"),
            HttpRequestParser::State::kComplete);
  const HttpRequest& r = p.request();
  EXPECT_EQ(r.method, "GET");
  EXPECT_EQ(r.path, "/store");
  EXPECT_EQ(r.version, "HTTP/1.0");
  EXPECT_EQ(r.Query("op"), "get");
  EXPECT_EQ(r.Query("k"), "a b");
  EXPECT_EQ(r.Header("host"), "x");
  EXPECT_EQ(r.Header("HOST"), "x") << "header names are case-insensitive";
}

TEST(HttpRequestParserTest, IncrementalFeed) {
  HttpRequestParser p;
  EXPECT_EQ(p.Feed("GET / HT"), HttpRequestParser::State::kIncomplete);
  EXPECT_EQ(p.Feed("TP/1.0\r\nA: b"), HttpRequestParser::State::kIncomplete);
  EXPECT_EQ(p.Feed("\r\n\r\n"), HttpRequestParser::State::kComplete);
  EXPECT_EQ(p.request().Header("a"), "b");
}

TEST(HttpRequestParserTest, BodyViaContentLength) {
  HttpRequestParser p;
  EXPECT_EQ(p.Feed("POST /x HTTP/1.0\r\nContent-Length: 5\r\n\r\nhel"),
            HttpRequestParser::State::kIncomplete);
  EXPECT_EQ(p.Feed("lo"), HttpRequestParser::State::kComplete);
  EXPECT_EQ(p.request().body, "hello");
  EXPECT_EQ(p.consumed_bytes(), std::string("POST /x HTTP/1.0\r\nContent-Length: 5\r\n\r\nhello").size());
}

TEST(HttpRequestParserTest, MalformedRequestLine) {
  HttpRequestParser p;
  EXPECT_EQ(p.Feed("GARBAGE\r\n\r\n"), HttpRequestParser::State::kError);
}

TEST(HttpRequestParserTest, MalformedHeader) {
  HttpRequestParser p;
  EXPECT_EQ(p.Feed("GET / HTTP/1.0\r\nnocolonhere\r\n\r\n"), HttpRequestParser::State::kError);
}

TEST(HttpRequestParserTest, BadContentLength) {
  HttpRequestParser p;
  EXPECT_EQ(p.Feed("GET / HTTP/1.0\r\nContent-Length: xyz\r\n\r\n"),
            HttpRequestParser::State::kError);
}

TEST(HttpRequestParserTest, OversizedHeadersRejected) {
  HttpRequestParser p;
  std::string big = "GET / HTTP/1.0\r\nA: ";
  big.append(100 * 1024, 'x');
  EXPECT_EQ(p.Feed(big), HttpRequestParser::State::kError);
}

TEST(UrlDecodeTest, Basics) {
  EXPECT_EQ(UrlDecode("a+b"), "a b");
  EXPECT_EQ(UrlDecode("a%2Fb"), "a/b");
  EXPECT_EQ(UrlDecode("a%2fb"), "a/b");
  EXPECT_EQ(UrlDecode("%"), "%");
  EXPECT_EQ(UrlDecode("%zz"), "%zz") << "invalid escapes pass through";
}

TEST(ParseQueryStringTest, Basics) {
  const auto q = ParseQueryString("a=1&b=&c&d=x%20y");
  EXPECT_EQ(q.at("a"), "1");
  EXPECT_EQ(q.at("b"), "");
  EXPECT_EQ(q.at("c"), "");
  EXPECT_EQ(q.at("d"), "x y");
}

TEST(BuildHttpResponseTest, IncludesContentLength) {
  const std::string r = BuildHttpResponse(200, "OK", {{"X-A", "b"}}, "hello");
  EXPECT_NE(r.find("HTTP/1.0 200 OK\r\n"), std::string::npos);
  EXPECT_NE(r.find("Content-Length: 5\r\n"), std::string::npos);
  EXPECT_NE(r.find("X-A: b\r\n"), std::string::npos);
  EXPECT_NE(r.find("\r\n\r\nhello"), std::string::npos);
}

TEST(HttpResponseReaderTest, ReadsChunkedArrivals) {
  const std::string resp = BuildHttpResponse(200, "OK", {}, "abcdef");
  HttpResponseReader reader;
  for (size_t i = 0; i < resp.size(); i += 7) {
    reader.Feed(resp.substr(i, 7));
  }
  ASSERT_EQ(reader.state(), HttpResponseReader::State::kComplete);
  EXPECT_EQ(reader.status(), 200);
  EXPECT_EQ(reader.body(), "abcdef");
}

TEST(HttpResponseReaderTest, ErrorOnGarbage) {
  HttpResponseReader reader;
  reader.Feed("NOT HTTP AT ALL\r\n\r\n");
  EXPECT_EQ(reader.state(), HttpResponseReader::State::kError);
}

TEST(HttpResponseReaderTest, PaperSizedResponse) {
  // Paper §9.2.1: 144 bytes of HTTP data, 133 bytes of headers.
  const std::string r = BuildHttpResponse(200, "OK", {{"Server", "okws-asbestos"}},
                                          std::string(11, 'x'));
  HttpResponseReader reader;
  reader.Feed(r);
  EXPECT_EQ(reader.state(), HttpResponseReader::State::kComplete);
  EXPECT_EQ(reader.body().size(), 11u);
}

// A declared length near 2^64 used to wrap `body start + length` and
// complete at once with whatever bytes had arrived (and, for a request, a
// consumed_bytes() short of its own headers). Found by the mutation loops
// below.
TEST(HttpRequestParserTest, ContentLengthNearTwoToTheSixtyFourStaysIncomplete) {
  HttpRequestParser p;
  EXPECT_EQ(p.Feed("POST /x HTTP/1.0\r\nContent-Length: 18446744073709551615\r\n\r\nab"),
            HttpRequestParser::State::kIncomplete);
  EXPECT_EQ(p.consumed_bytes(), 0u);
}

TEST(HttpResponseReaderTest, ContentLengthNearTwoToTheSixtyFourStaysIncomplete) {
  HttpResponseReader reader;
  EXPECT_EQ(reader.Feed("HTTP/1.0 200 OK\r\nContent-Length: 18446744073709551600\r\n\r\nab"),
            HttpResponseReader::State::kIncomplete);
  EXPECT_EQ(reader.body(), "");
}

// Bodies are buffered up to kMaxBodyBytes whatever Content-Length says, and
// headers up to kMaxHeaderBytes: one byte more, streamed in small reads, is
// an error, never an ever-growing buffer.
// Feeds `n` bytes in segment-sized reads while `feed` returns true.
void StreamBytes(size_t n, const std::function<bool(std::string_view)>& feed) {
  const std::string chunk(1460, 'b');  // one simulated TCP segment
  size_t sent = 0;
  while (sent < n) {
    const size_t take = std::min(chunk.size(), n - sent);
    sent += take;
    if (!feed(std::string_view(chunk).substr(0, take))) {
      break;
    }
  }
}

TEST(HttpRequestParserTest, BodyPastTheCapIsAnErrorWhateverContentLengthSays) {
  for (const char* length : {"18446744073709551615", "2000000", "1048577"}) {
    HttpRequestParser p;
    ASSERT_EQ(p.Feed(std::string("POST /x HTTP/1.0\r\nContent-Length: ") + length + "\r\n\r\n"),
              HttpRequestParser::State::kIncomplete);
    size_t fed = 0;
    StreamBytes(kMaxBodyBytes + 1, [&](std::string_view bytes) {
      const auto state = p.Feed(bytes);
      fed += bytes.size();
      if (fed <= kMaxBodyBytes) {
        EXPECT_EQ(state, HttpRequestParser::State::kIncomplete) << fed;
      }
      return state == HttpRequestParser::State::kIncomplete;
    });
    EXPECT_EQ(fed, kMaxBodyBytes + 1) << length;
    EXPECT_EQ(p.state(), HttpRequestParser::State::kError) << length;
  }
  // A body of exactly the cap is still accepted.
  HttpRequestParser p;
  p.Feed("POST /x HTTP/1.0\r\nContent-Length: " + std::to_string(kMaxBodyBytes) + "\r\n\r\n");
  EXPECT_EQ(p.Feed(std::string(kMaxBodyBytes, 'b')), HttpRequestParser::State::kComplete);
  EXPECT_EQ(p.request().body.size(), kMaxBodyBytes);
}

TEST(HttpResponseReaderTest, BodyPastTheCapIsAnErrorWhateverContentLengthSays) {
  for (const char* length : {"18446744073709551600", "2000000", "1048577"}) {
    HttpResponseReader reader;
    ASSERT_EQ(reader.Feed(std::string("HTTP/1.0 200 OK\r\nContent-Length: ") + length +
                          "\r\n\r\n"),
              HttpResponseReader::State::kIncomplete);
    size_t fed = 0;
    StreamBytes(kMaxBodyBytes + 1, [&](std::string_view bytes) {
      const auto state = reader.Feed(bytes);
      fed += bytes.size();
      if (fed <= kMaxBodyBytes) {
        EXPECT_EQ(state, HttpResponseReader::State::kIncomplete) << fed;
      }
      return state == HttpResponseReader::State::kIncomplete;
    });
    EXPECT_EQ(fed, kMaxBodyBytes + 1) << length;
    EXPECT_EQ(reader.state(), HttpResponseReader::State::kError) << length;
    EXPECT_EQ(reader.body(), "");
  }
  HttpResponseReader reader;
  reader.Feed("HTTP/1.0 200 OK\r\nContent-Length: " + std::to_string(kMaxBodyBytes) +
              "\r\n\r\n");
  EXPECT_EQ(reader.Feed(std::string(kMaxBodyBytes, 'b')), HttpResponseReader::State::kComplete);
  EXPECT_EQ(reader.body().size(), kMaxBodyBytes);
}

TEST(HttpResponseReaderTest, HeadersPastTheCapAreAnError) {
  HttpResponseReader reader;
  ASSERT_EQ(reader.Feed("HTTP/1.0 200 OK\r\nX-Pad: "), HttpResponseReader::State::kIncomplete);
  size_t fed = 0;
  StreamBytes(kMaxHeaderBytes, [&](std::string_view bytes) {
    fed += bytes.size();
    return reader.Feed(bytes) == HttpResponseReader::State::kIncomplete;
  });
  EXPECT_EQ(fed, kMaxHeaderBytes);
  EXPECT_EQ(reader.state(), HttpResponseReader::State::kError);
}

// --- Seeded mutation: encode∘decode identity and "reject, never crash" ------
//
// Requests and responses are generated, encoded, and read back whole and fed
// in two parts split at a random byte. Mutated encodings must leave both
// feeds in the same state; a completed read must stay inside its input and
// carry exactly the body its Content-Length declares. Seeds and budgets are
// fixed so a failure replays exactly.

// Draws a URL-safe component and its decoded form: plain characters, "%20"
// and "+" (both decode to a space).
std::pair<std::string, std::string> RandomComponent(Rng& rng, size_t max_len) {
  static constexpr char kPlain[] = "abcxyz019-_.";
  std::pair<std::string, std::string> out;
  for (uint64_t n = rng.NextInRange(1, max_len); n > 0; --n) {
    switch (rng.NextBelow(8)) {
      case 0:
        out.first += "%20";
        out.second += ' ';
        break;
      case 1:
        out.first += '+';
        out.second += ' ';
        break;
      default: {
        const char c = kPlain[rng.NextBelow(sizeof(kPlain) - 1)];
        out.first += c;
        out.second += c;
        break;
      }
    }
  }
  return out;
}

struct GeneratedRequest {
  std::string bytes;
  HttpRequest want;
};

GeneratedRequest RandomRequest(Rng& rng) {
  static const char* const kMethods[] = {"GET", "POST", "PUT", "DELETE"};
  static const char* const kHeaders[] = {"Host", "Cookie", "X-Okws-User", "accept", "User-Agent"};
  GeneratedRequest g;
  HttpRequest& r = g.want;
  r.method = kMethods[rng.NextBelow(4)];
  r.version = rng.NextBool() ? "HTTP/1.0" : "HTTP/1.1";
  const auto [path, decoded_path] = RandomComponent(rng, 12);
  r.path = "/" + decoded_path;
  std::string target = "/" + path;
  for (uint64_t q = rng.NextBelow(4); q > 0; --q) {
    const auto [key, decoded_key] = RandomComponent(rng, 5);
    const auto [value, decoded_value] = RandomComponent(rng, 8);
    target += (target.find('?') == std::string::npos ? "?" : "&") + key + "=" + value;
    r.query[decoded_key] = decoded_value;
  }
  g.bytes = r.method + " " + target + " " + r.version + "\r\n";
  for (uint64_t h = rng.NextBelow(4); h > 0; --h) {
    const std::string name = kHeaders[rng.NextBelow(5)];
    const std::string value = RandomComponent(rng, 10).first;
    g.bytes += name + ": " + value + "\r\n";
    std::string lower = name;
    for (char& c : lower) {
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    r.headers[lower] = value;
  }
  r.body.assign(rng.NextBelow(3) == 0 ? 0 : rng.NextBelow(40), 'b');
  for (char& c : r.body) {
    c = static_cast<char>(rng.Next());
  }
  if (!r.body.empty() || rng.NextBool()) {
    g.bytes += "Content-Length: " + std::to_string(r.body.size()) + "\r\n";
    r.headers["content-length"] = std::to_string(r.body.size());
  }
  g.bytes += "\r\n" + r.body;
  return g;
}

// One to four edits: random bytes, or the protocol's own delimiters and an
// overflowing Content-Length spliced in.
std::string MutateHttp(std::string s, Rng& rng) {
  static const char* const kSplices[] = {"\r\n",
                                         "\r\n\r\n",
                                         ":",
                                         " ",
                                         "Content-Length: 18446744073709551615\r\n",
                                         "Content-Length: 18446744073709551600\r\n",
                                         "Content-Length: 99999999999999999999\r\n",
                                         "content-length: 3\r\n",
                                         "%",
                                         "?&="};
  const auto pos = [&](size_t limit) { return static_cast<size_t>(rng.NextBelow(limit)); };
  for (uint64_t edits = rng.NextInRange(1, 4); edits > 0; --edits) {
    switch (rng.NextBelow(5)) {
      case 0:
        if (!s.empty()) {
          s[pos(s.size())] = static_cast<char>(rng.Next());
        }
        break;
      case 1:
        if (!s.empty()) {
          s.erase(pos(s.size()), 1);
        }
        break;
      case 2:
        s.resize(pos(s.size() + 1));
        break;
      default:
        s.insert(pos(s.size() + 1), kSplices[rng.NextBelow(10)]);
        break;
    }
  }
  return s;
}

// Feeds `bytes` in two parts split at `split`.
template <typename Reader>
Reader FeedInTwo(std::string_view bytes, size_t split) {
  Reader reader;
  reader.Feed(bytes.substr(0, split));
  reader.Feed(bytes.substr(split));
  return reader;
}

void ExpectSameRequest(const HttpRequest& got, const HttpRequest& want, int iter) {
  EXPECT_EQ(got.method, want.method) << "iteration " << iter;
  EXPECT_EQ(got.path, want.path) << "iteration " << iter;
  EXPECT_EQ(got.version, want.version) << "iteration " << iter;
  EXPECT_EQ(got.query, want.query) << "iteration " << iter;
  EXPECT_EQ(got.headers, want.headers) << "iteration " << iter;
  EXPECT_EQ(got.body, want.body) << "iteration " << iter;
}

TEST(HttpRequestParserTest, SeededMutation) {
  constexpr int kIterations = 20000;
  Rng rng(0x4774'7031);
  int complete = 0;
  int errors = 0;
  for (int iter = 0; iter < kIterations; ++iter) {
    const GeneratedRequest g = RandomRequest(rng);
    const size_t split = rng.NextBelow(g.bytes.size() + 1);
    HttpRequestParser whole;
    ASSERT_EQ(whole.Feed(g.bytes), HttpRequestParser::State::kComplete) << g.bytes;
    ExpectSameRequest(whole.request(), g.want, iter);
    EXPECT_EQ(whole.consumed_bytes(), g.bytes.size()) << "iteration " << iter;
    const auto parts = FeedInTwo<HttpRequestParser>(g.bytes, split);
    ASSERT_EQ(parts.state(), HttpRequestParser::State::kComplete) << "iteration " << iter;
    ExpectSameRequest(parts.request(), g.want, iter);

    const std::string mutated = MutateHttp(g.bytes, rng);
    HttpRequestParser m;
    const HttpRequestParser::State state = m.Feed(mutated);
    const auto m_parts =
        FeedInTwo<HttpRequestParser>(mutated, rng.NextBelow(mutated.size() + 1));
    ASSERT_EQ(m_parts.state(), state) << "iteration " << iter;
    if (state == HttpRequestParser::State::kError) {
      ++errors;
      continue;
    }
    if (state != HttpRequestParser::State::kComplete) {
      continue;
    }
    ++complete;
    ExpectSameRequest(m_parts.request(), m.request(), iter);
    const HttpRequest& r = m.request();
    // The request ends inside the input, after its headers, and its body is
    // exactly the declared length.
    ASSERT_LE(m.consumed_bytes(), mutated.size()) << "iteration " << iter;
    ASSERT_EQ(m.consumed_bytes(), mutated.find("\r\n\r\n") + 4 + r.body.size())
        << "iteration " << iter;
    const std::string declared = r.Header("content-length");
    ASSERT_EQ(r.body.size(), declared.empty() ? 0 : std::stoull(declared))
        << "iteration " << iter;
  }
  EXPECT_GT(complete, kIterations / 20);
  EXPECT_GT(errors, kIterations / 20);
}

TEST(HttpResponseReaderTest, SeededMutation) {
  constexpr int kIterations = 20000;
  Rng rng(0x4774'7052);
  int complete = 0;
  int errors = 0;
  for (int iter = 0; iter < kIterations; ++iter) {
    const int status = static_cast<int>(rng.NextInRange(100, 599));
    std::vector<std::pair<std::string, std::string>> headers;
    for (uint64_t h = rng.NextBelow(3); h > 0; --h) {
      headers.emplace_back("X-H" + std::to_string(h), RandomComponent(rng, 6).first);
    }
    std::string body(rng.NextBelow(60), '\0');
    for (char& c : body) {
      c = static_cast<char>(rng.Next());
    }
    const std::string bytes = BuildHttpResponse(status, "Reason", headers, body);
    for (const HttpResponseReader& reader :
         {FeedInTwo<HttpResponseReader>(bytes, bytes.size()),
          FeedInTwo<HttpResponseReader>(bytes, rng.NextBelow(bytes.size() + 1))}) {
      ASSERT_EQ(reader.state(), HttpResponseReader::State::kComplete) << "iteration " << iter;
      EXPECT_EQ(reader.status(), status) << "iteration " << iter;
      EXPECT_EQ(reader.body(), body) << "iteration " << iter;
    }

    const std::string mutated = MutateHttp(bytes, rng);
    HttpResponseReader m;
    const HttpResponseReader::State state = m.Feed(mutated);
    const auto m_parts =
        FeedInTwo<HttpResponseReader>(mutated, rng.NextBelow(mutated.size() + 1));
    ASSERT_EQ(m_parts.state(), state) << "iteration " << iter;
    if (state == HttpResponseReader::State::kError) {
      ++errors;
      continue;
    }
    if (state != HttpResponseReader::State::kComplete) {
      continue;
    }
    ++complete;
    EXPECT_EQ(m_parts.status(), m.status()) << "iteration " << iter;
    EXPECT_EQ(m_parts.body(), m.body()) << "iteration " << iter;
    // The body lies inside the input, after the headers.
    ASSERT_LE(mutated.find("\r\n\r\n") + 4 + m.body().size(), mutated.size())
        << "iteration " << iter;
  }
  EXPECT_GT(complete, kIterations / 20);
  EXPECT_GT(errors, kIterations / 50);
}

}  // namespace
}  // namespace asbestos
