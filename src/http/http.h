// Minimal HTTP/1.0-1.1 message handling shared by OKWS and the baselines.
#ifndef SRC_HTTP_HTTP_H_
#define SRC_HTTP_HTTP_H_

#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace asbestos {

// What either reader buffers from a hostile or broken peer before it gives
// up with kError: the header block, and the body whatever Content-Length
// says. Fixed bounds, far above any message the OKWS services exchange.
constexpr size_t kMaxHeaderBytes = 64 * 1024;
constexpr size_t kMaxBodyBytes = 1024 * 1024;

struct HttpRequest {
  std::string method;
  std::string path;       // path component only, query string stripped
  std::string version;    // "HTTP/1.0" etc.
  std::map<std::string, std::string> query;    // decoded query parameters
  std::map<std::string, std::string> headers;  // names lowercased
  std::string body;

  // Returns the header value or "" when absent (names case-insensitive).
  std::string Header(std::string_view name) const;
  std::string Query(std::string_view name) const;
};

// Incremental request parser: feed bytes as they arrive off a connection.
class HttpRequestParser {
 public:
  enum class State { kIncomplete, kComplete, kError };

  // Appends bytes and re-evaluates. Once kComplete or kError, further input
  // is ignored.
  State Feed(std::string_view bytes);

  State state() const { return state_; }
  const HttpRequest& request() const { return request_; }
  // Bytes consumed by the complete request (headers + body), for peeking
  // parsers that must know where the request ends.
  size_t consumed_bytes() const { return consumed_; }

 private:
  State TryParse();

  std::string buffer_;
  HttpRequest request_;
  State state_ = State::kIncomplete;
  size_t consumed_ = 0;
};

// Percent- and plus-decodes a URL component.
std::string UrlDecode(std::string_view text);

// Parses "a=1&b=2" into a map with decoded keys/values.
std::map<std::string, std::string> ParseQueryString(std::string_view text);

// Builds a full response with Content-Length and standard headers.
std::string BuildHttpResponse(int status, std::string_view reason,
                              const std::vector<std::pair<std::string, std::string>>& headers,
                              std::string_view body);

// Incremental response reader for client drivers: detects completion via
// Content-Length.
class HttpResponseReader {
 public:
  enum class State { kIncomplete, kComplete, kError };
  State Feed(std::string_view bytes);
  State state() const { return state_; }
  int status() const { return status_; }
  const std::string& body() const { return body_; }

 private:
  std::string buffer_;
  State state_ = State::kIncomplete;
  int status_ = 0;
  std::string body_;
};

}  // namespace asbestos

#endif  // SRC_HTTP_HTTP_H_
