#include "src/http/http.h"

#include "src/base/strings.h"

namespace asbestos {

std::string HttpRequest::Header(std::string_view name) const {
  for (const auto& [k, v] : headers) {
    if (EqualsIgnoreCase(k, name)) {
      return v;
    }
  }
  return "";
}

std::string HttpRequest::Query(std::string_view name) const {
  auto it = query.find(std::string(name));
  return it == query.end() ? "" : it->second;
}

std::string UrlDecode(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '+') {
      out.push_back(' ');
    } else if (c == '%' && i + 2 < text.size()) {
      auto hex = [](char h) -> int {
        if (h >= '0' && h <= '9') {
          return h - '0';
        }
        if (h >= 'a' && h <= 'f') {
          return h - 'a' + 10;
        }
        if (h >= 'A' && h <= 'F') {
          return h - 'A' + 10;
        }
        return -1;
      };
      const int hi = hex(text[i + 1]);
      const int lo = hex(text[i + 2]);
      if (hi >= 0 && lo >= 0) {
        out.push_back(static_cast<char>(hi * 16 + lo));
        i += 2;
      } else {
        out.push_back(c);
      }
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::map<std::string, std::string> ParseQueryString(std::string_view text) {
  std::map<std::string, std::string> out;
  for (const std::string& pair : Split(text, '&')) {
    if (pair.empty()) {
      continue;
    }
    const size_t eq = pair.find('=');
    if (eq == std::string::npos) {
      out[UrlDecode(pair)] = "";
    } else {
      out[UrlDecode(pair.substr(0, eq))] = UrlDecode(pair.substr(eq + 1));
    }
  }
  return out;
}

HttpRequestParser::State HttpRequestParser::Feed(std::string_view bytes) {
  if (state_ != State::kIncomplete) {
    return state_;
  }
  buffer_.append(bytes);
  state_ = TryParse();
  return state_;
}

HttpRequestParser::State HttpRequestParser::TryParse() {
  const size_t header_end = buffer_.find("\r\n\r\n");
  if (header_end == std::string::npos) {
    // Guard against unbounded header growth from a hostile client.
    return buffer_.size() > kMaxHeaderBytes ? State::kError : State::kIncomplete;
  }
  const std::string_view head = std::string_view(buffer_).substr(0, header_end);
  const std::vector<std::string> lines = Split(head, '\n');
  if (lines.empty()) {
    return State::kError;
  }

  // Request line: METHOD SP TARGET SP VERSION.
  const std::string_view request_line = Trim(lines[0]);
  const std::vector<std::string> parts = Split(request_line, ' ');
  if (parts.size() != 3 || parts[0].empty() || parts[1].empty()) {
    return State::kError;
  }
  request_ = HttpRequest();
  request_.method = parts[0];
  request_.version = parts[2];
  const std::string& target = parts[1];
  const size_t qmark = target.find('?');
  if (qmark == std::string::npos) {
    request_.path = UrlDecode(target);
  } else {
    request_.path = UrlDecode(target.substr(0, qmark));
    request_.query = ParseQueryString(std::string_view(target).substr(qmark + 1));
  }

  for (size_t i = 1; i < lines.size(); ++i) {
    const std::string_view line = Trim(lines[i]);
    if (line.empty()) {
      continue;
    }
    const size_t colon = line.find(':');
    if (colon == std::string::npos) {
      return State::kError;
    }
    std::string name(Trim(line.substr(0, colon)));
    for (char& c : name) {
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    request_.headers[name] = std::string(Trim(line.substr(colon + 1)));
  }

  uint64_t content_length = 0;
  const std::string cl = request_.Header("content-length");
  if (!cl.empty() && !ParseUint64(cl, &content_length)) {
    return State::kError;
  }
  // Compared as what remains, so a declared length near 2^64 cannot wrap
  // the sum and complete the request early.
  const size_t body_start = header_end + 4;
  const size_t buffered = buffer_.size() - body_start;
  if (content_length > buffered) {
    return buffered > kMaxBodyBytes ? State::kError : State::kIncomplete;
  }
  if (content_length > kMaxBodyBytes) {
    return State::kError;
  }
  request_.body = buffer_.substr(body_start, content_length);
  consumed_ = body_start + content_length;
  return State::kComplete;
}

std::string BuildHttpResponse(int status, std::string_view reason,
                              const std::vector<std::pair<std::string, std::string>>& headers,
                              std::string_view body) {
  std::string out = StrFormat("HTTP/1.0 %d %.*s\r\n", status, static_cast<int>(reason.size()),
                              reason.data());
  out += StrFormat("Content-Length: %zu\r\n", body.size());
  for (const auto& [k, v] : headers) {
    out += k;
    out += ": ";
    out += v;
    out += "\r\n";
  }
  out += "\r\n";
  out.append(body);
  return out;
}

HttpResponseReader::State HttpResponseReader::Feed(std::string_view bytes) {
  if (state_ != State::kIncomplete) {
    return state_;
  }
  buffer_.append(bytes);
  const size_t header_end = buffer_.find("\r\n\r\n");
  if (header_end == std::string::npos) {
    if (buffer_.size() > kMaxHeaderBytes) {
      state_ = State::kError;
    }
    return state_;
  }
  // Status line: HTTP/x.y CODE REASON.
  const std::vector<std::string> lines = Split(std::string_view(buffer_).substr(0, header_end), '\n');
  const std::vector<std::string> status_parts = Split(Trim(lines[0]), ' ');
  if (status_parts.size() < 2) {
    state_ = State::kError;
    return state_;
  }
  uint64_t code = 0;
  if (!ParseUint64(status_parts[1], &code)) {
    state_ = State::kError;
    return state_;
  }
  uint64_t content_length = 0;
  for (size_t i = 1; i < lines.size(); ++i) {
    const std::string_view line = Trim(lines[i]);
    const size_t colon = line.find(':');
    if (colon != std::string::npos &&
        EqualsIgnoreCase(Trim(line.substr(0, colon)), "content-length")) {
      if (!ParseUint64(Trim(line.substr(colon + 1)), &content_length)) {
        state_ = State::kError;
        return state_;
      }
    }
  }
  const size_t body_start = header_end + 4;
  const size_t buffered = buffer_.size() - body_start;
  if (content_length > buffered) {  // as in the request parser
    if (buffered > kMaxBodyBytes) {
      state_ = State::kError;
    }
  } else if (content_length > kMaxBodyBytes) {
    state_ = State::kError;
  } else {
    status_ = static_cast<int>(code);
    body_ = buffer_.substr(body_start, content_length);
    state_ = State::kComplete;
  }
  return state_;
}

}  // namespace asbestos
