#include "src/db/sql_value.h"

#include <charconv>

namespace asbestos {

int64_t SqlValue::AsInt() const {
  if (const auto* i = std::get_if<int64_t>(&v_)) {
    return *i;
  }
  return 0;
}

std::string SqlValue::AsText() const {
  IntText buf;
  return std::string(TextView(buf));
}

std::string_view SqlValue::TextView(IntText& buf) const {
  if (const auto* s = std::get_if<std::string>(&v_)) {
    return *s;
  }
  if (const auto* i = std::get_if<int64_t>(&v_)) {
    const std::to_chars_result r = std::to_chars(buf.data(), buf.data() + buf.size(), *i);
    return std::string_view(buf.data(), static_cast<size_t>(r.ptr - buf.data()));
  }
  return {};
}

int SqlValue::Compare(const SqlValue& other) const {
  if (is_null() || other.is_null()) {
    if (is_null() && other.is_null()) {
      return 0;
    }
    return is_null() ? -1 : 1;
  }
  if (is_int() && other.is_int()) {
    const int64_t a = AsInt();
    const int64_t b = other.AsInt();
    return a < b ? -1 : (a > b ? 1 : 0);
  }
  // Text forms compared in place: the executor runs this once per row of a
  // full scan, so it must not copy either side.
  IntText abuf;
  IntText bbuf;
  const int cmp = TextView(abuf).compare(other.TextView(bbuf));
  return cmp < 0 ? -1 : (cmp > 0 ? 1 : 0);
}

std::string SqlValue::ToLiteral() const {
  if (is_null()) {
    return "NULL";
  }
  if (is_int()) {
    return AsText();
  }
  std::string out = "'";
  for (char c : AsText()) {
    if (c == '\'') {
      out += "''";
    } else {
      out.push_back(c);
    }
  }
  out += "'";
  return out;
}

}  // namespace asbestos
