// Typed values for the embedded SQL engine (the SQLite stand-in of §7.5).
#ifndef SRC_DB_SQL_VALUE_H_
#define SRC_DB_SQL_VALUE_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <variant>

namespace asbestos {

enum class SqlType { kInteger, kText };

class SqlValue {
 public:
  SqlValue() : v_(std::monostate{}) {}
  explicit SqlValue(int64_t i) : v_(i) {}
  explicit SqlValue(std::string s) : v_(std::move(s)) {}

  bool is_null() const { return std::holds_alternative<std::monostate>(v_); }
  bool is_int() const { return std::holds_alternative<int64_t>(v_); }
  bool is_text() const { return std::holds_alternative<std::string>(v_); }

  int64_t AsInt() const;        // 0 for non-ints
  std::string AsText() const;   // decimal form for ints, "" for null

  // SQL-style comparison; NULL compares equal only to NULL and is ordered
  // before everything else. Mixed int/text compares by textual form.
  int Compare(const SqlValue& other) const;
  bool operator==(const SqlValue& other) const { return Compare(other) == 0; }
  bool operator<(const SqlValue& other) const { return Compare(other) < 0; }

  // Hash of the textual form (AsText() without the copy). Values that
  // Compare equal hash equal; NULL hashes like ''.
  size_t TextHash() const {
    IntText buf;
    return std::hash<std::string_view>{}(TextView(buf));
  }

  // Literal syntax: 42 or 'text' (quotes doubled inside).
  std::string ToLiteral() const;

  // Room for any int64 in decimal ("-9223372036854775808" is 20 chars).
  using IntText = std::array<char, 24>;
  // AsText() without the copy: a view of the string, or of an int's decimal
  // form written into `buf`; empty for null.
  std::string_view TextView(IntText& buf) const;

 private:
  std::variant<std::monostate, int64_t, std::string> v_;
};

}  // namespace asbestos

#endif  // SRC_DB_SQL_VALUE_H_
