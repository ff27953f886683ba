#include "src/db/sql_parser.h"

#include <charconv>
#include <cstdint>
#include <system_error>

#include "src/base/strings.h"
#include "src/db/sql_tokenizer.h"

namespace asbestos {
namespace {

// Recursive-descent over the token stream with one token of lookahead.
class Parser {
 public:
  explicit Parser(std::vector<SqlToken> tokens) : tokens_(std::move(tokens)) {}

  Result<SqlStatement> Parse() {
    if (Accept("CREATE")) {
      if (Accept("TABLE")) {
        return ParseCreateTable();
      }
      if (Accept("INDEX")) {
        return ParseCreateIndex();
      }
      return Status::kInvalidArgs;
    }
    if (Accept("INSERT")) {
      return ParseInsert();
    }
    if (Accept("SELECT")) {
      return ParseSelect();
    }
    if (Accept("UPDATE")) {
      return ParseUpdate();
    }
    if (Accept("DELETE")) {
      return ParseDelete();
    }
    return Status::kInvalidArgs;
  }

 private:
  const SqlToken& Peek() const { return tokens_[pos_]; }
  void Advance() {
    if (Peek().kind != SqlToken::Kind::kEnd) {
      ++pos_;
    }
  }

  bool Accept(std::string_view keyword) {
    if (Peek().IsKeyword(keyword)) {
      Advance();
      return true;
    }
    return false;
  }

  bool AcceptSymbol(std::string_view s) {
    if (Peek().IsSymbol(s)) {
      Advance();
      return true;
    }
    return false;
  }

  bool TakeIdent(std::string* out) {
    if (Peek().kind != SqlToken::Kind::kIdent) {
      return false;
    }
    *out = Peek().text;
    Advance();
    return true;
  }

  bool TakeLiteral(SqlValue* out) {
    const SqlToken& t = Peek();
    if (t.kind == SqlToken::Kind::kNumber) {
      // A literal outside int64 is a parse error, not an exception.
      int64_t v = 0;
      const char* end = t.text.data() + t.text.size();
      const auto [ptr, ec] = std::from_chars(t.text.data(), end, v);
      if (ec != std::errc() || ptr != end) {
        return false;
      }
      *out = SqlValue(v);
      Advance();
      return true;
    }
    if (t.kind == SqlToken::Kind::kString) {
      *out = SqlValue(t.text);
      Advance();
      return true;
    }
    if (t.IsKeyword("NULL")) {
      *out = SqlValue();
      Advance();
      return true;
    }
    return false;
  }

  bool AtEnd() {
    AcceptSymbol(";");
    return Peek().kind == SqlToken::Kind::kEnd;
  }

  Result<SqlStatement> ParseCreateTable() {
    CreateTableStmt stmt;
    if (!TakeIdent(&stmt.table) || !AcceptSymbol("(")) {
      return Status::kInvalidArgs;
    }
    do {
      SqlColumnDef col;
      if (!TakeIdent(&col.name)) {
        return Status::kInvalidArgs;
      }
      std::string type;
      if (!TakeIdent(&type)) {
        return Status::kInvalidArgs;
      }
      if (type == "INTEGER" || type == "INT") {
        col.type = SqlType::kInteger;
      } else if (type == "TEXT" || type == "VARCHAR") {
        col.type = SqlType::kText;
      } else {
        return Status::kInvalidArgs;
      }
      if (Accept("PRIMARY")) {
        if (!Accept("KEY")) {
          return Status::kInvalidArgs;
        }
        col.primary_key = true;
      }
      stmt.columns.push_back(std::move(col));
    } while (AcceptSymbol(","));
    if (!AcceptSymbol(")") || !AtEnd() || stmt.columns.empty()) {
      return Status::kInvalidArgs;
    }
    return SqlStatement(std::move(stmt));
  }

  Result<SqlStatement> ParseCreateIndex() {
    CreateIndexStmt stmt;
    if (!TakeIdent(&stmt.index) || !Accept("ON") || !TakeIdent(&stmt.table) ||
        !AcceptSymbol("(") || !TakeIdent(&stmt.column) || !AcceptSymbol(")") || !AtEnd()) {
      return Status::kInvalidArgs;
    }
    return SqlStatement(std::move(stmt));
  }

  Result<SqlStatement> ParseInsert() {
    InsertStmt stmt;
    if (!Accept("INTO") || !TakeIdent(&stmt.table) || !AcceptSymbol("(")) {
      return Status::kInvalidArgs;
    }
    do {
      std::string col;
      if (!TakeIdent(&col)) {
        return Status::kInvalidArgs;
      }
      stmt.columns.push_back(std::move(col));
    } while (AcceptSymbol(","));
    if (!AcceptSymbol(")") || !Accept("VALUES")) {
      return Status::kInvalidArgs;
    }
    do {
      if (!AcceptSymbol("(")) {
        return Status::kInvalidArgs;
      }
      std::vector<SqlValue> row;
      do {
        SqlValue v;
        if (!TakeLiteral(&v)) {
          return Status::kInvalidArgs;
        }
        row.push_back(std::move(v));
      } while (AcceptSymbol(","));
      if (!AcceptSymbol(")") || row.size() != stmt.columns.size()) {
        return Status::kInvalidArgs;
      }
      stmt.rows.push_back(std::move(row));
    } while (AcceptSymbol(","));
    if (!AtEnd()) {
      return Status::kInvalidArgs;
    }
    return SqlStatement(std::move(stmt));
  }

  bool ParseWhere(std::vector<SqlPredicate>* where) {
    if (!Accept("WHERE")) {
      return true;  // optional
    }
    do {
      SqlPredicate p;
      if (!TakeIdent(&p.column)) {
        return false;
      }
      const SqlToken& op = Peek();
      if (op.IsSymbol("=")) {
        p.op = SqlCompare::kEq;
      } else if (op.IsSymbol("!=")) {
        p.op = SqlCompare::kNe;
      } else if (op.IsSymbol("<")) {
        p.op = SqlCompare::kLt;
      } else if (op.IsSymbol("<=")) {
        p.op = SqlCompare::kLe;
      } else if (op.IsSymbol(">")) {
        p.op = SqlCompare::kGt;
      } else if (op.IsSymbol(">=")) {
        p.op = SqlCompare::kGe;
      } else {
        return false;
      }
      Advance();
      if (!TakeLiteral(&p.literal)) {
        return false;
      }
      where->push_back(std::move(p));
    } while (Accept("AND"));
    return true;
  }

  Result<SqlStatement> ParseSelect() {
    SelectStmt stmt;
    if (AcceptSymbol("*")) {
      stmt.star = true;
    } else {
      do {
        std::string col;
        if (!TakeIdent(&col)) {
          return Status::kInvalidArgs;
        }
        stmt.columns.push_back(std::move(col));
      } while (AcceptSymbol(","));
    }
    if (!Accept("FROM") || !TakeIdent(&stmt.table)) {
      return Status::kInvalidArgs;
    }
    if (!ParseWhere(&stmt.where)) {
      return Status::kInvalidArgs;
    }
    if (Accept("ORDER")) {
      if (!Accept("BY") || !TakeIdent(&stmt.order_by)) {
        return Status::kInvalidArgs;
      }
      if (Accept("DESC")) {
        stmt.order_desc = true;
      } else {
        Accept("ASC");
      }
    }
    if (Accept("LIMIT")) {
      SqlValue v;
      if (!TakeLiteral(&v) || !v.is_int() || v.AsInt() < 0) {
        return Status::kInvalidArgs;
      }
      stmt.limit = v.AsInt();
    }
    if (!AtEnd()) {
      return Status::kInvalidArgs;
    }
    return SqlStatement(std::move(stmt));
  }

  Result<SqlStatement> ParseUpdate() {
    UpdateStmt stmt;
    if (!TakeIdent(&stmt.table) || !Accept("SET")) {
      return Status::kInvalidArgs;
    }
    do {
      std::string col;
      SqlValue v;
      if (!TakeIdent(&col) || !AcceptSymbol("=") || !TakeLiteral(&v)) {
        return Status::kInvalidArgs;
      }
      stmt.sets.emplace_back(std::move(col), std::move(v));
    } while (AcceptSymbol(","));
    if (!ParseWhere(&stmt.where) || !AtEnd()) {
      return Status::kInvalidArgs;
    }
    return SqlStatement(std::move(stmt));
  }

  Result<SqlStatement> ParseDelete() {
    DeleteStmt stmt;
    if (!Accept("FROM") || !TakeIdent(&stmt.table)) {
      return Status::kInvalidArgs;
    }
    if (!ParseWhere(&stmt.where) || !AtEnd()) {
      return Status::kInvalidArgs;
    }
    return SqlStatement(std::move(stmt));
  }

  std::vector<SqlToken> tokens_;
  size_t pos_ = 0;
};

}  // namespace

Result<SqlStatement> ParseSql(std::string_view sql) {
  auto tokens = TokenizeSql(sql);
  if (!tokens.ok()) {
    return tokens.status();
  }
  return Parser(tokens.take()).Parse();
}

bool IsReadOnlySql(const SqlStatement& stmt) {
  return std::holds_alternative<SelectStmt>(stmt);
}

}  // namespace asbestos
