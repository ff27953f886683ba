// SQL statement AST and parser. Supported dialect:
//
//   CREATE TABLE t (col TYPE [PRIMARY KEY], ...)
//   CREATE INDEX idx ON t (col)
//   INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')
//   SELECT a, b | * FROM t [WHERE p AND p ...] [ORDER BY col [ASC|DESC]] [LIMIT n]
//   UPDATE t SET a = 1, b = 'x' [WHERE ...]
//   DELETE FROM t [WHERE ...]
//
// Predicates are comparisons between a column and a literal; conjunctions
// only (what OKWS needs, and enough to exercise index selection).
#ifndef SRC_DB_SQL_PARSER_H_
#define SRC_DB_SQL_PARSER_H_

#include <string>
#include <variant>
#include <vector>

#include "src/base/result.h"
#include "src/db/sql_value.h"

namespace asbestos {

enum class SqlCompare { kEq, kNe, kLt, kLe, kGt, kGe };

struct SqlPredicate {
  std::string column;
  SqlCompare op = SqlCompare::kEq;
  SqlValue literal;
};

struct SqlColumnDef {
  std::string name;
  SqlType type = SqlType::kText;
  bool primary_key = false;
};

struct CreateTableStmt {
  std::string table;
  std::vector<SqlColumnDef> columns;
};

struct CreateIndexStmt {
  std::string index;
  std::string table;
  std::string column;
};

struct InsertStmt {
  std::string table;
  std::vector<std::string> columns;
  std::vector<std::vector<SqlValue>> rows;
};

struct SelectStmt {
  std::string table;
  bool star = false;
  std::vector<std::string> columns;
  std::vector<SqlPredicate> where;
  std::string order_by;  // empty = storage order
  bool order_desc = false;
  int64_t limit = -1;    // -1 = unlimited
};

struct UpdateStmt {
  std::string table;
  std::vector<std::pair<std::string, SqlValue>> sets;
  std::vector<SqlPredicate> where;
};

struct DeleteStmt {
  std::string table;
  std::vector<SqlPredicate> where;
};

using SqlStatement =
    std::variant<CreateTableStmt, CreateIndexStmt, InsertStmt, SelectStmt, UpdateStmt, DeleteStmt>;

Result<SqlStatement> ParseSql(std::string_view sql);

// True when the statement cannot mutate — exactly SELECT in this dialect.
// dbproxy decides from it whether a query writes (and so must persist).
bool IsReadOnlySql(const SqlStatement& stmt);

}  // namespace asbestos

#endif  // SRC_DB_SQL_PARSER_H_
