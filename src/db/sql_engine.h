// The embedded SQL engine: tables with typed columns, primary-key and
// secondary indexes, and an executor that counts the rows it touches (the
// simulator's OKDB cost accounting consumes those counts).
#ifndef SRC_DB_SQL_ENGINE_H_
#define SRC_DB_SQL_ENGINE_H_

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/base/result.h"
#include "src/db/sql_parser.h"
#include "src/db/sql_value.h"

namespace asbestos {

// One row of a SELECT's output: a table row read through the statement's
// projection, without a copy.
class SqlRowRef {
 public:
  SqlRowRef(const std::vector<SqlValue>& row, const std::vector<int>& projection)
      : row_(&row), projection_(&projection) {}

  size_t size() const { return projection_->size(); }
  const SqlValue& operator[](size_t i) const {
    return (*row_)[static_cast<size_t>((*projection_)[i])];
  }
  const SqlValue& back() const { return (*this)[size() - 1]; }

 private:
  const std::vector<SqlValue>* row_;
  const std::vector<int>* projection_;
};

struct QueryResult {
  std::vector<std::string> columns;
  uint64_t rows_affected = 0;  // INSERT/UPDATE/DELETE
  uint64_t rows_visited = 0;   // executor work (cost accounting)
  uint64_t index_probes = 0;

  // SELECT output, by reference into the table: valid until the next
  // statement executes on the database.
  size_t row_count() const { return rows_.size(); }
  SqlRowRef row(size_t i) const { return SqlRowRef(*rows_[i], projection_); }

 private:
  friend class SqlDatabase;

  std::vector<int> projection_;                    // table position per output column
  std::vector<const std::vector<SqlValue>*> rows_;  // the table rows, in output order
};

class SqlTable {
 public:
  explicit SqlTable(std::vector<SqlColumnDef> columns);

  const std::vector<SqlColumnDef>& columns() const { return columns_; }
  int ColumnIndex(const std::string& name) const;  // -1 when unknown
  size_t row_count() const { return rows_.size(); }
  uint64_t approx_bytes() const { return approx_bytes_; }

  Status AddIndex(const std::string& column);
  bool HasIndex(const std::string& column) const;

  // Visits every row at full width in row-id order, the order an unordered
  // SELECT * returns them. Host-side only: nothing is charged.
  template <typename Fn>
  void ForEachRow(Fn&& fn) const {
    for (const auto& [rid, row] : rows_) {
      fn(row);
    }
  }

 private:
  friend class SqlDatabase;

  using RowId = uint64_t;
  using Rows = std::map<RowId, std::vector<SqlValue>>;

  using HostIndex = std::unordered_multimap<size_t, RowId>;  // TextHash -> row ids

  Status InsertRow(std::vector<SqlValue> row);  // full-width, schema order
  // row[column] = v, keeping every index in sync.
  void SetCell(RowId rid, int column, SqlValue v);
  void EraseRow(RowId rid);
  // The rows matching the predicates, using an index when one applies.
  std::vector<Rows::const_iterator> Scan(const std::vector<SqlPredicate>& where,
                                         QueryResult* stats) const;
  const HostIndex& HostIndexFor(int column) const;

  std::vector<SqlColumnDef> columns_;
  Rows rows_;
  RowId next_row_id_ = 1;
  // column index -> (value text form -> row ids). Equality probes only.
  std::map<int, std::multimap<std::string, RowId>> indexes_;
  // Host-only equality indexes on undeclared columns, built by the first
  // equality Scan on the column. They find the matches without touching
  // every row but are invisible to the cost model: such a scan still
  // charges every row, and reports no index probe (the OKDB password table
  // is unindexed, paper Figure 9).
  mutable std::map<int, HostIndex> host_indexes_;
  uint64_t approx_bytes_ = 0;
};

class SqlDatabase {
 public:
  Result<QueryResult> Execute(std::string_view sql);
  Result<QueryResult> ExecuteStmt(const SqlStatement& stmt);

  SqlTable* FindTable(const std::string& name);
  // Total estimated storage, for memory accounting.
  uint64_t approx_bytes() const;

 private:
  Result<QueryResult> DoCreateTable(const CreateTableStmt& stmt);
  Result<QueryResult> DoCreateIndex(const CreateIndexStmt& stmt);
  Result<QueryResult> DoInsert(const InsertStmt& stmt);
  Result<QueryResult> DoSelect(const SelectStmt& stmt);
  Result<QueryResult> DoUpdate(const UpdateStmt& stmt);
  Result<QueryResult> DoDelete(const DeleteStmt& stmt);

  std::map<std::string, SqlTable> tables_;
};

}  // namespace asbestos

#endif  // SRC_DB_SQL_ENGINE_H_
