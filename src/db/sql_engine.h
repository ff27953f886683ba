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

// A table row's cells at full width, in schema order: a view into the
// table, valid until the next statement executes on the database.
class SqlRowView {
 public:
  SqlRowView(const SqlValue* cells, size_t size) : cells_(cells), size_(size) {}

  size_t size() const { return size_; }
  const SqlValue& operator[](size_t i) const { return cells_[i]; }

 private:
  const SqlValue* cells_;
  size_t size_;
};

// One row of a SELECT's output: a table row read through the statement's
// projection, without a copy. Valid as long as the row it views.
class SqlRowRef {
 public:
  SqlRowRef(const SqlValue* row, const std::vector<int>& projection)
      : row_(row), projection_(&projection) {}

  size_t size() const { return projection_->size(); }
  const SqlValue& operator[](size_t i) const {
    return row_[static_cast<size_t>((*projection_)[i])];
  }
  const SqlValue& back() const { return (*this)[size() - 1]; }

 private:
  const SqlValue* row_;  // the row's first cell in the table
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
  SqlRowRef row(size_t i) const { return SqlRowRef(rows_[i], projection_); }

 private:
  friend class SqlDatabase;

  std::vector<int> projection_;       // table position per output column
  std::vector<const SqlValue*> rows_;  // each row's first cell, in output order
};

// A table keeps its rows flat: row_ids_ holds each row's id in ascending
// (insertion) order, and the rows' cells sit beside it row-major, in blocks
// of 2^row_shift_ rows of at most kBlockBytes, so row `pos` is `width`
// adjacent cells at RowAt(pos). Reading a row is pointer arithmetic, with no
// node to chase and no allocation per row. The blocks are small enough for
// the allocator to recycle: one array grown past its mmap threshold would
// fault fresh pages in at every table build (about 650 for 10^4 users).
// Indexes map values to RowIds, which stay fixed while a DELETE compacts the
// positions. A statement's row views (SqlRowView, SqlRowRef) point at the
// cells in place, so an INSERT, UPDATE or DELETE invalidates every view
// taken before it.
class SqlTable {
 public:
  explicit SqlTable(std::vector<SqlColumnDef> columns);

  const std::vector<SqlColumnDef>& columns() const { return columns_; }
  int ColumnIndex(const std::string& name) const;  // -1 when unknown
  size_t row_count() const { return row_ids_.size(); }
  uint64_t approx_bytes() const { return approx_bytes_; }

  Status AddIndex(const std::string& column);
  bool HasIndex(const std::string& column) const;

  // Visits every row at full width in row-id order, the order an unordered
  // SELECT * returns them. Host-side only: nothing is charged.
  template <typename Fn>
  void ForEachRow(Fn&& fn) const {
    for (size_t pos = 0; pos < row_ids_.size(); ++pos) {
      fn(SqlRowView(RowAt(pos), columns_.size()));
    }
  }

 private:
  friend class SqlDatabase;

  using RowId = uint64_t;
  using HostIndex = std::unordered_multimap<size_t, RowId>;  // TextHash -> row ids

  static constexpr size_t kBlockBytes = 16 * 1024;

  const SqlValue* RowAt(size_t pos) const {
    return blocks_[pos >> row_shift_].data() + (pos & row_mask_) * columns_.size();
  }
  SqlValue* MutableRowAt(size_t pos) {
    return blocks_[pos >> row_shift_].data() + (pos & row_mask_) * columns_.size();
  }
  size_t PositionOf(RowId rid) const;
  // Appends rows given as `values` for the columns at `positions` (the rest
  // NULL). All or nothing: refused with no row written when a row's primary
  // key is taken, or repeats another row's key in the same call.
  Status InsertRows(const std::vector<int>& positions,
                    const std::vector<std::vector<SqlValue>>& rows);
  // Cell (pos, column) = v, keeping every index in sync.
  void SetCell(size_t pos, int column, SqlValue v);
  // Removes the rows at `positions` (any order) and compacts in one pass.
  void EraseRows(std::vector<size_t> positions);
  // The positions of the rows matching the predicates, using an index when
  // one applies: ascending, or the index's order for a declared index.
  std::vector<size_t> Scan(const std::vector<SqlPredicate>& where, QueryResult* stats) const;
  const HostIndex& HostIndexFor(int column) const;

  std::vector<SqlColumnDef> columns_;
  std::vector<RowId> row_ids_;  // ascending
  // Row-major cells, 2^row_shift_ rows per block; cells past the last row
  // are NULL.
  std::vector<std::vector<SqlValue>> blocks_;
  uint32_t row_shift_ = 0;
  size_t row_mask_ = 0;
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
