#include "src/db/sql_engine.h"

#include <algorithm>
#include <set>

#include "src/base/panic.h"

namespace asbestos {
namespace {

bool CompareMatches(int cmp, SqlCompare op) {
  switch (op) {
    case SqlCompare::kEq:
      return cmp == 0;
    case SqlCompare::kNe:
      return cmp != 0;
    case SqlCompare::kLt:
      return cmp < 0;
    case SqlCompare::kLe:
      return cmp <= 0;
    case SqlCompare::kGt:
      return cmp > 0;
    case SqlCompare::kGe:
      return cmp >= 0;
  }
  return false;
}

// A WHERE predicate with its column name resolved to a position.
struct ResolvedPredicate {
  int column;  // -1 when unknown: the predicate matches no row
  SqlCompare op;
  const SqlValue* literal;
};

bool RowMatches(const SqlValue* row, const std::vector<ResolvedPredicate>& where) {
  for (const ResolvedPredicate& p : where) {
    if (p.column < 0) {
      return false;
    }
    if (!CompareMatches(row[p.column].Compare(*p.literal), p.op)) {
      return false;
    }
  }
  return true;
}

// Removes the (key, rid) entry from a multimap index.
template <typename Index, typename Key>
void EraseIndexEntry(Index& index, const Key& key, uint64_t rid) {
  auto [lo, hi] = index.equal_range(key);
  for (auto it = lo; it != hi; ++it) {
    if (it->second == rid) {
      index.erase(it);
      return;
    }
  }
}

uint64_t RowBytes(const SqlValue* row, size_t width) {
  uint64_t bytes = 24;  // per-row bookkeeping
  for (size_t c = 0; c < width; ++c) {
    bytes += 16 + row[c].AsText().size();
  }
  return bytes;
}

}  // namespace

SqlTable::SqlTable(std::vector<SqlColumnDef> columns) : columns_(std::move(columns)) {
  const size_t row_bytes = std::max<size_t>(1, columns_.size()) * sizeof(SqlValue);
  while ((size_t{2} << row_shift_) * row_bytes <= kBlockBytes) {
    ++row_shift_;
  }
  row_mask_ = (size_t{1} << row_shift_) - 1;
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].primary_key) {
      indexes_[static_cast<int>(i)];  // primary keys are always indexed
    }
  }
}

int SqlTable::ColumnIndex(const std::string& name) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name == name) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

Status SqlTable::AddIndex(const std::string& column) {
  const int ci = ColumnIndex(column);
  if (ci < 0) {
    return Status::kNotFound;
  }
  auto [it, inserted] = indexes_.try_emplace(ci);
  if (!inserted) {
    return Status::kAlreadyExists;
  }
  for (size_t pos = 0; pos < row_ids_.size(); ++pos) {
    it->second.emplace(RowAt(pos)[ci].AsText(), row_ids_[pos]);
  }
  host_indexes_.erase(ci);
  return Status::kOk;
}

bool SqlTable::HasIndex(const std::string& column) const {
  const int ci = ColumnIndex(column);
  return ci >= 0 && indexes_.count(ci) != 0;
}

size_t SqlTable::PositionOf(RowId rid) const {
  const auto it = std::lower_bound(row_ids_.begin(), row_ids_.end(), rid);
  ASB_ASSERT(it != row_ids_.end() && *it == rid);
  return static_cast<size_t>(it - row_ids_.begin());
}

Status SqlTable::InsertRows(const std::vector<int>& positions,
                            const std::vector<std::vector<SqlValue>>& rows) {
  // Every primary key is checked, against the table and against the other
  // rows of this call, before any row is written.
  for (const auto& [ci, index] : indexes_) {
    if (!columns_[static_cast<size_t>(ci)].primary_key) {
      continue;
    }
    std::set<std::string> keys;
    for (const auto& values : rows) {
      std::string key;  // a column the INSERT does not list stays NULL, ""
      for (size_t i = 0; i < values.size(); ++i) {
        if (positions[i] == ci) {
          key = values[i].AsText();
        }
      }
      if (index.count(key) != 0 || !keys.insert(std::move(key)).second) {
        return Status::kAlreadyExists;
      }
    }
  }
  const size_t width = columns_.size();
  for (const auto& values : rows) {
    const RowId rid = next_row_id_++;
    const size_t pos = row_ids_.size();
    if ((pos >> row_shift_) == blocks_.size()) {
      blocks_.emplace_back((row_mask_ + 1) * width);
    }
    SqlValue* row = MutableRowAt(pos);
    for (size_t i = 0; i < values.size(); ++i) {
      row[positions[i]] = values[i];
    }
    for (auto& [ci, index] : indexes_) {
      index.emplace(row[ci].AsText(), rid);
    }
    for (auto& [ci, index] : host_indexes_) {
      index.emplace(row[ci].TextHash(), rid);
    }
    approx_bytes_ += RowBytes(row, width);
    row_ids_.push_back(rid);
  }
  return Status::kOk;
}

void SqlTable::SetCell(size_t pos, int column, SqlValue v) {
  const RowId rid = row_ids_[pos];
  SqlValue& cell = MutableRowAt(pos)[column];
  if (auto idx = indexes_.find(column); idx != indexes_.end()) {
    EraseIndexEntry(idx->second, cell.AsText(), rid);
    idx->second.emplace(v.AsText(), rid);
  }
  if (auto idx = host_indexes_.find(column); idx != host_indexes_.end()) {
    EraseIndexEntry(idx->second, cell.TextHash(), rid);
    idx->second.emplace(v.TextHash(), rid);
  }
  // RowBytes counts each cell's text, so a cell that changes length moves
  // the row's charge: EraseRows later subtracts the row as it stands.
  approx_bytes_ += v.AsText().size();
  approx_bytes_ -= cell.AsText().size();
  cell = std::move(v);
}

void SqlTable::EraseRows(std::vector<size_t> positions) {
  if (positions.empty()) {
    return;
  }
  const size_t width = columns_.size();
  std::sort(positions.begin(), positions.end());
  for (const size_t pos : positions) {
    const SqlValue* row = RowAt(pos);
    for (auto& [ci, index] : indexes_) {
      EraseIndexEntry(index, row[ci].AsText(), row_ids_[pos]);
    }
    for (auto& [ci, index] : host_indexes_) {
      EraseIndexEntry(index, row[ci].TextHash(), row_ids_[pos]);
    }
    approx_bytes_ -= RowBytes(row, width);
  }
  // One compacting pass: each kept row moves down over the erased ones.
  size_t next = 0;  // next erased position to skip
  size_t out = positions[0];
  for (size_t pos = positions[0]; pos < row_ids_.size(); ++pos) {
    if (next < positions.size() && positions[next] == pos) {
      ++next;
      continue;
    }
    row_ids_[out] = row_ids_[pos];
    std::move(MutableRowAt(pos), MutableRowAt(pos) + width, MutableRowAt(out));
    ++out;
  }
  // The cells past the survivors go back to NULL, and the blocks no row
  // reaches any more are freed.
  for (size_t pos = out; pos < row_ids_.size(); ++pos) {
    std::fill_n(MutableRowAt(pos), width, SqlValue());
  }
  blocks_.resize((out + row_mask_) >> row_shift_);
  row_ids_.resize(out);
}

const SqlTable::HostIndex& SqlTable::HostIndexFor(int column) const {
  auto [it, inserted] = host_indexes_.try_emplace(column);
  if (inserted) {
    it->second.reserve(row_ids_.size());
    for (size_t pos = 0; pos < row_ids_.size(); ++pos) {
      it->second.emplace(RowAt(pos)[column].TextHash(), row_ids_[pos]);
    }
  }
  return it->second;
}

std::vector<size_t> SqlTable::Scan(const std::vector<SqlPredicate>& where,
                                   QueryResult* stats) const {
  // Column names resolve once per statement, not once per row visited.
  std::vector<ResolvedPredicate> resolved;
  resolved.reserve(where.size());
  for (const SqlPredicate& p : where) {
    resolved.push_back({ColumnIndex(p.column), p.op, &p.literal});
  }
  std::vector<size_t> out;
  // Pick an indexed equality predicate if one exists; otherwise full scan.
  for (const ResolvedPredicate& p : resolved) {
    if (p.op != SqlCompare::kEq) {
      continue;
    }
    auto idx = indexes_.find(p.column);
    if (idx == indexes_.end()) {
      continue;
    }
    stats->index_probes += 1;
    auto [lo, hi] = idx->second.equal_range(p.literal->AsText());
    for (auto it = lo; it != hi; ++it) {
      stats->rows_visited += 1;
      const size_t pos = PositionOf(it->second);
      if (RowMatches(RowAt(pos), resolved)) {
        out.push_back(pos);
      }
    }
    return out;
  }
  // An equality on an undeclared column: the host index finds the candidate
  // rows, RowMatches re-checks each (hashes collide, and NULL hashes like
  // ''), and the charge stays a full scan.
  for (const ResolvedPredicate& p : resolved) {
    if (p.op != SqlCompare::kEq || p.column < 0) {
      continue;
    }
    stats->rows_visited += row_ids_.size();
    auto [lo, hi] = HostIndexFor(p.column).equal_range(p.literal->TextHash());
    for (auto it = lo; it != hi; ++it) {
      const size_t pos = PositionOf(it->second);
      if (RowMatches(RowAt(pos), resolved)) {
        out.push_back(pos);
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  }
  for (size_t pos = 0; pos < row_ids_.size(); ++pos) {
    stats->rows_visited += 1;
    if (RowMatches(RowAt(pos), resolved)) {
      out.push_back(pos);
    }
  }
  return out;
}

Result<QueryResult> SqlDatabase::Execute(std::string_view sql) {
  auto stmt = ParseSql(sql);
  if (!stmt.ok()) {
    return stmt.status();
  }
  return ExecuteStmt(stmt.value());
}

Result<QueryResult> SqlDatabase::ExecuteStmt(const SqlStatement& stmt) {
  return std::visit(
      [this](const auto& s) -> Result<QueryResult> {
        using T = std::decay_t<decltype(s)>;
        if constexpr (std::is_same_v<T, CreateTableStmt>) {
          return DoCreateTable(s);
        } else if constexpr (std::is_same_v<T, CreateIndexStmt>) {
          return DoCreateIndex(s);
        } else if constexpr (std::is_same_v<T, InsertStmt>) {
          return DoInsert(s);
        } else if constexpr (std::is_same_v<T, SelectStmt>) {
          return DoSelect(s);
        } else if constexpr (std::is_same_v<T, UpdateStmt>) {
          return DoUpdate(s);
        } else {
          return DoDelete(s);
        }
      },
      stmt);
}

SqlTable* SqlDatabase::FindTable(const std::string& name) {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : &it->second;
}

uint64_t SqlDatabase::approx_bytes() const {
  uint64_t total = 0;
  for (const auto& [name, table] : tables_) {
    total += table.approx_bytes();
  }
  return total;
}

Result<QueryResult> SqlDatabase::DoCreateTable(const CreateTableStmt& stmt) {
  if (tables_.count(stmt.table) != 0) {
    return Status::kAlreadyExists;
  }
  tables_.emplace(stmt.table, SqlTable(stmt.columns));
  return QueryResult{};
}

Result<QueryResult> SqlDatabase::DoCreateIndex(const CreateIndexStmt& stmt) {
  SqlTable* t = FindTable(stmt.table);
  if (t == nullptr) {
    return Status::kNotFound;
  }
  const Status s = t->AddIndex(stmt.column);
  if (s != Status::kOk) {
    return s;
  }
  return QueryResult{};
}

Result<QueryResult> SqlDatabase::DoInsert(const InsertStmt& stmt) {
  SqlTable* t = FindTable(stmt.table);
  if (t == nullptr) {
    return Status::kNotFound;
  }
  std::vector<int> positions;
  positions.reserve(stmt.columns.size());
  for (const std::string& c : stmt.columns) {
    const int ci = t->ColumnIndex(c);
    if (ci < 0) {
      return Status::kNotFound;
    }
    positions.push_back(ci);
  }
  const Status s = t->InsertRows(positions, stmt.rows);
  if (s != Status::kOk) {
    return s;
  }
  QueryResult result;
  result.rows_affected = stmt.rows.size();
  return result;
}

Result<QueryResult> SqlDatabase::DoSelect(const SelectStmt& stmt) {
  SqlTable* t = FindTable(stmt.table);
  if (t == nullptr) {
    return Status::kNotFound;
  }
  QueryResult result;
  std::vector<int>& out_cols = result.projection_;
  if (stmt.star) {
    for (size_t i = 0; i < t->columns().size(); ++i) {
      out_cols.push_back(static_cast<int>(i));
      result.columns.push_back(t->columns()[i].name);
    }
  } else {
    for (const std::string& c : stmt.columns) {
      const int ci = t->ColumnIndex(c);
      if (ci < 0) {
        return Status::kNotFound;
      }
      out_cols.push_back(ci);
      result.columns.push_back(c);
    }
  }
  for (const SqlPredicate& p : stmt.where) {
    if (t->ColumnIndex(p.column) < 0) {
      return Status::kNotFound;
    }
  }

  auto rows = t->Scan(stmt.where, &result);
  if (!stmt.order_by.empty()) {
    const int oc = t->ColumnIndex(stmt.order_by);
    if (oc < 0) {
      return Status::kNotFound;
    }
    std::stable_sort(rows.begin(), rows.end(), [&](size_t a, size_t b) {
      const int cmp = t->RowAt(a)[oc].Compare(t->RowAt(b)[oc]);
      return stmt.order_desc ? cmp > 0 : cmp < 0;
    });
  }
  if (stmt.limit >= 0 && static_cast<uint64_t>(stmt.limit) < rows.size()) {
    rows.resize(static_cast<size_t>(stmt.limit));
  }
  result.rows_.reserve(rows.size());
  for (const size_t pos : rows) {
    result.rows_.push_back(t->RowAt(pos));
  }
  return result;
}

Result<QueryResult> SqlDatabase::DoUpdate(const UpdateStmt& stmt) {
  SqlTable* t = FindTable(stmt.table);
  if (t == nullptr) {
    return Status::kNotFound;
  }
  std::vector<std::pair<int, SqlValue>> sets;
  for (const auto& [col, v] : stmt.sets) {
    const int ci = t->ColumnIndex(col);
    if (ci < 0) {
      return Status::kNotFound;
    }
    sets.emplace_back(ci, v);
  }
  QueryResult result;
  const auto rows = t->Scan(stmt.where, &result);
  // Every target row takes the same new key, so a primary-key assignment is
  // refused, before any row is written, unless it leaves the key unique.
  for (const auto& [ci, v] : sets) {
    if (rows.empty() || !t->columns()[static_cast<size_t>(ci)].primary_key) {
      continue;
    }
    auto [lo, hi] = t->indexes_.at(ci).equal_range(v.AsText());
    if (rows.size() > 1 ||
        std::any_of(lo, hi,
                    [&](const auto& entry) { return entry.second != t->row_ids_[rows[0]]; })) {
      return Status::kAlreadyExists;
    }
  }
  // Rows are written in scan order, which is the order their new index
  // entries take among equal keys.
  for (const size_t pos : rows) {
    for (const auto& [ci, v] : sets) {
      t->SetCell(pos, ci, v);
    }
    result.rows_affected += 1;
  }
  return result;
}

Result<QueryResult> SqlDatabase::DoDelete(const DeleteStmt& stmt) {
  SqlTable* t = FindTable(stmt.table);
  if (t == nullptr) {
    return Status::kNotFound;
  }
  QueryResult result;
  std::vector<size_t> rows = t->Scan(stmt.where, &result);
  result.rows_affected = rows.size();
  t->EraseRows(std::move(rows));
  return result;
}

}  // namespace asbestos
