#include "src/db/sql_engine.h"

#include <algorithm>

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

bool RowMatches(const std::vector<SqlValue>& row, const std::vector<ResolvedPredicate>& where) {
  for (const ResolvedPredicate& p : where) {
    if (p.column < 0) {
      return false;
    }
    if (!CompareMatches(row[static_cast<size_t>(p.column)].Compare(*p.literal), p.op)) {
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

uint64_t RowBytes(const std::vector<SqlValue>& row) {
  uint64_t bytes = 24;  // per-row bookkeeping
  for (const SqlValue& v : row) {
    bytes += 16 + v.AsText().size();
  }
  return bytes;
}

}  // namespace

SqlTable::SqlTable(std::vector<SqlColumnDef> columns) : columns_(std::move(columns)) {
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
  for (const auto& [rid, row] : rows_) {
    it->second.emplace(row[static_cast<size_t>(ci)].AsText(), rid);
  }
  host_indexes_.erase(ci);
  return Status::kOk;
}

bool SqlTable::HasIndex(const std::string& column) const {
  const int ci = ColumnIndex(column);
  return ci >= 0 && indexes_.count(ci) != 0;
}

Status SqlTable::InsertRow(std::vector<SqlValue> row) {
  ASB_ASSERT(row.size() == columns_.size());
  // Enforce primary-key uniqueness.
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (!columns_[i].primary_key) {
      continue;
    }
    auto idx = indexes_.find(static_cast<int>(i));
    ASB_ASSERT(idx != indexes_.end());
    if (idx->second.count(row[i].AsText()) != 0) {
      return Status::kAlreadyExists;
    }
  }
  const RowId rid = next_row_id_++;
  for (auto& [ci, index] : indexes_) {
    index.emplace(row[static_cast<size_t>(ci)].AsText(), rid);
  }
  for (auto& [ci, index] : host_indexes_) {
    index.emplace(row[static_cast<size_t>(ci)].TextHash(), rid);
  }
  approx_bytes_ += RowBytes(row);
  rows_.emplace(rid, std::move(row));
  return Status::kOk;
}

void SqlTable::SetCell(RowId rid, int column, SqlValue v) {
  SqlValue& cell = rows_.at(rid)[static_cast<size_t>(column)];
  if (auto idx = indexes_.find(column); idx != indexes_.end()) {
    EraseIndexEntry(idx->second, cell.AsText(), rid);
    idx->second.emplace(v.AsText(), rid);
  }
  if (auto idx = host_indexes_.find(column); idx != host_indexes_.end()) {
    EraseIndexEntry(idx->second, cell.TextHash(), rid);
    idx->second.emplace(v.TextHash(), rid);
  }
  cell = std::move(v);
}

void SqlTable::EraseRow(RowId rid) {
  auto row = rows_.find(rid);
  for (auto& [ci, index] : indexes_) {
    EraseIndexEntry(index, row->second[static_cast<size_t>(ci)].AsText(), rid);
  }
  for (auto& [ci, index] : host_indexes_) {
    EraseIndexEntry(index, row->second[static_cast<size_t>(ci)].TextHash(), rid);
  }
  approx_bytes_ -= RowBytes(row->second);
  rows_.erase(row);
}

const SqlTable::HostIndex& SqlTable::HostIndexFor(int column) const {
  auto [it, inserted] = host_indexes_.try_emplace(column);
  if (inserted) {
    it->second.reserve(rows_.size());
    for (const auto& [rid, row] : rows_) {
      it->second.emplace(row[static_cast<size_t>(column)].TextHash(), rid);
    }
  }
  return it->second;
}

std::vector<SqlTable::Rows::const_iterator> SqlTable::Scan(
    const std::vector<SqlPredicate>& where, QueryResult* stats) const {
  // Column names resolve once per statement, not once per row visited.
  std::vector<ResolvedPredicate> resolved;
  resolved.reserve(where.size());
  for (const SqlPredicate& p : where) {
    resolved.push_back({ColumnIndex(p.column), p.op, &p.literal});
  }
  std::vector<Rows::const_iterator> out;
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
      const auto row = rows_.find(it->second);
      if (RowMatches(row->second, resolved)) {
        out.push_back(row);
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
    stats->rows_visited += rows_.size();
    auto [lo, hi] = HostIndexFor(p.column).equal_range(p.literal->TextHash());
    for (auto it = lo; it != hi; ++it) {
      const auto row = rows_.find(it->second);
      if (RowMatches(row->second, resolved)) {
        out.push_back(row);
      }
    }
    std::sort(out.begin(), out.end(),
              [](const auto& a, const auto& b) { return a->first < b->first; });
    return out;
  }
  for (auto row = rows_.begin(); row != rows_.end(); ++row) {
    stats->rows_visited += 1;
    if (RowMatches(row->second, resolved)) {
      out.push_back(row);
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
  QueryResult result;
  for (const auto& values : stmt.rows) {
    std::vector<SqlValue> row(t->columns().size());
    for (size_t i = 0; i < values.size(); ++i) {
      row[static_cast<size_t>(positions[i])] = values[i];
    }
    const Status s = t->InsertRow(std::move(row));
    if (s != Status::kOk) {
      return s;
    }
    result.rows_affected += 1;
  }
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
    std::stable_sort(rows.begin(), rows.end(), [&](const auto& a, const auto& b) {
      const int cmp =
          a->second[static_cast<size_t>(oc)].Compare(b->second[static_cast<size_t>(oc)]);
      return stmt.order_desc ? cmp > 0 : cmp < 0;
    });
  }
  if (stmt.limit >= 0 && static_cast<uint64_t>(stmt.limit) < rows.size()) {
    rows.resize(static_cast<size_t>(stmt.limit));
  }
  result.rows_.reserve(rows.size());
  for (const auto& row : rows) {
    result.rows_.push_back(&row->second);
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
        std::any_of(lo, hi, [&](const auto& entry) { return entry.second != rows[0]->first; })) {
      return Status::kAlreadyExists;
    }
  }
  for (const auto& row : rows) {
    for (const auto& [ci, v] : sets) {
      t->SetCell(row->first, ci, v);
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
  for (const auto& row : t->Scan(stmt.where, &result)) {
    t->EraseRow(row->first);  // erasing a row leaves the other iterators valid
    result.rows_affected += 1;
  }
  return result;
}

}  // namespace asbestos
