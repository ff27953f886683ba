#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/base/strings.h"
#include "src/db/sql_engine.h"
#include "src/db/sql_parser.h"
#include "src/db/sql_tokenizer.h"

namespace asbestos {
namespace {

// --- Tokenizer ---------------------------------------------------------------

TEST(SqlTokenizerTest, Basics) {
  auto tokens = TokenizeSql("SELECT a, b FROM t WHERE x = 'it''s' AND y >= -5");
  ASSERT_TRUE(tokens.ok());
  const auto& t = tokens.value();
  EXPECT_TRUE(t[0].IsKeyword("SELECT"));
  EXPECT_TRUE(t[1].IsKeyword("A")) << "identifiers are uppercased";
  EXPECT_TRUE(t[2].IsSymbol(","));
  bool found_string = false;
  for (const auto& tok : t) {
    if (tok.kind == SqlToken::Kind::kString) {
      EXPECT_EQ(tok.text, "it's");
      found_string = true;
    }
  }
  EXPECT_TRUE(found_string);
}

TEST(SqlTokenizerTest, RejectsUnterminatedString) {
  EXPECT_FALSE(TokenizeSql("SELECT 'oops").ok());
}

TEST(SqlTokenizerTest, RejectsUnknownSymbol) { EXPECT_FALSE(TokenizeSql("SELECT @x").ok()); }

TEST(SqlTokenizerTest, TwoCharOperators) {
  auto tokens = TokenizeSql("a != b <= c >= d <> e");
  ASSERT_TRUE(tokens.ok());
  int ops = 0;
  for (const auto& t : tokens.value()) {
    if (t.IsSymbol("!=") || t.IsSymbol("<=") || t.IsSymbol(">=")) {
      ++ops;
    }
  }
  EXPECT_EQ(ops, 4) << "<> normalizes to !=";
}

// --- Parser -----------------------------------------------------------------

TEST(SqlParserTest, CreateTable) {
  auto stmt = ParseSql("CREATE TABLE users (name TEXT PRIMARY KEY, age INTEGER)");
  ASSERT_TRUE(stmt.ok());
  const auto& create = std::get<CreateTableStmt>(stmt.value());
  EXPECT_EQ(create.table, "USERS");
  ASSERT_EQ(create.columns.size(), 2u);
  EXPECT_TRUE(create.columns[0].primary_key);
  EXPECT_EQ(create.columns[1].type, SqlType::kInteger);
}

TEST(SqlParserTest, SelectWithEverything) {
  auto stmt =
      ParseSql("SELECT a, b FROM t WHERE x = 1 AND y != 'q' ORDER BY a DESC LIMIT 10");
  ASSERT_TRUE(stmt.ok());
  const auto& sel = std::get<SelectStmt>(stmt.value());
  EXPECT_EQ(sel.columns.size(), 2u);
  EXPECT_EQ(sel.where.size(), 2u);
  EXPECT_EQ(sel.order_by, "A");
  EXPECT_TRUE(sel.order_desc);
  EXPECT_EQ(sel.limit, 10);
}

TEST(SqlParserTest, InsertMultiRow) {
  auto stmt = ParseSql("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')");
  ASSERT_TRUE(stmt.ok());
  const auto& ins = std::get<InsertStmt>(stmt.value());
  EXPECT_EQ(ins.rows.size(), 2u);
}

TEST(SqlParserTest, RejectsMalformed) {
  EXPECT_FALSE(ParseSql("").ok());
  EXPECT_FALSE(ParseSql("SELECT FROM t").ok());
  EXPECT_FALSE(ParseSql("INSERT INTO t (a) VALUES (1, 2)").ok()) << "arity mismatch";
  EXPECT_FALSE(ParseSql("CREATE TABLE t ()").ok());
  EXPECT_FALSE(ParseSql("DROP TABLE t").ok()) << "unsupported statement";
  EXPECT_FALSE(ParseSql("SELECT a FROM t WHERE x LIKE 'y'").ok());
  EXPECT_FALSE(ParseSql("SELECT a FROM t LIMIT -1").ok());
}

TEST(SqlParserTest, IntegerLiteralsOutsideInt64AreParseErrors) {
  EXPECT_FALSE(ParseSql("INSERT INTO t (a) VALUES (99999999999999999999)").ok());
  EXPECT_FALSE(ParseSql("SELECT a FROM t WHERE a = 99999999999999999999").ok());

  auto min = ParseSql("INSERT INTO t (a) VALUES (-9223372036854775808)");
  ASSERT_TRUE(min.ok());
  EXPECT_EQ(std::get<InsertStmt>(min.value()).rows[0][0].AsInt(),
            std::numeric_limits<int64_t>::min());
  auto max = ParseSql("INSERT INTO t (a) VALUES (9223372036854775807)");
  ASSERT_TRUE(max.ok());
  EXPECT_EQ(std::get<InsertStmt>(max.value()).rows[0][0].AsInt(),
            std::numeric_limits<int64_t>::max());

  EXPECT_FALSE(ParseSql("INSERT INTO t (a) VALUES (-9223372036854775809)").ok());
  EXPECT_FALSE(ParseSql("INSERT INTO t (a) VALUES (9223372036854775808)").ok());
}

// Random edits of well-formed statements, seeded so every failure replays:
// the parser must accept or reject each one, never crash. Budget: 20,000
// mutations from seed 0x5e1ec7 over 7 checked-in statements.
std::string MutateSql(std::string s, Rng& rng) {
  static constexpr char kAlphabet[] = "0123456789-'(),;=<>! aZ*";
  static const char* const kDigitRuns[] = {"9223372036854775807", "9223372036854775808",
                                           "-9223372036854775809", "99999999999999999999",
                                           "0000000000000000000000001"};
  const auto pos = [&](size_t limit) { return static_cast<size_t>(rng.NextBelow(limit)); };
  const auto byte = [&] { return kAlphabet[rng.NextBelow(sizeof(kAlphabet) - 1)]; };
  for (uint64_t edits = rng.NextInRange(1, 4); edits > 0; --edits) {
    switch (rng.NextBelow(4)) {
      case 0:  // overwrite
        if (!s.empty()) {
          s[pos(s.size())] = rng.NextBool() ? byte() : static_cast<char>(rng.Next());
        }
        break;
      case 1:  // insert
        s.insert(pos(s.size() + 1), 1, byte());
        break;
      case 2:  // delete
        if (!s.empty()) {
          s.erase(pos(s.size()), 1);
        }
        break;
      default:  // digit run
        s.insert(pos(s.size() + 1), kDigitRuns[rng.NextBelow(5)]);
        break;
    }
  }
  return s;
}

TEST(SqlParserTest, SeededMutation) {
  constexpr int kIterations = 20000;
  const char* const kSeeds[] = {
      "CREATE TABLE notes (id INTEGER PRIMARY KEY, owner TEXT, body VARCHAR)",
      "CREATE INDEX by_owner ON notes (owner)",
      "INSERT INTO notes (id, owner, body) VALUES (1, 'alice', 'hi'), (-2, 'bob', NULL)",
      "SELECT id, body FROM notes WHERE owner = 'alice' AND id >= 10 ORDER BY id DESC LIMIT 5",
      "SELECT * FROM notes WHERE id != -7;",
      "UPDATE notes SET body = 'edited', id = 42 WHERE owner = 'bob'",
      "DELETE FROM notes WHERE id < 100",
  };
  Rng rng(0x5e1ec7);
  int accepted = 0;
  int rejected = 0;
  int read_only = 0;
  for (const char* seed : kSeeds) {
    ASSERT_TRUE(ParseSql(seed).ok()) << seed;
  }
  for (int iter = 0; iter < kIterations; ++iter) {
    const std::string mutated =
        MutateSql(kSeeds[rng.NextBelow(std::size(kSeeds))], rng);
    const auto stmt = ParseSql(mutated);
    stmt.ok() ? ++accepted : ++rejected;
    // The verdict is a function of the text: a second parse agrees.
    const auto again = ParseSql(mutated);
    ASSERT_EQ(again.ok(), stmt.ok()) << "iteration " << iter;
    if (stmt.ok()) {
      EXPECT_EQ(IsReadOnlySql(again.value()), IsReadOnlySql(stmt.value()))
          << "iteration " << iter;
      read_only += IsReadOnlySql(stmt.value()) ? 1 : 0;
    }
  }
  // The edits exercise both outcomes, and both reads and writes survive.
  EXPECT_GT(accepted, kIterations / 20);
  EXPECT_GT(rejected, kIterations / 20);
  EXPECT_GT(read_only, 0);
  EXPECT_GT(accepted - read_only, 0);
}

// --- Engine ------------------------------------------------------------------

class SqlEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.Execute("CREATE TABLE t (name TEXT, score INTEGER)").ok());
    ASSERT_TRUE(db_.Execute("INSERT INTO t (name, score) VALUES "
                            "('alice', 10), ('bob', 20), ('carol', 30), ('bob', 25)")
                    .ok());
  }
  SqlDatabase db_;
};

TEST_F(SqlEngineTest, SelectAll) {
  auto r = db_.Execute("SELECT * FROM t");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->row_count(), 4u);
  EXPECT_EQ(r->columns.size(), 2u);
}

TEST_F(SqlEngineTest, SelectWhereEquality) {
  auto r = db_.Execute("SELECT score FROM t WHERE name = 'bob'");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->row_count(), 2u);
  EXPECT_EQ(r->row(0)[0].AsInt(), 20);
  EXPECT_EQ(r->row(1)[0].AsInt(), 25);
}

TEST_F(SqlEngineTest, SelectComparisons) {
  EXPECT_EQ(db_.Execute("SELECT name FROM t WHERE score > 20")->row_count(), 2u);
  EXPECT_EQ(db_.Execute("SELECT name FROM t WHERE score >= 20")->row_count(), 3u);
  EXPECT_EQ(db_.Execute("SELECT name FROM t WHERE score < 20")->row_count(), 1u);
  EXPECT_EQ(db_.Execute("SELECT name FROM t WHERE score != 10")->row_count(), 3u);
  EXPECT_EQ(db_.Execute("SELECT name FROM t WHERE score > 10 AND score < 30")->row_count(),
            2u);
}

TEST_F(SqlEngineTest, OrderByAndLimit) {
  auto r = db_.Execute("SELECT name FROM t ORDER BY score DESC LIMIT 2");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->row_count(), 2u);
  EXPECT_EQ(r->row(0)[0].AsText(), "carol");
  EXPECT_EQ(r->row(1)[0].AsText(), "bob");
}

TEST_F(SqlEngineTest, Update) {
  auto r = db_.Execute("UPDATE t SET score = 99 WHERE name = 'alice'");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows_affected, 1u);
  EXPECT_EQ(db_.Execute("SELECT score FROM t WHERE name = 'alice'")->row(0)[0].AsInt(), 99);
}

TEST_F(SqlEngineTest, Delete) {
  auto r = db_.Execute("DELETE FROM t WHERE name = 'bob'");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows_affected, 2u);
  EXPECT_EQ(db_.Execute("SELECT * FROM t")->row_count(), 2u);
}

TEST_F(SqlEngineTest, FullScanCountsEveryRow) {
  auto r = db_.Execute("SELECT * FROM t WHERE score = 20");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows_visited, 4u) << "no index: the executor touches every row";
}

TEST_F(SqlEngineTest, IndexNarrowsScan) {
  ASSERT_TRUE(db_.Execute("CREATE INDEX byname ON t (name)").ok());
  auto r = db_.Execute("SELECT score FROM t WHERE name = 'bob'");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->row_count(), 2u);
  EXPECT_EQ(r->rows_visited, 2u) << "index probe touches only matching rows";
  EXPECT_EQ(r->index_probes, 1u);
}

// rows_visited is the executor work the OKDB cost model charges, so its
// value for each scan shape is pinned here, not just the rows returned.
TEST_F(SqlEngineTest, FullScanCountsEveryRowWhateverThePredicates) {
  EXPECT_EQ(db_.Execute("SELECT * FROM t")->rows_visited, 4u);
  EXPECT_EQ(db_.Execute("SELECT * FROM t WHERE name = 'nobody'")->rows_visited, 4u);
  EXPECT_EQ(db_.Execute("SELECT * FROM t WHERE score > 10 AND name = 'bob'")->rows_visited,
            4u);
  ASSERT_TRUE(db_.Execute("CREATE INDEX byname ON t (name)").ok());
  auto r = db_.Execute("SELECT * FROM t WHERE name > 'b'");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->row_count(), 3u);
  EXPECT_EQ(r->rows_visited, 4u) << "only equality predicates use an index";
  EXPECT_EQ(r->index_probes, 0u);
}

TEST_F(SqlEngineTest, IndexedEqualityCountsOnlyTheMatches) {
  ASSERT_TRUE(db_.Execute("CREATE INDEX byname ON t (name)").ok());
  auto r = db_.Execute("SELECT * FROM t WHERE score > 10 AND name = 'bob'");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->row_count(), 2u);
  EXPECT_EQ(r->rows_visited, 2u);
  EXPECT_EQ(r->index_probes, 1u);
  auto none = db_.Execute("SELECT * FROM t WHERE name = 'nobody'");
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(none->rows_visited, 0u);
  EXPECT_EQ(none->index_probes, 1u);
}

TEST_F(SqlEngineTest, MixedTypeEqualityMatchesByTextWithOrWithoutAnIndex) {
  auto scan = db_.Execute("SELECT name FROM t WHERE score = '20'");
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan->row_count(), 1u);
  EXPECT_EQ(scan->row(0)[0].AsText(), "bob");
  EXPECT_EQ(scan->rows_visited, 4u);
  ASSERT_TRUE(db_.Execute("CREATE INDEX byscore ON t (score)").ok());
  auto probe = db_.Execute("SELECT name FROM t WHERE score = '20'");
  ASSERT_TRUE(probe.ok());
  ASSERT_EQ(probe->row_count(), 1u);
  EXPECT_EQ(probe->rows_visited, 1u);
}

TEST_F(SqlEngineTest, UnknownWhereColumnVisitsEveryRowAndAffectsNone) {
  // SELECT refuses an unknown WHERE column up front; UPDATE and DELETE scan
  // and match nothing, and the scan is still charged.
  auto upd = db_.Execute("UPDATE t SET score = 1 WHERE bogus = 1");
  ASSERT_TRUE(upd.ok());
  EXPECT_EQ(upd->rows_affected, 0u);
  EXPECT_EQ(upd->rows_visited, 4u);
  auto del = db_.Execute("DELETE FROM t WHERE bogus != 1");
  ASSERT_TRUE(del.ok());
  EXPECT_EQ(del->rows_affected, 0u);
  EXPECT_EQ(del->rows_visited, 4u);
  // With an index on a known equality column, only its matches are visited,
  // and the unknown column still matches none of them.
  ASSERT_TRUE(db_.Execute("CREATE INDEX byname ON t (name)").ok());
  auto both = db_.Execute("DELETE FROM t WHERE name = 'bob' AND bogus = 1");
  ASSERT_TRUE(both.ok());
  EXPECT_EQ(both->rows_affected, 0u);
  EXPECT_EQ(both->rows_visited, 2u);
  EXPECT_EQ(db_.Execute("SELECT * FROM t")->row_count(), 4u);
}

TEST_F(SqlEngineTest, IndexMaintainedAcrossMutations) {
  ASSERT_TRUE(db_.Execute("CREATE INDEX byname ON t (name)").ok());
  ASSERT_TRUE(db_.Execute("UPDATE t SET name = 'bobby' WHERE score = 20").ok());
  EXPECT_EQ(db_.Execute("SELECT * FROM t WHERE name = 'bob'")->row_count(), 1u);
  EXPECT_EQ(db_.Execute("SELECT * FROM t WHERE name = 'bobby'")->row_count(), 1u);
  ASSERT_TRUE(db_.Execute("DELETE FROM t WHERE name = 'bobby'").ok());
  EXPECT_EQ(db_.Execute("SELECT * FROM t WHERE name = 'bobby'")->row_count(), 0u);
}

// SELECT hands rows out by reference: each output row is a view of a table
// row through the statement's projection. The rows, their order, and the
// executor work the OKDB cost model charges (rows_visited, index_probes)
// are pinned to the values the copying executor produced.
struct PinnedSelect {
  const char* sql;
  const char* rows;  // each row's literals, comma-joined, each row ';'-ended
  uint64_t rows_visited;
  uint64_t index_probes;
};

std::string RenderRows(const QueryResult& r) {
  std::string out;
  for (size_t i = 0; i < r.row_count(); ++i) {
    const SqlRowRef row = r.row(i);
    for (size_t c = 0; c < row.size(); ++c) {
      out += (c == 0 ? "" : ",") + row[c].ToLiteral();
    }
    out += ";";
  }
  return out;
}

class SqlSelectByReferenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.Execute("CREATE TABLE notes (owner INTEGER, text TEXT, n INTEGER)").ok());
    ASSERT_TRUE(db_.Execute("INSERT INTO notes (owner, text, n) VALUES (1, 'a', 5), (2, 'b', 3), "
                            "(1, 'c', 7), (3, 'b', 1), (2, 'd', 9), (1, 'e', 2), (3, 'f', 6), "
                            "(2, 'g', 4)")
                    .ok());
    ASSERT_TRUE(db_.Execute("INSERT INTO notes (owner, n) VALUES (1, 8)").ok());
    ASSERT_TRUE(db_.Execute("CREATE INDEX byowner ON notes (owner)").ok());
  }
  SqlDatabase db_;
};

TEST_F(SqlSelectByReferenceTest, RowsAndChargedWorkMatchTheCopyingExecutor) {
  const PinnedSelect kPinned[] = {
      {"SELECT * FROM notes",
       "1,'a',5;2,'b',3;1,'c',7;3,'b',1;2,'d',9;1,'e',2;3,'f',6;2,'g',4;1,NULL,8;", 9, 0},
      {"SELECT text FROM notes WHERE owner = 2", "'b';'d';'g';", 3, 1},
      {"SELECT text, n FROM notes WHERE n > 3 ORDER BY n DESC",
       "'d',9;NULL,8;'c',7;'f',6;'a',5;'g',4;", 9, 0},
      {"SELECT n, text FROM notes WHERE owner = 1 ORDER BY text LIMIT 2", "8,NULL;5,'a';", 4, 1},
      {"SELECT owner FROM notes WHERE text = 'b'", "2;3;", 9, 0},
      {"SELECT * FROM notes ORDER BY n LIMIT 0", "", 9, 0},
      {"SELECT text FROM notes LIMIT 100", "'a';'b';'c';'b';'d';'e';'f';'g';NULL;", 9, 0},
      {"SELECT n FROM notes WHERE owner = 3 AND n < 5", "1;", 2, 1},
      {"SELECT text, owner FROM notes WHERE owner != 2 ORDER BY owner DESC LIMIT 3",
       "'b',3;'f',3;'a',1;", 9, 0},
  };
  for (const PinnedSelect& want : kPinned) {
    auto r = db_.Execute(want.sql);
    ASSERT_TRUE(r.ok()) << want.sql;
    EXPECT_EQ(RenderRows(r.value()), want.rows) << want.sql;
    EXPECT_EQ(r->rows_visited, want.rows_visited) << want.sql;
    EXPECT_EQ(r->index_probes, want.index_probes) << want.sql;
  }
}

TEST_F(SqlSelectByReferenceTest, RowsAreViewsOfTheTableThroughTheProjection) {
  auto r = db_.Execute("SELECT n, owner FROM notes WHERE owner = 3");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->row_count(), 2u);
  ASSERT_EQ(r->columns, (std::vector<std::string>{"N", "OWNER"}));  // names fold to upper case
  // No copy: each output cell is the table's own cell, in projection order.
  std::vector<const SqlValue*> owned_by_3;  // each row's first cell in the table
  db_.FindTable("NOTES")->ForEachRow([&](const SqlRowView row) {
    if (row[0].AsInt() == 3) {
      owned_by_3.push_back(&row[0]);
    }
  });
  ASSERT_EQ(owned_by_3.size(), 2u);
  for (size_t i = 0; i < 2; ++i) {
    const SqlRowRef row = r->row(i);
    ASSERT_EQ(row.size(), 2u);
    EXPECT_EQ(&row[0], &owned_by_3[i][2]);
    EXPECT_EQ(&row[1], &owned_by_3[i][0]);
    EXPECT_EQ(&row.back(), &row[1]);
  }
}

TEST_F(SqlEngineTest, PrimaryKeyUniqueness) {
  ASSERT_TRUE(db_.Execute("CREATE TABLE pk (id INTEGER PRIMARY KEY, v TEXT)").ok());
  ASSERT_TRUE(db_.Execute("INSERT INTO pk (id, v) VALUES (1, 'a')").ok());
  auto dup = db_.Execute("INSERT INTO pk (id, v) VALUES (1, 'b')");
  EXPECT_FALSE(dup.ok());
  EXPECT_EQ(dup.status(), Status::kAlreadyExists);
}

TEST_F(SqlEngineTest, UpdateCannotDuplicateAPrimaryKey) {
  ASSERT_TRUE(db_.Execute("CREATE TABLE pk (id INTEGER PRIMARY KEY, name TEXT)").ok());
  ASSERT_TRUE(db_.Execute("INSERT INTO pk (id, name) VALUES (1, 'a'), (2, 'b')").ok());
  EXPECT_EQ(db_.Execute("UPDATE pk SET id = 1 WHERE name = 'b'").status(),
            Status::kAlreadyExists);
  // Two target rows would share the new key even though no row holds it yet.
  EXPECT_EQ(db_.Execute("UPDATE pk SET id = 3, name = 'c' WHERE id > 0").status(),
            Status::kAlreadyExists);
  // Refused statements write nothing.
  auto one = db_.Execute("SELECT name FROM pk WHERE id = 1");
  ASSERT_TRUE(one.ok());
  ASSERT_EQ(one->row_count(), 1u);
  EXPECT_EQ(one->row(0)[0].AsText(), "a");
  auto two = db_.Execute("SELECT name FROM pk WHERE id = 2");
  ASSERT_TRUE(two.ok());
  ASSERT_EQ(two->row_count(), 1u);
  EXPECT_EQ(two->row(0)[0].AsText(), "b");
  EXPECT_EQ(db_.Execute("SELECT * FROM pk WHERE name = 'c'")->row_count(), 0u);
  // A row may keep its own key, or move to a free one.
  EXPECT_EQ(db_.Execute("UPDATE pk SET id = 2 WHERE name = 'b'")->rows_affected, 1u);
  EXPECT_EQ(db_.Execute("UPDATE pk SET id = 3 WHERE name = 'b'")->rows_affected, 1u);
  EXPECT_EQ(db_.Execute("SELECT name FROM pk WHERE id = 3")->row_count(), 1u);
  EXPECT_EQ(db_.Execute("SELECT name FROM pk WHERE id = 2")->row_count(), 0u);
}

// A refused multi-row INSERT writes no row: every key is checked, against
// the table and against the statement's other rows, before the first write.
TEST_F(SqlEngineTest, MultiRowInsertIsAllOrNothing) {
  ASSERT_TRUE(db_.Execute("CREATE TABLE pk (id INTEGER PRIMARY KEY, v TEXT)").ok());
  EXPECT_EQ(db_.Execute("INSERT INTO pk (id, v) VALUES (1, 'a'), (1, 'b')").status(),
            Status::kAlreadyExists);
  EXPECT_EQ(db_.Execute("SELECT * FROM pk")->row_count(), 0u);
  EXPECT_EQ(db_.FindTable("PK")->approx_bytes(), 0u);

  ASSERT_TRUE(db_.Execute("INSERT INTO pk (id, v) VALUES (1, 'a')").ok());
  const uint64_t bytes = db_.FindTable("PK")->approx_bytes();
  // The taken key comes last, after a row that would have fit.
  EXPECT_EQ(db_.Execute("INSERT INTO pk (id, v) VALUES (2, 'b'), (1, 'c')").status(),
            Status::kAlreadyExists);
  // Two rows without the key column share the NULL key.
  EXPECT_EQ(db_.Execute("INSERT INTO pk (v) VALUES ('d'), ('e')").status(),
            Status::kAlreadyExists);
  auto all = db_.Execute("SELECT id, v FROM pk");
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->row_count(), 1u);
  EXPECT_EQ(all->row(0)[1].AsText(), "a");
  EXPECT_EQ(db_.FindTable("PK")->approx_bytes(), bytes);
  EXPECT_EQ(db_.Execute("SELECT v FROM pk WHERE id = 2")->row_count(), 0u);
  EXPECT_EQ(db_.Execute("INSERT INTO pk (id, v) VALUES (2, 'b'), (3, 'c')")->rows_affected, 2u);
  EXPECT_EQ(db_.Execute("SELECT * FROM pk")->row_count(), 3u);
}

// --- Flat row store ------------------------------------------------------------
//
// Rows live flat (ascending row ids beside one row-major cell array), and a
// DELETE compacts them. Scattered deletes must leave every read path (full
// scan, declared index, host index, ORDER BY) and UPDATE through both index
// kinds answering as a plain list of the surviving rows does.
class SqlFlatTableTest : public ::testing::Test {
 protected:
  struct Row {
    int64_t id;
    int64_t owner;
    std::string v;
  };

  void SetUp() override {
    ASSERT_TRUE(db_.Execute("CREATE TABLE t (id INTEGER, owner INTEGER, v TEXT)").ok());
    ASSERT_TRUE(db_.Execute("CREATE INDEX byowner ON t (owner)").ok());
    std::string insert = "INSERT INTO t (id, owner, v) VALUES ";
    for (int64_t id = 0; id < kRows; ++id) {
      Row row{id, id % 5, id % 3 == 0 ? "x" : "y" + std::to_string(id % 4)};
      insert += (id == 0 ? "(" : ", (") + std::to_string(row.id) + ", " +
                std::to_string(row.owner) + ", '" + row.v + "')";
      model_.push_back(std::move(row));
    }
    ASSERT_TRUE(db_.Execute(insert).ok());
  }

  static std::string Render(const QueryResult& r) {
    std::string out;
    for (size_t i = 0; i < r.row_count(); ++i) {
      const SqlRowRef row = r.row(i);
      for (size_t c = 0; c < row.size(); ++c) {
        out += (c == 0 ? "" : ",") + row[c].ToLiteral();
      }
      out += ";";
    }
    return out;
  }

  // The model's rows that pass `keep`, in `order`, rendered as id,owner,v.
  template <typename Keep>
  std::string Expected(Keep keep, bool by_id_desc = false) const {
    std::vector<Row> rows;
    for (const Row& row : model_) {
      if (keep(row)) {
        rows.push_back(row);
      }
    }
    if (by_id_desc) {
      std::reverse(rows.begin(), rows.end());  // the model is in id order
    }
    std::string out;
    for (const Row& row : rows) {
      out += std::to_string(row.id) + "," + std::to_string(row.owner) + ",'" + row.v + "';";
    }
    return out;
  }

  // Runs a DELETE on the table and on the model, then compares them.
  template <typename Pred>
  void Delete(const std::string& sql, Pred pred) {
    const auto gone = std::remove_if(model_.begin(), model_.end(), pred);
    const auto count = static_cast<uint64_t>(model_.end() - gone);
    model_.erase(gone, model_.end());
    auto r = db_.Execute(sql);
    ASSERT_TRUE(r.ok()) << sql;
    EXPECT_GT(count, 0u) << sql;
    EXPECT_EQ(r->rows_affected, count) << sql;
    ExpectAgrees();
  }

  // Runs an UPDATE on the table and on the model (`apply` edits a row and
  // says whether it matched), then compares them.
  template <typename Apply>
  void Update(const std::string& sql, Apply apply) {
    uint64_t count = 0;
    for (Row& row : model_) {
      count += apply(row) ? 1 : 0;
    }
    auto r = db_.Execute(sql);
    ASSERT_TRUE(r.ok()) << sql;
    EXPECT_GT(count, 0u) << sql;
    EXPECT_EQ(r->rows_affected, count) << sql;
    ExpectAgrees();
  }

  void ExpectAgrees() {
    const auto all = [](const Row&) { return true; };
    EXPECT_EQ(Render(db_.Execute("SELECT * FROM t").value()), Expected(all));
    EXPECT_EQ(Render(db_.Execute("SELECT * FROM t ORDER BY id DESC").value()),
              Expected(all, /*by_id_desc=*/true));
    for (int64_t owner = 0; owner < 5; ++owner) {
      auto r = db_.Execute("SELECT * FROM t WHERE owner = " + std::to_string(owner));
      ASSERT_TRUE(r.ok());
      const std::string want = Expected([&](const Row& row) { return row.owner == owner; });
      // The declared index lists a key's rows in the order they took it.
      std::vector<std::string> got_rows = Split(Render(r.value()), ';');
      std::vector<std::string> want_rows = Split(want, ';');
      std::sort(got_rows.begin(), got_rows.end());
      std::sort(want_rows.begin(), want_rows.end());
      EXPECT_EQ(got_rows, want_rows) << "owner " << owner;
      EXPECT_EQ(r->index_probes, 1u);
      EXPECT_EQ(r->rows_visited, r->row_count());
    }
    for (const char* v : {"x", "y1", "y2", "moved"}) {
      auto r = db_.Execute(std::string("SELECT * FROM t WHERE v = '") + v + "'");
      ASSERT_TRUE(r.ok());
      EXPECT_EQ(Render(r.value()), Expected([&](const Row& row) { return row.v == v; })) << v;
      EXPECT_EQ(r->rows_visited, model_.size()) << "the host index still charges a full scan";
    }
    EXPECT_EQ(db_.FindTable("T")->row_count(), model_.size());
  }

  // Enough rows for a table of this width to span three storage blocks.
  static constexpr int64_t kRows = 300;

  SqlDatabase db_;
  std::vector<Row> model_;
};

TEST_F(SqlFlatTableTest, ScatteredDeletesKeepEveryReadAndUpdatePathExact) {
  ExpectAgrees();  // also builds the host index on v before the mutations
  // Every third row, through the host index.
  Delete("DELETE FROM t WHERE v = 'x'", [](const Row& row) { return row.v == "x"; });
  // One owner's rows, through the declared index.
  Delete("DELETE FROM t WHERE owner = 2", [](const Row& row) { return row.owner == 2; });
  // The first and last surviving rows, and a run across a block boundary,
  // by full scan.
  Delete("DELETE FROM t WHERE id < 2", [](const Row& row) { return row.id < 2; });
  Delete("DELETE FROM t WHERE id > 290", [](const Row& row) { return row.id > 290; });
  Delete("DELETE FROM t WHERE id > 100 AND id < 160",
         [](const Row& row) { return row.id > 100 && row.id < 160; });
  // UPDATE through the declared index, then through the host index.
  Update("UPDATE t SET v = 'moved' WHERE owner = 4", [](Row& row) {
    if (row.owner != 4) {
      return false;
    }
    row.v = "moved";
    return true;
  });
  Update("UPDATE t SET owner = 0 WHERE v = 'y1'", [](Row& row) {
    if (row.v != "y1") {
      return false;
    }
    row.owner = 0;
    return true;
  });
  // Rows inserted after the compaction land after the survivors.
  ASSERT_TRUE(db_.Execute("INSERT INTO t (id, owner, v) VALUES (400, 2, 'x'), (401, 3, 'y1')").ok());
  model_.push_back({400, 2, "x"});
  model_.push_back({401, 3, "y1"});
  ExpectAgrees();
}

TEST_F(SqlFlatTableTest, ApproxBytesReturnsToItsStartAfterChurn) {
  const SqlTable* t = db_.FindTable("T");
  const uint64_t start = t->approx_bytes();
  for (int round = 0; round < 3; ++round) {
    std::string insert = "INSERT INTO t (id, owner, v) VALUES ";
    for (int64_t id = 1000; id < 1030; ++id) {
      insert += (id == 1000 ? "(" : ", (") + std::to_string(id) + ", 7, 'churn" +
                std::to_string(id * (round + 1)) + "')";
    }
    ASSERT_TRUE(db_.Execute(insert).ok());
    EXPECT_GT(t->approx_bytes(), start);
    // Lengthen 9 of the rows, then shorten one back below its first length:
    // each UPDATE moves the charge by the change in text length.
    const uint64_t before_update = t->approx_bytes();
    EXPECT_EQ(db_.Execute("UPDATE t SET v = 'lengthened by an update' WHERE id > 1015 AND "
                          "id < 1025")
                  ->rows_affected,
              9u);
    EXPECT_GT(t->approx_bytes(), before_update);
    const uint64_t lengthened = t->approx_bytes();
    EXPECT_EQ(db_.Execute("UPDATE t SET v = 's' WHERE id = 1016")->rows_affected, 1u);
    EXPECT_EQ(t->approx_bytes(), lengthened - std::string("lengthened by an update").size() + 1);
    // Deleted from the middle out, so the compaction moves surviving rows.
    EXPECT_EQ(db_.Execute("DELETE FROM t WHERE id > 1010 AND id < 1020")->rows_affected, 9u);
    EXPECT_GT(t->approx_bytes(), start);
    EXPECT_EQ(db_.Execute("DELETE FROM t WHERE owner = 7")->rows_affected, 21u);
    EXPECT_EQ(t->approx_bytes(), start) << "round " << round;
  }
  ExpectAgrees();
  EXPECT_EQ(db_.Execute("DELETE FROM t")->rows_affected, static_cast<uint64_t>(kRows));
  EXPECT_EQ(t->approx_bytes(), 0u);
  EXPECT_EQ(t->row_count(), 0u);
  EXPECT_EQ(db_.Execute("SELECT * FROM t")->row_count(), 0u);
  // A row reusing a vacated slot holds only what its INSERT lists.
  ASSERT_TRUE(db_.Execute("INSERT INTO t (id) VALUES (7), (8)").ok());
  EXPECT_EQ(Render(db_.Execute("SELECT * FROM t").value()), "7,NULL,NULL;8,NULL,NULL;");
}

// An equality on an undeclared column is found through a host-only index,
// but must answer exactly as the full scan it is charged as. `v >= L AND
// v <= L` selects the same rows as `v = L` and never uses an index, so it is
// the forced full scan to compare against.
class HostIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (SqlDatabase* db : {&db_, &scan_db_}) {
      ASSERT_TRUE(db->Execute("CREATE TABLE t (tag INTEGER, v TEXT)").ok());
      ASSERT_TRUE(db->Execute("INSERT INTO t (tag, v) VALUES (1, 10), (2, '10'), (3, '010'), "
                              "(4, NULL), (5, ''), (6, 'x'), (7, 10), (8, NULL), (9, ''), "
                              "(10, '9'), (11, 9)")
                      .ok());
    }
  }

  // Runs `stmt` (ending in "WHERE") with `v = literal` on db_ and with the
  // forced full scan on scan_db_, and checks they agree.
  void ExpectSameAsScan(const std::string& stmt, const std::string& literal) {
    auto eq = db_.Execute(stmt + " v = " + literal);
    auto scan = scan_db_.Execute(stmt + " v >= " + literal + " AND v <= " + literal);
    ASSERT_TRUE(eq.ok() && scan.ok()) << stmt << literal;
    EXPECT_EQ(eq->rows_affected, scan->rows_affected) << stmt << literal;
    ASSERT_EQ(eq->row_count(), scan->row_count()) << stmt << literal;
    for (size_t i = 0; i < eq->row_count(); ++i) {
      EXPECT_EQ(eq->row(i)[0].AsInt(), scan->row(i)[0].AsInt()) << stmt << literal;
    }
    EXPECT_EQ(eq->rows_visited, scan->rows_visited) << "the index is uncharged";
    EXPECT_EQ(eq->index_probes, 0u);
    EXPECT_FALSE(db_.FindTable("T")->HasIndex("V"));
  }

  void ExpectSelectsAgree() {
    for (const char* literal : {"10", "'10'", "'010'", "9", "'9'", "NULL", "''", "'x'", "'moved'",
                                "'absent'"}) {
      ExpectSameAsScan("SELECT tag FROM t WHERE", literal);
    }
  }

  SqlDatabase db_;
  SqlDatabase scan_db_;
};

TEST_F(HostIndexTest, SelectMatchesTheFullScanAndChargesEveryRow) {
  ExpectSelectsAgree();
  auto r = db_.Execute("SELECT tag FROM t WHERE v = '10'");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->row_count(), 3u) << "10 and '10' compare equal by text; '010' does not";
  EXPECT_EQ(r->row(0)[0].AsInt(), 1);
  EXPECT_EQ(r->row(1)[0].AsInt(), 2);
  EXPECT_EQ(r->row(2)[0].AsInt(), 7);
  EXPECT_EQ(r->rows_visited, db_.FindTable("T")->row_count());
  EXPECT_EQ(db_.Execute("SELECT tag FROM t WHERE v = NULL")->row_count(), 2u)
      << "NULL matches only NULL, not ''";
  EXPECT_EQ(db_.Execute("SELECT tag FROM t WHERE v = ''")->row_count(), 2u);
}

TEST_F(HostIndexTest, StaysCorrectAcrossUpdatesAndDeletesOfTheFilteredColumn) {
  ExpectSelectsAgree();  // builds the index before the mutations
  ExpectSameAsScan("UPDATE t SET v = 'moved' WHERE", "'10'");
  ExpectSelectsAgree();
  ExpectSameAsScan("UPDATE t SET v = NULL WHERE", "''");
  ExpectSelectsAgree();
  ExpectSameAsScan("UPDATE t SET v = 10 WHERE", "'9'");
  ExpectSelectsAgree();
  ExpectSameAsScan("DELETE FROM t WHERE", "NULL");
  ExpectSelectsAgree();
  ExpectSameAsScan("DELETE FROM t WHERE", "10");
  ExpectSelectsAgree();
  for (SqlDatabase* db : {&db_, &scan_db_}) {
    ASSERT_TRUE(db->Execute("INSERT INTO t (tag, v) VALUES (12, 10), (13, NULL)").ok());
  }
  ExpectSelectsAgree();
  EXPECT_EQ(db_.Execute("SELECT * FROM t")->row_count(),
            scan_db_.Execute("SELECT * FROM t")->row_count());
}

TEST_F(HostIndexTest, ADeclaredIndexTakesOverAndIsCharged) {
  ExpectSelectsAgree();
  ASSERT_TRUE(db_.Execute("CREATE INDEX byv ON t (v)").ok());
  auto r = db_.Execute("SELECT tag FROM t WHERE v = '10'");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->row_count(), 3u);
  EXPECT_EQ(r->rows_visited, 3u);
  EXPECT_EQ(r->index_probes, 1u);
}

TEST_F(SqlEngineTest, ErrorsOnUnknownNames) {
  EXPECT_EQ(db_.Execute("SELECT * FROM missing").status(), Status::kNotFound);
  EXPECT_EQ(db_.Execute("SELECT nope FROM t").status(), Status::kNotFound);
  EXPECT_EQ(db_.Execute("INSERT INTO t (bogus) VALUES (1)").status(), Status::kNotFound);
  EXPECT_EQ(db_.Execute("SELECT * FROM t WHERE bogus = 1").status(), Status::kNotFound);
}

TEST_F(SqlEngineTest, NullHandling) {
  ASSERT_TRUE(db_.Execute("INSERT INTO t (name, score) VALUES ('dave', NULL)").ok());
  auto r = db_.Execute("SELECT score FROM t WHERE name = 'dave'");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->row(0)[0].is_null());
}

TEST(SqlValueTest, CompareSemantics) {
  EXPECT_EQ(SqlValue(int64_t{5}).Compare(SqlValue(int64_t{5})), 0);
  EXPECT_LT(SqlValue(int64_t{-1}).Compare(SqlValue(int64_t{1})), 0);
  EXPECT_EQ(SqlValue(std::string("a")).Compare(SqlValue(std::string("a"))), 0);
  EXPECT_LT(SqlValue().Compare(SqlValue(int64_t{0})), 0) << "NULL orders first";
  EXPECT_EQ(SqlValue().Compare(SqlValue()), 0);
}

TEST(SqlValueTest, CompareOrdersNullFirstIntsNumericallyAndTextLexicographically) {
  const SqlValue null;
  const SqlValue i10(int64_t{10});
  const SqlValue i9(int64_t{9});
  const SqlValue t10(std::string("10"));
  const SqlValue t9(std::string("9"));
  EXPECT_LT(null.Compare(t9), 0);
  EXPECT_GT(t9.Compare(null), 0);
  EXPECT_GT(i9.Compare(null), 0);
  // int/int: numeric, so 9 < 10.
  EXPECT_LT(i9.Compare(i10), 0);
  EXPECT_GT(i10.Compare(i9), 0);
  EXPECT_LT(SqlValue(int64_t{-20}).Compare(SqlValue(int64_t{-3})), 0);
  // text/text: lexicographic, so '10' < '9'; a prefix orders first; bytes
  // compare unsigned.
  EXPECT_LT(t10.Compare(t9), 0);
  EXPECT_LT(SqlValue(std::string("ab")).Compare(SqlValue(std::string("abc"))), 0);
  EXPECT_GT(SqlValue(std::string("b")).Compare(SqlValue(std::string("abc"))), 0);
  EXPECT_GT(SqlValue(std::string("\xe9")).Compare(SqlValue(std::string("z"))), 0);
  EXPECT_EQ(SqlValue(std::string()).Compare(SqlValue(std::string())), 0);
  // Mixed int/text: by the int's decimal text, so 10 < '9' and 9 > '10'.
  EXPECT_LT(i10.Compare(t9), 0);
  EXPECT_GT(t9.Compare(i10), 0);
  EXPECT_GT(i9.Compare(t10), 0);
  EXPECT_EQ(i10.Compare(t10), 0);
  EXPECT_EQ(SqlValue(int64_t{-5}).Compare(SqlValue(std::string("-5"))), 0);
  EXPECT_EQ(SqlValue(std::string("-9223372036854775808"))
                .Compare(SqlValue(std::numeric_limits<int64_t>::min())),
            0);
  EXPECT_LT(SqlValue(int64_t{1}).Compare(SqlValue(std::string("1 "))), 0);
}

TEST(SqlValueTest, Literals) {
  EXPECT_EQ(SqlValue(int64_t{-3}).ToLiteral(), "-3");
  EXPECT_EQ(SqlValue(std::string("it's")).ToLiteral(), "'it''s'");
  EXPECT_EQ(SqlValue().ToLiteral(), "NULL");
}

}  // namespace
}  // namespace asbestos
