#include <gtest/gtest.h>

#include <limits>

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
  EXPECT_EQ(r->rows.size(), 4u);
  EXPECT_EQ(r->columns.size(), 2u);
}

TEST_F(SqlEngineTest, SelectWhereEquality) {
  auto r = db_.Execute("SELECT score FROM t WHERE name = 'bob'");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 2u);
  EXPECT_EQ(r->rows[0][0].AsInt(), 20);
  EXPECT_EQ(r->rows[1][0].AsInt(), 25);
}

TEST_F(SqlEngineTest, SelectComparisons) {
  EXPECT_EQ(db_.Execute("SELECT name FROM t WHERE score > 20")->rows.size(), 2u);
  EXPECT_EQ(db_.Execute("SELECT name FROM t WHERE score >= 20")->rows.size(), 3u);
  EXPECT_EQ(db_.Execute("SELECT name FROM t WHERE score < 20")->rows.size(), 1u);
  EXPECT_EQ(db_.Execute("SELECT name FROM t WHERE score != 10")->rows.size(), 3u);
  EXPECT_EQ(db_.Execute("SELECT name FROM t WHERE score > 10 AND score < 30")->rows.size(),
            2u);
}

TEST_F(SqlEngineTest, OrderByAndLimit) {
  auto r = db_.Execute("SELECT name FROM t ORDER BY score DESC LIMIT 2");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 2u);
  EXPECT_EQ(r->rows[0][0].AsText(), "carol");
  EXPECT_EQ(r->rows[1][0].AsText(), "bob");
}

TEST_F(SqlEngineTest, Update) {
  auto r = db_.Execute("UPDATE t SET score = 99 WHERE name = 'alice'");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows_affected, 1u);
  EXPECT_EQ(db_.Execute("SELECT score FROM t WHERE name = 'alice'")->rows[0][0].AsInt(), 99);
}

TEST_F(SqlEngineTest, Delete) {
  auto r = db_.Execute("DELETE FROM t WHERE name = 'bob'");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows_affected, 2u);
  EXPECT_EQ(db_.Execute("SELECT * FROM t")->rows.size(), 2u);
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
  EXPECT_EQ(r->rows.size(), 2u);
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
  EXPECT_EQ(r->rows.size(), 3u);
  EXPECT_EQ(r->rows_visited, 4u) << "only equality predicates use an index";
  EXPECT_EQ(r->index_probes, 0u);
}

TEST_F(SqlEngineTest, IndexedEqualityCountsOnlyTheMatches) {
  ASSERT_TRUE(db_.Execute("CREATE INDEX byname ON t (name)").ok());
  auto r = db_.Execute("SELECT * FROM t WHERE score > 10 AND name = 'bob'");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 2u);
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
  ASSERT_EQ(scan->rows.size(), 1u);
  EXPECT_EQ(scan->rows[0][0].AsText(), "bob");
  EXPECT_EQ(scan->rows_visited, 4u);
  ASSERT_TRUE(db_.Execute("CREATE INDEX byscore ON t (score)").ok());
  auto probe = db_.Execute("SELECT name FROM t WHERE score = '20'");
  ASSERT_TRUE(probe.ok());
  ASSERT_EQ(probe->rows.size(), 1u);
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
  EXPECT_EQ(db_.Execute("SELECT * FROM t")->rows.size(), 4u);
}

TEST_F(SqlEngineTest, IndexMaintainedAcrossMutations) {
  ASSERT_TRUE(db_.Execute("CREATE INDEX byname ON t (name)").ok());
  ASSERT_TRUE(db_.Execute("UPDATE t SET name = 'bobby' WHERE score = 20").ok());
  EXPECT_EQ(db_.Execute("SELECT * FROM t WHERE name = 'bob'")->rows.size(), 1u);
  EXPECT_EQ(db_.Execute("SELECT * FROM t WHERE name = 'bobby'")->rows.size(), 1u);
  ASSERT_TRUE(db_.Execute("DELETE FROM t WHERE name = 'bobby'").ok());
  EXPECT_EQ(db_.Execute("SELECT * FROM t WHERE name = 'bobby'")->rows.size(), 0u);
}

TEST_F(SqlEngineTest, PrimaryKeyUniqueness) {
  ASSERT_TRUE(db_.Execute("CREATE TABLE pk (id INTEGER PRIMARY KEY, v TEXT)").ok());
  ASSERT_TRUE(db_.Execute("INSERT INTO pk (id, v) VALUES (1, 'a')").ok());
  auto dup = db_.Execute("INSERT INTO pk (id, v) VALUES (1, 'b')");
  EXPECT_FALSE(dup.ok());
  EXPECT_EQ(dup.status(), Status::kAlreadyExists);
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
  EXPECT_TRUE(r->rows[0][0].is_null());
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
