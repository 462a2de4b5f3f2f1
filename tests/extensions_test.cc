// Tests for the outlook-section extensions (paper Sec. 6.2):
//   (1) linking AND correlation predicates both disjunctive,
//   (3) quantified comparisons θ SOME/ANY/ALL.
#include <gtest/gtest.h>

#include "engine/database.h"
#include "sql/parser.h"
#include "test_util.h"

namespace bypass {
namespace {

using testing_util::ExpectCanonicalEqualsUnnested;
using testing_util::LoadSmallRst;

TEST(QuantifiedCompareParseTest, SomeAnyAllForms) {
  auto stmt = ParseSelect(
      "SELECT * FROM r WHERE a1 > SOME (SELECT b1 FROM s) "
      "AND a2 <= ALL (SELECT b2 FROM s) AND a3 = ANY (SELECT b3 FROM s)");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  const auto& conj = (*stmt)->where;
  ASSERT_EQ(conj->kind, AstExprKind::kAnd);
  EXPECT_EQ(conj->children[0]->kind, AstExprKind::kQuantified);
  EXPECT_EQ(conj->children[0]->quantifier, AstQuantifier::kSome);
  EXPECT_EQ(conj->children[1]->quantifier, AstQuantifier::kAll);
  EXPECT_EQ(conj->children[2]->quantifier, AstQuantifier::kSome);
}

class QuantifiedCompareProperty
    : public ::testing::TestWithParam<const char*> {};

TEST_P(QuantifiedCompareProperty, CanonicalEqualsUnnested) {
  const std::string theta = GetParam();
  for (const char* quantifier : {"SOME", "ALL"}) {
    const std::string sql =
        "SELECT DISTINCT * FROM r WHERE a1 " + theta + " " + quantifier +
        " (SELECT b1 FROM s WHERE a2 = b2) OR a4 > 4";
    Database db;
    LoadSmallRst(&db, 311, 30, 40, 10);
    QueryResult result = ExpectCanonicalEqualsUnnested(&db, sql);
    EXPECT_FALSE(result.applied_rules.empty()) << sql;
  }
}

INSTANTIATE_TEST_SUITE_P(AllOperators, QuantifiedCompareProperty,
                         ::testing::Values("=", "<>", "<", "<=", ">",
                                           ">="));

TEST(QuantifiedCompareTest, EmptySubquerySemantics) {
  // ALL over an empty set is true; SOME over an empty set is false.
  Database db;
  ASSERT_TRUE(db.CreateTable("r", RstTableSchema('a')).ok());
  ASSERT_TRUE(db.CreateTable("s", RstTableSchema('b')).ok());
  ASSERT_TRUE((*db.catalog()->GetTable("r"))
                  ->Append(testing_util::IntRow({1, 2, 3, 4}))
                  .ok());
  auto all = db.Query(
      "SELECT * FROM r WHERE a1 > ALL (SELECT b1 FROM s WHERE a2 = b2)");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->rows.size(), 1u);
  auto some = db.Query(
      "SELECT * FROM r WHERE a1 > SOME (SELECT b1 FROM s WHERE a2 = b2)");
  ASSERT_TRUE(some.ok());
  EXPECT_TRUE(some->rows.empty());
}

// A semi or anti join decides a probe row on its first TRUE pair and
// never evaluates a later one. Here r = {(1, 1), (2, 2), (3, 3)} (a1, a2)
// and s = {(b2 1, b3 1), (b2 1, b3 0), (b2 2, b3 4)}: a1 / b3 divides by
// zero only on s's second row, which r's first row reaches after its
// TRUE pair with s's first row. Every run returns its hand-computed
// rows; none fails with a division by zero. The canonical evaluator runs
// a row at a time, where EXISTS stops at the first qualifying row too.
TEST(ExistenceEarlyExitTest, NoPairAfterTheFirstTrueOneIsEvaluated) {
  Database db;
  ASSERT_TRUE(db.CreateTable("r", RstTableSchema('a')).ok());
  ASSERT_TRUE(db.CreateTable("s", RstTableSchema('b')).ok());
  Table* r = *db.catalog()->GetTable("r");
  Table* s = *db.catalog()->GetTable("s");
  for (int64_t i = 1; i <= 3; ++i) {
    ASSERT_TRUE(r->Append(testing_util::IntRow({i, i, 0, 0})).ok());
  }
  ASSERT_TRUE(s->Append(testing_util::IntRow({0, 1, 1, 0})).ok());
  ASSERT_TRUE(s->Append(testing_util::IntRow({0, 1, 0, 0})).ok());
  ASSERT_TRUE(s->Append(testing_util::IntRow({0, 2, 4, 0})).ok());
  const struct {
    const char* where;
    const char* join;  // the unnested plan's join
    std::vector<int64_t> a1;
  } kCases[] = {
      {"EXISTS (SELECT * FROM s WHERE a2 = b2 AND a1 / b3 > 0)",
       "HashSemiJoin", {1, 2}},
      {"NOT EXISTS (SELECT * FROM s WHERE a2 = b2 AND a1 / b3 > 0)",
       "HashAntiJoin", {3}},
      // Keyless: s's first row is every r row's first candidate.
      {"EXISTS (SELECT * FROM s WHERE a1 / b3 > 0)", "NLSemiJoin",
       {1, 2, 3}},
      {"NOT EXISTS (SELECT * FROM s WHERE a1 / b3 > 0) OR a4 = 0",
       "NLAntiJoin", {1, 2, 3}},
  };
  for (const auto& c : kCases) {
    const std::string sql =
        std::string("SELECT a1 FROM r WHERE ") + c.where;
    SCOPED_TRACE(sql);
    std::vector<Row> want;
    for (int64_t a1 : c.a1) want.push_back(testing_util::IntRow({a1}));
    QueryOptions canonical;
    canonical.unnest = false;
    canonical.batch_size = 1;
    auto base = db.Query(sql, canonical);
    ASSERT_TRUE(base.ok()) << base.status().ToString();
    EXPECT_TRUE(RowMultisetsEqual(base->rows, want));
    for (size_t batch_size : {size_t{1}, size_t{7}, size_t{1024}}) {
      QueryOptions unnested;
      unnested.batch_size = batch_size;
      auto got = db.Query(sql, unnested);
      ASSERT_TRUE(got.ok()) << got.status().ToString() << "\nbatch_size "
                            << batch_size;
      EXPECT_NE(got->physical_plan.find(c.join), std::string::npos)
          << got->physical_plan;
      EXPECT_TRUE(RowMultisetsEqual(got->rows, want))
          << "batch_size " << batch_size;
    }
  }
}

// r = (5, 1, 0, 0) and s = {(NULL, 1, 0, 0), (3, 1, 0, 0)}: for the one
// outer row the correlated block yields {NULL, 3}. 5 > 3 is TRUE and
// 5 θ NULL is UNKNOWN, so every ALL and every negated SOME below is
// UNKNOWN (0 rows), while 5 > SOME {NULL, 3} is TRUE (1 row). The
// expected rows are computed by hand, not by another evaluator.
TEST(QuantifiedCompareTest, NullReproHandComputedRows) {
  Database db;
  ASSERT_TRUE(db.CreateTable("r", RstTableSchema('a')).ok());
  ASSERT_TRUE(db.CreateTable("s", RstTableSchema('b')).ok());
  ASSERT_TRUE((*db.catalog()->GetTable("r"))
                  ->Append(testing_util::IntRow({5, 1, 0, 0}))
                  .ok());
  Table* s = *db.catalog()->GetTable("s");
  ASSERT_TRUE(s->Append(Row{Value::Null(), Value::Int64(1),
                            Value::Int64(0), Value::Int64(0)})
                  .ok());
  ASSERT_TRUE(s->Append(testing_util::IntRow({3, 1, 0, 0})).ok());
  const struct {
    const char* where;
    size_t rows;
  } kCases[] = {
      {"a1 > ALL (SELECT b1 FROM s WHERE a2 = b2)", 0},
      {"a1 <> ALL (SELECT b1 FROM s WHERE a2 = b2)", 0},
      {"NOT (a1 = SOME (SELECT b1 FROM s WHERE a2 = b2))", 0},
      {"NOT (a1 < SOME (SELECT b1 FROM s WHERE a2 = b2))", 0},
      {"a1 > SOME (SELECT b1 FROM s WHERE a2 = b2)", 1},
      {"a1 NOT IN (SELECT b1 FROM s WHERE a2 = b2)", 0},
      // The UNKNOWN row reaches the next disjunct, and only through it.
      {"a1 > ALL (SELECT b1 FROM s WHERE a2 = b2) OR a4 = 0", 1},
      {"a1 > ALL (SELECT b1 FROM s WHERE a2 = b2) OR a4 = 1", 0},
      // MAX ignores the NULL: 5 > ALL {3}.
      {"a1 > ALL (SELECT MAX(b1) FROM s)", 1},
      {"a1 <= ALL (SELECT MAX(b1) FROM s)", 0},
      // MAX(∅) is one NULL row, not an empty set: UNKNOWN.
      {"a1 > ALL (SELECT MAX(b1) FROM s WHERE b2 = 9)", 0},
  };
  for (ExecutionStrategy strategy :
       {ExecutionStrategy::kCanonical, ExecutionStrategy::kCanonicalMemo,
        ExecutionStrategy::kUnnested}) {
    for (const auto& c : kCases) {
      const std::string sql = std::string("SELECT * FROM r WHERE ") + c.where;
      SCOPED_TRACE(sql + " strategy " +
                   std::to_string(static_cast<int>(strategy)));
      auto result = db.Query(sql, QueryOptions::With(strategy));
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(result->rows.size(), c.rows);
      if (strategy == ExecutionStrategy::kUnnested) {
        EXPECT_FALSE(result->applied_rules.empty()) << result->optimized_plan;
      }
    }
  }
}

// Outlook item (1): linking and correlation predicate both disjunctive —
// the composition of Eqv. 2/3 (outer) with Eqv. 4/5 (inner).
class DoubleDisjunctionProperty
    : public ::testing::TestWithParam<const char*> {};

TEST_P(DoubleDisjunctionProperty, CanonicalEqualsUnnested) {
  for (uint64_t seed : {411u, 412u}) {
    Database db;
    LoadSmallRst(&db, seed, 25, 35, 10);
    QueryResult result = ExpectCanonicalEqualsUnnested(&db, GetParam());
    EXPECT_FALSE(result.applied_rules.empty()) << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Queries, DoubleDisjunctionProperty,
    ::testing::Values(
        // Eqv. 2 outside, Eqv. 4 inside.
        "SELECT DISTINCT * FROM r "
        "WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2 OR b4 > 3) "
        "   OR a4 > 4",
        // Eqv. 2 outside, Eqv. 5 inside (DISTINCT aggregate).
        "SELECT DISTINCT * FROM r "
        "WHERE a1 = (SELECT COUNT(DISTINCT b3) FROM s "
        "            WHERE a2 = b2 OR b4 > 3) "
        "   OR a4 > 4",
        // Two disjunctively-correlated subqueries in one disjunction.
        "SELECT DISTINCT * FROM r "
        "WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2 OR b4 > 4) "
        "   OR a3 = (SELECT COUNT(*) FROM t WHERE a4 = c2 OR c3 > 4)",
        // Mixed: quantified + scalar + simple in one disjunction.
        "SELECT DISTINCT * FROM r "
        "WHERE EXISTS (SELECT * FROM t WHERE a3 = c2 AND c4 > 4) "
        "   OR a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2 OR b4 > 3) "
        "   OR a4 > 5"));

TEST(DoubleDisjunctionTest, ComposesEqv2WithEqv4) {
  Database db;
  LoadSmallRst(&db, 500, 20, 20, 10);
  auto result = db.Query(
      "SELECT DISTINCT * FROM r "
      "WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2 OR b4 > 3) "
      "   OR a4 > 4");
  ASSERT_TRUE(result.ok());
  bool has_eqv2 = false, has_eqv4 = false;
  for (const std::string& rule : result->applied_rules) {
    if (rule == "Eqv.2") has_eqv2 = true;
    if (rule == "Eqv.4") has_eqv4 = true;
  }
  EXPECT_TRUE(has_eqv2) << "outer disjunction should use Eqv. 2";
  EXPECT_TRUE(has_eqv4) << "inner disjunction should use Eqv. 4";
}

}  // namespace
}  // namespace bypass
