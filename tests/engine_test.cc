// Engine-level behavior: query options, timeouts, statistics, EXPLAIN
// output, ORDER BY determinism, and error propagation end-to-end.
#include "engine/database.h"

#include <gtest/gtest.h>

#include "test_util.h"
#include "workload/rst.h"

namespace bypass {
namespace {

using testing_util::LoadSmallRst;

constexpr const char* kQ1 =
    "SELECT DISTINCT * FROM r "
    "WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2) OR a4 > 3";

// Shared DAG nodes are numbered in first-visit order: the optimized
// plan of Fig. 7's q4 linear shares several nodes, prints #1 … #n in
// ascending order of first appearance, and prints the same text on
// every Prepare (node addresses differ from one Prepare to the next).
TEST(EngineTest, SharedNodeIdsFollowFirstVisitOrder) {
  Database db;
  LoadSmallRst(&db, 7, 30, 30, 30);
  const std::string sql =
      "SELECT DISTINCT * FROM r "
      "WHERE a1 = (SELECT COUNT(DISTINCT *) FROM s WHERE a2 = b2 "
      "OR b3 = (SELECT COUNT(DISTINCT *) FROM t WHERE b4 = c2))";
  std::string first;
  for (int i = 0; i < 20; ++i) {
    auto prepared = db.Prepare(sql);
    ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
    if (i == 0) first = prepared->optimized_plan();
    EXPECT_EQ(prepared->optimized_plan(), first) << "Prepare " << i;
  }
  int highest = 0;
  for (size_t pos = first.find('#'); pos != std::string::npos;
       pos = first.find('#', pos + 1)) {
    const int id = std::stoi(first.substr(pos + 1));
    if (id > highest) {
      EXPECT_EQ(id, highest + 1) << first;
      highest = id;
    }
  }
  EXPECT_GE(highest, 2) << first;
}

TEST(EngineTest, ParseErrorsSurface) {
  Database db;
  auto result = db.Query("SELEKT * FROM r");
  EXPECT_EQ(result.status().code(), StatusCode::kParseError);
}

TEST(EngineTest, BindErrorsSurface) {
  Database db;
  LoadSmallRst(&db, 1, 5, 5, 5);
  EXPECT_EQ(db.Query("SELECT nope FROM r").status().code(),
            StatusCode::kBindError);
  EXPECT_EQ(db.Query("SELECT * FROM missing").status().code(),
            StatusCode::kNotFound);
}

TEST(EngineTest, TimeoutReturnsTimeoutStatus) {
  Database db;
  RstOptions opts;
  opts.rows_per_sf = 3000;
  ASSERT_TRUE(LoadRst(&db, 1, 1, 1, opts).ok());
  QueryOptions options;
  options.unnest = false;
  options.shortcut_disjunctions = false;  // force the slow path
  options.timeout = std::chrono::milliseconds(1);
  auto result = db.Query(kQ1, options);
  EXPECT_EQ(result.status().code(), StatusCode::kTimeout);
}

TEST(EngineTest, StatsCountSubqueryExecutions) {
  Database db;
  LoadSmallRst(&db, 2, 20, 20, 5);
  QueryOptions canonical;
  canonical.unnest = false;
  canonical.shortcut_disjunctions = false;
  auto result = db.Query(kQ1, canonical);
  ASSERT_TRUE(result.ok());
  // Without a shortcut, the block runs once per outer row.
  EXPECT_EQ(result->stats.subquery_executions, 20);

  QueryOptions unnested;
  auto opt = db.Query(kQ1, unnested);
  ASSERT_TRUE(opt.ok());
  EXPECT_EQ(opt->stats.subquery_executions, 0);
}

TEST(EngineTest, MemoizationReducesExecutions) {
  Database db;
  LoadSmallRst(&db, 3, 40, 20, 5);  // a2 domain is tiny → few keys
  QueryOptions memo;
  memo.unnest = false;
  memo.shortcut_disjunctions = false;
  memo.memoize_subqueries = true;
  auto result = db.Query(kQ1, memo);
  ASSERT_TRUE(result.ok());
  EXPECT_LT(result->stats.subquery_executions, 40);
  EXPECT_GT(result->stats.subquery_cache_hits, 0);
}

TEST(EngineTest, OrderByProducesSortedOutput) {
  Database db;
  LoadSmallRst(&db, 4, 30, 10, 5);
  auto result = db.Query("SELECT a1, a4 FROM r ORDER BY a1 DESC, a4");
  ASSERT_TRUE(result.ok());
  for (size_t i = 1; i < result->rows.size(); ++i) {
    const Row& prev = result->rows[i - 1];
    const Row& cur = result->rows[i];
    const int c = prev[0].OrderCompare(cur[0]);
    EXPECT_GE(c, 0);
    if (c == 0) {
      EXPECT_LE(prev[1].OrderCompare(cur[1]), 0);
    }
  }
}

TEST(EngineTest, OrderByIdenticalAcrossStrategies) {
  Database db;
  LoadSmallRst(&db, 5, 30, 30, 5);
  const char* sql =
      "SELECT * FROM r "
      "WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2) OR a4 > 3 "
      "ORDER BY a1, a2, a3, a4";
  QueryOptions canonical;
  canonical.unnest = false;
  auto base = db.Query(sql, canonical);
  auto opt = db.Query(sql);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(opt.ok());
  ASSERT_EQ(base->rows.size(), opt->rows.size());
  for (size_t i = 0; i < base->rows.size(); ++i) {
    EXPECT_TRUE(RowsStructurallyEqual(base->rows[i], opt->rows[i])) << i;
  }
}

TEST(EngineTest, CollectPlansTogglesPlanStrings) {
  Database db;
  LoadSmallRst(&db, 6, 5, 5, 5);
  QueryOptions with_plans;
  auto a = db.Query(kQ1, with_plans);
  ASSERT_TRUE(a.ok());
  EXPECT_FALSE(a->canonical_plan.empty());
  EXPECT_FALSE(a->optimized_plan.empty());
  EXPECT_NE(a->optimized_plan.find("BypassSelect"), std::string::npos);

  QueryOptions without;
  without.collect_plans = false;
  auto b = db.Query(kQ1, without);
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(b->canonical_plan.empty());
}

TEST(EngineTest, SchemaNamesFollowSelectList) {
  Database db;
  LoadSmallRst(&db, 7, 3, 3, 3);
  auto result = db.Query("SELECT a1 AS x, a2 + 1 AS y FROM r");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->schema.num_columns(), 2);
  EXPECT_EQ(result->schema.column(0).name, "x");
  EXPECT_EQ(result->schema.column(1).name, "y");
}

TEST(EngineTest, TopLevelAggregateQuery) {
  Database db;
  LoadSmallRst(&db, 8, 25, 3, 3);
  auto result = db.Query("SELECT COUNT(*), MIN(a1), MAX(a1) FROM r");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0][0].int64_value(), 25);
  EXPECT_LE(result->rows[0][1].int64_value(),
            result->rows[0][2].int64_value());
}

TEST(EngineTest, ArithmeticAndAliasesInSelectList) {
  Database db;
  ASSERT_TRUE(
      db.CreateTable("one", testing_util::IntSchema({"v"})).ok());
  ASSERT_TRUE(
      (*db.catalog()->GetTable("one"))->Append(Row{Value::Int64(21)}).ok());
  auto result = db.Query("SELECT v * 2 AS doubled FROM one");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows[0][0].int64_value(), 42);
}

TEST(EngineTest, ExplainListsStructureAndPlans) {
  Database db;
  LoadSmallRst(&db, 9, 3, 3, 3);
  auto explain = db.Explain(kQ1);
  ASSERT_TRUE(explain.ok());
  EXPECT_NE(explain->find("nesting structure: simple"),
            std::string::npos);
  EXPECT_NE(explain->find("canonical logical plan"), std::string::npos);
  EXPECT_NE(explain->find("applied equivalences"), std::string::npos);
  EXPECT_NE(explain->find("physical plan"), std::string::npos);
}

TEST(EngineTest, EmptyTablesWork) {
  Database db;
  ASSERT_TRUE(db.CreateTable("r", RstTableSchema('a')).ok());
  ASSERT_TRUE(db.CreateTable("s", RstTableSchema('b')).ok());
  auto result = db.Query(kQ1);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->rows.empty());
}

TEST(EngineTest, EmptyInnerTableTriggersCountBugPath) {
  // All groups are empty: rows qualify iff a1 = 0 (count bug fix) or
  // a4 > 3. A buggy rewrite (plain join instead of outer join) would
  // lose the a1 = 0 tuples.
  Database db;
  ASSERT_TRUE(db.CreateTable("s", RstTableSchema('b')).ok());
  ASSERT_TRUE(db.CreateTable("r", RstTableSchema('a')).ok());
  Table* r = *db.catalog()->GetTable("r");
  ASSERT_TRUE(r->Append(testing_util::IntRow({0, 1, 1, 0})).ok());  // a1=0
  ASSERT_TRUE(r->Append(testing_util::IntRow({5, 1, 1, 0})).ok());  // no
  ASSERT_TRUE(r->Append(testing_util::IntRow({5, 1, 1, 9})).ok());  // a4>3
  auto canonical = db.Query(kQ1, [] {
    QueryOptions o;
    o.unnest = false;
    return o;
  }());
  auto unnested = db.Query(kQ1);
  ASSERT_TRUE(canonical.ok());
  ASSERT_TRUE(unnested.ok());
  EXPECT_EQ(canonical->rows.size(), 2u);
  EXPECT_TRUE(RowMultisetsEqual(canonical->rows, unnested->rows));
}

TEST(EngineTest, RerunningQueryGivesSameResult) {
  Database db;
  LoadSmallRst(&db, 10, 20, 20, 5);
  auto a = db.Query(kQ1);
  auto b = db.Query(kQ1);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(RowMultisetsEqual(a->rows, b->rows));
}

}  // namespace
}  // namespace bypass
