// End-to-end tests: the paper's queries through parser → translator →
// rewriter → executor, asserting canonical ≡ unnested on randomized
// multiset data.
#include <gtest/gtest.h>

#include "engine/database.h"
#include "test_util.h"
#include "workload/rst.h"
#include "workload/tpch.h"

namespace bypass {
namespace {

using testing_util::ExpectCanonicalEqualsUnnested;
using testing_util::LoadSmallRst;

constexpr const char* kQ1 = R"sql(
SELECT DISTINCT * FROM r
WHERE a1 = (SELECT COUNT(DISTINCT *) FROM s WHERE a2 = b2)
   OR a4 > 3
)sql";

constexpr const char* kQ2 = R"sql(
SELECT DISTINCT * FROM r
WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2 OR b4 > 3)
)sql";

constexpr const char* kQ3 = R"sql(
SELECT DISTINCT * FROM r
WHERE a1 = (SELECT COUNT(DISTINCT *) FROM s WHERE a2 = b2)
   OR a3 = (SELECT COUNT(DISTINCT *) FROM t WHERE a4 = c2)
)sql";

constexpr const char* kQ4 = R"sql(
SELECT DISTINCT * FROM r
WHERE a1 = (SELECT COUNT(DISTINCT *) FROM s
            WHERE a2 = b2
               OR b3 = (SELECT COUNT(DISTINCT *) FROM t WHERE b4 = c2))
)sql";

TEST(IntegrationTest, Q1DisjunctiveLinking) {
  Database db;
  LoadSmallRst(&db, 1001, 40, 60, 30);
  QueryResult result = ExpectCanonicalEqualsUnnested(&db, kQ1);
  EXPECT_FALSE(result.applied_rules.empty());
}

TEST(IntegrationTest, Q2DisjunctiveCorrelation) {
  Database db;
  LoadSmallRst(&db, 1002, 40, 60, 30);
  QueryResult result = ExpectCanonicalEqualsUnnested(&db, kQ2);
  ASSERT_FALSE(result.applied_rules.empty());
  EXPECT_EQ(result.applied_rules[0], "Eqv.4");
}

TEST(IntegrationTest, Q3TreeQuery) {
  Database db;
  LoadSmallRst(&db, 1003, 30, 40, 40);
  ExpectCanonicalEqualsUnnested(&db, kQ3);
}

TEST(IntegrationTest, Q4LinearQuery) {
  Database db;
  LoadSmallRst(&db, 1004, 20, 25, 25);
  ExpectCanonicalEqualsUnnested(&db, kQ4);
}

// Eqv. 5 never materializes the paper's |R|·|S| pair stream: at
// q4linear's benchmark size (600 rows per table) no operator emits more
// than the θ matches plus |R|·|σp(S)| residual pairs.
TEST(IntegrationTest, Q4LinearEmitsNoPairStream) {
  Database db;
  RstOptions rst;
  rst.rows_per_sf = 600;
  ASSERT_TRUE(LoadRst(&db, 1, 1, 1, rst).ok());
  auto count = [&](const std::string& sql) -> int64_t {
    auto result = db.Query(sql);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? result->rows[0][0].int64_value() : 0;
  };
  const int64_t r = count("SELECT COUNT(*) FROM r");
  const int64_t s = count("SELECT COUNT(*) FROM s");
  const int64_t p = count(
      "SELECT COUNT(*) FROM s WHERE b3 = "
      "(SELECT COUNT(DISTINCT *) FROM t WHERE b4 = c2)");
  ASSERT_GT(p, 0) << "the instance must exercise the residual join";
  auto result = db.Query(kQ4);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->applied_rules,
            (std::vector<std::string>{"Eqv.5", "Eqv.1"}));
  ASSERT_FALSE(result->operator_feedback.empty());
  const int64_t bound = r * (p + 1) + s;
  for (const OperatorFeedback& f : result->operator_feedback) {
    EXPECT_LE(f.actual, bound) << f.label;
  }
}

TEST(IntegrationTest, Query2dTpch) {
  Database db;
  TpchOptions options;
  options.scale_factor = 0.002;
  ASSERT_TRUE(LoadTpch(&db, options).ok());
  QueryResult result =
      ExpectCanonicalEqualsUnnested(&db, TpchQuery2d());
  EXPECT_FALSE(result.applied_rules.empty());
}

TEST(IntegrationTest, Query2TpchConjunctive) {
  Database db;
  TpchOptions options;
  options.scale_factor = 0.002;
  ASSERT_TRUE(LoadTpch(&db, options).ok());
  QueryResult result = ExpectCanonicalEqualsUnnested(&db, TpchQuery2());
  ASSERT_FALSE(result.applied_rules.empty());
  EXPECT_EQ(result.applied_rules[0], "Eqv.1");
}

TEST(IntegrationTest, MemoizedCanonicalMatches) {
  Database db;
  LoadSmallRst(&db, 1005, 40, 60, 30);
  QueryOptions canonical;
  canonical.unnest = false;
  auto base = db.Query(kQ1, canonical);
  ASSERT_TRUE(base.ok()) << base.status().ToString();

  QueryOptions memo;
  memo.unnest = false;
  memo.memoize_subqueries = true;
  auto memoized = db.Query(kQ1, memo);
  ASSERT_TRUE(memoized.ok()) << memoized.status().ToString();
  EXPECT_TRUE(RowMultisetsEqual(base->rows, memoized->rows));
  EXPECT_GT(memoized->stats.subquery_cache_hits, 0);
}

TEST(IntegrationTest, ExplainMentionsEquivalence) {
  Database db;
  LoadSmallRst(&db, 1006, 10, 10, 10);
  auto explain = db.Explain(kQ1);
  ASSERT_TRUE(explain.ok()) << explain.status().ToString();
  EXPECT_NE(explain->find("Eqv.2"), std::string::npos) << *explain;
  EXPECT_NE(explain->find("BypassSelect"), std::string::npos) << *explain;
}

}  // namespace
}  // namespace bypass
