// End-to-end tests: the paper's queries through parser → translator →
// rewriter → executor, asserting canonical ≡ unnested on randomized
// multiset data.
#include <regex>
#include <string>

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

/// The operator_feedback row whose label is exactly `label` (nullptr
/// when none or several match).
const OperatorFeedback* FindFeedback(const QueryResult& result,
                                     const std::string& label) {
  const OperatorFeedback* found = nullptr;
  for (const OperatorFeedback& f : result.operator_feedback) {
    if (f.label != label) continue;
    if (found != nullptr) return nullptr;
    found = &f;
  }
  return found;
}

// Eqv. 1 on q2d groups only the part keys its negative stream probes: Γ
// runs over (partsupp ⋉ K) ⋈ supplier ⋈ nation ⋈ region, K = the
// stream's p_partkey values, instead of over all of partsupp.
TEST(IntegrationTest, Q2dGroupsOnlyTheProbedKeys) {
  Database db;
  TpchOptions options;
  options.scale_factor = 0.05;
  ASSERT_TRUE(LoadTpch(&db, options).ok());
  ASSERT_TRUE(db.AnalyzeAll().ok());

  auto explain = db.Explain(TpchQuery2d());
  ASSERT_TRUE(explain.ok()) << explain.status().ToString();
  const std::string& text = *explain;
  EXPECT_TRUE(std::regex_search(
      text, std::regex("\\nEqv\\.1 key reduction applied: est\\. \\|K\\| "
                       "[0-9]+, NDV\\(B2\\) [0-9]+, cost [0-9]+ with S ⋉ K "
                       "vs [0-9]+ without\\n")))
      << text;
  EXPECT_NE(text.find("SemiJoin (partsupp.ps_partkey = $m0)"),
            std::string::npos)
      << text;
  // The semijoin probes the inner partsupp scan (each operator follows
  // the inputs it was lowered after, the probe side last)...
  const size_t reduced = text.find("Scan(partsupp)\n  HashSemiJoin [keys ");
  ASSERT_NE(reduced, std::string::npos) << text;
  // ...which is registered after σ± — the root of K's stream, itself
  // after every scan feeding it — so K is built before it streams.
  const size_t stream = text.find("BypassFilter± ");
  ASSERT_NE(stream, std::string::npos) << text;
  EXPECT_LT(stream, reduced) << text;

  auto result = db.Query(TpchQuery2d());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectCanonicalEqualsUnnested(&db, TpchQuery2d());
  const OperatorFeedback* k =
      FindFeedback(*result, "Project [part.p_partkey]");
  const OperatorFeedback* semi =
      FindFeedback(*result, "HashSemiJoin [keys l0=r0]");
  const OperatorFeedback* group = FindFeedback(*result, "HashGroupBy");
  ASSERT_NE(k, nullptr);
  ASSERT_NE(semi, nullptr);
  ASSERT_NE(group, nullptr);
  ASSERT_GT(k->actual, 0) << "the instance must probe Γ";
  // TPC-H has four partsupp rows per part.
  EXPECT_LE(semi->actual, 4 * k->actual);
  EXPECT_LE(group->actual, k->actual);
  // Containment estimates the reduced leaf.
  EXPECT_LT(semi->q_error, 4.0) << semi->estimated << " vs " << semi->actual;
}

// On the benchmark's RST q1 (30k rows per table) the σ± negative stream
// is almost as large as s: the gate declines and the plan has no
// semijoin.
TEST(IntegrationTest, Q1AtBenchmarkScaleKeepsPlainGrouping) {
  Database db;
  RstOptions rst;
  rst.rows_per_sf = 30000;
  ASSERT_TRUE(LoadRst(&db, 1, 1, 1, rst).ok());
  ASSERT_TRUE(db.AnalyzeAll().ok());
  auto explain = db.Explain(
      "SELECT DISTINCT * FROM r "
      "WHERE a1 = (SELECT COUNT(DISTINCT *) FROM s WHERE a2 = b2) "
      "OR a4 > 1500");
  ASSERT_TRUE(explain.ok()) << explain.status().ToString();
  EXPECT_NE(explain->find("Eqv.1 key reduction declined: est. |K| "),
            std::string::npos)
      << *explain;
  EXPECT_EQ(explain->find("SemiJoin"), std::string::npos) << *explain;
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
