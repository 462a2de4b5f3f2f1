// Cost model tests: relative orderings the optimizer relies on, plus the
// cost-based unnesting decision (paper Sec. 1).
#include "planner/cost_model.h"

#include <cmath>

#include <gtest/gtest.h>

#include "algebra/plan_util.h"
#include "engine/database.h"
#include "frontend/translator.h"
#include "rewrite/unnest.h"
#include "sql/parser.h"
#include "stats/selectivity.h"
#include "query_corpus.h"
#include "test_util.h"
#include "workload/tpch.h"

namespace bypass {
namespace {

using testing_util::LoadSmallRst;

class CostModelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    RstOptions opts;
    opts.rows_per_sf = 1000;
    ASSERT_TRUE(LoadRst(&db_, 1, 1, 1, opts).ok());
  }

  LogicalOpPtr Translate(const std::string& sql) {
    auto stmt = ParseSelect(sql);
    EXPECT_TRUE(stmt.ok());
    Translator translator(db_.catalog());
    auto plan = translator.Translate(**stmt);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    return plan.ok() ? *plan : nullptr;
  }

  LogicalOpPtr Unnest(LogicalOpPtr plan) {
    UnnestingRewriter rewriter(RewriteOptions{});
    auto result = rewriter.Rewrite(std::move(plan));
    EXPECT_TRUE(result.ok());
    return *result;
  }

  double Cost(const std::string& sql, bool unnest) {
    LogicalOpPtr plan = Translate(sql);
    if (unnest) plan = Unnest(plan);
    return EstimatePlan(*plan, db_.catalog()).cost;
  }

  Database db_;
};

TEST_F(CostModelTest, BaseTableRowsComeFromTheCatalog) {
  LogicalOpPtr plan = Translate("SELECT * FROM r");
  const PlanEstimate est = EstimatePlan(*plan, db_.catalog());
  EXPECT_DOUBLE_EQ(est.rows, 1000);
}

TEST_F(CostModelTest, SelectionReducesCardinality) {
  LogicalOpPtr plan = Translate("SELECT * FROM r WHERE a1 = 5");
  const PlanEstimate est = EstimatePlan(*plan, db_.catalog());
  EXPECT_LT(est.rows, 1000);
  EXPECT_GT(est.cost, 1000);
}

TEST_F(CostModelTest, HashJoinCheaperThanCrossProduct) {
  const double equi = Cost("SELECT * FROM r, s WHERE a1 = b1", false);
  const double cross = Cost("SELECT * FROM r, s", false);
  EXPECT_LT(equi, cross);
}

TEST_F(CostModelTest, CorrelatedBlockChargedPerOuterRow) {
  const double correlated = Cost(
      "SELECT DISTINCT * FROM r "
      "WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2)",
      false);
  const double uncorrelated = Cost(
      "SELECT DISTINCT * FROM r WHERE a1 = (SELECT COUNT(*) FROM s)",
      false);
  // n·m vs n + m: at 1000×1000 about three orders of magnitude apart.
  EXPECT_GT(correlated, uncorrelated * 50);
}

TEST_F(CostModelTest, UnnestingWinsForEqv1AndEqv4Shapes) {
  const char* queries[] = {
      "SELECT DISTINCT * FROM r "
      "WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2)",
      "SELECT DISTINCT * FROM r "
      "WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2) OR a4 > 1500",
      "SELECT DISTINCT * FROM r "
      "WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2 OR b4 > 1500)",
  };
  for (const char* sql : queries) {
    EXPECT_LT(Cost(sql, true), Cost(sql, false)) << sql;
  }
}

TEST_F(CostModelTest, Eqv5PairStreamCanLoseToCanonical) {
  // Flat disjunctive correlation with a DISTINCT aggregate: both plans
  // are Θ(n·m) — the model must NOT report a large unnesting win.
  const char* sql =
      "SELECT DISTINCT * FROM r "
      "WHERE a1 = (SELECT COUNT(DISTINCT b3) FROM s "
      "            WHERE a2 = b2 OR b4 > 1500)";
  EXPECT_GT(Cost(sql, true) * 3, Cost(sql, false)) << sql;
}

TEST_F(CostModelTest, ThetaNotTrueIsTheComplementOfTheta) {
  // COALESCE(x, <literal>) passes where x passes, so Eqv. 5's residual
  // predicate NOT COALESCE(θ, FALSE) estimates as 1 − sel(θ).
  const ExprPtr theta = MakeComparison(
      CompareOp::kEq, MakeColumnRef("", "a2"), MakeColumnRef("", "b2"));
  const ExprPtr coalesced = std::make_shared<FunctionExpr>(
      BuiltinFunc::kCoalesce,
      std::vector<ExprPtr>{theta, MakeLiteral(Value::Bool(false))});
  EXPECT_DOUBLE_EQ(EstimateSelectivity(*coalesced), 0.1);
  EXPECT_DOUBLE_EQ(EstimateSelectivity(*MakeNot(coalesced)), 0.9);

  // The same on catalog statistics, through the two joins of the Eqv. 5
  // plan: rows = |ν(R)|·|input| · sel for θ and for "θ not TRUE".
  ASSERT_TRUE(db_.AnalyzeAll().ok());
  LogicalOpPtr plan = Unnest(Translate(
      "SELECT DISTINCT * FROM r WHERE a1 = (SELECT COUNT(DISTINCT b3) "
      "FROM s WHERE a2 = b2 OR b4 > 1500)"));
  const auto est = EstimateAllNodes(*plan, db_.catalog());
  double sel_theta = -1;
  double sel_not_true = -1;
  for (const LogicalOp* node : TopologicalNodes(*plan)) {
    if (node->kind() != LogicalOpKind::kJoin) continue;
    const double pairs = est.at(node->inputs()[0].op.get()).rows *
                         est.at(node->inputs()[1].op.get()).rows;
    const double sel = est.at(node).rows / pairs;
    if (node->inputs()[1].op->kind() == LogicalOpKind::kSelect) {
      sel_not_true = sel;
    } else {
      sel_theta = sel;
    }
  }
  ASSERT_GT(sel_theta, 0);
  ASSERT_LT(sel_theta, 0.01);  // a2/b2 have ~1000 distinct values
  EXPECT_NEAR(sel_not_true, 1.0 - sel_theta, 1e-9);
}

TEST_F(CostModelTest, CostBasedOptionKeepsCheaperPlan) {
  LoadSmallRst(&db_, 900, 30, 30, 10);
  const char* sql =
      "SELECT DISTINCT * FROM r "
      "WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2) OR a4 > 3";
  QueryOptions options;
  options.cost_based = true;
  auto result = db_.Query(sql, options);
  ASSERT_TRUE(result.ok());
  // Eqv. 2 is a clear win; the cost-based gate must keep the rewrite.
  EXPECT_FALSE(result->applied_rules.empty());
  EXPECT_NE(result->applied_rules[0], "cost-based: kept canonical");

  QueryOptions canonical;
  canonical.unnest = false;
  auto base = db_.Query(sql, canonical);
  ASSERT_TRUE(base.ok());
  EXPECT_TRUE(RowMultisetsEqual(base->rows, result->rows));
}

// A cascade with ≥2 leading simple disjuncts has one physical form under
// kCostBased too: σ± levels, one per simple disjunct, rows matching the
// canonical plan.
TEST_F(CostModelTest, CostBasedLeadingSimpleDisjunctsStayACascade) {
  LoadSmallRst(&db_, 902, 40, 30, 20);
  const std::string& sql =
      testing_util::LeadingSimpleDisjunctQueries()[1];  // k = 3
  auto gated = db_.Query(sql, QueryOptions::With(ExecutionStrategy::kCostBased));
  auto base = db_.Query(sql, QueryOptions::With(ExecutionStrategy::kCanonical));
  ASSERT_TRUE(gated.ok()) << gated.status().ToString();
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  EXPECT_NE(gated->optimized_plan.find("BypassSelect"), std::string::npos)
      << gated->optimized_plan;
  EXPECT_NE(gated->physical_plan.find("BypassFilter"), std::string::npos)
      << gated->physical_plan;
  EXPECT_TRUE(RowMultisetsEqual(base->rows, gated->rows))
      << gated->physical_plan;
}

TEST_F(CostModelTest, CostBasedResultsAlwaysCorrect) {
  // Whatever the gate decides, results must match the canonical plan.
  LoadSmallRst(&db_, 901, 25, 30, 10);
  const char* queries[] = {
      "SELECT DISTINCT * FROM r "
      "WHERE a1 = (SELECT COUNT(DISTINCT b3) FROM s "
      "            WHERE a2 = b2 OR b4 > 3)",
      "SELECT DISTINCT * FROM r "
      "WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2 OR b4 > 3)",
  };
  for (const char* sql : queries) {
    QueryOptions options;
    options.cost_based = true;
    auto gated = db_.Query(sql, options);
    QueryOptions canonical;
    canonical.unnest = false;
    auto base = db_.Query(sql, canonical);
    ASSERT_TRUE(gated.ok());
    ASSERT_TRUE(base.ok());
    EXPECT_TRUE(RowMultisetsEqual(base->rows, gated->rows)) << sql;
  }
}

TEST_F(CostModelTest, StatsDrivenSelectivityTracksThresholds) {
  // r.a4 is uniform in [0, 10000): the estimated cardinality of
  // "a4 > t" must decrease as t grows (min/max interpolation), which the
  // default heuristics (constant 1/3) cannot do.
  auto rows_for = [&](int64_t t) {
    LogicalOpPtr plan = Translate(
        "SELECT * FROM r WHERE a4 > " + std::to_string(t));
    return EstimatePlan(*plan, db_.catalog()).rows;
  };
  const double lo = rows_for(1000);
  const double mid = rows_for(5000);
  const double hi = rows_for(9000);
  EXPECT_GT(lo, mid);
  EXPECT_GT(mid, hi);
  // Roughly calibrated: "a4 > 5000" keeps about half of the 1000 rows.
  EXPECT_GT(mid, 300);
  EXPECT_LT(mid, 700);
}

TEST_F(CostModelTest, StatsDrivenEqualityUsesNdv) {
  // r.a2 has ~1000 distinct values over 1000 rows → equality keeps ≈1 row;
  // r.a1's domain is tiny → equality keeps far more.
  LogicalOpPtr narrow = Translate("SELECT * FROM r WHERE a3 = 5");
  LogicalOpPtr wide = Translate("SELECT * FROM r WHERE a1 = 1");
  EXPECT_LT(EstimatePlan(*narrow, db_.catalog()).rows,
            EstimatePlan(*wide, db_.catalog()).rows);
}

TEST_F(CostModelTest, EquiJoinSelectivityUsesMaxNdv) {
  // a2/b2 are uniform over 1000 groups: the join keeps about
  // |r|·|s| / max(ndv) rows. The flat '=' default (0.1) overestimated
  // it a hundredfold.
  LogicalOpPtr plan = Translate("SELECT * FROM r, s WHERE a2 = b2");
  const double est = EstimatePlan(*plan, db_.catalog()).rows;
  auto actual = db_.Query("SELECT COUNT(*) FROM r, s WHERE a2 = b2");
  ASSERT_TRUE(actual.ok()) << actual.status().ToString();
  const double rows =
      static_cast<double>(actual->rows[0][0].int64_value());
  EXPECT_GT(est, rows / 2);
  EXPECT_LT(est, rows * 2);
}

TEST_F(CostModelTest, SemiJoinKeepsTheContainedFraction) {
  // K = Π[$m := a2](σ_{a4 < 1000}(r)) holds about a tenth of a2's ~1000
  // values. s ⋉ K keeps |s|·min(1, ndv($m) / ndv(b2)) rows
  // (containment), s ▷ K the rest; the flat 0.5 kept half of s either way.
  LogicalOpPtr s = Translate("SELECT * FROM s");
  LogicalOpPtr r = Translate("SELECT * FROM r WHERE a4 < 1000");
  auto k = std::make_shared<ProjectOp>(
      LogicalInput{r, StreamPort::kOut},
      std::vector<NamedExpr>{NamedExpr{MakeColumnRef("r", "a2"), "$m", ""}});
  const ExprPtr pred = MakeComparison(
      CompareOp::kEq, MakeColumnRef("s", "b2"), MakeColumnRef("", "$m"));
  auto semi = std::make_shared<SemiJoinOp>(LogicalInput{s, StreamPort::kOut},
                                           LogicalInput{k, StreamPort::kOut},
                                           pred->Clone());
  auto anti = std::make_shared<AntiJoinOp>(LogicalInput{s, StreamPort::kOut},
                                           LogicalInput{k, StreamPort::kOut},
                                           pred->Clone());

  PlanEstimator est(db_.catalog());
  const double s_rows = est.Input({s, StreamPort::kOut}).rows;
  const double k_rows = est.Input({k, StreamPort::kOut}).rows;
  const double semi_rows = est.Input({semi, StreamPort::kOut}).rows;
  const double anti_rows = est.Input({anti, StreamPort::kOut}).rows;
  auto ndv = [&est](const char* qualifier, const char* name) {
    const ExprPtr ref = MakeColumnRef(qualifier, name);
    return static_cast<double>(
        est.DistinctCount(static_cast<const ColumnRefExpr&>(*ref)));
  };
  // $m inherits a2's NDV, capped by the rows K holds.
  ASSERT_GT(ndv("r", "a2"), k_rows);
  EXPECT_DOUBLE_EQ(ndv("", "$m"), std::floor(k_rows));
  EXPECT_DOUBLE_EQ(semi_rows, s_rows * ndv("", "$m") / ndv("s", "b2"));
  EXPECT_DOUBLE_EQ(anti_rows, s_rows - semi_rows);

  auto actual = db_.Query(
      "SELECT COUNT(*) FROM s WHERE b2 IN (SELECT a2 FROM r WHERE a4 < "
      "1000)");
  ASSERT_TRUE(actual.ok()) << actual.status().ToString();
  const double rows = static_cast<double>(actual->rows[0][0].int64_value());
  EXPECT_GT(semi_rows, rows / 2);
  EXPECT_LT(semi_rows, rows * 2);
}

TEST_F(CostModelTest, DerivedColumnsInheritNdv) {
  // A rename keeps the column's NDV; so does arithmetic over one column
  // and a literal. Both are capped by the rows of their input.
  LogicalOpPtr r = Translate("SELECT * FROM r");
  auto mapped = std::make_shared<MapOp>(
      LogicalInput{r, StreamPort::kOut},
      std::vector<NamedExpr>{
          NamedExpr{MakeColumnRef("r", "a2"), "$renamed", ""},
          NamedExpr{ExprPtr(std::make_shared<ArithmeticExpr>(
                        ArithOp::kAdd, MakeColumnRef("r", "a2"),
                        MakeLiteral(Value::Int64(1)))),
                    "$shifted", ""},
          NamedExpr{ExprPtr(std::make_shared<ArithmeticExpr>(
                        ArithOp::kAdd, MakeColumnRef("r", "a2"),
                        MakeColumnRef("r", "a3"))),
                    "$sum", ""}});
  auto limited = std::make_shared<ProjectOp>(
      LogicalInput{std::make_shared<LimitOp>(
                       LogicalInput{mapped, StreamPort::kOut}, 10),
                   StreamPort::kOut},
      std::vector<NamedExpr>{
          NamedExpr{MakeColumnRef("", "$renamed"), "$few", ""}});
  PlanEstimator est(db_.catalog());
  est.Input({limited, StreamPort::kOut});
  auto ndv = [&est](const char* qualifier, const char* name) {
    const ExprPtr ref = MakeColumnRef(qualifier, name);
    return est.DistinctCount(static_cast<const ColumnRefExpr&>(*ref));
  };
  const int64_t a2 = ndv("r", "a2");
  ASSERT_GT(a2, 10);
  EXPECT_EQ(ndv("", "$renamed"), a2);
  EXPECT_EQ(ndv("", "$shifted"), a2);
  EXPECT_EQ(ndv("", "$sum"), 0);  // two columns: unknown
  EXPECT_EQ(ndv("", "$few"), 10);
}

// The NDV-based join selectivity feeds the cost model and the cost-based
// strategy; it must not flip the equivalence choice for any Fig. 7 text.
TEST(CostModelFig7, AppliedEquivalencesArePinned) {
  Database main_db;
  Database linear_db;
  TpchOptions tpch;
  tpch.scale_factor = 0.01;
  ASSERT_TRUE(LoadTpch(&main_db, tpch).ok());
  RstOptions rst;
  rst.rows_per_sf = 2000;
  ASSERT_TRUE(LoadRst(&main_db, 1, 1, 1, rst).ok());
  rst.rows_per_sf = 300;
  ASSERT_TRUE(LoadRst(&linear_db, 1, 1, 1, rst).ok());
  ASSERT_TRUE(main_db.AnalyzeAll().ok());
  ASSERT_TRUE(linear_db.AnalyzeAll().ok());
  struct Case {
    std::string sql;
    bool linear;
    std::vector<std::string> rules;
  };
  const std::vector<Case> cases = {
      {TpchQuery2d(), false, {"Eqv.2", "Eqv.1"}},
      {TpchQuery2(), false, {"Eqv.1"}},
      {"SELECT DISTINCT * FROM r WHERE a1 = (SELECT COUNT(DISTINCT *) "
       "FROM s WHERE a2 = b2) OR a4 > 1500",
       false,
       {"Eqv.2", "Eqv.1"}},
      {"SELECT DISTINCT * FROM r WHERE a1 = (SELECT COUNT(*) FROM s "
       "WHERE a2 = b2 OR b4 > 1500)",
       false,
       {"Eqv.4"}},
      {"SELECT DISTINCT * FROM r WHERE a1 = (SELECT COUNT(DISTINCT *) "
       "FROM s WHERE a2 = b2) OR a3 = (SELECT COUNT(DISTINCT *) FROM t "
       "WHERE a4 = c2)",
       false,
       {"Eqv.3", "Eqv.1", "Eqv.1"}},
      {"SELECT DISTINCT * FROM r WHERE a1 = (SELECT COUNT(DISTINCT *) "
       "FROM s WHERE a2 = b2 OR b3 = (SELECT COUNT(DISTINCT *) FROM t "
       "WHERE b4 = c2))",
       true,
       {"Eqv.5", "Eqv.1"}},
      {"SELECT DISTINCT * FROM r WHERE EXISTS (SELECT * FROM s WHERE "
       "a2 = b2 AND b4 > 8000) OR a4 > 1500",
       false,
       {"Eqv.2", "SemiJoin"}},
      {"SELECT DISTINCT * FROM r WHERE NOT EXISTS (SELECT * FROM s WHERE "
       "a2 = b2) OR a4 > 9000",
       false,
       {"Eqv.2", "AntiJoin"}},
      {"SELECT DISTINCT * FROM r WHERE a1 IN (SELECT b1 FROM s WHERE "
       "a2 = b2) OR a4 > 9000",
       false,
       {"Eqv.2", "SemiJoin"}},
  };
  for (const Case& c : cases) {
    for (ExecutionStrategy strategy :
         {ExecutionStrategy::kUnnested, ExecutionStrategy::kCostBased}) {
      Database& db = c.linear ? linear_db : main_db;
      auto prepared = db.Prepare(c.sql, QueryOptions::With(strategy));
      ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
      EXPECT_EQ(prepared->applied_rules(), c.rules) << c.sql;
    }
  }
}

TEST_F(CostModelTest, OperatorStatsReportEmittedRows) {
  LoadSmallRst(&db_, 902, 30, 30, 10);
  auto result = db_.Query(
      "SELECT DISTINCT * FROM r "
      "WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2) OR a4 > 3");
  ASSERT_TRUE(result.ok());
  EXPECT_NE(result->operator_stats.find("operator rows"),
            std::string::npos);
  EXPECT_NE(result->operator_stats.find("BypassFilter"),
            std::string::npos);
  EXPECT_NE(result->operator_stats.find("[-]"), std::string::npos);
}

}  // namespace
}  // namespace bypass
