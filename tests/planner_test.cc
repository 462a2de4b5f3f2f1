// Planner tests: physical implementation choices (hash vs nested-loop)
// and subplan wiring.
#include "planner/planner.h"

#include <gtest/gtest.h>

#include "frontend/translator.h"
#include "rewrite/unnest.h"
#include "sql/parser.h"
#include "workload/rst.h"

namespace bypass {
namespace {

class PlannerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(catalog_.CreateTable("r", RstTableSchema('a')).ok());
    ASSERT_TRUE(catalog_.CreateTable("s", RstTableSchema('b')).ok());
  }

  PhysicalPlan Plan(const std::string& sql, bool unnest = true) {
    auto stmt = ParseSelect(sql);
    EXPECT_TRUE(stmt.ok());
    Translator translator(&catalog_);
    auto logical = translator.Translate(**stmt);
    EXPECT_TRUE(logical.ok()) << logical.status().ToString();
    LogicalOpPtr plan = *logical;
    if (unnest) {
      UnnestingRewriter rewriter(RewriteOptions{});
      auto rewritten = rewriter.Rewrite(plan);
      EXPECT_TRUE(rewritten.ok());
      plan = *rewritten;
    }
    Planner planner(&catalog_, PlannerOptions{});
    auto physical = planner.Lower(plan);
    EXPECT_TRUE(physical.ok()) << physical.status().ToString();
    return physical.ok() ? std::move(*physical) : PhysicalPlan{};
  }

  bool HasOp(const PhysicalPlan& plan, const std::string& label_prefix) {
    for (const PhysOpPtr& op : plan.ops) {
      if (op->Label().rfind(label_prefix, 0) == 0) return true;
    }
    return false;
  }

  Catalog catalog_;
};

TEST_F(PlannerTest, EquiJoinLowersToHashJoin) {
  PhysicalPlan plan = Plan("SELECT * FROM r, s WHERE a1 = b1");
  EXPECT_TRUE(HasOp(plan, "HashJoin"));
  EXPECT_FALSE(HasOp(plan, "NLJoin"));
}

TEST_F(PlannerTest, ThetaJoinFallsBackToNestedLoop) {
  // A non-equi two-table predicate yields a cross product plus a filter
  // (no hash join is possible).
  PhysicalPlan plan = Plan("SELECT * FROM r, s WHERE a1 < b1");
  EXPECT_TRUE(HasOp(plan, "CrossProduct"));
  EXPECT_TRUE(HasOp(plan, "Filter"));
  EXPECT_FALSE(HasOp(plan, "HashJoin"));
}

TEST_F(PlannerTest, UnnestedLinkingUsesHashOuterJoin) {
  PhysicalPlan plan = Plan(
      "SELECT DISTINCT * FROM r "
      "WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2)");
  EXPECT_TRUE(HasOp(plan, "HashLeftOuterJoin"));
  EXPECT_TRUE(HasOp(plan, "HashGroupBy"));
  EXPECT_TRUE(plan.subplans.empty());
}

TEST_F(PlannerTest, CanonicalPlanCarriesSubplan) {
  PhysicalPlan plan = Plan(
      "SELECT DISTINCT * FROM r "
      "WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2)",
      /*unnest=*/false);
  EXPECT_EQ(plan.subplans.size(), 1u);
  EXPECT_FALSE(HasOp(plan, "HashLeftOuterJoin"));
}

TEST_F(PlannerTest, BuildSidesScanBeforeProbeSides) {
  PhysicalPlan plan = Plan("SELECT * FROM r, s WHERE a1 = b1");
  // Source order: s (build, right) before r (probe, left).
  ASSERT_EQ(plan.sources.size(), 2u);
  EXPECT_EQ(plan.sources[0]->Label(), "Scan(s)");
  EXPECT_EQ(plan.sources[1]->Label(), "Scan(r)");
}

TEST_F(PlannerTest, EquiPlusResidualUsesHashJoinWithResidual) {
  PhysicalPlan plan =
      Plan("SELECT * FROM r, s WHERE a1 = b1 AND a2 < b2");
  EXPECT_TRUE(HasOp(plan, "HashJoin"));
}

TEST_F(PlannerTest, BypassPlanLowersBypassOperators) {
  PhysicalPlan plan = Plan(
      "SELECT DISTINCT * FROM r "
      "WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2) OR a4 > 3");
  EXPECT_TRUE(HasOp(plan, "BypassFilter"));
  EXPECT_TRUE(HasOp(plan, "UnionAll"));
}

TEST_F(PlannerTest, Eqv5LowersBinaryGroupingOverHashAndResidualJoins) {
  PhysicalPlan plan = Plan(
      "SELECT DISTINCT * FROM r "
      "WHERE a1 = (SELECT COUNT(DISTINCT b3) FROM s "
      "            WHERE a2 = b2 OR b4 > 3)");
  // θ is '=': its pairs come from a hash join; the "θ not TRUE" pairs
  // over σp(S) from a nested-loop join.
  EXPECT_TRUE(HasOp(plan, "HashJoin"));
  EXPECT_TRUE(HasOp(plan, "NLJoin (NOT COALESCE("));
  EXPECT_TRUE(HasOp(plan, "BinaryGroupBy(hash)"));
  EXPECT_TRUE(HasOp(plan, "Numbering"));
}

TEST_F(PlannerTest, OutputSchemaMatchesLogicalRoot) {
  PhysicalPlan plan = Plan("SELECT a1, a2 FROM r");
  EXPECT_EQ(plan.output_schema.num_columns(), 2);
  EXPECT_EQ(plan.output_schema.column(0).name, "a1");
}

TEST_F(PlannerTest, PlanToStringListsOperators) {
  PhysicalPlan plan = Plan("SELECT * FROM r, s WHERE a1 = b1");
  const std::string str = plan.ToString();
  EXPECT_NE(str.find("HashJoin"), std::string::npos);
  EXPECT_NE(str.find("source order"), std::string::npos);
}

}  // namespace
}  // namespace bypass
