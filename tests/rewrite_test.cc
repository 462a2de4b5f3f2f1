// Structural tests for the unnesting rewriter: each equivalence must
// produce the operator shapes the paper's figures show, and unsupported
// shapes must fall back to the canonical plan untouched.
#include "rewrite/unnest.h"

#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "algebra/plan_util.h"
#include "frontend/translator.h"
#include "rewrite/count_distinct.h"
#include "sql/parser.h"
#include "workload/rst.h"

namespace bypass {
namespace {

class RewriteTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(catalog_.CreateTable("r", RstTableSchema('a')).ok());
    ASSERT_TRUE(catalog_.CreateTable("s", RstTableSchema('b')).ok());
    ASSERT_TRUE(catalog_.CreateTable("t", RstTableSchema('c')).ok());
  }

  LogicalOpPtr Translate(const std::string& sql) {
    auto stmt = ParseSelect(sql);
    EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
    Translator translator(&catalog_);
    auto plan = translator.Translate(**stmt);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    return plan.ok() ? *plan : nullptr;
  }

  LogicalOpPtr Rewrite(const std::string& sql,
                       RewriteOptions options = RewriteOptions()) {
    LogicalOpPtr plan = Translate(sql);
    UnnestingRewriter rewriter(options);
    auto result = rewriter.Rewrite(plan);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    rules_ = rewriter.applied_rules();
    return result.ok() ? *result : nullptr;
  }

  /// Operator-kind census of the plan DAG.
  std::map<LogicalOpKind, int> Census(const LogicalOp& root) {
    std::map<LogicalOpKind, int> counts;
    for (const LogicalOp* node : TopologicalNodes(root)) {
      ++counts[node->kind()];
    }
    return counts;
  }

  bool Applied(const char* rule) {
    for (const std::string& r : rules_) {
      if (r == rule) return true;
    }
    return false;
  }

  Catalog catalog_;
  std::vector<std::string> rules_;
};

TEST_F(RewriteTest, Eqv1ConjunctiveLinkingUsesGroupByAndOuterJoin) {
  LogicalOpPtr plan = Rewrite(
      "SELECT DISTINCT * FROM r "
      "WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2)");
  ASSERT_NE(plan, nullptr);
  EXPECT_TRUE(Applied("Eqv.1"));
  auto census = Census(*plan);
  EXPECT_EQ(census[LogicalOpKind::kGroupBy], 1);
  EXPECT_EQ(census[LogicalOpKind::kLeftOuterJoin], 1);
  EXPECT_EQ(census[LogicalOpKind::kBypassSelect], 0);  // no disjunction
  // The default of the outer join must be count's f(∅) = 0.
  for (const LogicalOp* node : TopologicalNodes(*plan)) {
    if (node->kind() == LogicalOpKind::kLeftOuterJoin) {
      const auto& defaults =
          static_cast<const LeftOuterJoinOp*>(node)->unmatched_defaults();
      ASSERT_EQ(defaults.size(), 1u);
      EXPECT_EQ(defaults[0].second.int64_value(), 0);
    }
  }
}

TEST_F(RewriteTest, Eqv1SumDefaultsToNull) {
  LogicalOpPtr plan = Rewrite(
      "SELECT DISTINCT * FROM r "
      "WHERE a1 = (SELECT SUM(b3) FROM s WHERE a2 = b2)");
  for (const LogicalOp* node : TopologicalNodes(*plan)) {
    if (node->kind() == LogicalOpKind::kLeftOuterJoin) {
      const auto& defaults =
          static_cast<const LeftOuterJoinOp*>(node)->unmatched_defaults();
      ASSERT_EQ(defaults.size(), 1u);
      EXPECT_TRUE(defaults[0].second.is_null());
    }
  }
}

TEST_F(RewriteTest, Eqv2DisjunctiveLinkingBuildsBypassUnionDag) {
  LogicalOpPtr plan = Rewrite(
      "SELECT DISTINCT * FROM r "
      "WHERE a1 = (SELECT COUNT(DISTINCT *) FROM s WHERE a2 = b2) "
      "   OR a4 > 1500");
  ASSERT_NE(plan, nullptr);
  EXPECT_TRUE(Applied("Eqv.2"));
  EXPECT_TRUE(Applied("Eqv.1"));
  auto census = Census(*plan);
  EXPECT_EQ(census[LogicalOpKind::kBypassSelect], 1);
  EXPECT_EQ(census[LogicalOpKind::kUnion], 1);
  EXPECT_EQ(census[LogicalOpKind::kLeftOuterJoin], 1);
  // No subquery expressions must remain anywhere in the plan.
  EXPECT_FALSE(PlanHasNestedSubquery(*plan));
}

TEST_F(RewriteTest, Eqv3ForcedSubqueryFirst) {
  RewriteOptions options;
  options.disjunct_order = DisjunctOrder::kSubqueryFirst;
  LogicalOpPtr plan = Rewrite(
      "SELECT DISTINCT * FROM r "
      "WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2) OR a4 > 1500",
      options);
  EXPECT_TRUE(Applied("Eqv.3"));
  // Subquery-first: the bypass selection tests the linking predicate and
  // sits *above* the outer join.
  auto census = Census(*plan);
  EXPECT_EQ(census[LogicalOpKind::kBypassSelect], 1);
  for (const LogicalOp* node : TopologicalNodes(*plan)) {
    if (node->kind() == LogicalOpKind::kBypassSelect) {
      EXPECT_EQ(node->inputs()[0].op->kind(),
                LogicalOpKind::kLeftOuterJoin);
    }
  }
}

TEST_F(RewriteTest, Eqv4DecomposableDisjunctiveCorrelation) {
  LogicalOpPtr plan = Rewrite(
      "SELECT DISTINCT * FROM r "
      "WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2 OR b4 > 1500)");
  EXPECT_TRUE(Applied("Eqv.4"));
  auto census = Census(*plan);
  EXPECT_EQ(census[LogicalOpKind::kBypassSelect], 1);  // inside the block
  EXPECT_EQ(census[LogicalOpKind::kLeftOuterJoin], 1);
  EXPECT_EQ(census[LogicalOpKind::kMap], 2);  // key map + χ recombiner
  EXPECT_EQ(census[LogicalOpKind::kGroupBy], 2);  // per-group + scalar fI
  EXPECT_FALSE(PlanHasNestedSubquery(*plan));
}

TEST_F(RewriteTest, Eqv4AvgUsesSumCountPartials) {
  LogicalOpPtr plan = Rewrite(
      "SELECT DISTINCT * FROM r "
      "WHERE a1 < (SELECT AVG(b3) FROM s WHERE a2 = b2 OR b4 > 1500)");
  EXPECT_TRUE(Applied("Eqv.4"));
  for (const LogicalOp* node : TopologicalNodes(*plan)) {
    if (node->kind() == LogicalOpKind::kGroupBy) {
      EXPECT_EQ(
          static_cast<const GroupByOp*>(node)->aggregates().size(), 2u)
          << "avg must decompose into (sum, count)";
    }
  }
}

TEST_F(RewriteTest, Eqv5DistinctAggregateForcesGeneralRewrite) {
  LogicalOpPtr plan = Rewrite(
      "SELECT DISTINCT * FROM r "
      "WHERE a1 = (SELECT COUNT(DISTINCT b3) FROM s "
      "            WHERE a2 = b2 OR b4 > 1500)");
  EXPECT_TRUE(Applied("Eqv.5"));
  EXPECT_FALSE(Applied("Eqv.4"));
  auto census = Census(*plan);
  EXPECT_EQ(census[LogicalOpKind::kNumbering], 1);
  EXPECT_EQ(census[LogicalOpKind::kBinaryGroupBy], 1);
  EXPECT_EQ(census[LogicalOpKind::kUnion], 1);
  // The θ pairs and the "θ not TRUE" pairs over σp(S): two inner joins
  // of ν(R), the second one reading the pushed-down selection.
  EXPECT_EQ(census[LogicalOpKind::kJoin], 2);
  int joins_over_p = 0;
  for (const LogicalOp* node : TopologicalNodes(*plan)) {
    if (node->kind() != LogicalOpKind::kJoin) continue;
    EXPECT_EQ(node->inputs()[0].op->kind(), LogicalOpKind::kNumbering);
    const LogicalOp& right = *node->inputs()[1].op;
    if (right.kind() == LogicalOpKind::kSelect &&
        static_cast<const SelectOp&>(right).predicate()->ToString().find(
            "b4 > 1500") != std::string::npos) {
      ++joins_over_p;
    }
  }
  EXPECT_EQ(joins_over_p, 1);
}

TEST_F(RewriteTest, Eqv5NonEqualityCorrelation) {
  LogicalOpPtr plan = Rewrite(
      "SELECT DISTINCT * FROM r "
      "WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 < b2 OR b4 > 1500)");
  EXPECT_TRUE(Applied("Eqv.5"));
}

TEST_F(RewriteTest, TreeQueryCascadesTwoExtensions) {
  LogicalOpPtr plan = Rewrite(
      "SELECT DISTINCT * FROM r "
      "WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2) "
      "   OR a3 = (SELECT COUNT(*) FROM t WHERE a4 = c2)");
  auto census = Census(*plan);
  EXPECT_EQ(census[LogicalOpKind::kBypassSelect], 1);
  EXPECT_EQ(census[LogicalOpKind::kLeftOuterJoin], 2);
  EXPECT_EQ(census[LogicalOpKind::kUnion], 1);
  EXPECT_FALSE(PlanHasNestedSubquery(*plan));
}

TEST_F(RewriteTest, LinearQueryUnnestsBothLevels) {
  LogicalOpPtr plan = Rewrite(
      "SELECT DISTINCT * FROM r "
      "WHERE a1 = (SELECT COUNT(DISTINCT *) FROM s WHERE a2 = b2 "
      "            OR b3 = (SELECT COUNT(DISTINCT *) FROM t "
      "                     WHERE b4 = c2))");
  EXPECT_TRUE(Applied("Eqv.5"));
  EXPECT_TRUE(Applied("Eqv.1"));
  EXPECT_FALSE(PlanHasNestedSubquery(*plan));
}

TEST_F(RewriteTest, TypeAUncorrelatedBlockIsMaterialized) {
  LogicalOpPtr plan = Rewrite(
      "SELECT DISTINCT * FROM r "
      "WHERE a1 = (SELECT MAX(b3) FROM s) OR a4 > 1500");
  EXPECT_TRUE(Applied("TypeA"));
  EXPECT_FALSE(PlanHasNestedSubquery(*plan));
}

TEST_F(RewriteTest, BinaryGroupingForNonEqConjunctiveCorrelation) {
  LogicalOpPtr plan = Rewrite(
      "SELECT DISTINCT * FROM r "
      "WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 < b2)");
  EXPECT_TRUE(Applied("BinaryGamma"));
  auto census = Census(*plan);
  EXPECT_EQ(census[LogicalOpKind::kBinaryGroupBy], 1);
}

TEST_F(RewriteTest, QuantifiedExistsBecomesSemiJoinBranch) {
  LogicalOpPtr plan = Rewrite(
      "SELECT DISTINCT * FROM r "
      "WHERE EXISTS (SELECT * FROM s WHERE a2 = b2) OR a4 > 1500");
  EXPECT_TRUE(Applied("SemiJoin"));
  auto census = Census(*plan);
  // Rank ordering puts the cheap predicate first; the EXISTS disjunct is
  // last, so only the positive (semi) join is needed — no remainder.
  EXPECT_EQ(census[LogicalOpKind::kSemiJoin], 1);
  EXPECT_EQ(census[LogicalOpKind::kAntiJoin], 0);
  EXPECT_FALSE(PlanHasNestedSubquery(*plan));
}

TEST_F(RewriteTest, QuantifiedExistsFirstNeedsComplementaryJoin) {
  RewriteOptions options;
  options.disjunct_order = DisjunctOrder::kSubqueryFirst;
  LogicalOpPtr plan = Rewrite(
      "SELECT DISTINCT * FROM r "
      "WHERE EXISTS (SELECT * FROM s WHERE a2 = b2) OR a4 > 1500",
      options);
  EXPECT_TRUE(Applied("SemiJoin"));
  auto census = Census(*plan);
  // EXISTS evaluated first: qualifying rows leave via the semijoin, the
  // complement (antijoin) carries on to the simple predicate.
  EXPECT_EQ(census[LogicalOpKind::kSemiJoin], 1);
  EXPECT_EQ(census[LogicalOpKind::kAntiJoin], 1);
  EXPECT_FALSE(PlanHasNestedSubquery(*plan));
}

TEST_F(RewriteTest, QuantifiedNotExistsUsesAntiJoinBranch) {
  RewriteOptions options;
  options.disjunct_order = DisjunctOrder::kSubqueryFirst;
  LogicalOpPtr plan = Rewrite(
      "SELECT DISTINCT * FROM r "
      "WHERE NOT EXISTS (SELECT * FROM s WHERE a2 = b2) OR a4 > 9000",
      options);
  EXPECT_TRUE(Applied("AntiJoin"));
  auto census = Census(*plan);
  EXPECT_EQ(census[LogicalOpKind::kAntiJoin], 1);
  EXPECT_EQ(census[LogicalOpKind::kSemiJoin], 1);  // the remainder
}

TEST_F(RewriteTest, UnnestingDisabledIsIdentity) {
  RewriteOptions options;
  options.enable_unnesting = false;
  LogicalOpPtr before = Translate(
      "SELECT DISTINCT * FROM r "
      "WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2) OR a4 > 1500");
  UnnestingRewriter rewriter(options);
  auto after = rewriter.Rewrite(before);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->get(), before.get());  // the very same plan object
}

TEST_F(RewriteTest, UnsupportedShapeStaysCanonical) {
  // Both sides of the linking comparison are subqueries — out of scope.
  LogicalOpPtr plan = Rewrite(
      "SELECT DISTINCT * FROM r "
      "WHERE (SELECT COUNT(*) FROM s WHERE a2 = b2) = "
      "      (SELECT COUNT(*) FROM t WHERE a2 = c2)");
  EXPECT_TRUE(rules_.empty());
  EXPECT_TRUE(PlanHasNestedSubquery(*plan));
}

TEST_F(RewriteTest, NonAggregateScalarBlockStaysCanonical) {
  LogicalOpPtr plan = Rewrite(
      "SELECT DISTINCT * FROM r "
      "WHERE a1 = (SELECT b1 FROM s WHERE b2 = 0) OR a4 > 1500");
  EXPECT_TRUE(PlanHasNestedSubquery(*plan));
}

TEST_F(RewriteTest, RewriteDoesNotMutateTheInputPlan) {
  LogicalOpPtr canonical = Translate(
      "SELECT DISTINCT * FROM r "
      "WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2) OR a4 > 1500");
  const std::string before = PlanToString(*canonical);
  UnnestingRewriter rewriter(RewriteOptions{});
  auto rewritten = rewriter.Rewrite(canonical);
  ASSERT_TRUE(rewritten.ok());
  EXPECT_EQ(PlanToString(*canonical), before);
}

TEST_F(RewriteTest, MultipleSubqueryConjunctsUnnestOneByOne) {
  LogicalOpPtr plan = Rewrite(
      "SELECT DISTINCT * FROM r "
      "WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2) "
      "  AND a3 = (SELECT COUNT(*) FROM t WHERE a4 = c2)");
  EXPECT_FALSE(PlanHasNestedSubquery(*plan));
  auto census = Census(*plan);
  EXPECT_EQ(census[LogicalOpKind::kLeftOuterJoin], 2);
}

/// Every grouping (unary or binary) in the plan, with its aggregates and
/// the input its aggregates read.
struct GroupingView {
  const std::vector<AggregateSpec>* aggregates;
  const LogicalOp* aggregated_input;
};
std::vector<GroupingView> Groupings(const LogicalOp& root) {
  std::vector<GroupingView> out;
  for (const LogicalOp* node : TopologicalNodes(root)) {
    if (node->kind() == LogicalOpKind::kGroupBy) {
      out.push_back({&static_cast<const GroupByOp*>(node)->aggregates(),
                     node->inputs()[0].op.get()});
    } else if (node->kind() == LogicalOpKind::kBinaryGroupBy) {
      out.push_back(
          {&static_cast<const BinaryGroupByOp*>(node)->aggregates(),
           node->inputs()[1].op.get()});
    }
  }
  return out;
}

// q3 tree and q4 linear: every COUNT(DISTINCT *) grouping — the two Eqv. 1
// Γs, or Eqv. 1's Γ and Eqv. 5's binary grouping — counts COUNT(*) over a
// δ of its input, one line each.
TEST_F(RewriteTest, CountDistinctStarBecomesCountStarOverDelta) {
  for (const char* sql :
       {"SELECT DISTINCT * FROM r "
        "WHERE a1 = (SELECT COUNT(DISTINCT *) FROM s WHERE a2 = b2) "
        "   OR a3 = (SELECT COUNT(DISTINCT *) FROM t WHERE a4 = c2)",
        "SELECT DISTINCT * FROM r "
        "WHERE a1 = (SELECT COUNT(DISTINCT *) FROM s WHERE a2 = b2 "
        "            OR b3 = (SELECT COUNT(DISTINCT *) FROM t "
        "                     WHERE b4 = c2))"}) {
    LogicalOpPtr unnested = Rewrite(sql);
    std::vector<std::string> notes;
    LogicalOpPtr plan = CountDistinctOverDelta(unnested, &notes);
    ASSERT_EQ(notes.size(), 2u) << sql;
    for (const std::string& note : notes) {
      EXPECT_EQ(note.rfind("COUNT(DISTINCT *) as COUNT(*) over δ: Γ[", 0),
                0u)
          << note;
    }
    const auto groupings = Groupings(*plan);
    ASSERT_EQ(groupings.size(), 2u);
    for (const GroupingView& g : groupings) {
      EXPECT_EQ(g.aggregated_input->kind(), LogicalOpKind::kDistinct);
      for (const AggregateSpec& a : *g.aggregates) {
        EXPECT_EQ(a.ToString(), "count(*)");
      }
    }
    EXPECT_EQ(Census(*plan)[LogicalOpKind::kDistinct],
              Census(*unnested)[LogicalOpKind::kDistinct] + 2);
  }
}

// A grouping with any aggregate beside COUNT(DISTINCT *) keeps its
// per-group sets: a δ below it would change the other aggregates' input.
TEST_F(RewriteTest, MixedCountDistinctStarIsNotRewritten) {
  for (const char* sql :
       {"SELECT b2, COUNT(DISTINCT *), SUM(b3) FROM s GROUP BY b2",
        "SELECT b2, COUNT(DISTINCT *), COUNT(DISTINCT b1) FROM s "
        "GROUP BY b2",
        "SELECT COUNT(DISTINCT b1) FROM s"}) {
    LogicalOpPtr plan = Rewrite(sql);
    std::vector<std::string> notes;
    EXPECT_EQ(CountDistinctOverDelta(plan, &notes), plan) << sql;
    EXPECT_TRUE(notes.empty()) << sql;
  }
}

// Two groupings over one stream share one δ.
TEST_F(RewriteTest, GroupingsOverOneStreamShareOneDelta) {
  LogicalOpPtr s = Translate("SELECT * FROM s");
  const LogicalOpPtr get = s->inputs().empty() ? s : s->inputs()[0].op;
  ASSERT_EQ(get->kind(), LogicalOpKind::kGet);
  AggregateSpec count;
  count.func = AggFunc::kCount;
  count.distinct = true;
  count.output_name = "n";
  auto group = [&](const char* key) {
    std::vector<AggregateSpec> aggs;
    aggs.push_back(count.Clone());
    return std::make_shared<GroupByOp>(
        LogicalInput{get}, std::vector<GroupKey>{{"s", key, ""}},
        std::move(aggs), /*scalar=*/false);
  };
  LogicalOpPtr plan = std::make_shared<UnionOp>(LogicalInput{group("b2")},
                                                LogicalInput{group("b4")});
  std::vector<std::string> notes;
  LogicalOpPtr rewritten = CountDistinctOverDelta(plan, &notes);
  EXPECT_EQ(notes.size(), 2u);
  EXPECT_EQ(Census(*rewritten)[LogicalOpKind::kDistinct], 1);
}

}  // namespace
}  // namespace bypass
