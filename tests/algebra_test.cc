// Logical algebra tests: schema propagation, DAG-preserving clone, plan
// printing, and Graphviz export.
#include <gtest/gtest.h>

#include "algebra/dot.h"
#include "algebra/logical_op.h"
#include "algebra/plan_util.h"
#include "workload/rst.h"

namespace bypass {
namespace {

LogicalOpPtr MakeGet(const char* table, char prefix) {
  const Schema base = RstTableSchema(prefix);
  Schema schema;
  for (const ColumnDef& c : base.columns()) {
    schema.AddColumn({c.name, c.type, table});
  }
  return std::make_shared<GetOp>(table, table, schema);
}

LogicalOpPtr GetR() { return MakeGet("r", 'a'); }
LogicalOpPtr GetS() { return MakeGet("s", 'b'); }

ExprPtr Pred() {
  return MakeComparison(CompareOp::kGt, MakeColumnRef("r", "a4"),
                        MakeLiteral(Value::Int64(1500)));
}

/// The Eqv. 2 shape: union of a bypass select's streams.
LogicalOpPtr BypassDag() {
  auto bp = std::make_shared<BypassSelectOp>(
      LogicalInput{GetR(), StreamPort::kOut}, Pred());
  auto neg_filter = std::make_shared<SelectOp>(
      LogicalInput{bp, StreamPort::kNegative},
      MakeComparison(CompareOp::kEq, MakeColumnRef("r", "a1"),
                     MakeLiteral(Value::Int64(0))));
  return std::make_shared<UnionOp>(
      LogicalInput{bp, StreamPort::kOut},
      LogicalInput{neg_filter, StreamPort::kOut});
}

TEST(AlgebraTest, SchemasPropagateThroughOperators) {
  LogicalOpPtr r = GetR();
  EXPECT_EQ(r->schema().num_columns(), 4);
  auto select = std::make_shared<SelectOp>(
      LogicalInput{r, StreamPort::kOut}, Pred());
  EXPECT_EQ(select->schema().num_columns(), 4);
  auto join = std::make_shared<JoinOp>(
      LogicalInput{select, StreamPort::kOut},
      LogicalInput{GetS(), StreamPort::kOut}, nullptr);
  EXPECT_EQ(join->schema().num_columns(), 8);
  EXPECT_EQ(join->schema().column(4).qualifier, "s");
}

TEST(AlgebraTest, MapAppendsNumberingAppends) {
  auto map = std::make_shared<MapOp>(
      LogicalInput{GetR(), StreamPort::kOut},
      std::vector<NamedExpr>{NamedExpr{Pred(), "$p", ""}});
  EXPECT_EQ(map->schema().num_columns(), 5);
  EXPECT_EQ(map->schema().column(4).name, "$p");
  auto numbering = std::make_shared<NumberingOp>(
      LogicalInput{map, StreamPort::kOut}, "$t");
  EXPECT_EQ(numbering->schema().num_columns(), 6);
  EXPECT_EQ(numbering->schema().column(5).type, DataType::kInt64);
}

TEST(AlgebraTest, GroupBySchemaIsKeysThenAggregates) {
  AggregateSpec agg;
  agg.func = AggFunc::kCount;
  agg.output_name = "$g";
  auto gb = std::make_shared<GroupByOp>(
      LogicalInput{GetS(), StreamPort::kOut},
      std::vector<GroupKey>{{"s", "b2", ""}},
      std::vector<AggregateSpec>{std::move(agg)}, false);
  ASSERT_EQ(gb->schema().num_columns(), 2);
  EXPECT_EQ(gb->schema().column(0).name, "b2");
  EXPECT_EQ(gb->schema().column(1).name, "$g");
  EXPECT_EQ(gb->schema().column(1).type, DataType::kInt64);
}

TEST(AlgebraTest, SemiJoinKeepsLeftSchema) {
  auto semi = std::make_shared<SemiJoinOp>(
      LogicalInput{GetR(), StreamPort::kOut},
      LogicalInput{GetS(), StreamPort::kOut},
      MakeComparison(CompareOp::kEq, MakeColumnRef("r", "a2"),
                     MakeColumnRef("s", "b2")));
  EXPECT_EQ(semi->schema().num_columns(), 4);
  EXPECT_EQ(semi->schema().column(0).qualifier, "r");
}

TEST(AlgebraTest, ClonePreservesDagSharing) {
  LogicalOpPtr dag = BypassDag();
  LogicalOpPtr copy = CloneLogicalPlan(dag);
  // The bypass node must appear exactly once in both plans.
  EXPECT_EQ(TopologicalNodes(*dag).size(), TopologicalNodes(*copy).size());
  const LogicalOp* bypass_orig = dag->inputs()[0].op.get();
  const LogicalOp* bypass_copy = copy->inputs()[0].op.get();
  EXPECT_NE(bypass_orig, bypass_copy);  // deep copy
  // Shared: the union's first input and the select's input are the same
  // node in the copy, too.
  EXPECT_EQ(copy->inputs()[0].op.get(),
            copy->inputs()[1].op->inputs()[0].op.get());
  EXPECT_EQ(copy->inputs()[1].op->inputs()[0].port,
            StreamPort::kNegative);
}

TEST(AlgebraTest, PlanToStringMarksSharedNodes) {
  const std::string text = PlanToString(*BypassDag());
  EXPECT_NE(text.find("BypassSelect±"), std::string::npos);
  EXPECT_NE(text.find("[-]"), std::string::npos);
  EXPECT_NE(text.find("(shared"), std::string::npos);
}

TEST(AlgebraTest, TopologicalNodesChildrenFirst) {
  LogicalOpPtr dag = BypassDag();
  const auto nodes = TopologicalNodes(*dag);
  ASSERT_EQ(nodes.size(), 4u);  // Get, Bypass, Select, Union
  EXPECT_EQ(nodes.front()->kind(), LogicalOpKind::kGet);
  EXPECT_EQ(nodes.back()->kind(), LogicalOpKind::kUnion);
}

TEST(AlgebraTest, DotExportShowsStreamsAndShapes) {
  const std::string dot = PlanToDot(*BypassDag(), "eqv2");
  EXPECT_NE(dot.find("digraph \"eqv2\""), std::string::npos);
  EXPECT_NE(dot.find("shape=diamond"), std::string::npos);   // bypass
  EXPECT_NE(dot.find("shape=cylinder"), std::string::npos);  // table
  EXPECT_NE(dot.find("label=\"+\""), std::string::npos);
  EXPECT_NE(dot.find("label=\"-\""), std::string::npos);
  EXPECT_NE(dot.find("style=dashed"), std::string::npos);
  EXPECT_NE(dot.find("-> result"), std::string::npos);
}

TEST(AlgebraTest, DotEscapesQuotesInLabels) {
  auto select = std::make_shared<SelectOp>(
      LogicalInput{GetR(), StreamPort::kOut},
      std::make_shared<LikeExpr>(MakeColumnRef("r", "a1"), "\"quoted\"",
                                 false));
  const std::string dot = PlanToDot(*select);
  EXPECT_NE(dot.find("\\\"quoted\\\""), std::string::npos);
}

TEST(AlgebraTest, WithNewInputsReplacesChildren) {
  auto select = std::make_shared<SelectOp>(
      LogicalInput{GetR(), StreamPort::kOut}, Pred());
  LogicalOpPtr other = GetS();
  // r and s schemas differ only in qualifiers; the copy recomputes its
  // schema from the new input.
  LogicalOpPtr rebuilt = select->WithNewInputs(
      {LogicalInput{other, StreamPort::kOut}});
  EXPECT_EQ(rebuilt->inputs()[0].op.get(), other.get());
  EXPECT_EQ(rebuilt->schema().column(0).qualifier, "s");
}

}  // namespace
}  // namespace bypass
