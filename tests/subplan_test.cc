// Direct tests of the correlated-subplan runtime: scalar/EXISTS/IN
// semantics, re-execution isolation, memoization, and uncorrelated-block
// caching.
#include "exec/subplan_impl.h"

#include <gtest/gtest.h>

#include "exec/filter.h"
#include "exec/group_by.h"
#include "exec/scan.h"
#include "test_util.h"

namespace bypass {
namespace {

using testing_util::IntRow;
using testing_util::IntSchema;

/// Builds the block: SELECT COUNT(*) FROM s WHERE ^outer[0] = s.c0 —
/// scan → filter(outer-slot-0 = slot-0) → scalar count → sink.
std::unique_ptr<ExecSubplan> CountBlock(const Table* table, bool memoize,
                                        bool correlated = true) {
  PhysicalPlan plan;
  auto scan = std::make_unique<TableScanOp>(table);
  PhysOp* tail = scan.get();
  plan.sources.push_back(scan.get());
  plan.ops.push_back(std::move(scan));

  std::vector<int> free_slots;
  if (correlated) {
    auto outer_ref = std::make_shared<ColumnRefExpr>("", "o", true);
    outer_ref->set_slot(0);
    auto local_ref = std::make_shared<ColumnRefExpr>("", "c0", false);
    local_ref->set_slot(0);
    auto filter = std::make_unique<FilterOp>(
        MakeComparison(CompareOp::kEq, outer_ref, local_ref));
    tail->AddConsumer(kPortOut, filter.get(), 0);
    tail = filter.get();
    plan.ops.push_back(std::move(filter));
    free_slots = {0};
  }

  std::vector<AggregateSpec> aggs(1);
  aggs[0].func = AggFunc::kCount;
  aggs[0].output_name = "$g";
  auto agg = std::make_unique<HashGroupByOp>(std::vector<int>{},
                                             std::move(aggs), true);
  tail->AddConsumer(kPortOut, agg.get(), 0);
  auto sink = std::make_unique<CollectorSink>();
  agg->AddConsumer(kPortOut, sink.get(), 0);
  plan.sink = sink.get();
  plan.ops.push_back(std::move(agg));
  plan.ops.push_back(std::move(sink));
  return std::make_unique<ExecSubplan>(std::move(plan), free_slots,
                                       memoize);
}

/// Block without aggregation: SELECT c0 FROM s WHERE ^outer[0] = c0.
std::unique_ptr<ExecSubplan> RowsBlock(const Table* table) {
  PhysicalPlan plan;
  auto scan = std::make_unique<TableScanOp>(table);
  auto outer_ref = std::make_shared<ColumnRefExpr>("", "o", true);
  outer_ref->set_slot(0);
  auto local_ref = std::make_shared<ColumnRefExpr>("", "c0", false);
  local_ref->set_slot(0);
  auto filter = std::make_unique<FilterOp>(
      MakeComparison(CompareOp::kEq, outer_ref, local_ref));
  auto sink = std::make_unique<CollectorSink>();
  scan->AddConsumer(kPortOut, filter.get(), 0);
  filter->AddConsumer(kPortOut, sink.get(), 0);
  plan.sink = sink.get();
  plan.sources.push_back(scan.get());
  plan.ops.push_back(std::move(scan));
  plan.ops.push_back(std::move(filter));
  plan.ops.push_back(std::move(sink));
  return std::make_unique<ExecSubplan>(std::move(plan),
                                       std::vector<int>{0}, false);
}

Table SmallTable() {
  Table table("s", IntSchema({"c0"}));
  for (int64_t v : {1, 1, 2, 3, 3, 3}) {
    EXPECT_TRUE(table.Append(IntRow({v})).ok());
  }
  return table;
}

TEST(SubplanTest, ScalarCountPerOuterRow) {
  Table table = SmallTable();
  auto subplan = CountBlock(&table, false);
  Row outer1 = IntRow({3});
  auto v1 = subplan->EvalScalar(&outer1);
  ASSERT_TRUE(v1.ok());
  EXPECT_EQ(v1->int64_value(), 3);
  Row outer2 = IntRow({9});
  auto v2 = subplan->EvalScalar(&outer2);
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(v2->int64_value(), 0);  // empty group → count 0
  EXPECT_EQ(subplan->num_executions(), 2);
}

TEST(SubplanTest, MemoizationCachesByCorrelationValues) {
  Table table = SmallTable();
  auto subplan = CountBlock(&table, /*memoize=*/true);
  Row outer = IntRow({1});
  ASSERT_TRUE(subplan->EvalScalar(&outer).ok());
  ASSERT_TRUE(subplan->EvalScalar(&outer).ok());
  Row other = IntRow({2});
  ASSERT_TRUE(subplan->EvalScalar(&other).ok());
  EXPECT_EQ(subplan->num_executions(), 2);  // 1 cached hit
  subplan->ClearCache();
  ASSERT_TRUE(subplan->EvalScalar(&outer).ok());
  EXPECT_EQ(subplan->num_executions(), 1);  // counter reset + fresh run
}

TEST(SubplanTest, UncorrelatedBlockRunsOnce) {
  Table table = SmallTable();
  auto subplan = CountBlock(&table, /*memoize=*/false,
                            /*correlated=*/false);
  auto v1 = subplan->EvalScalar(nullptr);
  auto v2 = subplan->EvalScalar(nullptr);
  ASSERT_TRUE(v1.ok());
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(v1->int64_value(), 6);
  EXPECT_EQ(subplan->num_executions(), 1);  // type A materialization
}

TEST(SubplanTest, EvalExistsSemantics) {
  Table table = SmallTable();
  auto subplan = RowsBlock(&table);
  Row hit = IntRow({2});
  Row miss = IntRow({9});
  EXPECT_TRUE(*subplan->EvalExists(&hit));
  EXPECT_FALSE(*subplan->EvalExists(&miss));
}

TEST(SubplanTest, EvalInThreeValuedLogic) {
  Table table("s", IntSchema({"c0"}));
  ASSERT_TRUE(table.Append(IntRow({1})).ok());
  ASSERT_TRUE(table.Append(Row{Value::Null()}).ok());
  // Block: SELECT c0 FROM s (uncorrelated: no filter).
  PhysicalPlan plan;
  auto scan = std::make_unique<TableScanOp>(&table);
  auto sink = std::make_unique<CollectorSink>();
  scan->AddConsumer(kPortOut, sink.get(), 0);
  plan.sink = sink.get();
  plan.sources.push_back(scan.get());
  plan.ops.push_back(std::move(scan));
  plan.ops.push_back(std::move(sink));
  ExecSubplan subplan(std::move(plan), {}, false);

  EXPECT_EQ(*subplan.EvalSome(CompareOp::kEq, Value::Int64(1), nullptr),
            TriBool::kTrue);
  // No match, but NULL present → unknown.
  EXPECT_EQ(*subplan.EvalSome(CompareOp::kEq, Value::Int64(7), nullptr),
            TriBool::kUnknown);
  EXPECT_EQ(*subplan.EvalSome(CompareOp::kEq, Value::Null(), nullptr),
            TriBool::kUnknown);
}

TEST(SubplanTest, EvalInEmptySetIsFalse) {
  Table table("s", IntSchema({"c0"}));
  PhysicalPlan plan;
  auto scan = std::make_unique<TableScanOp>(&table);
  auto sink = std::make_unique<CollectorSink>();
  scan->AddConsumer(kPortOut, sink.get(), 0);
  plan.sink = sink.get();
  plan.sources.push_back(scan.get());
  plan.ops.push_back(std::move(scan));
  plan.ops.push_back(std::move(sink));
  ExecSubplan subplan(std::move(plan), {}, false);
  // Even for a NULL probe: x IN (∅) is false, not unknown.
  EXPECT_EQ(*subplan.EvalSome(CompareOp::kEq, Value::Null(), nullptr),
            TriBool::kFalse);
}

}  // namespace
}  // namespace bypass
