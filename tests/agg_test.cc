#include "expr/agg.h"

#include <gtest/gtest.h>

#include "types/column_vector.h"

namespace bypass {
namespace {

ExprPtr Slot0() {
  auto ref = std::make_shared<ColumnRefExpr>("", "x", false);
  ref->set_slot(0);
  return ref;
}

AggregateSpec Spec(AggFunc func, bool distinct = false,
                   bool star = false) {
  AggregateSpec spec;
  spec.func = func;
  spec.distinct = distinct;
  spec.arg = star ? nullptr : Slot0();
  spec.output_name = "g";
  return spec;
}

Value RunAgg(const AggregateSpec& spec,
             const std::vector<Row>& rows) {
  Aggregator agg(&spec);
  agg.Reset();
  for (const Row& row : rows) {
    EvalContext ctx{&row, nullptr};
    EXPECT_TRUE(agg.Accumulate(ctx).ok());
  }
  auto result = agg.Finalize();
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? *result : Value::Null();
}

std::vector<Row> Ints(std::initializer_list<int64_t> values) {
  std::vector<Row> rows;
  for (int64_t v : values) rows.push_back(Row{Value::Int64(v)});
  return rows;
}

TEST(AggTest, CountStarCountsEveryRowIncludingNulls) {
  std::vector<Row> rows = Ints({1, 2});
  rows.push_back(Row{Value::Null()});
  EXPECT_EQ(RunAgg(Spec(AggFunc::kCount, false, /*star=*/true), rows)
                .int64_value(),
            3);
}

TEST(AggTest, CountColumnSkipsNulls) {
  std::vector<Row> rows = Ints({1, 2});
  rows.push_back(Row{Value::Null()});
  EXPECT_EQ(RunAgg(Spec(AggFunc::kCount), rows).int64_value(), 2);
}

TEST(AggTest, CountDistinctColumn) {
  EXPECT_EQ(
      RunAgg(Spec(AggFunc::kCount, true), Ints({1, 2, 2, 1, 3}))
          .int64_value(),
      3);
}

TEST(AggTest, CountDistinctStarCountsDistinctRows) {
  std::vector<Row> rows = {Row{Value::Int64(1), Value::Int64(2)},
                           Row{Value::Int64(1), Value::Int64(2)},
                           Row{Value::Int64(1), Value::Int64(3)}};
  AggregateSpec spec = Spec(AggFunc::kCount, true, /*star=*/true);
  EXPECT_EQ(RunAgg(spec, rows).int64_value(), 2);
}

TEST(AggTest, SumOfEmptyIsNull) {
  EXPECT_TRUE(RunAgg(Spec(AggFunc::kSum), {}).is_null());
}

TEST(AggTest, SumSkipsNullsPreservesInt) {
  std::vector<Row> rows = Ints({1, 4});
  rows.push_back(Row{Value::Null()});
  Value v = RunAgg(Spec(AggFunc::kSum), rows);
  EXPECT_TRUE(v.is_int64());
  EXPECT_EQ(v.int64_value(), 5);
}

TEST(AggTest, SumAllNullsIsNull) {
  std::vector<Row> rows = {Row{Value::Null()}, Row{Value::Null()}};
  EXPECT_TRUE(RunAgg(Spec(AggFunc::kSum), rows).is_null());
}

TEST(AggTest, SumDistinct) {
  EXPECT_EQ(RunAgg(Spec(AggFunc::kSum, true), Ints({2, 2, 3}))
                .int64_value(),
            5);
}

// Partial DISTINCT sets hand their keys to Merge as stored: integral
// doubles must come back as doubles, not as their packed int64 twins.
TEST(AggTest, SumDistinctOverDoublesStaysDoubleAfterMerge) {
  const AggregateSpec spec = Spec(AggFunc::kSum, true);
  Aggregator left(&spec), right(&spec), total(&spec);
  for (Aggregator* a : {&left, &right, &total}) a->Reset();
  for (double d : {1.0, 2.0, 2.0}) {
    const Row row{Value::Double(d)};
    ASSERT_TRUE(left.Accumulate(EvalContext{&row, nullptr}).ok());
  }
  for (double d : {2.0, 3.0}) {
    const Row row{Value::Double(d)};
    ASSERT_TRUE(right.Accumulate(EvalContext{&row, nullptr}).ok());
  }
  ASSERT_TRUE(total.Merge(left).ok());
  ASSERT_TRUE(total.Merge(right).ok());
  auto v = total.Finalize();
  ASSERT_TRUE(v.ok());
  ASSERT_TRUE(v->is_double()) << v->ToString();
  EXPECT_DOUBLE_EQ(v->double_value(), 6.0);
}

TEST(AggTest, SumOfDoublesIsDouble) {
  std::vector<Row> rows = {Row{Value::Double(1.5)},
                           Row{Value::Int64(2)}};
  Value v = RunAgg(Spec(AggFunc::kSum), rows);
  EXPECT_TRUE(v.is_double());
  EXPECT_DOUBLE_EQ(v.double_value(), 3.5);
}

TEST(AggTest, AvgComputesMean) {
  Value v = RunAgg(Spec(AggFunc::kAvg), Ints({1, 2, 3, 6}));
  EXPECT_TRUE(v.is_double());
  EXPECT_DOUBLE_EQ(v.double_value(), 3.0);
}

TEST(AggTest, AvgOfEmptyIsNull) {
  EXPECT_TRUE(RunAgg(Spec(AggFunc::kAvg), {}).is_null());
}

TEST(AggTest, MinMax) {
  EXPECT_EQ(RunAgg(Spec(AggFunc::kMin), Ints({5, 2, 9})).int64_value(),
            2);
  EXPECT_EQ(RunAgg(Spec(AggFunc::kMax), Ints({5, 2, 9})).int64_value(),
            9);
  EXPECT_TRUE(RunAgg(Spec(AggFunc::kMin), {}).is_null());
}

TEST(AggTest, MinSkipsNulls) {
  std::vector<Row> rows = {Row{Value::Null()}, Row{Value::Int64(4)}};
  EXPECT_EQ(RunAgg(Spec(AggFunc::kMin), rows).int64_value(), 4);
}

TEST(AggTest, ResetClearsState) {
  AggregateSpec spec = Spec(AggFunc::kCount, true);
  Aggregator agg(&spec);
  Row row{Value::Int64(1)};
  EvalContext ctx{&row, nullptr};
  ASSERT_TRUE(agg.Accumulate(ctx).ok());
  agg.Reset();
  EXPECT_EQ((*agg.Finalize()).int64_value(), 0);
  ASSERT_TRUE(agg.Accumulate(ctx).ok());
  EXPECT_EQ((*agg.Finalize()).int64_value(), 1);
}

TEST(AggTest, AggregatorSetEvaluatesAllSpecs) {
  std::vector<AggregateSpec> specs = {Spec(AggFunc::kCount),
                                      Spec(AggFunc::kSum),
                                      Spec(AggFunc::kMax)};
  AggregatorSet set(&specs);
  for (const Row& row : Ints({1, 2, 3})) {
    EvalContext ctx{&row, nullptr};
    ASSERT_TRUE(set.Accumulate(ctx).ok());
  }
  std::vector<ColumnVector> out(specs.size(), ColumnVector::Untyped());
  ASSERT_TRUE(set.FinalizeInto(out.data()).ok());
  for (const ColumnVector& col : out) ASSERT_EQ(col.size(), 1u);
  EXPECT_EQ(out[0].GetValue(0).int64_value(), 3);
  EXPECT_EQ(out[1].GetValue(0).int64_value(), 6);
  EXPECT_EQ(out[2].GetValue(0).int64_value(), 3);
}

TEST(AggTest, SumOnStringsIsExecutionError) {
  AggregateSpec spec = Spec(AggFunc::kSum);
  Aggregator agg(&spec);
  Row row{Value::String("x")};
  EvalContext ctx{&row, nullptr};
  EXPECT_EQ(agg.Accumulate(ctx).code(), StatusCode::kExecutionError);
}

// --- decomposability (paper Sec. 3.3 / footnote 1) ---

TEST(AggDecomposabilityTest, PlainAggregatesDecompose) {
  for (AggFunc f : {AggFunc::kCount, AggFunc::kSum, AggFunc::kAvg,
                    AggFunc::kMin, AggFunc::kMax}) {
    EXPECT_TRUE(IsAggDecomposable(Spec(f)));
  }
}

TEST(AggDecomposabilityTest, DistinctAggregatesDoNot) {
  for (AggFunc f : {AggFunc::kCount, AggFunc::kSum, AggFunc::kAvg,
                    AggFunc::kMin, AggFunc::kMax}) {
    EXPECT_FALSE(IsAggDecomposable(Spec(f, /*distinct=*/true)));
  }
}

TEST(AggDecomposabilityTest, EmptyValueIsTheCountBugFix) {
  EXPECT_EQ(AggEmptyValue(AggFunc::kCount).int64_value(), 0);
  EXPECT_TRUE(AggEmptyValue(AggFunc::kSum).is_null());
  EXPECT_TRUE(AggEmptyValue(AggFunc::kAvg).is_null());
  EXPECT_TRUE(AggEmptyValue(AggFunc::kMin).is_null());
  EXPECT_TRUE(AggEmptyValue(AggFunc::kMax).is_null());
}

// Decomposition semantics: f(X) == fO(fI(Y), fI(Z)) for a random split —
// checked here directly on the accumulator level.
class DecompositionTest : public ::testing::TestWithParam<AggFunc> {};

TEST_P(DecompositionTest, SplitAggregationMatchesWhole) {
  const AggFunc f = GetParam();
  const std::vector<Row> all = Ints({4, 7, 7, 1, 9, 3, 3, 8});
  const std::vector<Row> part1(all.begin(), all.begin() + 3);
  const std::vector<Row> part2(all.begin() + 3, all.end());

  const Value whole = RunAgg(Spec(f), all);
  if (f == AggFunc::kCount || f == AggFunc::kSum) {
    const Value a = RunAgg(Spec(f), part1);
    const Value b = RunAgg(Spec(f), part2);
    EXPECT_EQ(whole.int64_value(), a.int64_value() + b.int64_value());
  } else if (f == AggFunc::kMin || f == AggFunc::kMax) {
    const Value a = RunAgg(Spec(f), part1);
    const Value b = RunAgg(Spec(f), part2);
    const int64_t combined =
        f == AggFunc::kMin
            ? std::min(a.int64_value(), b.int64_value())
            : std::max(a.int64_value(), b.int64_value());
    EXPECT_EQ(whole.int64_value(), combined);
  } else {  // avg via (sum, count) partials
    const Value s1 = RunAgg(Spec(AggFunc::kSum), part1);
    const Value s2 = RunAgg(Spec(AggFunc::kSum), part2);
    const Value c1 = RunAgg(Spec(AggFunc::kCount), part1);
    const Value c2 = RunAgg(Spec(AggFunc::kCount), part2);
    const double combined =
        static_cast<double>(s1.int64_value() + s2.int64_value()) /
        static_cast<double>(c1.int64_value() + c2.int64_value());
    EXPECT_DOUBLE_EQ(whole.double_value(), combined);
  }
}

INSTANTIATE_TEST_SUITE_P(AllFunctions, DecompositionTest,
                         ::testing::Values(AggFunc::kCount, AggFunc::kSum,
                                           AggFunc::kAvg, AggFunc::kMin,
                                           AggFunc::kMax));

}  // namespace
}  // namespace bypass
