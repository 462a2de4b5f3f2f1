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

/// Folds `rows` into `set` as one batch.
Status Feed(AggregatorSet* set, std::vector<Row> rows) {
  return set->AccumulateBatch(RowBatch::FromRows(std::move(rows)), nullptr);
}

/// `set`'s single aggregate value.
Value Final(const AggregatorSet& set) {
  ColumnVector out = ColumnVector::Untyped();
  EXPECT_TRUE(set.FinalizeInto(&out).ok());
  return out.size() == 1 ? out.GetValue(0) : Value::Null();
}

Value RunAgg(const AggregateSpec& spec,
             const std::vector<Row>& rows) {
  const std::vector<AggregateSpec> specs{spec};
  AggregatorSet set(&specs);
  const Status st = Feed(&set, rows);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return Final(set);
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
  const std::vector<AggregateSpec> specs{Spec(AggFunc::kSum, true)};
  AggregatorSet left(&specs), right(&specs), total(&specs);
  ASSERT_TRUE(Feed(&left, {Row{Value::Double(1.0)}, Row{Value::Double(2.0)},
                           Row{Value::Double(2.0)}})
                  .ok());
  ASSERT_TRUE(
      Feed(&right, {Row{Value::Double(2.0)}, Row{Value::Double(3.0)}}).ok());
  ASSERT_TRUE(total.Merge(left).ok());
  ASSERT_TRUE(total.Merge(right).ok());
  const Value v = Final(total);
  ASSERT_TRUE(v.is_double()) << v.ToString();
  EXPECT_DOUBLE_EQ(v.double_value(), 6.0);
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
  const std::vector<AggregateSpec> specs{Spec(AggFunc::kCount, true)};
  AggregatorSet set(&specs);
  const Row row{Value::Int64(1)};
  ASSERT_TRUE(Feed(&set, {row}).ok());
  set.Reset();
  EXPECT_EQ(Final(set).int64_value(), 0);
  ASSERT_TRUE(Feed(&set, {row}).ok());
  EXPECT_EQ(Final(set).int64_value(), 1);
}

TEST(AggTest, AggregatorSetEvaluatesAllSpecs) {
  std::vector<AggregateSpec> specs = {Spec(AggFunc::kCount),
                                      Spec(AggFunc::kSum),
                                      Spec(AggFunc::kMax)};
  AggregatorSet set(&specs);
  ASSERT_TRUE(Feed(&set, Ints({1, 2, 3})).ok());
  std::vector<ColumnVector> out(specs.size(), ColumnVector::Untyped());
  ASSERT_TRUE(set.FinalizeInto(out.data()).ok());
  for (const ColumnVector& col : out) ASSERT_EQ(col.size(), 1u);
  EXPECT_EQ(out[0].GetValue(0).int64_value(), 3);
  EXPECT_EQ(out[1].GetValue(0).int64_value(), 6);
  EXPECT_EQ(out[2].GetValue(0).int64_value(), 3);
}

TEST(AggTest, SumOnStringsIsExecutionError) {
  const std::vector<AggregateSpec> specs{Spec(AggFunc::kSum)};
  AggregatorSet set(&specs);
  EXPECT_EQ(Feed(&set, {Row{Value::String("x")}}).code(),
            StatusCode::kExecutionError);
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
