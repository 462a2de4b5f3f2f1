#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <random>
#include <vector>

#include "types/row.h"
#include "types/schema.h"

namespace bypass {
namespace {

Row R(std::initializer_list<int64_t> values) {
  Row row;
  for (int64_t v : values) row.push_back(Value::Int64(v));
  return row;
}

TEST(RowTest, ConcatAndProject) {
  Row joined = ConcatRows(R({1, 2}), R({3}));
  ASSERT_EQ(joined.size(), 3u);
  EXPECT_EQ(joined[2].int64_value(), 3);
  Row projected = ProjectRow(joined, {2, 0});
  ASSERT_EQ(projected.size(), 2u);
  EXPECT_EQ(projected[0].int64_value(), 3);
  EXPECT_EQ(projected[1].int64_value(), 1);
}

TEST(RowTest, StructuralEqualityHandlesNulls) {
  Row a{Value::Int64(1), Value::Null()};
  Row b{Value::Int64(1), Value::Null()};
  Row c{Value::Int64(1), Value::Int64(0)};
  EXPECT_TRUE(RowsStructurallyEqual(a, b));
  EXPECT_FALSE(RowsStructurallyEqual(a, c));
  EXPECT_FALSE(RowsStructurallyEqual(a, R({1})));
}

TEST(RowTest, CompareRowsIsLexicographic) {
  EXPECT_LT(CompareRows(R({1, 2}), R({1, 3})), 0);
  EXPECT_GT(CompareRows(R({2, 0}), R({1, 9})), 0);
  EXPECT_EQ(CompareRows(R({1, 2}), R({1, 2})), 0);
  EXPECT_LT(CompareRows(R({1}), R({1, 0})), 0);  // prefix sorts first
}

TEST(RowTest, HashConsistentWithEquality) {
  Row a{Value::Int64(1), Value::Null(), Value::String("x")};
  Row b{Value::Int64(1), Value::Null(), Value::String("x")};
  EXPECT_EQ(HashRow(a), HashRow(b));
  EXPECT_EQ(HashRowSlots(a, {0, 2}), HashRowSlots(b, {0, 2}));
}

TEST(RowTest, MultisetEqualityCountsDuplicates) {
  std::vector<Row> a = {R({1}), R({1}), R({2})};
  std::vector<Row> b = {R({2}), R({1}), R({1})};
  std::vector<Row> c = {R({1}), R({2}), R({2})};
  EXPECT_TRUE(RowMultisetsEqual(a, b));
  EXPECT_FALSE(RowMultisetsEqual(a, c));
  EXPECT_FALSE(RowMultisetsEqual(a, {R({1}), R({2})}));
}

TEST(RowTest, MultisetEqualityWithNulls) {
  std::vector<Row> a = {Row{Value::Null()}, Row{Value::Int64(1)}};
  std::vector<Row> b = {Row{Value::Int64(1)}, Row{Value::Null()}};
  EXPECT_TRUE(RowMultisetsEqual(a, b));
}

// OrderCompare puts NaN above every other number and ties all NaNs, a
// strict weak order, so every permutation of NaN-bearing rows compares
// equal to the original.
TEST(RowTest, MultisetEqualityHoldsForPermutedNaNRows) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<Row> rows;
  for (int i = 0; i < 24; ++i) {
    const double first[] = {nan, 0.5, 2.0, -1.0};
    Row row{Value::Double(first[i % 4]), Value::Int64(i % 5)};
    if (i % 7 == 3) row[1] = Value::Double(nan);
    rows.push_back(std::move(row));
  }
  std::mt19937 rng(11);
  for (int round = 0; round < 50; ++round) {
    std::vector<Row> permuted = rows;
    std::shuffle(permuted.begin(), permuted.end(), rng);
    EXPECT_TRUE(RowMultisetsEqual(rows, permuted)) << "round " << round;
  }
}

TEST(RowTest, RowSlotsEqualComparesTheGivenSlots) {
  Row a = R({1, 2, 3});
  Row b = R({9, 2, 1});
  EXPECT_TRUE(RowSlotsEqual(a, b, {0, 1}, {2, 1}));
  EXPECT_FALSE(RowSlotsEqual(a, b, {0}, {0}));
}

// --- Schema ---

Schema TestSchema() {
  Schema s;
  s.AddColumn({"a", DataType::kInt64, "r"});
  s.AddColumn({"b", DataType::kString, "r"});
  s.AddColumn({"a", DataType::kInt64, "s"});
  return s;
}

TEST(SchemaTest, FindQualified) {
  Schema s = TestSchema();
  EXPECT_EQ(*s.FindColumn("r", "a"), 0);
  EXPECT_EQ(*s.FindColumn("s", "a"), 2);
}

TEST(SchemaTest, FindUnqualifiedUniqueName) {
  Schema s = TestSchema();
  EXPECT_EQ(*s.FindColumn("", "b"), 1);
}

TEST(SchemaTest, UnqualifiedAmbiguityIsAnError) {
  Schema s = TestSchema();
  auto result = s.FindColumn("", "a");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(SchemaTest, MissingColumnIsNotFound) {
  Schema s = TestSchema();
  EXPECT_EQ(s.FindColumn("r", "zzz").status().code(),
            StatusCode::kNotFound);
  EXPECT_FALSE(s.HasColumn("r", "zzz"));
  EXPECT_TRUE(s.HasColumn("r", "a"));
}

TEST(SchemaTest, LookupIsCaseInsensitive) {
  Schema s = TestSchema();
  EXPECT_EQ(*s.FindColumn("R", "A"), 0);
}

TEST(SchemaTest, ConcatKeepsOrderAndQualifiers) {
  Schema left = TestSchema();
  Schema right;
  right.AddColumn({"c", DataType::kDouble, "t"});
  Schema joined = Schema::Concat(left, right);
  EXPECT_EQ(joined.num_columns(), 4);
  EXPECT_EQ(joined.column(3).name, "c");
  EXPECT_EQ(joined.column(3).qualifier, "t");
}

TEST(SchemaTest, SelectSubset) {
  Schema s = TestSchema();
  Schema sub = s.Select({2, 0});
  EXPECT_EQ(sub.num_columns(), 2);
  EXPECT_EQ(sub.column(0).qualifier, "s");
  EXPECT_EQ(sub.column(1).qualifier, "r");
}

TEST(SchemaTest, ToStringMentionsTypes) {
  Schema s = TestSchema();
  const std::string str = s.ToString();
  EXPECT_NE(str.find("r.a:INT64"), std::string::npos);
  EXPECT_NE(str.find("r.b:STRING"), std::string::npos);
}

}  // namespace
}  // namespace bypass
