// GROUP BY / HAVING / LIMIT end-to-end tests.
#include <gtest/gtest.h>

#include <map>

#include "engine/database.h"
#include "test_util.h"

namespace bypass {
namespace {

using testing_util::IntRow;
using testing_util::LoadSmallRst;
using testing_util::TableRows;

class GroupByTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.CreateTable("r", RstTableSchema('a')).ok());
    Table* r = *db_.catalog()->GetTable("r");
    // a1 = group, a2 = value.
    ASSERT_TRUE(r->Append(IntRow({1, 10, 0, 0})).ok());
    ASSERT_TRUE(r->Append(IntRow({1, 20, 0, 0})).ok());
    ASSERT_TRUE(r->Append(IntRow({2, 5, 0, 0})).ok());
    ASSERT_TRUE(r->Append(IntRow({2, 5, 0, 0})).ok());
    ASSERT_TRUE(r->Append(IntRow({3, 7, 0, 0})).ok());
  }
  Database db_;
};

TEST_F(GroupByTest, BasicGroupingWithAggregates) {
  auto result = db_.Query(
      "SELECT a1, COUNT(*) AS cnt, SUM(a2) AS total FROM r GROUP BY a1 "
      "ORDER BY a1");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rows.size(), 3u);
  EXPECT_TRUE(RowsStructurallyEqual(result->rows[0], IntRow({1, 2, 30})));
  EXPECT_TRUE(RowsStructurallyEqual(result->rows[1], IntRow({2, 2, 10})));
  EXPECT_TRUE(RowsStructurallyEqual(result->rows[2], IntRow({3, 1, 7})));
}

TEST_F(GroupByTest, HavingFiltersGroups) {
  auto result = db_.Query(
      "SELECT a1 FROM r GROUP BY a1 HAVING COUNT(*) > 1 ORDER BY a1");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rows.size(), 2u);
  EXPECT_EQ(result->rows[0][0].int64_value(), 1);
  EXPECT_EQ(result->rows[1][0].int64_value(), 2);
}

TEST_F(GroupByTest, HavingWithAggExpression) {
  auto result = db_.Query(
      "SELECT a1, AVG(a2) AS m FROM r GROUP BY a1 "
      "HAVING SUM(a2) + COUNT(*) >= 12 ORDER BY a1");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // group 1: 30+2=32 ✓; group 2: 10+2=12 ✓; group 3: 7+1=8 ✗.
  EXPECT_EQ(result->rows.size(), 2u);
}

TEST_F(GroupByTest, DistinctAggregatePerGroup) {
  auto result = db_.Query(
      "SELECT a1, COUNT(DISTINCT a2) AS d FROM r GROUP BY a1 "
      "ORDER BY a1");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(RowsStructurallyEqual(result->rows[1], IntRow({2, 1})));
}

TEST_F(GroupByTest, MultipleGroupKeys) {
  auto result = db_.Query(
      "SELECT a1, a2, COUNT(*) AS c FROM r GROUP BY a1, a2 "
      "ORDER BY a1, a2");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows.size(), 4u);  // (1,10),(1,20),(2,5),(3,7)
}

TEST_F(GroupByTest, NonGroupedColumnInSelectIsBindError) {
  EXPECT_EQ(
      db_.Query("SELECT a2, COUNT(*) FROM r GROUP BY a1").status().code(),
      StatusCode::kBindError);
}

TEST_F(GroupByTest, HavingWithoutGroupByIsRejected) {
  // The grammar only admits HAVING after GROUP BY.
  EXPECT_EQ(db_.Query("SELECT a1 FROM r HAVING COUNT(*) > 1")
                .status()
                .code(),
            StatusCode::kParseError);
}

TEST_F(GroupByTest, GroupedQueryMatchesManualAggregation) {
  Database db;
  LoadSmallRst(&db, 777, 200, 5, 5);
  auto result = db.Query(
      "SELECT a2, COUNT(*) AS c, MIN(a3) AS lo, MAX(a3) AS hi FROM r "
      "GROUP BY a2");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Recompute from the base table.
  std::map<int64_t, std::tuple<int64_t, int64_t, int64_t>> expected;
  const Table* r = *db.catalog()->GetTable("r");
  for (const Row& row : TableRows(*r)) {
    if (row[1].is_null()) {
      // NULL group key groups structurally; skip detailed check.
      continue;
    }
    auto& [c, lo, hi] = expected[row[1].int64_value()];
    if (c == 0) {
      lo = hi = row[2].int64_value();
    } else {
      lo = std::min(lo, row[2].int64_value());
      hi = std::max(hi, row[2].int64_value());
    }
    ++c;
  }
  int verified = 0;
  for (const Row& out : result->rows) {
    if (out[0].is_null()) continue;
    auto it = expected.find(out[0].int64_value());
    ASSERT_NE(it, expected.end());
    EXPECT_EQ(out[1].int64_value(), std::get<0>(it->second));
    EXPECT_EQ(out[2].int64_value(), std::get<1>(it->second));
    EXPECT_EQ(out[3].int64_value(), std::get<2>(it->second));
    ++verified;
  }
  EXPECT_EQ(verified, static_cast<int>(expected.size()));
}

TEST(LimitTest, LimitCapsResultSize) {
  Database db;
  LoadSmallRst(&db, 801, 50, 5, 5);
  auto result = db.Query("SELECT * FROM r ORDER BY a1, a2, a3, a4 LIMIT 7");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows.size(), 7u);
}

TEST(LimitTest, LimitLargerThanResultIsHarmless) {
  Database db;
  LoadSmallRst(&db, 802, 5, 5, 5);
  auto result = db.Query("SELECT * FROM r LIMIT 100");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.size(), 5u);
}

TEST(LimitTest, LimitZero) {
  Database db;
  LoadSmallRst(&db, 803, 5, 5, 5);
  auto result = db.Query("SELECT * FROM r LIMIT 0");
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->rows.empty());
}

TEST(LimitTest, LimitInsideSubqueryRejected) {
  Database db;
  LoadSmallRst(&db, 804, 5, 5, 5);
  EXPECT_EQ(db.Query("SELECT * FROM r WHERE a1 = "
                     "(SELECT COUNT(*) FROM s LIMIT 1)")
                .status()
                .code(),
            StatusCode::kUnsupported);
}

TEST(LimitTest, LimitWithUnnestedDisjunction) {
  Database db;
  LoadSmallRst(&db, 805, 40, 40, 5);
  auto result = db.Query(
      "SELECT * FROM r "
      "WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2) OR a4 > 3 "
      "ORDER BY a1, a2, a3, a4 LIMIT 5");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_LE(result->rows.size(), 5u);
}

}  // namespace
}  // namespace bypass
