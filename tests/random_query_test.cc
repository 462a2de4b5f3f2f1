// Randomized query-shape harness: runs the shared query corpus
// (tests/query_corpus.h) and asserts canonical ≡ unnested on every
// generated query.
#include <string>

#include <gtest/gtest.h>

#include "engine/database.h"
#include "query_corpus.h"
#include "test_util.h"

namespace bypass {
namespace {

using testing_util::BatchThreadMatrix;
using testing_util::ExpectCanonicalEqualsUnnested;
using testing_util::ExpectCanonicalEqualsUnnestedAcross;
using testing_util::LoadSmallRst;
using testing_util::QueryGenerator;

class RandomQueryProperty : public ::testing::TestWithParam<int> {};

// Each seed runs on int64 data, then with the correlation keys (a2, b2,
// c2) a DOUBLE column holding NaN, -0.0, ±inf and integral doubles: the
// nested evaluator and the hash operators must share one numeric order.
// Both run on tables with duplicate rows, where a δ over a table that
// holds one must run, and again on duplicate-free tables at batch {1, 7,
// 1024} × threads {1, 4}, where the uniqueness gate skips most top δ.
TEST_P(RandomQueryProperty, CanonicalEqualsUnnested) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  for (bool duplicate_free : {false, true}) {
    for (bool special_doubles : {false, true}) {
      SCOPED_TRACE(special_doubles ? "special doubles" : "int64");
      SCOPED_TRACE(duplicate_free ? "duplicate-free" : "duplicate rows");
      Database db;
      LoadSmallRst(&db, seed, 25, 30, 20, /*null_fraction=*/0.2,
                   /*max_value=*/6, /*suffix=*/"", special_doubles,
                   duplicate_free);
      QueryGenerator generator(seed * 31 + 7);
      bool skipped = false;
      for (int i = 0; i < 6; ++i) {
        const std::string sql = i < 4 ? generator.Generate()
                                      : generator.GenerateWithSelectClause();
        SCOPED_TRACE(sql);
        if (!duplicate_free) {
          ExpectCanonicalEqualsUnnested(&db, sql);
          continue;
        }
        skipped = ExpectCanonicalEqualsUnnestedAcross(
                      &db, sql, BatchThreadMatrix()) ||
                  skipped;
      }
      if (duplicate_free) {
        EXPECT_TRUE(skipped) << "no unnested plan skipped a δ";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomQueryProperty,
                         ::testing::Range(1000, 1025));

}  // namespace
}  // namespace bypass
