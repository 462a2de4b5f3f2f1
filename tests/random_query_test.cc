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

using testing_util::ExpectCanonicalEqualsUnnested;
using testing_util::LoadSmallRst;
using testing_util::QueryGenerator;

class RandomQueryProperty : public ::testing::TestWithParam<int> {};

// Each seed runs on int64 data, then with the correlation keys (a2, b2,
// c2) a DOUBLE column holding NaN, -0.0, ±inf and integral doubles: the
// nested evaluator and the hash operators must share one numeric order.
TEST_P(RandomQueryProperty, CanonicalEqualsUnnested) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  for (bool special_doubles : {false, true}) {
    SCOPED_TRACE(special_doubles ? "special doubles" : "int64");
    Database db;
    LoadSmallRst(&db, seed, 25, 30, 20, /*null_fraction=*/0.2,
                 /*max_value=*/6, /*suffix=*/"", special_doubles);
    QueryGenerator generator(seed * 31 + 7);
    for (int i = 0; i < 4; ++i) {
      const std::string sql = generator.Generate();
      SCOPED_TRACE(sql);
      ExpectCanonicalEqualsUnnested(&db, sql);
    }
    for (int i = 0; i < 2; ++i) {
      const std::string sql = generator.GenerateWithSelectClause();
      SCOPED_TRACE(sql);
      ExpectCanonicalEqualsUnnested(&db, sql);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomQueryProperty,
                         ::testing::Range(1000, 1025));

}  // namespace
}  // namespace bypass
