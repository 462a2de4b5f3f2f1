// Shared query corpus for property-style tests: a grammar-based random
// generator of nested disjunctive queries over the RST schema, plus a
// fixed list of hand-written queries covering the plan shapes the random
// grammar cannot guarantee to hit (bypass splits, DAG fan-out, deep
// nesting). Used by the canonical-vs-unnested harness and the batch-size
// differential test.
#ifndef BYPASSDB_TESTS_QUERY_CORPUS_H_
#define BYPASSDB_TESTS_QUERY_CORPUS_H_

#include <string>
#include <vector>

#include "common/rng.h"

namespace bypass {
namespace testing_util {

/// Generates random nested queries over the RST schema: random linking
/// operators, aggregates, disjunct mixtures, correlation shapes, and two
/// nesting levels. A miniature grammar-based fuzzer for the rewriter.
class QueryGenerator {
 public:
  explicit QueryGenerator(uint64_t seed) : rng_(seed) {}

  std::string Generate() {
    std::string sql = "SELECT DISTINCT * FROM r WHERE ";
    sql += Disjunction(/*allow_nested=*/true);
    return sql;
  }

  /// Random query with a scalar block in the SELECT clause on top of a
  /// random disjunctive WHERE.
  std::string GenerateWithSelectClause() {
    std::string sql = "SELECT a1, " + ScalarBlock(false) +
                      " AS g FROM r WHERE ";
    sql += Disjunction(/*allow_nested=*/false);
    return sql;
  }

 private:
  std::string Theta() {
    static const char* kOps[] = {"=", "<>", "<", "<=", ">", ">="};
    return kOps[rng_.UniformInt(0, 5)];
  }

  std::string Aggregate(const char* value_col) {
    switch (rng_.UniformInt(0, 6)) {
      case 0:
        return "COUNT(*)";
      case 1:
        return "COUNT(DISTINCT *)";
      case 2:
        return std::string("SUM(") + value_col + ")";
      case 3:
        return std::string("MIN(") + value_col + ")";
      case 4:
        return std::string("MAX(") + value_col + ")";
      case 5:
        return std::string("COUNT(DISTINCT ") + value_col + ")";
      default:
        return std::string("AVG(") + value_col + ")";
    }
  }

  std::string SimplePredicate(char prefix) {
    const int col = static_cast<int>(rng_.UniformInt(3, 4));
    const int64_t threshold = rng_.UniformInt(0, 6);
    return std::string(1, prefix) + std::to_string(col) + " " + Theta() +
           " " + std::to_string(threshold);
  }

  /// A scalar block over s, correlated with r (a2 θ2 b2), optionally with
  /// the correlation inside a disjunction and optionally with a deeper
  /// block over t.
  std::string ScalarBlock(bool allow_nested) {
    std::string inner_pred = "a2 " + Theta() + " b2";
    if (rng_.Bernoulli(0.5)) {
      // Disjunctive correlation.
      std::string other = rng_.Bernoulli(0.3) && allow_nested
                              ? "b3 = (SELECT COUNT(*) FROM t "
                                "WHERE b4 = c2)"
                              : SimplePredicate('b');
      inner_pred = "(" + inner_pred + " OR " + other + ")";
    }
    return "(SELECT " + Aggregate("b3") + " FROM s WHERE " + inner_pred +
           ")";
  }

  std::string Disjunct(bool allow_nested) {
    switch (rng_.UniformInt(0, 3)) {
      case 0:
        return SimplePredicate('a');
      case 1:
        return "a" + std::to_string(rng_.UniformInt(1, 2)) + " " +
               Theta() + " " + ScalarBlock(allow_nested);
      case 2:
        return "EXISTS (SELECT * FROM t WHERE a3 = c2 AND " +
               SimplePredicate('c') + ")";
      default:
        return "a1 IN (SELECT b1 FROM s WHERE a2 = b2)";
    }
  }

  std::string Disjunction(bool allow_nested) {
    const int n = static_cast<int>(rng_.UniformInt(1, 3));
    std::string out;
    for (int i = 0; i < n; ++i) {
      if (i > 0) out += " OR ";
      out += Disjunct(allow_nested);
    }
    return out;
  }

  Rng rng_;
};

/// Fixed queries that pin down the plan shapes the differential test must
/// cover regardless of random-grammar luck: the paper's Q2d pattern
/// (scalar block under disjunction → bypass σ± split + DAG fan-out),
/// anti/semi bypass joins from EXISTS/IN under OR, and a SELECT-clause
/// scalar block (subplan evaluation path).
inline std::vector<std::string> FixedBypassQueries() {
  return {
      // Q2d shape: correlated scalar aggregate under a disjunction.
      "SELECT DISTINCT * FROM r WHERE a3 > 5 OR "
      "a1 = (SELECT MIN(b3) FROM s WHERE b2 = a2)",
      // Disjunctive correlation inside the block (inner bypass split).
      "SELECT DISTINCT * FROM r WHERE "
      "a1 <= (SELECT COUNT(*) FROM s WHERE b2 = a2 OR b4 < a4)",
      // EXISTS and IN under OR: semi/anti bypass joins.
      "SELECT DISTINCT * FROM r WHERE a4 = 0 OR "
      "EXISTS (SELECT * FROM t WHERE c2 = a3)",
      "SELECT DISTINCT * FROM r WHERE a1 IN (SELECT b1 FROM s "
      "WHERE a2 = b2) OR a3 <> 2",
      // Two blocks in one disjunction: shared outer scan fan-out.
      "SELECT DISTINCT * FROM r WHERE "
      "a1 = (SELECT MAX(b3) FROM s WHERE b2 = a2) OR "
      "a2 < (SELECT COUNT(*) FROM t WHERE c2 = a3)",
      // Scalar block in the SELECT clause over a disjunctive filter.
      "SELECT a1, (SELECT SUM(b3) FROM s WHERE b2 = a2) AS g "
      "FROM r WHERE a3 >= 3 OR a4 <= 1",
  };
}

/// COUNT(DISTINCT *) texts: paper Fig. 7's q1, q3 tree and q4 linear
/// shapes, an uncorrelated (type A) block and a top-level scalar count.
/// The optimizer counts each of their groupings as COUNT(*) over a δ.
inline const std::vector<std::string>& CountDistinctStarQueries() {
  static const std::vector<std::string> queries = {
      "SELECT DISTINCT * FROM r "
      "WHERE a1 = (SELECT COUNT(DISTINCT *) FROM s WHERE a2 = b2) "
      "OR a4 > 2",
      "SELECT DISTINCT * FROM r "
      "WHERE a1 = (SELECT COUNT(DISTINCT *) FROM s WHERE a2 = b2) "
      "OR a3 = (SELECT COUNT(DISTINCT *) FROM t WHERE a4 = c2)",
      "SELECT DISTINCT * FROM r "
      "WHERE a1 = (SELECT COUNT(DISTINCT *) FROM s WHERE a2 = b2 "
      "OR b3 = (SELECT COUNT(DISTINCT *) FROM t WHERE b4 = c2))",
      "SELECT a1, a2 FROM r "
      "WHERE a3 < (SELECT COUNT(DISTINCT *) FROM s) OR a4 = 1",
      "SELECT COUNT(DISTINCT *) FROM s",
  };
  return queries;
}

/// k = 2..5 leading simple disjuncts of mixed selectivity (values live
/// in [0, 6]) ahead of a scalar subquery disjunct: each unnests to a σ±
/// cascade k levels deep. The last text puts two disjuncts on one column
/// (a1 < 2, a1 >= 5) so a row's first TRUE disjunct decides its branch.
inline const std::vector<std::string>& LeadingSimpleDisjunctQueries() {
  static const std::vector<std::string> queries = {
      "SELECT * FROM r WHERE a1 < 2 OR a2 > 4 "
      "OR a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2)",
      "SELECT * FROM r WHERE a1 < 2 OR a2 > 4 OR a3 = 3 "
      "OR a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2)",
      "SELECT * FROM r WHERE a1 < 2 OR a2 > 4 OR a3 = 3 OR a4 <= 1 "
      "OR a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2)",
      "SELECT * FROM r WHERE a1 < 2 OR a2 > 4 OR a3 = 3 OR a4 <= 1 "
      "OR a1 >= 5 OR a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2)",
  };
  return queries;
}

}  // namespace testing_util
}  // namespace bypass

#endif  // BYPASSDB_TESTS_QUERY_CORPUS_H_
