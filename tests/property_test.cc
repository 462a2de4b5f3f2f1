// Semantic property tests: the unnesting equivalences must produce
// exactly the canonical results on randomized multiset instances — for
// every linking operator θ ∈ {=, <>, <, <=, >, >=}, every aggregate
// (including the non-decomposable DISTINCT variants), duplicates, empty
// groups, NULLs, and forced orderings. This is the executable form of the
// paper's correctness claims (Sec. 3.3–3.7).
#include <ostream>
#include <sstream>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "engine/database.h"
#include "query_corpus.h"
#include "test_util.h"

namespace bypass {
namespace {

using testing_util::ExpectCanonicalEqualsUnnested;
using testing_util::LoadSmallRst;

std::string ReplaceAll(std::string text, const std::string& from,
                       const std::string& to) {
  size_t pos = 0;
  while ((pos = text.find(from, pos)) != std::string::npos) {
    text.replace(pos, from.size(), to);
    pos += to.size();
  }
  return text;
}

const char* kThetas[] = {"=", "<>", "<", "<=", ">", ">="};
const char* kAggregates[] = {"COUNT(*)",        "COUNT(b3)",
                             "COUNT(DISTINCT *)", "COUNT(DISTINCT b3)",
                             "SUM(b3)",          "SUM(DISTINCT b3)",
                             "AVG(b3)",          "MIN(b3)",
                             "MAX(b3)"};

// ---------------------------------------------------------------------
// Disjunctive linking (Eqv. 2/3): a1 θ (SELECT f FROM s WHERE a2 = b2)
// OR a4 > 3, across all θ × f.
// ---------------------------------------------------------------------
class DisjunctiveLinkingProperty
    : public ::testing::TestWithParam<
          std::tuple<const char*, const char*>> {};

TEST_P(DisjunctiveLinkingProperty, CanonicalEqualsUnnested) {
  const auto& [theta, agg] = GetParam();
  const std::string sql = ReplaceAll(
      ReplaceAll("SELECT DISTINCT * FROM r "
                 "WHERE a1 @THETA (SELECT @AGG FROM s WHERE a2 = b2) "
                 "   OR a4 > 3",
                 "@THETA", theta),
      "@AGG", agg);
  for (uint64_t seed : {11u, 12u}) {
    Database db;
    LoadSmallRst(&db, seed, 35, 45, 10);
    QueryResult result = ExpectCanonicalEqualsUnnested(&db, sql);
    EXPECT_FALSE(result.applied_rules.empty()) << sql;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllThetaAggCombinations, DisjunctiveLinkingProperty,
    ::testing::Combine(::testing::ValuesIn(kThetas),
                       ::testing::ValuesIn(kAggregates)));

// ---------------------------------------------------------------------
// Disjunctive correlation (Eqv. 4/5): a1 θ1 (SELECT f FROM s WHERE
// a2 θ2 b2 OR b4 > 3), sweeping θ1 × f (θ2 = '=') and θ2 (f = COUNT).
// ---------------------------------------------------------------------
class DisjunctiveCorrelationProperty
    : public ::testing::TestWithParam<
          std::tuple<const char*, const char*>> {};

TEST_P(DisjunctiveCorrelationProperty, CanonicalEqualsUnnested) {
  const auto& [theta, agg] = GetParam();
  const std::string sql = ReplaceAll(
      ReplaceAll("SELECT DISTINCT * FROM r "
                 "WHERE a1 @THETA (SELECT @AGG FROM s "
                 "                 WHERE a2 = b2 OR b4 > 3)",
                 "@THETA", theta),
      "@AGG", agg);
  for (uint64_t seed : {21u, 22u}) {
    Database db;
    LoadSmallRst(&db, seed, 30, 40, 10);
    QueryResult result = ExpectCanonicalEqualsUnnested(&db, sql);
    // Decomposable aggregates take Eqv. 4, DISTINCT ones Eqv. 5; either
    // way the block must be gone.
    EXPECT_FALSE(result.applied_rules.empty()) << sql;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllThetaAggCombinations, DisjunctiveCorrelationProperty,
    ::testing::Combine(::testing::ValuesIn(kThetas),
                       ::testing::ValuesIn(kAggregates)));

class CorrelationOperatorProperty
    : public ::testing::TestWithParam<const char*> {};

TEST_P(CorrelationOperatorProperty, NonEqualityCorrelationViaEqv5) {
  const std::string sql = ReplaceAll(
      "SELECT DISTINCT * FROM r "
      "WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 @T2 b2 OR b4 > 4)",
      "@T2", GetParam());
  Database db;
  LoadSmallRst(&db, 33, 25, 30, 10);
  QueryResult result = ExpectCanonicalEqualsUnnested(&db, sql);
  EXPECT_FALSE(result.applied_rules.empty()) << sql;
}

INSTANTIATE_TEST_SUITE_P(AllCorrelationOperators,
                         CorrelationOperatorProperty,
                         ::testing::ValuesIn(kThetas));

// Conjunctive correlation with non-equality θ2 (binary-grouping path).
class ConjunctiveNonEqProperty
    : public ::testing::TestWithParam<const char*> {};

TEST_P(ConjunctiveNonEqProperty, BinaryGroupingMatchesCanonical) {
  const std::string sql = ReplaceAll(
      "SELECT DISTINCT * FROM r "
      "WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 @T2 b2)",
      "@T2", GetParam());
  Database db;
  LoadSmallRst(&db, 44, 25, 30, 10);
  ExpectCanonicalEqualsUnnested(&db, sql);
}

INSTANTIATE_TEST_SUITE_P(AllCorrelationOperators, ConjunctiveNonEqProperty,
                         ::testing::ValuesIn(kThetas));

// ---------------------------------------------------------------------
// NULL handling: the equivalences must agree with SQL 3VL when NULLs
// occur in linking, correlation, and aggregated columns.
// ---------------------------------------------------------------------
/// Which plan shape a NULL-semantics text must take besides matching the
/// canonical result.
enum class NullShape {
  kAny,
  /// Run on the wide instance on which Eqv. 1 must reduce Γ to the keys
  /// its stream probes (S ⋉ K).
  kReducesKeys,
  /// Run on a NULL-heavy instance full of duplicate rows; every grouping
  /// must count over a δ (COUNT(DISTINCT *) as COUNT(*)).
  kCountsOverDelta,
};

struct NullCase {
  NullCase(const char* text, bool reduce = false)  // NOLINT: implicit
      : sql(text), shape(reduce ? NullShape::kReducesKeys : NullShape::kAny) {}
  NullCase(const char* text, NullShape s) : sql(text), shape(s) {}
  const char* sql;
  NullShape shape;
};

void PrintTo(const NullCase& c, std::ostream* os) { *os << c.sql; }

/// True when every grouping of a printed logical plan (GroupBy Γ,
/// BinaryGroupBy Γ, ScalarAgg) has a Distinct among its direct inputs.
bool EveryGroupingReadsDistinct(const std::string& plan) {
  std::vector<std::string> lines;
  std::istringstream in(plan);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  auto indent = [](const std::string& l) {
    return l.find_first_not_of(' ');
  };
  bool any = false;
  for (size_t i = 0; i < lines.size(); ++i) {
    if (lines[i].find("Γ[") == std::string::npos &&
        lines[i].find("ScalarAgg[") == std::string::npos) {
      continue;
    }
    any = true;
    const size_t depth = indent(lines[i]);
    bool found = false;
    for (size_t j = i + 1; j < lines.size() && indent(lines[j]) > depth;
         ++j) {
      const std::string& l = lines[j];
      if (indent(l) == depth + 2 && l.size() >= 8 &&
          l.compare(l.size() - 8, 8, "Distinct") == 0) {
        found = true;
      }
    }
    if (!found) return false;
  }
  return any;
}

class NullSemanticsProperty : public ::testing::TestWithParam<NullCase> {};

// A NOT IN disjunct whose correlated block qualifies NULL b1 values.
constexpr char kNotInRepro[] =
    "SELECT * FROM r WHERE a1 NOT IN (SELECT b1 FROM s WHERE a2 = b2) "
    "OR a4 > 5";

TEST_P(NullSemanticsProperty, CanonicalEqualsUnnestedWithNulls) {
  Database db;
  const NullCase& c = GetParam();
  switch (c.shape) {
    case NullShape::kReducesKeys:
      // Keys in [0, 299] and an inner table 200× the outer one: the cost
      // gate applies the reduction.
      LoadSmallRst(&db, 57, 20, 4000, 1500, /*null_fraction=*/0.2,
                   /*max_value=*/299);
      break;
    case NullShape::kCountsOverDelta:
      // Values in {NULL, 0, 1, 2}: most rows repeat, NULLs included.
      LoadSmallRst(&db, 58, 30, 60, 40, /*null_fraction=*/0.4,
                   /*max_value=*/2);
      break;
    case NullShape::kAny:
      LoadSmallRst(&db, 55, 35, 45, 10, /*null_fraction=*/0.2);
      break;
  }
  const QueryResult got = ExpectCanonicalEqualsUnnested(&db, c.sql);
  if (c.shape == NullShape::kReducesKeys) {
    EXPECT_NE(got.optimized_plan.find("SemiJoin ("), std::string::npos)
        << "Eqv. 1 did not reduce S\n" << got.optimized_plan;
  }
  if (c.shape == NullShape::kCountsOverDelta) {
    EXPECT_EQ(got.optimized_plan.find("DISTINCT"), std::string::npos)
        << got.optimized_plan;
    EXPECT_TRUE(EveryGroupingReadsDistinct(got.optimized_plan))
        << "a grouping does not count over δ\n" << got.optimized_plan;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Queries, NullSemanticsProperty,
    ::testing::Values(
        // Eqv. 1 with NULL correlation values (no join partner → f(∅)).
        "SELECT DISTINCT * FROM r "
        "WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2)",
        // Eqv. 2 with NULLs in the simple predicate column.
        "SELECT DISTINCT * FROM r "
        "WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2) OR a4 > 3",
        // Eqv. 2 with a sum (NULL on empty groups).
        "SELECT DISTINCT * FROM r "
        "WHERE a1 < (SELECT SUM(b3) FROM s WHERE a2 = b2) OR a4 > 5",
        // Eqv. 4: NULLs among the aggregated values and in b4.
        "SELECT DISTINCT * FROM r "
        "WHERE a1 = (SELECT COUNT(b3) FROM s WHERE a2 = b2 OR b4 > 3)",
        "SELECT DISTINCT * FROM r "
        "WHERE a1 <= (SELECT SUM(b3) FROM s WHERE a2 = b2 OR b4 > 3)",
        "SELECT DISTINCT * FROM r "
        "WHERE a1 >= (SELECT AVG(b3) FROM s WHERE a2 = b2 OR b4 > 3)",
        "SELECT DISTINCT * FROM r "
        "WHERE a1 = (SELECT MIN(b3) FROM s WHERE a2 = b2 OR b4 > 3)",
        // Eqv. 5 with NULLs: a pair with a NULL correlation key and p
        // TRUE is counted (the "θ not TRUE" join over σp(S)); a pair with
        // p UNKNOWN is not.
        "SELECT DISTINCT * FROM r "
        "WHERE a1 = (SELECT COUNT(DISTINCT b3) FROM s "
        "            WHERE a2 = b2 OR b4 > 3)",
        // ... with a nested block in p (paper Q4, unnested on σp(S)),
        "SELECT DISTINCT * FROM r "
        "WHERE a1 = (SELECT COUNT(DISTINCT *) FROM s WHERE a2 = b2 "
        "            OR b3 = (SELECT COUNT(DISTINCT *) FROM t "
        "                     WHERE b4 = c2))",
        // ... with a non-equi θ (both joins nested-loop),
        "SELECT DISTINCT * FROM r "
        "WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 < b2 OR b4 > 3)",
        // ... and with MAX, whose f(∅) is NULL.
        "SELECT DISTINCT * FROM r "
        "WHERE a1 <= (SELECT MAX(b3) FROM s WHERE a2 = b2 "
        "             OR b3 = (SELECT MIN(c3) FROM t WHERE b4 = c2))",
        // EXISTS stays correct under NULLs (semijoin never matches NULL).
        "SELECT DISTINCT * FROM r "
        "WHERE EXISTS (SELECT * FROM s WHERE a2 = b2) OR a4 > 3",
        // NOT IN under 3VL: a NULL probe, or a NULL among the qualifying
        // subquery values with no match, is UNKNOWN and must reach the
        // remainder; an empty qualifying set is TRUE even for a NULL
        // probe. Correlated, uncorrelated, conjunctive, and mixed with IN.
        kNotInRepro,
        "SELECT * FROM r WHERE a1 NOT IN (SELECT b1 FROM s) OR a4 > 5",
        "SELECT * FROM r WHERE a1 NOT IN (SELECT b1 FROM s WHERE a2 = b2)",
        "SELECT * FROM r WHERE a1 NOT IN (SELECT b1 FROM s WHERE a2 = b2) "
        "OR a3 IN (SELECT c3 FROM t WHERE a4 = c2) OR a4 > 5"));

// The pinned NOT IN repro: 20 % NULLs in every column of a 35/45/30-row
// RST instance, seeds 1–20, each agreeing with the canonical evaluator.
TEST(NullSemanticsRegression, NotInUnderNullsMatchesCanonical) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Database db;
    LoadSmallRst(&db, seed, 35, 45, 30, /*null_fraction=*/0.2);
    const QueryResult got = ExpectCanonicalEqualsUnnested(&db, kNotInRepro);
    EXPECT_NE(got.optimized_plan.find("AntiJoin"), std::string::npos)
        << got.optimized_plan;
  }
}

// Eqv. 1 with Γ grouping S ⋉ K, K the stream's correlation values.
INSTANTIATE_TEST_SUITE_P(
    KeyReduction, NullSemanticsProperty,
    ::testing::Values(
        // NULL outer keys: K holds NULLs, which match nothing → f(∅).
        NullCase{"SELECT a1, a2, a3 FROM r "
                 "WHERE a3 < (SELECT MAX(b3) FROM s WHERE b2 = a2)",
                 true},
        // NULL inner keys: the semijoin drops them, as the ⟕ never
        // reaches their group; the stream is σ±'s negative port.
        NullCase{"SELECT a1, a2 FROM r WHERE a1 > (SELECT SUM(b3) FROM s "
                 "WHERE a2 = b2) OR a4 > 250",
                 true},
        // COUNT(*) over keys absent from S (a2 + 150 exceeds b2's domain
        // half the time) and NULL keys: 0, not NULL (the count bug).
        NullCase{"SELECT a1, a2 FROM r WHERE (SELECT COUNT(*) FROM s "
                 "WHERE b2 = a2 + 150) = 0",
                 true},
        // A two-key correlation: K holds (b2, b4) pairs of the outer
        // copy of s, so every non-NULL pair finds at least itself.
        NullCase{"SELECT x.b1, x.b2 FROM s AS x WHERE x.b1 < 3 AND "
                 "(SELECT COUNT(*) FROM s WHERE s.b2 = x.b2 "
                 "AND s.b4 = x.b4) = 1",
                 true},
        // The key is owned by the second join input: S = t ⋈ (s ⋉ K).
        NullCase{"SELECT a1, a2 FROM r WHERE a3 <= (SELECT MAX(c3) "
                 "FROM t, s WHERE c2 = b3 AND b2 = a2)",
                 true},
        // S is a bare Get: SELECT * over every outer column.
        NullCase{"SELECT * FROM r "
                 "WHERE a1 > (SELECT AVG(b4) FROM s WHERE b2 = a2)",
                 true},
        // A computed key: the semijoin sits over χ, directly under Γ.
        NullCase{"SELECT a1, a2 FROM r "
                 "WHERE a3 > (SELECT MIN(b3) FROM s WHERE b2 + 1 = a2)",
                 true}));

// COUNT(DISTINCT *) as COUNT(*) over δ: δ's structural NULL = NULL must
// decide duplicates exactly as the per-group row sets of the canonical
// plan's COUNT(DISTINCT *) do.
std::vector<NullCase> DistinctCountCases() {
  std::vector<NullCase> cases;
  for (const std::string& sql : testing_util::CountDistinctStarQueries()) {
    cases.emplace_back(sql.c_str(), NullShape::kCountsOverDelta);
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(DistinctCount, NullSemanticsProperty,
                         ::testing::ValuesIn(DistinctCountCases()));

// ---------------------------------------------------------------------
// Tree and linear nesting across aggregates.
// ---------------------------------------------------------------------
class TreeLinearProperty : public ::testing::TestWithParam<const char*> {};

TEST_P(TreeLinearProperty, CanonicalEqualsUnnested) {
  Database db;
  LoadSmallRst(&db, 66, 20, 25, 25);
  ExpectCanonicalEqualsUnnested(&db, GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Queries, TreeLinearProperty,
    ::testing::Values(
        // Tree: two linking subqueries in one disjunction (paper Q3).
        "SELECT DISTINCT * FROM r "
        "WHERE a1 = (SELECT COUNT(DISTINCT *) FROM s WHERE a2 = b2) "
        "   OR a3 = (SELECT COUNT(DISTINCT *) FROM t WHERE a4 = c2)",
        // Tree with mixed aggregates and operators.
        "SELECT DISTINCT * FROM r "
        "WHERE a1 < (SELECT SUM(b3) FROM s WHERE a2 = b2) "
        "   OR a3 >= (SELECT MAX(c3) FROM t WHERE a4 = c2)",
        // Tree with three disjuncts: two subqueries + simple predicate.
        "SELECT DISTINCT * FROM r "
        "WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2) "
        "   OR a3 = (SELECT COUNT(*) FROM t WHERE a4 = c2) "
        "   OR a4 > 5",
        // Linear: subquery inside subquery (paper Q4).
        "SELECT DISTINCT * FROM r "
        "WHERE a1 = (SELECT COUNT(DISTINCT *) FROM s WHERE a2 = b2 "
        "            OR b3 = (SELECT COUNT(DISTINCT *) FROM t "
        "                     WHERE b4 = c2))",
        // Linear with decomposable outer aggregate (Eqv. 5 still needed:
        // p contains a subquery).
        "SELECT DISTINCT * FROM r "
        "WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2 "
        "            OR b3 = (SELECT MAX(c3) FROM t WHERE b4 = c2))",
        // Conjunctive linking under the top, disjunctive below.
        "SELECT DISTINCT * FROM r "
        "WHERE a1 = (SELECT COUNT(*) FROM s "
        "            WHERE b3 = (SELECT COUNT(*) FROM t WHERE b2 = c2) "
        "               OR b4 > 4)"));

// ---------------------------------------------------------------------
// Quantified table subqueries in disjunctions (TR extension), on
// NULL-free data; NullSemanticsProperty runs the NOT IN texts under
// NULLs, where membership is three-valued.
// ---------------------------------------------------------------------
class QuantifiedProperty : public ::testing::TestWithParam<const char*> {};

TEST_P(QuantifiedProperty, CanonicalEqualsUnnested) {
  for (uint64_t seed : {77u, 78u}) {
    Database db;
    LoadSmallRst(&db, seed, 35, 45, 30);
    QueryResult result = ExpectCanonicalEqualsUnnested(&db, GetParam());
    EXPECT_FALSE(result.applied_rules.empty()) << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Queries, QuantifiedProperty,
    ::testing::Values(
        "SELECT DISTINCT * FROM r "
        "WHERE EXISTS (SELECT * FROM s WHERE a2 = b2 AND b4 > 4) "
        "   OR a4 > 3",
        "SELECT DISTINCT * FROM r "
        "WHERE NOT EXISTS (SELECT * FROM s WHERE a2 = b2) OR a4 > 5",
        "SELECT DISTINCT * FROM r "
        "WHERE a1 IN (SELECT b1 FROM s WHERE a2 = b2) OR a4 > 5",
        "SELECT DISTINCT * FROM r "
        "WHERE a1 NOT IN (SELECT b1 FROM s WHERE a2 = b2) OR a4 > 5",
        // Uncorrelated IN with DISTINCT inside.
        "SELECT DISTINCT * FROM r "
        "WHERE a1 IN (SELECT DISTINCT b1 FROM s WHERE b4 > 4) "
        "   OR a4 > 5",
        // Non-equality correlation in the EXISTS block.
        "SELECT DISTINCT * FROM r "
        "WHERE EXISTS (SELECT * FROM s WHERE a2 < b2 AND b4 > 5) "
        "   OR a4 > 3",
        // Two quantified disjuncts (tree-like cascade).
        "SELECT DISTINCT * FROM r "
        "WHERE EXISTS (SELECT * FROM s WHERE a2 = b2 AND b4 > 4) "
        "   OR EXISTS (SELECT * FROM t WHERE a3 = c2)"));

// ---------------------------------------------------------------------
// Forced orderings (Eqv. 2 vs Eqv. 3) must agree with each other and
// with the canonical plan.
// ---------------------------------------------------------------------
TEST(OrderingProperty, AllDisjunctOrdersAgree) {
  Database db;
  LoadSmallRst(&db, 88, 40, 50, 10);
  const char* sql =
      "SELECT DISTINCT * FROM r "
      "WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2) OR a4 > 3";
  QueryOptions canonical;
  canonical.unnest = false;
  auto base = db.Query(sql, canonical);
  ASSERT_TRUE(base.ok());
  for (DisjunctOrder order :
       {DisjunctOrder::kByRank, DisjunctOrder::kSimpleFirst,
        DisjunctOrder::kSubqueryFirst}) {
    QueryOptions options;
    options.rewrite.disjunct_order = order;
    auto result = db.Query(sql, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(RowMultisetsEqual(base->rows, result->rows))
        << "order=" << static_cast<int>(order);
  }
}

// Duplicate semantics (paper Sec. 3.7): without DISTINCT the multiset
// cardinalities must match exactly, including duplicated outer tuples.
TEST(DuplicateSemanticsProperty, BagResultsMatchWithoutDistinct) {
  for (uint64_t seed : {91u, 92u, 93u}) {
    Database db;
    LoadSmallRst(&db, seed, 40, 40, 10);
    ExpectCanonicalEqualsUnnested(
        &db,
        "SELECT * FROM r "
        "WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2) OR a4 > 3");
    ExpectCanonicalEqualsUnnested(
        &db,
        "SELECT * FROM r "
        "WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2 OR b4 > 3)");
  }
}

// Conjunctive quantified subqueries (no OR): single-branch semi/anti
// joins, and aggregates over expressions.
TEST(ConjunctivePositionsProperty, QuantifiedAndExprAggregates) {
  for (uint64_t seed : {96u, 97u}) {
    Database db;
    LoadSmallRst(&db, seed, 30, 35, 25);
    ExpectCanonicalEqualsUnnested(
        &db,
        "SELECT DISTINCT * FROM r "
        "WHERE EXISTS (SELECT * FROM s WHERE a2 = b2 AND b4 > 3)");
    ExpectCanonicalEqualsUnnested(
        &db,
        "SELECT DISTINCT * FROM r "
        "WHERE NOT EXISTS (SELECT * FROM s WHERE a2 = b2)");
    ExpectCanonicalEqualsUnnested(
        &db,
        "SELECT DISTINCT * FROM r "
        "WHERE a1 IN (SELECT b1 FROM s WHERE a2 = b2) AND a4 > 2");
    // Aggregate over an expression, in both linking positions.
    ExpectCanonicalEqualsUnnested(
        &db,
        "SELECT DISTINCT * FROM r "
        "WHERE a1 < (SELECT SUM(b3 + b4) FROM s WHERE a2 = b2) "
        "   OR a4 > 3");
    ExpectCanonicalEqualsUnnested(
        &db,
        "SELECT DISTINCT * FROM r "
        "WHERE a1 = (SELECT COUNT(*) FROM s "
        "            WHERE a2 = b2 OR b3 + b4 > 8)");
  }
}

TEST(BetweenProperty, DesugarsAndUnnests) {
  Database db;
  LoadSmallRst(&db, 98, 30, 35, 10);
  ExpectCanonicalEqualsUnnested(
      &db,
      "SELECT DISTINCT * FROM r "
      "WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2) "
      "   OR a4 BETWEEN 2 AND 4");
  ExpectCanonicalEqualsUnnested(
      &db,
      "SELECT DISTINCT * FROM r WHERE a4 NOT BETWEEN 2 AND 4");
}

// Larger-seed sweep of the flagship queries: cheap but broad.
class SeedSweepProperty : public ::testing::TestWithParam<int> {};

TEST_P(SeedSweepProperty, Q1AndQ2AgreeAcrossSeeds) {
  Database db;
  LoadSmallRst(&db, static_cast<uint64_t>(GetParam()), 30, 35, 10,
               /*null_fraction=*/GetParam() % 3 == 0 ? 0.15 : 0.0);
  ExpectCanonicalEqualsUnnested(
      &db,
      "SELECT DISTINCT * FROM r "
      "WHERE a1 = (SELECT COUNT(DISTINCT *) FROM s WHERE a2 = b2) "
      "   OR a4 > 3");
  ExpectCanonicalEqualsUnnested(
      &db,
      "SELECT DISTINCT * FROM r "
      "WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2 OR b4 > 3)");
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweepProperty,
                         ::testing::Range(100, 120));

}  // namespace
}  // namespace bypass
