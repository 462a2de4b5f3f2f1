// Metamorphic oracle for quantified comparisons on NULL-heavy data:
// paired texts that SQL's three-valued logic makes equivalent must
// return the same multiset, canonically and unnested. Unlike the
// canonical-vs-unnested harness, a wrong result that both evaluators
// share still shows up here, as a disagreement between the two texts.
//
//   x <> ALL S        ≡ x NOT IN S
//   x = SOME S        ≡ x IN S
//   NOT (x θ SOME S)  ≡ x θ̄ ALL S
//   NOT (x θ ALL S)   ≡ x θ̄ SOME S
//
// and, in a positive context (the WHERE clause keeps only TRUE rows, and
// TRUE-ness of an AND/OR depends only on TRUE-ness of its operands), two
// restatements through EXISTS that bypass the quantified node entirely:
//
//   x θ SOME S        ≡ EXISTS (… AND x θ y)
//   x θ ALL S         ≡ NOT EXISTS (… AND (x θ̄ y OR x IS NULL
//                                           OR y IS NULL))
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "engine/database.h"
#include "query_corpus.h"
#include "test_util.h"

namespace bypass {
namespace {

using testing_util::LoadSmallRst;
using testing_util::QuantifiedParts;
using testing_util::QueryGenerator;

/// `EXISTS (SELECT * FROM q.from WHERE [q.where AND] cond)`.
std::string ExistsText(const QuantifiedParts& q, const std::string& cond) {
  return "EXISTS (SELECT * FROM " + q.from + " WHERE " +
         (q.where.empty() ? "" : q.where + " AND ") + cond + ")";
}

/// A random pair of equivalent quantified predicates.
std::pair<std::string, std::string> IdentityPair(QueryGenerator* gen,
                                                 Rng* rng) {
  QuantifiedParts q = gen->Quantified();
  const std::string block = q.Block();
  std::pair<std::string, std::string> pair;
  bool negatable = true;
  switch (rng->UniformInt(0, 5)) {
    case 0:
      q.op = CompareOp::kNe;
      q.all = true;
      pair = {q.Text(), q.probe + " NOT IN " + block};
      break;
    case 1:
      q.op = CompareOp::kEq;
      q.all = false;
      pair = {q.Text(), q.probe + " IN " + block};
      break;
    case 2:
    case 3: {
      // NOT (x θ SOME S) ≡ x θ̄ ALL S and NOT (x θ ALL S) ≡ x θ̄ SOME S.
      QuantifiedParts dual = q;
      dual.op = NegateCompareOp(q.op);
      dual.all = !q.all;
      pair = {"NOT (" + q.Text() + ")", dual.Text()};
      break;
    }
    case 4:
      q.all = false;
      pair = {q.Text(), ExistsText(q, q.probe + " " +
                                          CompareOpToString(q.op) + " " +
                                          q.column)};
      negatable = false;
      break;
    default: {
      q.all = true;
      const std::string refutes =
          "(" + q.probe + " " + CompareOpToString(NegateCompareOp(q.op)) +
          " " + q.column + " OR " + q.probe + " IS NULL OR " + q.column +
          " IS NULL)";
      pair = {q.Text(), "NOT " + ExistsText(q, refutes)};
      negatable = false;
      break;
    }
  }
  if (negatable && rng->Bernoulli(0.25)) {
    pair = {"NOT (" + pair.first + ")", "NOT (" + pair.second + ")"};
  }
  return pair;
}

/// Checks `pairs` generated identity pairs of `seed` under `select`
/// ("SELECT * FROM r" or its DISTINCT form), canonically and with
/// `unnested`. Returns true when some unnested plan skipped a δ.
bool CheckIdentityPairs(Database* db, uint64_t seed, int pairs,
                        const std::string& select,
                        QueryOptions unnested) {
  QueryGenerator gen(seed * 211 + 17);
  Rng rng(seed * 7 + 1);
  QueryOptions canonical;
  canonical.unnest = false;
  unnested.unnest = true;
  bool skipped = false;
  for (int i = 0; i < pairs; ++i) {
    auto [lhs, rhs] = IdentityPair(&gen, &rng);
    // The pair alone, or as one disjunct beside random others.
    std::string before, after;
    switch (rng.UniformInt(0, 2)) {
      case 0:
        break;
      case 1:
        before = gen.Disjunction(/*allow_nested=*/false) + " OR ";
        break;
      default:
        after = " OR " + gen.Disjunction(/*allow_nested=*/false);
        break;
    }
    const std::string left = select + " WHERE " + before + lhs + after;
    const std::string right = select + " WHERE " + before + rhs + after;
    SCOPED_TRACE(left + "\n  vs\n" + right);
    auto left_c = db->Query(left, canonical);
    auto right_c = db->Query(right, canonical);
    auto left_u = db->Query(left, unnested);
    auto right_u = db->Query(right, unnested);
    if (!left_c.ok() || !right_c.ok() || !left_u.ok() || !right_u.ok()) {
      ADD_FAILURE() << left_c.status().ToString() << " | "
                    << right_c.status().ToString() << " | "
                    << left_u.status().ToString() << " | "
                    << right_u.status().ToString();
      return skipped;
    }
    skipped = skipped || testing_util::SkipsDistinct(*left_u) ||
              testing_util::SkipsDistinct(*right_u);
    EXPECT_TRUE(RowMultisetsEqual(left_c->rows, right_c->rows))
        << "canonical: " << left_c->rows.size() << " vs "
        << right_c->rows.size() << " rows";
    EXPECT_TRUE(RowMultisetsEqual(left_u->rows, right_u->rows))
        << "unnested: " << left_u->rows.size() << " vs "
        << right_u->rows.size() << " rows";
    EXPECT_TRUE(RowMultisetsEqual(left_c->rows, left_u->rows))
        << "canonical vs unnested: " << left_c->rows.size() << " vs "
        << left_u->rows.size() << " rows\n" << left_u->optimized_plan;
  }
  return skipped;
}

class QuantifiedIdentityProperty : public ::testing::TestWithParam<int> {};

// 50 seeds × 200 pairs: 10,000 generated identity pairs at 20 % NULLs,
// on tables that each hold a few re-appended duplicate rows.
TEST_P(QuantifiedIdentityProperty, PairedTextsAgree) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  Database db;
  LoadSmallRst(&db, seed, 25, 30, 20, /*null_fraction=*/0.2);
  testing_util::AddDuplicateRows(&db, seed);
  CheckIdentityPairs(&db, seed, 200, "SELECT * FROM r", QueryOptions());
}

// 50 seeds × 100 pairs as DISTINCT texts on duplicate-free tables, where
// the uniqueness gate skips the top δ. Seed k runs unnested at point
// k mod 6 of the batch {1, 7, 1024} × threads {1, 4} matrix, so the
// seeds cover every point.
TEST_P(QuantifiedIdentityProperty, PairedTextsAgreeDuplicateFree) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  Database db;
  LoadSmallRst(&db, seed, 25, 30, 20, /*null_fraction=*/0.2,
               /*max_value=*/6, "", false, /*duplicate_free=*/true);
  const std::vector<QueryOptions> matrix = testing_util::BatchThreadMatrix();
  EXPECT_TRUE(CheckIdentityPairs(&db, seed, 100, "SELECT DISTINCT * FROM r",
                                 matrix[seed % matrix.size()]))
      << "no unnested plan skipped a δ";
}

INSTANTIATE_TEST_SUITE_P(Seeds, QuantifiedIdentityProperty,
                         ::testing::Range(0, 50));

}  // namespace
}  // namespace bypass
