// Differential suite for join-output pruning (DESIGN.md §16): joins gather
// only the columns their consumers read, buffer build rows narrowed to
// keys plus kept columns, and build inner equi joins on the smaller
// input. Every query must return the canonical evaluator's multiset (and
// schema) across batch size × threads × codegen × memory budget, on
// NULL-heavy RST data and TPC-H. The shapes that stress the pass: a
// shared σ± whose streams read different columns, a residual that reads
// a column no consumer keeps, a correlated reference under the canonical
// strategy, SELECT * order through a swapped build side, Eqv. 5 (the θ
// join and the "θ not TRUE" join over σp(S) unioned under binary
// grouping), and Eqv. 1 grouping S ⋉ K (K: the stream's correlation
// values) with NULL keys, absent keys, two keys and every placement.
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "codegen/codegen_engine.h"
#include "engine/database.h"
#include "query_corpus.h"
#include "test_util.h"
#include "workload/tpch.h"

namespace bypass {
namespace {

using testing_util::FixedBypassQueries;
using testing_util::LoadSmallRst;

/// A budget at which every query below still completes (result
/// collection, grouping and the outer/existence joins cannot spill)
/// while the part ⋈ partsupp build sides overflow into Grace partitions.
/// Build sides charge the bytes of their buffered columns.
constexpr size_t kTightBudget = 128 * 1024;

/// Eqv. 1 texts whose Γ groups S ⋉ K (K: the stream's correlation
/// values), over the wide-domain rw/sw/tw tables with NULLs on both
/// sides; KeyReductionTextsReduceS checks the gate applies on each.
std::vector<std::string> KeyReductionQueries() {
  return {
      // NULL outer keys.
      "SELECT a1, a2, a3 FROM rw "
      "WHERE a3 < (SELECT MAX(b3) FROM sw WHERE b2 = a2)",
      // NULL inner keys; the stream is σ±'s negative port.
      "SELECT a1, a2 FROM rw WHERE a1 > (SELECT SUM(b3) FROM sw "
      "WHERE a2 = b2) OR a4 > 250",
      // COUNT(*) over keys absent from S: 0, not NULL.
      "SELECT a1, a2 FROM rw "
      "WHERE (SELECT COUNT(*) FROM sw WHERE b2 = a2 + 150) = 0",
      // A two-key correlation over a self-join: every non-NULL
      // (b2, b4) pair finds at least itself.
      "SELECT x.b1, x.b2 FROM sw AS x WHERE x.b1 < 3 AND "
      "(SELECT COUNT(*) FROM sw WHERE sw.b2 = x.b2 AND sw.b4 = x.b4) = 1",
      // The key owned by the second join input.
      "SELECT a1, a2 FROM rw WHERE a3 <= "
      "(SELECT MAX(c3) FROM tw, sw WHERE c2 = b3 AND b2 = a2)",
      // S as a bare Get.
      "SELECT * FROM rw "
      "WHERE a1 > (SELECT AVG(b4) FROM sw WHERE b2 = a2)",
      // A computed key: the semijoin sits directly under Γ.
      "SELECT a1, a2 FROM rw "
      "WHERE a3 > (SELECT MIN(b3) FROM sw WHERE b2 + 1 = a2)",
  };
}

std::vector<std::string> PruningQueries() {
  std::vector<std::string> queries = {TpchQuery2d(), TpchQuery2()};
  for (const std::string& q : FixedBypassQueries()) queries.push_back(q);
  const std::vector<std::string> shapes = {
      // Eqv. 5: the θ hash join and the "θ not TRUE" join over σp(S)
      // under binary grouping, whole rows and a narrowed output.
      "SELECT DISTINCT * FROM r WHERE a1 = (SELECT COUNT(DISTINCT b3) "
      "FROM s WHERE a2 = b2 OR b4 > 3)",
      "SELECT a3 FROM r WHERE a1 = (SELECT COUNT(DISTINCT b3) FROM s "
      "WHERE a2 = b2 OR b4 > 3)",
      // Eqv. 5 on the linear query (paper Q4): p's block is unnested on
      // σp(S); and a non-equi θ, where both joins are nested-loop.
      "SELECT DISTINCT * FROM r WHERE a1 = (SELECT COUNT(DISTINCT *) "
      "FROM s WHERE a2 = b2 OR b3 = (SELECT COUNT(DISTINCT *) FROM t "
      "WHERE b4 = c2))",
      "SELECT a2, a3 FROM r WHERE a1 >= (SELECT COUNT(DISTINCT b4) "
      "FROM s WHERE a2 <= b2 OR b4 > 3)",
      // Shared σ±: the positive stream reads a3 only, the negative one
      // also a1/a2 for the unnested block.
      "SELECT a3 FROM r WHERE a4 > 4 OR "
      "a1 = (SELECT MIN(b3) FROM s WHERE b2 = a2)",
      // Residual conjunct over columns no consumer keeps.
      "SELECT r.a1, s.b4 FROM r, s WHERE r.a2 = s.b2 AND r.a3 < s.b3",
      // SELECT * order with a filtered (smaller, build-side) left input.
      "SELECT * FROM r, s WHERE r.a2 = s.b2 AND r.a4 > 5",
      // Three-way join whose middle output keeps one column per side.
      "SELECT r.a1, t.c4 FROM r, s, t WHERE r.a2 = s.b2 AND s.b3 = t.c3",
      // Cross product and a non-equi join.
      "SELECT r.a1, t.c1 FROM r, t WHERE r.a4 > 5 AND t.c4 < 1",
      "SELECT r.a1, s.b1 FROM r, s WHERE r.a2 < s.b2 AND s.b4 = 3",
      // Large build sides (spill under the tight budget), one with a
      // residual over columns the output does not keep.
      "SELECT p_size, COUNT(*), MIN(ps_supplycost) FROM part, partsupp "
      "WHERE p_partkey = ps_partkey GROUP BY p_size",
      "SELECT p_size, COUNT(*) FROM part, partsupp WHERE p_partkey = "
      "ps_partkey AND p_retailprice > ps_supplycost GROUP BY p_size",
      // Semi and anti joins keyed on a2 = b2 with a residual, and the
      // correlated NOT IN's NULL-aware residual OR.
      "SELECT * FROM r WHERE EXISTS (SELECT * FROM s WHERE a2 = b2 "
      "AND a3 < b3) OR a4 > 3",
      "SELECT a1, a3 FROM r WHERE NOT EXISTS (SELECT * FROM s "
      "WHERE a2 = b2 AND a3 < b3) OR a4 > 3",
      "SELECT a1 FROM r WHERE a1 NOT IN (SELECT b1 FROM s WHERE a2 = b2) "
      "OR a4 > 5",
  };
  queries.insert(queries.end(), shapes.begin(), shapes.end());
  for (const std::string& q : KeyReductionQueries()) queries.push_back(q);
  return queries;
}

void LoadPruningData(Database* db) {
  TpchOptions tpch;
  tpch.scale_factor = 0.01;
  ASSERT_TRUE(LoadTpch(db, tpch).ok());
  LoadSmallRst(db, 1301, 70, 50, 30, /*null_fraction=*/0.25);
  LoadSmallRst(db, 1302, 20, 4000, 1500, /*null_fraction=*/0.25,
               /*max_value=*/299, /*suffix=*/"w");
  ASSERT_TRUE(db->AnalyzeAll().ok());
}

void ExpectSameSchema(const Schema& got, const Schema& want,
                      const std::string& sql) {
  ASSERT_EQ(got.num_columns(), want.num_columns()) << sql;
  for (int i = 0; i < got.num_columns(); ++i) {
    EXPECT_EQ(got.column(i).name, want.column(i).name)
        << "column " << i << "\nsql: " << sql;
    EXPECT_EQ(got.column(i).qualifier, want.column(i).qualifier)
        << "column " << i << "\nsql: " << sql;
  }
}

using PruningParam = std::tuple<size_t, int, bool, bool>;

class JoinPruningDifferential
    : public ::testing::TestWithParam<PruningParam> {};

TEST_P(JoinPruningDifferential, MatchesCanonical) {
  const auto [batch_size, num_threads, codegen, tight] = GetParam();
  Database db;
  LoadPruningData(&db);
  if (codegen && (!CodegenEngine::BuiltWithCodegen() ||
                  !db.codegen_engine()->Available())) {
    GTEST_SKIP() << "codegen tier unavailable on this build/host";
  }
  QueryOptions opts = QueryOptions::With(ExecutionStrategy::kUnnested);
  opts.batch_size = batch_size;
  opts.num_threads = num_threads;
  opts.morsel_size = 64;  // split even the small tables across workers
  opts.enable_codegen = codegen;
  opts.codegen_synchronous = true;
  if (tight) opts.memory_budget_bytes = kTightBudget;

  int64_t spilled_bytes = 0;
  for (const std::string& sql : PruningQueries()) {
    auto oracle =
        db.Query(sql, QueryOptions::With(ExecutionStrategy::kCanonical));
    ASSERT_TRUE(oracle.ok()) << oracle.status().ToString() << "\n" << sql;
    auto got = db.Query(sql, opts);
    ASSERT_TRUE(got.ok()) << got.status().ToString() << "\n" << sql;
    ExpectSameSchema(got->schema, oracle->schema, sql);
    EXPECT_TRUE(RowMultisetsEqual(got->rows, oracle->rows))
        << "unnested plan disagrees with the canonical evaluator\nsql: "
        << sql << "\nrows: " << got->rows.size() << " vs "
        << oracle->rows.size();
    spilled_bytes += got->stats.spilled_bytes;
  }
  if (tight) {
    EXPECT_GT(spilled_bytes, 0) << "the tight budget never spilled";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, JoinPruningDifferential,
    ::testing::Combine(::testing::Values<size_t>(1, 7, 1024),
                       ::testing::Values(1, 4), ::testing::Bool(),
                       ::testing::Bool()),
    [](const auto& info) {
      return "batch" + std::to_string(std::get<0>(info.param)) + "_t" +
             std::to_string(std::get<1>(info.param)) +
             (std::get<2>(info.param) ? "_codegen" : "_interp") +
             (std::get<3>(info.param) ? "_budget" : "_unlimited");
    });

// A correlated reference is the only reader of r.a3 above the join; the
// canonical plan must keep it in the join output for the nested block.
TEST(JoinPruning, OuterReferenceSurvivesUnderCanonical) {
  Database db;
  LoadPruningData(&db);
  const std::string sql =
      "SELECT r.a1 FROM r, s WHERE r.a2 = s.b2 AND "
      "(r.a4 > 4 OR r.a1 = (SELECT COUNT(*) FROM t WHERE t.c2 = r.a3))";
  for (ExecutionStrategy strategy :
       {ExecutionStrategy::kCanonical, ExecutionStrategy::kCanonicalMemo}) {
    auto canonical = db.Query(sql, QueryOptions::With(strategy));
    ASSERT_TRUE(canonical.ok()) << canonical.status().ToString();
    auto unnested =
        db.Query(sql, QueryOptions::With(ExecutionStrategy::kUnnested));
    ASSERT_TRUE(unnested.ok()) << unnested.status().ToString();
    EXPECT_FALSE(canonical->rows.empty());
    EXPECT_TRUE(RowMultisetsEqual(canonical->rows, unnested->rows));
  }
  auto explain =
      db.Explain(sql, QueryOptions::With(ExecutionStrategy::kCanonical));
  ASSERT_TRUE(explain.ok()) << explain.status().ToString();
  // r.a1, r.a3 (the outer reference) and r.a4 (the other disjunct).
  EXPECT_NE(explain->find("HashJoin [build=right, keep 3/8]"),
            std::string::npos)
      << *explain;
}

TEST(JoinPruning, SelectStarKeepsLogicalColumnOrder) {
  Database db;
  LoadPruningData(&db);
  const std::string sql =
      "SELECT * FROM r, s WHERE r.a2 = s.b2 AND r.a4 > 5";
  auto got = db.Query(sql);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  const std::vector<std::string> want = {"a1", "a2", "a3", "a4",
                                         "b1", "b2", "b3", "b4"};
  ASSERT_EQ(got->schema.num_columns(), 8);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(got->schema.column(i).name, want[static_cast<size_t>(i)]);
  }
  // The filtered r is the smaller input, so the join builds on it while
  // still emitting r's columns first.
  auto explain = db.Explain(sql);
  ASSERT_TRUE(explain.ok());
  EXPECT_NE(explain->find("HashJoin [build=left, keep 8/8]"),
            std::string::npos)
      << *explain;
  for (const Row& row : got->rows) {
    ASSERT_EQ(row.size(), 8u);
    EXPECT_TRUE(row[1].StructurallyEquals(row[5]));  // a2 = b2
    EXPECT_GT(row[3].int64_value(), 5);              // a4 > 5
  }
}

TEST(JoinPruning, KeyReductionTextsReduceS) {
  Database db;
  LoadPruningData(&db);
  for (const std::string& sql : KeyReductionQueries()) {
    auto explain = db.Explain(sql);
    ASSERT_TRUE(explain.ok()) << explain.status().ToString();
    EXPECT_NE(explain->find("Eqv.1 key reduction applied"),
              std::string::npos)
        << *explain;
    EXPECT_NE(explain->find("HashSemiJoin [keys "), std::string::npos)
        << *explain;
  }
}

// Q2d at SF 0.01: the correlated block's three joins keep at most the
// three columns its group-by and join keys read, and the outer block
// builds on the filtered part input rather than partsupp. The block's
// partsupp is reduced to the probed part keys (Eqv. 1's S ⋉ K), so its
// joins with supplier and nation build on that smaller left side.
TEST(JoinPruning, Q2dExplainShowsNarrowJoinsAndBuildSides) {
  Database db;
  TpchOptions tpch;
  tpch.scale_factor = 0.01;
  ASSERT_TRUE(LoadTpch(&db, tpch).ok());
  ASSERT_TRUE(db.AnalyzeAll().ok());
  auto explain = db.Explain(TpchQuery2d());
  ASSERT_TRUE(explain.ok()) << explain.status().ToString();
  const std::string& text = *explain;
  EXPECT_NE(text.find("HashSemiJoin [keys l0=r0]"), std::string::npos)
      << text;
  EXPECT_NE(text.find("HashJoin [build=left, keep 3/12]"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("HashJoin [build=left, keep 3/16]"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("HashJoin [build=right, keep 2/19]"),
            std::string::npos)
      << text;
  // part (9 columns) ⋈ partsupp (5): built on the filtered part side.
  EXPECT_NE(text.find("HashJoin [build=left, keep 5/14]"),
            std::string::npos)
      << text;
}

}  // namespace
}  // namespace bypass
