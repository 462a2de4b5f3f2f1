// Differential test for batch execution: every query must produce a
// multiset-identical result at every batch size. batch_size = 1
// degenerates to row-at-a-time execution and serves as the oracle; the
// suite replays the shared query corpus (random grammar + fixed bypass /
// DAG shapes) at batch sizes {2, 7, 1024} — a size that splits every
// batch, a prime that misaligns batch boundaries with table sizes, and
// the production default — under both canonical and unnested plans.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/database.h"
#include "query_corpus.h"
#include "test_util.h"

namespace bypass {
namespace {

using testing_util::FixedBypassQueries;
using testing_util::LoadSmallRst;
using testing_util::QueryGenerator;

constexpr size_t kBatchSizes[] = {2, 7, 1024};

/// Runs `sql` with batch_size = 1 as the oracle, then at each batch size,
/// and asserts multiset-equal rows every time.
void ExpectBatchSizeInvariant(Database* db, const std::string& sql,
                              bool unnest) {
  QueryOptions oracle_opts;
  oracle_opts.unnest = unnest;
  oracle_opts.batch_size = 1;
  auto oracle = db->Query(sql, oracle_opts);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString() << "\nsql: " << sql;

  for (size_t batch_size : kBatchSizes) {
    QueryOptions opts;
    opts.unnest = unnest;
    opts.batch_size = batch_size;
    auto got = db->Query(sql, opts);
    ASSERT_TRUE(got.ok()) << got.status().ToString() << "\nsql: " << sql
                          << "\nbatch_size: " << batch_size;
    EXPECT_TRUE(RowMultisetsEqual(oracle->rows, got->rows))
        << "batch size changed the result\nsql: " << sql
        << "\nunnest: " << unnest << "\nbatch_size: " << batch_size
        << "\noracle rows: " << oracle->rows.size()
        << "\ngot rows: " << got->rows.size() << "\nplan:\n"
        << got->physical_plan;
  }
}

TEST(BatchDifferential, FixedBypassQueries) {
  Database db;
  LoadSmallRst(&db, /*seed=*/42, 25, 30, 20);
  for (const std::string& sql : FixedBypassQueries()) {
    SCOPED_TRACE(sql);
    ExpectBatchSizeInvariant(&db, sql, /*unnest=*/false);
    ExpectBatchSizeInvariant(&db, sql, /*unnest=*/true);
  }
}

// The bypass/DAG plans must also be batch-size invariant over data with
// NULLs, where σ± routing sends UNKNOWN rows down the null stream.
TEST(BatchDifferential, FixedBypassQueriesWithNulls) {
  Database db;
  LoadSmallRst(&db, /*seed=*/7, 25, 30, 20, /*null_fraction=*/0.2);
  for (const std::string& sql : FixedBypassQueries()) {
    SCOPED_TRACE(sql);
    ExpectBatchSizeInvariant(&db, sql, /*unnest=*/false);
    ExpectBatchSizeInvariant(&db, sql, /*unnest=*/true);
  }
}

// ------------------------------------------------------------------------
// Parallel differential sweep: the morsel-parallel executor must produce
// multiset-identical results to the serial engine for every thread count.
// num_threads = 1 is the oracle (bit-for-bit the pre-parallelism code
// path); the sweep crosses thread counts with batch sizes, using a tiny
// morsel size so even the small test tables split into many morsels.

constexpr int kThreadCounts[] = {2, 4, 8};
constexpr size_t kParallelBatchSizes[] = {7, 1024};
constexpr size_t kTinyMorselSize = 5;

void ExpectThreadCountInvariant(Database* db, const std::string& sql,
                                bool unnest) {
  QueryOptions oracle_opts;
  oracle_opts.unnest = unnest;
  oracle_opts.num_threads = 1;
  auto oracle = db->Query(sql, oracle_opts);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString() << "\nsql: " << sql;

  for (int num_threads : kThreadCounts) {
    for (size_t batch_size : kParallelBatchSizes) {
      QueryOptions opts;
      opts.unnest = unnest;
      opts.num_threads = num_threads;
      opts.batch_size = batch_size;
      opts.morsel_size = kTinyMorselSize;
      auto got = db->Query(sql, opts);
      ASSERT_TRUE(got.ok()) << got.status().ToString() << "\nsql: " << sql
                            << "\nnum_threads: " << num_threads
                            << "\nbatch_size: " << batch_size;
      EXPECT_TRUE(RowMultisetsEqual(oracle->rows, got->rows))
          << "thread count changed the result\nsql: " << sql
          << "\nunnest: " << unnest << "\nnum_threads: " << num_threads
          << "\nbatch_size: " << batch_size
          << "\noracle rows: " << oracle->rows.size()
          << "\ngot rows: " << got->rows.size() << "\nplan:\n"
          << got->physical_plan;
    }
  }
}

TEST(ParallelDifferential, FixedBypassQueries) {
  Database db;
  LoadSmallRst(&db, /*seed=*/42, 25, 30, 20);
  for (const std::string& sql : FixedBypassQueries()) {
    SCOPED_TRACE(sql);
    ExpectThreadCountInvariant(&db, sql, /*unnest=*/false);
    ExpectThreadCountInvariant(&db, sql, /*unnest=*/true);
  }
}

TEST(ParallelDifferential, FixedBypassQueriesWithNulls) {
  Database db;
  LoadSmallRst(&db, /*seed=*/7, 25, 30, 20, /*null_fraction=*/0.2);
  for (const std::string& sql : FixedBypassQueries()) {
    SCOPED_TRACE(sql);
    ExpectThreadCountInvariant(&db, sql, /*unnest=*/false);
    ExpectThreadCountInvariant(&db, sql, /*unnest=*/true);
  }
}

// COUNT(DISTINCT *) texts, whose groupings count over a δ: every batch
// size × threads {1, 4} must reproduce the canonical row-at-a-time result
// on NULL-heavy data full of duplicate rows.
TEST(ParallelDifferential, CountDistinctStarOverDelta) {
  Database db;
  LoadSmallRst(&db, /*seed=*/19, 30, 60, 40, /*null_fraction=*/0.4,
               /*max_value=*/2);
  for (const std::string& sql : testing_util::CountDistinctStarQueries()) {
    SCOPED_TRACE(sql);
    QueryOptions oracle_opts;
    oracle_opts.unnest = false;
    oracle_opts.batch_size = 1;
    auto oracle = db.Query(sql, oracle_opts);
    ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
    for (int num_threads : {1, 4}) {
      for (size_t batch_size : {size_t{1}, size_t{7}, size_t{1024}}) {
        QueryOptions opts;
        opts.num_threads = num_threads;
        opts.batch_size = batch_size;
        opts.morsel_size = kTinyMorselSize;
        auto got = db.Query(sql, opts);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        EXPECT_TRUE(RowMultisetsEqual(oracle->rows, got->rows))
            << "num_threads " << num_threads << ", batch_size "
            << batch_size << "\nplan:\n" << got->physical_plan;
      }
    }
  }
}

// k = 2..5 leading simple disjuncts ahead of a scalar block unnest to a
// σ± cascade k levels deep; every level must route rows exactly like the
// canonical row-at-a-time plan at batch {1, 7, 1024} × threads {1, 4},
// also when UNKNOWN disjuncts send NULL-heavy rows down the negative
// streams.
TEST(ParallelDifferential, LeadingSimpleDisjunctCascades) {
  struct Instance {
    uint64_t seed;
    double null_fraction;
  };
  for (const Instance inst : {Instance{1, 0.0}, Instance{7, 0.0},
                              Instance{11, 0.3}}) {
    SCOPED_TRACE("seed " + std::to_string(inst.seed));
    Database db;
    LoadSmallRst(&db, inst.seed, 40, 30, 20, inst.null_fraction);
    const auto& queries = testing_util::LeadingSimpleDisjunctQueries();
    for (size_t q = 0; q < queries.size(); ++q) {
      const std::string& sql = queries[q];
      SCOPED_TRACE(sql);
      QueryOptions oracle_opts;
      oracle_opts.unnest = false;
      oracle_opts.batch_size = 1;
      auto oracle = db.Query(sql, oracle_opts);
      ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
      for (int num_threads : {1, 4}) {
        for (size_t batch_size : {size_t{1}, size_t{7}, size_t{1024}}) {
          QueryOptions opts;
          opts.num_threads = num_threads;
          opts.batch_size = batch_size;
          opts.morsel_size = kTinyMorselSize;
          auto got = db.Query(sql, opts);
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          // Guard against a vacuous pass: k simple disjuncts give k σ±.
          size_t splits = 0;
          for (size_t at = got->optimized_plan.find("BypassSelect");
               at != std::string::npos;
               at = got->optimized_plan.find("BypassSelect", at + 1)) {
            ++splits;
          }
          EXPECT_GE(splits, q + 2) << got->optimized_plan;
          EXPECT_TRUE(RowMultisetsEqual(oracle->rows, got->rows))
              << "num_threads " << num_threads << ", batch_size "
              << batch_size << "\nplan:\n" << got->physical_plan;
        }
      }
    }
  }
}

// One PreparedQuery re-executed under different thread counts must keep
// producing the serial result (the pool, per-worker slots, and memo
// caches are rebuilt per Execute).
TEST(ParallelDifferential, PreparedQueryThreadCountSweep) {
  Database db;
  LoadSmallRst(&db, /*seed=*/11, 25, 30, 20, /*null_fraction=*/0.1);
  for (const std::string& sql : FixedBypassQueries()) {
    SCOPED_TRACE(sql);
    QueryOptions options;
    options.unnest = true;
    options.morsel_size = kTinyMorselSize;
    auto prepared = db.Prepare(sql, options);
    ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
    auto oracle = prepared->Execute();
    ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
    for (int num_threads : {4, 2, 8, 1}) {
      QueryOptions run = options;
      run.num_threads = num_threads;
      auto got = prepared->Execute(run);
      ASSERT_TRUE(got.ok()) << got.status().ToString()
                            << "\nnum_threads: " << num_threads;
      EXPECT_TRUE(RowMultisetsEqual(oracle->rows, got->rows))
          << "re-execution changed the result\nsql: " << sql
          << "\nnum_threads: " << num_threads;
    }
  }
}

class ParallelDifferentialRandom : public ::testing::TestWithParam<int> {};

TEST_P(ParallelDifferentialRandom, CorpusIsThreadCountInvariant) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  Database db;
  // NULL-free data: the random grammar includes IN/EXISTS shapes whose
  // rewrites assume two-valued comparisons (see DESIGN.md).
  LoadSmallRst(&db, seed, 25, 30, 20);
  QueryGenerator generator(seed * 151 + 9);
  for (int i = 0; i < 2; ++i) {
    const std::string sql = generator.Generate();
    SCOPED_TRACE(sql);
    ExpectThreadCountInvariant(&db, sql, /*unnest=*/false);
    ExpectThreadCountInvariant(&db, sql, /*unnest=*/true);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelDifferentialRandom,
                         ::testing::Range(3000, 3008));

class BatchDifferentialRandom : public ::testing::TestWithParam<int> {};

TEST_P(BatchDifferentialRandom, CorpusIsBatchSizeInvariant) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  Database db;
  // NULL-free data: the random grammar includes IN/EXISTS shapes whose
  // rewrites assume two-valued comparisons (see DESIGN.md).
  LoadSmallRst(&db, seed, 25, 30, 20);
  QueryGenerator generator(seed * 131 + 3);
  for (int i = 0; i < 3; ++i) {
    const std::string sql = generator.Generate();
    SCOPED_TRACE(sql);
    ExpectBatchSizeInvariant(&db, sql, /*unnest=*/false);
    ExpectBatchSizeInvariant(&db, sql, /*unnest=*/true);
  }
  const std::string sql = generator.GenerateWithSelectClause();
  SCOPED_TRACE(sql);
  ExpectBatchSizeInvariant(&db, sql, /*unnest=*/false);
  ExpectBatchSizeInvariant(&db, sql, /*unnest=*/true);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchDifferentialRandom,
                         ::testing::Range(2000, 2012));

}  // namespace
}  // namespace bypass
