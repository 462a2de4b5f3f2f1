// Tests of the per-query run context (exec/exec_context.h) that the main
// plan and every nested subplan share: each execution setting reaches the
// innermost block of a canonical nested-loop plan, and the ExecStats
// totals do not depend on the thread count now that serial runs, too,
// count into per-worker slots. Suites named ExecParallel* carry the
// parallel-exec ctest label, so the ThreadSanitizer sweep (-L parallel)
// runs them.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/database.h"
#include "query_corpus.h"
#include "test_util.h"

namespace bypass {
namespace {

using testing_util::CountDistinctStarQueries;
using testing_util::FixedBypassQueries;
using testing_util::IntRow;
using testing_util::IntSchema;
using testing_util::LeadingSimpleDisjunctQueries;
using testing_util::LoadSmallRst;
using testing_util::QueryGenerator;

QueryResult RunOk(Database* db, const std::string& sql,
                  const QueryOptions& options) {
  auto result = db->Query(sql, options);
  EXPECT_TRUE(result.ok()) << result.status().ToString() << "\nsql: " << sql;
  return result.ok() ? std::move(*result) : QueryResult();
}

// r → s → t, each block nested in the one before. Run canonically every
// block is an ExecSubplan; only the innermost block has a predicate the
// zone maps can decide (c1 < 2), and t is clustered on c1 in 8-row
// segments, so any skipped segment was skipped by the innermost block.
TEST(RunContext, SettingsReachInnermostBlock) {
  Database db;
  LoadSmallRst(&db, /*seed=*/11, /*rows_r=*/20, /*rows_s=*/25,
               /*rows_t=*/0);
  ASSERT_TRUE(db.catalog()->DropTable("t").ok());
  auto t = db.CreateTable("t", IntSchema({"c1", "c2", "c3", "c4"}));
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  std::vector<Row> rows;
  for (int64_t i = 0; i < 64; ++i) {
    rows.push_back(IntRow({i / 8, i % 7, i % 5, i % 3}));
  }
  ASSERT_TRUE((*t)->AppendUnchecked(std::move(rows)).ok());
  (*t)->set_segment_rows(8);

  const std::string sql =
      "SELECT * FROM r WHERE a1 = (SELECT COUNT(*) FROM s "
      "WHERE b1 = a2 OR b3 = (SELECT COUNT(*) FROM t "
      "WHERE c2 = b4 AND c1 < 2))";
  QueryOptions on;
  on.unnest = false;
  const QueryResult base = RunOk(&db, sql, on);
  EXPECT_GT(base.stats.subquery_executions, 0);
  EXPECT_GT(base.stats.columnar_batches, 0);
  EXPECT_GT(base.stats.segments_skipped, 0);

  QueryOptions no_columnar = on;
  no_columnar.enable_columnar = false;
  const QueryResult row_mode = RunOk(&db, sql, no_columnar);
  EXPECT_EQ(row_mode.stats.columnar_batches, 0);
  EXPECT_EQ(row_mode.stats.subquery_executions,
            base.stats.subquery_executions);
  EXPECT_TRUE(RowMultisetsEqual(row_mode.rows, base.rows));

  QueryOptions no_zones = on;
  no_zones.enable_zone_maps = false;
  const QueryResult unzoned = RunOk(&db, sql, no_zones);
  EXPECT_EQ(unzoned.stats.segments_skipped, 0);
  EXPECT_EQ(unzoned.stats.subquery_executions,
            base.stats.subquery_executions);
  EXPECT_TRUE(RowMultisetsEqual(unzoned.rows, base.rows));
}

/// Runs `sql` at 1 and at 4 threads (tiny morsels, so even these small
/// tables split across workers) and expects equal ExecStats totals.
void ExpectStatsThreadInvariant(Database* db, const std::string& sql,
                                bool unnest) {
  QueryOptions serial;
  serial.unnest = unnest;
  serial.morsel_size = 4;
  QueryOptions threaded = serial;
  threaded.num_threads = 4;
  auto one = db->Query(sql, serial);
  auto four = db->Query(sql, threaded);
  ASSERT_EQ(one.ok(), four.ok()) << sql;
  if (!one.ok()) return;  // both rejected the text alike
  const ExecStats& a = one->stats;
  const ExecStats& b = four->stats;
  EXPECT_EQ(a.rows_scanned, b.rows_scanned) << sql << "\nunnest " << unnest;
  EXPECT_EQ(a.subquery_executions, b.subquery_executions)
      << sql << "\nunnest " << unnest;
  EXPECT_EQ(a.segments_scanned, b.segments_scanned)
      << sql << "\nunnest " << unnest;
  EXPECT_EQ(a.segments_skipped, b.segments_skipped)
      << sql << "\nunnest " << unnest;
}

TEST(ExecParallelStats, TotalsDoNotDependOnThreadCount) {
  Database db;
  LoadSmallRst(&db, /*seed=*/23, 25, 30, 20, /*null_fraction=*/0.1);
  for (const char* name : {"r", "s", "t"}) {
    auto table = db.catalog()->GetTable(name);
    ASSERT_TRUE(table.ok());
    (*table)->set_segment_rows(4);
  }
  std::vector<std::string> corpus = FixedBypassQueries();
  for (const auto* list :
       {&CountDistinctStarQueries(), &LeadingSimpleDisjunctQueries()}) {
    corpus.insert(corpus.end(), list->begin(), list->end());
  }
  QueryGenerator gen(/*seed=*/97);
  for (int i = 0; i < 10; ++i) corpus.push_back(gen.Generate());
  for (const std::string& sql : corpus) {
    SCOPED_TRACE(sql);
    ExpectStatsThreadInvariant(&db, sql, /*unnest=*/false);
    ExpectStatsThreadInvariant(&db, sql, /*unnest=*/true);
  }
}

}  // namespace
}  // namespace bypass
