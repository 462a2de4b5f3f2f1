// Differential tests for hash joins and groupings under enable_codegen
// (DESIGN.md §12): compiled pipelines are scan-rooted σ/σ± chains only,
// so a join or a grouping stays interpreted and consumes a compiled
// chain's output (or, with no filter under it, the bare scan's). Both
// must agree with the interpreted oracle — across batch sizes
// {1, 2, 7, 1024}, NULL-heavy 3VL join/group keys, the morsel-parallel
// executor, and the async compile + mid-stream swap-in. Every query
// states whether a chain compiles under it: a filtered input must run
// compiled code with no per-batch fallback (so a silently-declined
// lowering cannot pass vacuously), and an unfiltered one must install
// no pipeline at all (joins and groupings are never compiled).
#include <chrono>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "codegen/codegen_engine.h"
#include "codegen/install.h"
#include "engine/database.h"
#include "exec/filter.h"
#include "exec/join.h"
#include "test_util.h"
#include "workload/tpch.h"

namespace bypass {
namespace {

using testing_util::LoadSmallRst;

QueryOptions JoinAggOptions(size_t batch_size = 1024, int num_threads = 1) {
  QueryOptions opts = QueryOptions::With(ExecutionStrategy::kUnnested);
  opts.enable_codegen = true;
  opts.codegen_synchronous = true;  // deterministic: compiled on first run
  opts.batch_size = batch_size;
  opts.num_threads = num_threads;
  opts.morsel_size = 8;  // split even the small test tables
  return opts;
}

#define REQUIRE_CODEGEN(db)                                          \
  do {                                                               \
    if (!CodegenEngine::BuiltWithCodegen() ||                        \
        !(db).codegen_engine()->Available()) {                       \
      GTEST_SKIP() << "codegen tier unavailable on this build/host"; \
    }                                                                \
  } while (0)

/// A query and whether a filter chain under its join or grouping
/// compiles.
struct JoinAggQuery {
  const char* sql;
  bool compiles;
};

/// Runs `sql` with codegen on and off under otherwise-identical options
/// and asserts multiset-equal rows. With `compiles`, a chain must have
/// been installed and served every batch (the build side finishes
/// before the probe side starts, and synchronous compilation leaves no
/// window for a fallback); without, nothing may be installed.
void ExpectJoinAggAgrees(Database* db, const JoinAggQuery& q,
                         QueryOptions opts) {
  const std::string sql = q.sql;
  auto prepared = db->Prepare(sql, opts);
  ASSERT_TRUE(prepared.ok())
      << prepared.status().ToString() << "\nsql: " << sql;
  auto compiled = prepared->Execute(opts);
  ASSERT_TRUE(compiled.ok())
      << compiled.status().ToString() << "\nsql: " << sql;

  QueryOptions interp = opts;
  interp.enable_codegen = false;
  auto oracle = db->Query(sql, interp);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString() << "\nsql: " << sql;

  if (q.compiles) {
    EXPECT_GT(prepared->compiled_pipelines(), 0)
        << "no pipeline was compiled\nsql: " << sql;
    EXPECT_GT(compiled->stats.compiled_batches, 0)
        << "compiled code never ran\nsql: " << sql;
  } else {
    EXPECT_EQ(prepared->compiled_pipelines(), 0)
        << "a pipeline without a filter chain was compiled\nsql: " << sql;
    EXPECT_EQ(compiled->stats.compiled_batches, 0) << "sql: " << sql;
  }
  EXPECT_EQ(compiled->stats.compiled_fallback_batches, 0)
      << "unexpected per-batch fallback\nsql: " << sql;
  EXPECT_TRUE(RowMultisetsEqual(compiled->rows, oracle->rows))
      << "compiled and interpreted plans disagree\nsql: " << sql
      << "\ncompiled rows: " << compiled->rows.size()
      << "\ninterpreted rows: " << oracle->rows.size();
}

// Hash joins over bare or filtered scans.
const JoinAggQuery kJoinQueries[] = {
    {"SELECT * FROM r, s WHERE a1 = b1", false},
    {"SELECT * FROM r, s WHERE a1 = b1 AND a2 > 2", true},
    {"SELECT * FROM r, s WHERE a1 = b1 AND (a2 > 2 OR a3 < 4)", true},
    {"SELECT * FROM r, s WHERE a1 = b1 AND b2 <> 3", true},
};

// Single-key groupings: COUNT/SUM/MIN/MAX/AVG over int64 arguments,
// with and without filters.
const JoinAggQuery kGroupQueries[] = {
    {"SELECT a1, COUNT(*) FROM r GROUP BY a1", false},
    {"SELECT a1, COUNT(*), SUM(a2), AVG(a2), MIN(a3), MAX(a4) FROM r "
     "GROUP BY a1",
     false},
    {"SELECT a2, SUM(a1), COUNT(a3) FROM r WHERE a3 > 1 GROUP BY a2", true},
    {"SELECT a1, MIN(a2), MAX(a2) FROM r WHERE a2 > 0 OR a4 < 5 "
     "GROUP BY a1",
     true},
};

// A grouping over a join (group key and aggregate arguments from r).
const JoinAggQuery kJoinGroupQueries[] = {
    {"SELECT a1, COUNT(*) FROM r, s WHERE a1 = b1 GROUP BY a1", false},
    {"SELECT a1, COUNT(*), SUM(a2) FROM r, s WHERE a1 = b1 AND a2 > 1 "
     "GROUP BY a1",
     true},
    {"SELECT a2, SUM(a3), MIN(a4) FROM r, s WHERE a1 = b1 GROUP BY a2",
     false},
    {"SELECT a2, SUM(a3), MIN(a4) FROM r, s WHERE a1 = b1 AND b2 <> 3 "
     "GROUP BY a2",
     true},
};

// Narrowed joins (DESIGN.md §16): the join gathers only the columns
// above it read (the probe key a1 itself is not kept), so the compiled
// chain's batches reach a gather spec.
struct NarrowShape {
  JoinAggQuery query;
  const char* keep;  // the join's label suffix in the physical plan
};
const NarrowShape kNarrowShapes[] = {
    {{"SELECT a2, b3 FROM r, s WHERE a1 = b1", false}, "keep 2/8]"},
    {{"SELECT a3 FROM r, s WHERE a1 = b1 AND a2 > 2", true}, "keep 1/8]"},
    {{"SELECT a2, SUM(a3), MIN(a4) FROM r, s WHERE a1 = b1 GROUP BY a2",
      false},
     "keep 3/8]"},
    {{"SELECT g.a1, g.c, s.b2 FROM (SELECT a1, COUNT(*) AS c FROM r "
      "GROUP BY a1) AS g, s WHERE g.a1 = s.b1",
      false},
     "keep 3/6]"},
};

// ------------------------------------------------ differential sweeps

class CodegenDifferentialJoinAgg
    : public ::testing::TestWithParam<std::tuple<size_t, double>> {};

TEST_P(CodegenDifferentialJoinAgg, JoinProbeMatchesInterpreter) {
  const auto [batch_size, null_fraction] = GetParam();
  Database db;
  LoadSmallRst(&db, 110, 60, 30, 15, null_fraction);
  REQUIRE_CODEGEN(db);
  for (const JoinAggQuery& q : kJoinQueries) {
    ExpectJoinAggAgrees(&db, q, JoinAggOptions(batch_size));
  }
}

TEST_P(CodegenDifferentialJoinAgg, GroupByMatchesInterpreter) {
  const auto [batch_size, null_fraction] = GetParam();
  Database db;
  LoadSmallRst(&db, 111, 60, 30, 15, null_fraction);
  REQUIRE_CODEGEN(db);
  for (const JoinAggQuery& q : kGroupQueries) {
    ExpectJoinAggAgrees(&db, q, JoinAggOptions(batch_size));
  }
}

TEST_P(CodegenDifferentialJoinAgg, JoinGroupByMatchesInterpreter) {
  const auto [batch_size, null_fraction] = GetParam();
  Database db;
  LoadSmallRst(&db, 112, 60, 30, 15, null_fraction);
  REQUIRE_CODEGEN(db);
  for (const JoinAggQuery& q : kJoinGroupQueries) {
    ExpectJoinAggAgrees(&db, q, JoinAggOptions(batch_size));
  }
}

TEST_P(CodegenDifferentialJoinAgg, NarrowedJoinsMatchInterpreter) {
  const auto [batch_size, null_fraction] = GetParam();
  Database db;
  LoadSmallRst(&db, 119, 60, 30, 15, null_fraction);
  REQUIRE_CODEGEN(db);
  for (const NarrowShape& shape : kNarrowShapes) {
    auto explain = db.Explain(shape.query.sql, JoinAggOptions(batch_size));
    ASSERT_TRUE(explain.ok()) << explain.status().ToString();
    EXPECT_NE(explain->find(shape.keep), std::string::npos)
        << "join was not narrowed as expected\n" << *explain;
    ExpectJoinAggAgrees(&db, shape.query, JoinAggOptions(batch_size));
  }
}

INSTANTIATE_TEST_SUITE_P(
    JoinAggSweep, CodegenDifferentialJoinAgg,
    ::testing::Combine(::testing::Values<size_t>(1, 2, 7, 1024),
                       ::testing::Values(0.0, 0.4)),
    [](const auto& info) {
      return "batch" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) > 0 ? "_nulls" : "_dense");
    });

// ------------------------------------------- interpreted consumers

// A DISTINCT aggregate keeps per-group dedup state; it folds the
// compiled filter's output in the interpreted grouping.
TEST(CodegenJoinAgg, DistinctAggregatesStayInterpreted) {
  Database db;
  LoadSmallRst(&db, 113, 60, 30, 15, 0.3);
  REQUIRE_CODEGEN(db);
  ExpectJoinAggAgrees(
      &db,
      {"SELECT a1, COUNT(DISTINCT a2) FROM r WHERE a3 > 1 GROUP BY a1", true},
      JoinAggOptions(1024));
  ExpectJoinAggAgrees(
      &db, {"SELECT a1, COUNT(DISTINCT a2) FROM r GROUP BY a1", false},
      JoinAggOptions(1024));
}

// Multi-column group keys take the generic tuple-key path behind the
// compiled filter.
TEST(CodegenJoinAgg, MultiKeyGroupByStaysInterpreted) {
  Database db;
  LoadSmallRst(&db, 114, 60, 30, 15, 0.3);
  REQUIRE_CODEGEN(db);
  ExpectJoinAggAgrees(
      &db,
      {"SELECT a1, a2, COUNT(*) FROM r WHERE a4 < 5 GROUP BY a1, a2", true},
      JoinAggOptions(1024));
  ExpectJoinAggAgrees(
      &db, {"SELECT a1, a2, COUNT(*) FROM r GROUP BY a1, a2", false},
      JoinAggOptions(1024));
}

// A semi join's probe emits probe rows, not pairs: the compiled filter
// feeds the interpreted HashSemiJoin, which narrows its selection.
TEST(CodegenJoinAgg, SemiJoinProbeStaysInterpreted) {
  Database db;
  LoadSmallRst(&db, 120, 60, 30, 15, 0.3);
  REQUIRE_CODEGEN(db);
  QueryOptions opts = JoinAggOptions(1024);
  const std::string sql =
      "SELECT * FROM r WHERE a2 > 1 AND a1 IN (SELECT b1 FROM s)";
  auto prepared = db.Prepare(sql, opts);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  EXPECT_NE(prepared->physical_plan().find("HashSemiJoin [keys l0=r0]"),
            std::string::npos)
      << prepared->physical_plan();
  EXPECT_GT(prepared->compiled_pipelines(), 0);
  auto res = prepared->Execute(opts);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_GT(res->stats.compiled_batches, 0);
  EXPECT_EQ(res->stats.compiled_fallback_batches, 0);

  QueryOptions interp = opts;
  interp.enable_codegen = false;
  auto oracle = db.Query(sql, interp);
  ASSERT_TRUE(oracle.ok());
  EXPECT_FALSE(oracle->rows.empty());
  EXPECT_TRUE(RowMultisetsEqual(res->rows, oracle->rows));
}

// ------------------------------------------------- q2d's probe output

/// q2d's hash join, wired by hand so a recorder sees its output:
/// Scan(partsupp) probes HashJoin [build=left, keep 5/14] on
/// ps_partkey = p_partkey, whose build side is Scan(part) under
/// Filter(p_size = 15). The join keeps (p_partkey, p_mfgr) of part and
/// gathers four partsupp columns plus the string p_mfgr.
struct Q2dProbePlan {
  PhysicalPlan plan;
  testing_util::BatchRecorder* recorder = nullptr;
};

Q2dProbePlan MakeQ2dProbePlan(const Table* part, const Table* partsupp) {
  auto slot = [](const Table* t, const char* name) {
    return *t->schema().FindColumn("", name);
  };
  auto ref = [](int s) {
    auto r = std::make_shared<ColumnRefExpr>("", "c", /*is_outer=*/false);
    r->set_slot(s);
    return r;
  };
  Q2dProbePlan q;
  auto part_scan = std::make_unique<TableScanOp>(part);
  auto filter = std::make_unique<FilterOp>(
      MakeComparison(CompareOp::kEq, ref(slot(part, "p_size")),
                     MakeLiteral(Value::Int64(15))));
  auto ps_scan = std::make_unique<TableScanOp>(partsupp);
  auto join = std::make_unique<HashJoinOp>(
      JoinKind::kInner, std::vector<int>{slot(partsupp, "ps_partkey")},
      std::vector<int>{0}, nullptr);
  join->set_right_keep({slot(part, "p_partkey"), slot(part, "p_mfgr")});
  join->set_gather(JoinGather(
      {{JoinSide::kProbe, slot(partsupp, "ps_partkey")},
       {JoinSide::kProbe, slot(partsupp, "ps_suppkey")},
       {JoinSide::kProbe, slot(partsupp, "ps_supplycost")},
       {JoinSide::kProbe, slot(partsupp, "ps_availqty")},
       {JoinSide::kBuild, 1}},
      /*out_width=*/5, /*logical_width=*/14,
      /*build_is_logical_left=*/true));
  auto recorder = std::make_unique<testing_util::BatchRecorder>();
  q.recorder = recorder.get();
  part_scan->AddConsumer(kPortOut, filter.get(), 0);
  filter->AddConsumer(kPortOut, join.get(), BinaryPhysOp::kRight);
  ps_scan->AddConsumer(kPortOut, join.get(), BinaryPhysOp::kLeft);
  join->AddConsumer(kPortOut, recorder.get(), 0);
  q.plan.sources = {part_scan.get(), ps_scan.get()};
  q.plan.ops.push_back(std::move(part_scan));
  q.plan.ops.push_back(std::move(filter));
  q.plan.ops.push_back(std::move(ps_scan));
  q.plan.ops.push_back(std::move(join));
  q.plan.ops.push_back(std::move(recorder));
  return q;
}

// Only the build side's filter compiles; the join builds from the
// compiled pipeline's batches, probes interpreted, and its output
// batches hold typed columns and the all-interpreted plan's rows.
TEST(CodegenJoinAgg, Q2dProbeEmitsColumnOnlyBatches) {
  Database db;
  ASSERT_TRUE(LoadTpch(&db).ok());
  REQUIRE_CODEGEN(db);
  const Table* part = *db.catalog()->GetTable("part");
  const Table* partsupp = *db.catalog()->GetTable("partsupp");
  for (size_t batch_size : {size_t{7}, size_t{1024}}) {
    SCOPED_TRACE("batch " + std::to_string(batch_size));
    std::vector<Row> want;
    for (bool compiled : {false, true}) {
      Q2dProbePlan q = MakeQ2dProbePlan(part, partsupp);
      if (compiled) {
        ASSERT_EQ(InstallCompiledPipelines(&q.plan, db.codegen_engine(),
                                           JoinAggOptions(batch_size),
                                           /*stats_epoch=*/0),
                  1);  // the build side's filter; the probe has none
      }
      auto run = std::make_shared<RunContext>();
      run->batch_size = batch_size;
      ExecContext ctx(run);
      ASSERT_TRUE(RunPlan(&q.plan, &ctx).ok());
      const ExecStats stats = run->TotalStats();
      EXPECT_GT(q.recorder->batches, 0);
      EXPECT_EQ(q.recorder->untyped, 0);
      if (!compiled) {
        EXPECT_EQ(stats.compiled_batches, 0);
        want = std::move(q.recorder->rows);
        EXPECT_FALSE(want.empty());
        continue;
      }
      EXPECT_GT(stats.compiled_batches, 0);
      EXPECT_EQ(stats.compiled_fallback_batches, 0);
      EXPECT_TRUE(RowMultisetsEqual(q.recorder->rows, want));
    }
  }
}

// ------------------------------------------------- async swap-in

// Mid-stream swap-in under a join: the first execution may race the
// compiler (interpreted filter batches reach the join through the same
// edges); after WaitIdle the compiled chain must serve with zero
// fallbacks, and both runs hold the interpreter's rows.
TEST(CodegenJoinAgg, AsyncProbeSwapsInWithoutChangingResults) {
  Database db;
  LoadSmallRst(&db, 116, 80, 40, 15, 0.3);
  REQUIRE_CODEGEN(db);
  QueryOptions opts = JoinAggOptions(16);
  opts.codegen_synchronous = false;
  const std::string sql = kJoinQueries[1].sql;

  auto prepared = db.Prepare(sql, opts);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  ASSERT_GT(prepared->compiled_pipelines(), 0);

  QueryOptions interp = opts;
  interp.enable_codegen = false;
  auto oracle = db.Query(sql, interp);
  ASSERT_TRUE(oracle.ok());

  auto first = prepared->Execute(opts);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_TRUE(RowMultisetsEqual(first->rows, oracle->rows));

  ASSERT_TRUE(db.codegen_engine()->WaitIdle(std::chrono::milliseconds(30000)));
  auto second = prepared->Execute(opts);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_GT(second->stats.compiled_batches, 0)
      << "compiled chain was not swapped in after WaitIdle";
  EXPECT_EQ(second->stats.compiled_fallback_batches, 0);
  EXPECT_TRUE(RowMultisetsEqual(second->rows, oracle->rows));
}

// --------------------------------------------------- parallel execution

class CodegenParallelDifferentialJoinAgg
    : public ::testing::TestWithParam<int> {};

TEST_P(CodegenParallelDifferentialJoinAgg, MorselParallelMatchesInterpreter) {
  const int num_threads = GetParam();
  Database db;
  // RST values live in [0, 6], so double sums (AVG) stay exact whatever
  // order the workers' partial groups merge in.
  LoadSmallRst(&db, 118, 120, 40, 20, 0.3);
  REQUIRE_CODEGEN(db);
  for (const auto* queries : {&kJoinQueries, &kGroupQueries,
                              &kJoinGroupQueries}) {
    for (const JoinAggQuery& q : *queries) {
      ExpectJoinAggAgrees(&db, q, JoinAggOptions(32, num_threads));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, CodegenParallelDifferentialJoinAgg,
                         ::testing::Values(1, 4),
                         [](const auto& info) {
                           return "t" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace bypass
