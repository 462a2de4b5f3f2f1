// Differential tests for the widened compiled region (DESIGN.md §12):
// generation-2 pipelines that fuse the hash-join probe loop and the
// group-by accumulate loop into the emitted function must agree with
// the interpreted oracle — across batch sizes {1, 2, 7, 1024},
// NULL-heavy 3VL join/group keys, the morsel-parallel executor, and the
// async compile + mid-stream swap-in. Every test additionally asserts
// which fused shape actually engaged (compiled_join_batches /
// compiled_agg_batches) so a silently-declined lowering cannot pass
// vacuously, and that eligible cells never fall back per batch.
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

/// Runs `sql` compiled and interpreted under otherwise-identical options
/// and asserts multiset-equal rows. `expect_join` / `expect_agg` pin the
/// fused shape that must have served: probe-terminal batches bump
/// compiled_join_batches, accumulate-terminal batches bump
/// compiled_agg_batches (the fully fused shape bumps both). Eligible
/// shapes must see zero per-batch fallbacks (the build side finishes
/// before the probe side starts, so the published views are always
/// ready under synchronous compilation).
void ExpectJoinAggAgrees(Database* db, const std::string& sql,
                         QueryOptions opts, bool expect_join,
                         bool expect_agg) {
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

  EXPECT_GT(prepared->compiled_pipelines(), 0)
      << "no pipeline was compiled\nsql: " << sql;
  EXPECT_GT(compiled->stats.compiled_batches, 0)
      << "compiled code never ran\nsql: " << sql;
  EXPECT_EQ(compiled->stats.compiled_fallback_batches, 0)
      << "unexpected per-batch fallback\nsql: " << sql;
  if (expect_join) {
    EXPECT_GT(compiled->stats.compiled_join_batches, 0)
        << "join probe was not fused\nsql: " << sql;
  }
  if (expect_agg) {
    EXPECT_GT(compiled->stats.compiled_agg_batches, 0)
        << "group-by accumulate was not fused\nsql: " << sql;
  }
  EXPECT_TRUE(RowMultisetsEqual(compiled->rows, oracle->rows))
      << "compiled and interpreted plans disagree\nsql: " << sql
      << "\ncompiled rows: " << compiled->rows.size()
      << "\ninterpreted rows: " << oracle->rows.size();
}

// Probe-terminal shapes: filters (or a bare scan) feeding a hash join's
// probe side, matches materialized by the compiled operator.
const char* kJoinQueries[] = {
    "SELECT * FROM r, s WHERE a1 = b1",
    "SELECT * FROM r, s WHERE a1 = b1 AND a2 > 2",
    "SELECT * FROM r, s WHERE a1 = b1 AND (a2 > 2 OR a3 < 4)",
};

// Accumulate-terminal shapes: single int64 group key, non-DISTINCT
// COUNT/SUM/MIN/MAX/AVG over int64 arguments, with and without filters.
const char* kGroupQueries[] = {
    "SELECT a1, COUNT(*) FROM r GROUP BY a1",
    "SELECT a1, COUNT(*), SUM(a2), AVG(a2), MIN(a3), MAX(a4) FROM r "
    "GROUP BY a1",
    "SELECT a2, SUM(a1), COUNT(a3) FROM r WHERE a3 > 1 GROUP BY a2",
    "SELECT a1, MIN(a2), MAX(a2) FROM r WHERE a2 > 0 OR a4 < 5 "
    "GROUP BY a1",
};

// Fully fused shapes: filter -> join probe -> group-by accumulate in one
// emitted pass (group key and aggregate arguments from the probe side).
const char* kJoinGroupQueries[] = {
    "SELECT a1, COUNT(*) FROM r, s WHERE a1 = b1 GROUP BY a1",
    "SELECT a1, COUNT(*), SUM(a2) FROM r, s WHERE a1 = b1 AND a2 > 1 "
    "GROUP BY a1",
    "SELECT a2, SUM(a3), MIN(a4) FROM r, s WHERE a1 = b1 GROUP BY a2",
};

// The same three shapes over narrowed joins (DESIGN.md §16): the join
// gathers only the columns above it read, so compiled pairs go through
// the gather spec and the fused group-by's slots are remapped through it
// (the probe key a1 itself is not kept).
struct NarrowShape {
  const char* sql;
  const char* keep;  // the join's label suffix in the physical plan
  bool expect_join;
  bool expect_agg;
};
const NarrowShape kNarrowShapes[] = {
    {"SELECT a2, b3 FROM r, s WHERE a1 = b1", "keep 2/8]", true, false},
    {"SELECT a3 FROM r, s WHERE a1 = b1 AND a2 > 2", "keep 1/8]", true,
     false},
    {"SELECT a2, SUM(a3), MIN(a4) FROM r, s WHERE a1 = b1 GROUP BY a2",
     "keep 3/8]", true, true},
    {"SELECT g.a1, g.c, s.b2 FROM (SELECT a1, COUNT(*) AS c FROM r "
     "GROUP BY a1) AS g, s WHERE g.a1 = s.b1",
     "keep 3/6]", false, true},
};

// ------------------------------------------------ differential sweeps

class CodegenDifferentialJoinAgg
    : public ::testing::TestWithParam<std::tuple<size_t, double>> {};

TEST_P(CodegenDifferentialJoinAgg, JoinProbeMatchesInterpreter) {
  const auto [batch_size, null_fraction] = GetParam();
  Database db;
  LoadSmallRst(&db, 110, 60, 30, 15, null_fraction);
  REQUIRE_CODEGEN(db);
  for (const char* sql : kJoinQueries) {
    ExpectJoinAggAgrees(&db, sql, JoinAggOptions(batch_size),
                        /*expect_join=*/true, /*expect_agg=*/false);
  }
}

TEST_P(CodegenDifferentialJoinAgg, GroupByMatchesInterpreter) {
  const auto [batch_size, null_fraction] = GetParam();
  Database db;
  LoadSmallRst(&db, 111, 60, 30, 15, null_fraction);
  REQUIRE_CODEGEN(db);
  for (const char* sql : kGroupQueries) {
    ExpectJoinAggAgrees(&db, sql, JoinAggOptions(batch_size),
                        /*expect_join=*/false, /*expect_agg=*/true);
  }
}

TEST_P(CodegenDifferentialJoinAgg, FusedJoinGroupByMatchesInterpreter) {
  const auto [batch_size, null_fraction] = GetParam();
  Database db;
  LoadSmallRst(&db, 112, 60, 30, 15, null_fraction);
  REQUIRE_CODEGEN(db);
  for (const char* sql : kJoinGroupQueries) {
    ExpectJoinAggAgrees(&db, sql, JoinAggOptions(batch_size),
                        /*expect_join=*/true, /*expect_agg=*/true);
  }
}

TEST_P(CodegenDifferentialJoinAgg, NarrowedJoinsStillFuse) {
  const auto [batch_size, null_fraction] = GetParam();
  Database db;
  LoadSmallRst(&db, 119, 60, 30, 15, null_fraction);
  REQUIRE_CODEGEN(db);
  for (const NarrowShape& shape : kNarrowShapes) {
    auto explain = db.Explain(shape.sql, JoinAggOptions(batch_size));
    ASSERT_TRUE(explain.ok()) << explain.status().ToString();
    EXPECT_NE(explain->find(shape.keep), std::string::npos)
        << "join was not narrowed as expected\n" << *explain;
    ExpectJoinAggAgrees(&db, shape.sql, JoinAggOptions(batch_size),
                        shape.expect_join, shape.expect_agg);
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

// ------------------------------------------------- ineligible shapes

// DISTINCT aggregates need per-group dedup state the SoA protocol does
// not model; the accumulate terminal must decline and the whole query
// stay correct via the interpreted group-by.
TEST(CodegenJoinAgg, DistinctAggregatesStayInterpreted) {
  Database db;
  LoadSmallRst(&db, 113, 60, 30, 15, 0.3);
  REQUIRE_CODEGEN(db);
  QueryOptions opts = JoinAggOptions(1024);
  const std::string sql =
      "SELECT a1, COUNT(DISTINCT a2) FROM r GROUP BY a1";
  auto prepared = db.Prepare(sql, opts);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  auto res = prepared->Execute(opts);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(res->stats.compiled_agg_batches, 0)
      << "DISTINCT aggregate was fused into compiled code";

  QueryOptions interp = opts;
  interp.enable_codegen = false;
  auto oracle = db.Query(sql, interp);
  ASSERT_TRUE(oracle.ok());
  EXPECT_TRUE(RowMultisetsEqual(res->rows, oracle->rows));
}

// Multi-column group keys take the generic tuple-key path; the single
// int64 fast path must decline them.
TEST(CodegenJoinAgg, MultiKeyGroupByStaysInterpreted) {
  Database db;
  LoadSmallRst(&db, 114, 60, 30, 15, 0.3);
  REQUIRE_CODEGEN(db);
  QueryOptions opts = JoinAggOptions(1024);
  const std::string sql =
      "SELECT a1, a2, COUNT(*) FROM r GROUP BY a1, a2";
  auto prepared = db.Prepare(sql, opts);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  auto res = prepared->Execute(opts);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(res->stats.compiled_agg_batches, 0)
      << "multi-key group-by was fused into compiled code";

  QueryOptions interp = opts;
  interp.enable_codegen = false;
  auto oracle = db.Query(sql, interp);
  ASSERT_TRUE(oracle.ok());
  EXPECT_TRUE(RowMultisetsEqual(res->rows, oracle->rows));
}

// A semi join's probe emits probe rows, not pairs: the probe terminal
// must decline it (only inner joins fuse) and the filter chain feeding
// it keep its interpreted semi join.
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
  auto res = prepared->Execute(opts);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(res->stats.compiled_join_batches, 0)
      << "semi join probe was fused into compiled code";

  QueryOptions interp = opts;
  interp.enable_codegen = false;
  auto oracle = db.Query(sql, interp);
  ASSERT_TRUE(oracle.ok());
  EXPECT_FALSE(oracle->rows.empty());
  EXPECT_TRUE(RowMultisetsEqual(res->rows, oracle->rows));
}

// ------------------------------------------------- q2d's probe output

/// q2d's compiled probe, wired by hand so a recorder sees its output:
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

// The compiled probe gathers its pairs through the join's own
// GatherPairs: its output batches hold typed columns, and they hold the
// interpreted join's rows.
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
                  2);  // the build side's filter and the probe
      }
      auto run = std::make_shared<RunContext>();
      run->batch_size = batch_size;
      ExecContext ctx(run);
      ASSERT_TRUE(RunPlan(&q.plan, &ctx).ok());
      const ExecStats stats = run->TotalStats();
      EXPECT_GT(q.recorder->batches, 0);
      EXPECT_EQ(q.recorder->untyped, 0);
      if (!compiled) {
        want = std::move(q.recorder->rows);
        EXPECT_FALSE(want.empty());
        continue;
      }
      EXPECT_GT(stats.compiled_join_batches, 0);
      EXPECT_EQ(stats.compiled_fallback_batches, 0);
      EXPECT_TRUE(RowMultisetsEqual(q.recorder->rows, want));
    }
  }
}

// ------------------------------------------------- async swap-in

// Mid-stream swap-in for the probe pipeline: the first execution may
// race the compiler (interpreted join batches are fine — the join
// operator consumes fallback batches through the same edges); after
// WaitIdle the fused probe loop must serve with zero fallbacks.
TEST(CodegenJoinAgg, AsyncProbeSwapsInWithoutChangingResults) {
  Database db;
  LoadSmallRst(&db, 116, 80, 40, 15, 0.3);
  REQUIRE_CODEGEN(db);
  QueryOptions opts = JoinAggOptions(16);
  opts.codegen_synchronous = false;
  const std::string sql = kJoinQueries[1];

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
  EXPECT_GT(second->stats.compiled_join_batches, 0)
      << "fused probe loop was not swapped in after WaitIdle";
  EXPECT_EQ(second->stats.compiled_fallback_batches, 0);
  EXPECT_TRUE(RowMultisetsEqual(second->rows, oracle->rows));
}

// ------------------------------------------------- artifact sharing

// Two textually distinct SQL strings lower to the same emitted source;
// the second Prepare must reuse the first's dlopen artifact (one
// compile) and the engine must count the cross-plan share: the plan tag
// is a hash of the SQL text, so the tags differ while the source hash
// matches.
TEST(CodegenJoinAgg, DistinctSqlTextsShareOneArtifact) {
  Database db;
  LoadSmallRst(&db, 117, 50, 25, 12);
  REQUIRE_CODEGEN(db);
  QueryOptions opts = JoinAggOptions(1024);
  const std::string sql_a =
      "SELECT a1, COUNT(*) FROM r, s WHERE a1 = b1 GROUP BY a1";
  const std::string sql_b =
      "SELECT  a1,  COUNT(*)  FROM r, s WHERE (a1 = b1) GROUP BY a1";

  auto first = db.Prepare(sql_a, opts);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_GT(first->compiled_pipelines(), 0);
  const CodegenStats after_first = db.codegen_engine()->stats();
  EXPECT_EQ(after_first.compiles, 1u);
  EXPECT_EQ(after_first.artifact_shared_hits, 0);

  auto second = db.Prepare(sql_b, opts);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  ASSERT_GT(second->compiled_pipelines(), 0);
  const CodegenStats after_second = db.codegen_engine()->stats();
  EXPECT_EQ(after_second.compiles, 1u)  // no recompilation
      << "textually distinct but structurally identical queries "
         "recompiled the artifact";
  EXPECT_GT(after_second.cache_hits, after_first.cache_hits);
  EXPECT_GE(after_second.artifact_shared_hits, 1)
      << "cross-plan artifact reuse was not counted";

  // Re-preparing an already-seen text is a plain cache hit, not another
  // cross-plan share.
  auto again = db.Prepare(sql_a, opts);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(db.codegen_engine()->stats().artifact_shared_hits,
            after_second.artifact_shared_hits);

  auto res_a = first->Execute(opts);
  auto res_b = second->Execute(opts);
  ASSERT_TRUE(res_a.ok());
  ASSERT_TRUE(res_b.ok());
  EXPECT_TRUE(RowMultisetsEqual(res_a->rows, res_b->rows));
}

// --------------------------------------------------- parallel execution

class CodegenParallelDifferentialJoinAgg
    : public ::testing::TestWithParam<int> {};

TEST_P(CodegenParallelDifferentialJoinAgg, MorselParallelMatchesInterpreter) {
  const int num_threads = GetParam();
  Database db;
  // RST values live in [0, 6], so double sums (AVG) stay exact and the
  // per-worker SoA absorb order cannot perturb floating-point results.
  LoadSmallRst(&db, 118, 120, 40, 20, 0.3);
  REQUIRE_CODEGEN(db);
  for (const char* sql : kJoinQueries) {
    ExpectJoinAggAgrees(&db, sql, JoinAggOptions(32, num_threads),
                        /*expect_join=*/true, /*expect_agg=*/false);
  }
  for (const char* sql : kGroupQueries) {
    ExpectJoinAggAgrees(&db, sql, JoinAggOptions(32, num_threads),
                        /*expect_join=*/false, /*expect_agg=*/true);
  }
  for (const char* sql : kJoinGroupQueries) {
    ExpectJoinAggAgrees(&db, sql, JoinAggOptions(32, num_threads),
                        /*expect_join=*/true, /*expect_agg=*/true);
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, CodegenParallelDifferentialJoinAgg,
                         ::testing::Values(1, 4),
                         [](const auto& info) {
                           return "t" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace bypass
