// Paired row-vs-columnar microbenchmarks for the PR 5 hot paths: the
// fused bypass-partition kernel (σ± split via PartitionBatch) and the
// columnar aggregate folds, each measured against the row-at-a-time
// implementation over identical data at the default batch size. The
// BENCH_PR5 report pairs BM_Row*/BM_Columnar* medians into speedups.
//
// Also doubles as the CI probe for the columnar plumbing: invoked as
//   bench_columnar --assert-columnar
// it runs a table scan through the engine and exits nonzero unless
// ExecStats reports columnar batches (i.e. scans actually attach typed
// columns), and as a negative control checks that disabling the flag
// yields zero.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string_view>
#include <vector>

#include "common/check.h"
#include "engine/database.h"
#include "expr/agg.h"
#include "expr/expr.h"
#include "types/column_vector.h"
#include "types/row_batch.h"
#include "workload/rst.h"

namespace {

using namespace bypass;

// ------------------------------------------------------------ fixture

// One shared 1024-row batch (the default batch size and the unit the
// acceptance criterion is phrased in): column 0 int64, column 1 double,
// no NULLs, ~50% selectivity against the thresholds below. Both
// representations view the same data, so the row and columnar benches
// process identical inputs.
constexpr size_t kBatchRows = kDefaultBatchSize;
constexpr int64_t kI64Threshold = 5000;
constexpr double kF64Threshold = 5000.0;

struct Fixture {
  std::vector<Row> rows;
  ColumnStore store;

  Fixture() {
    store.columns.emplace_back(DataType::kInt64);
    store.columns.emplace_back(DataType::kDouble);
    uint64_t state = 42;
    rows.reserve(kBatchRows);
    for (size_t i = 0; i < kBatchRows; ++i) {
      // splitmix64: cheap deterministic values in [0, 10000).
      state += 0x9e3779b97f4a7c15ULL;
      uint64_t z = state;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      z ^= z >> 31;
      const int64_t v = static_cast<int64_t>(z % 10000);
      Row row;
      row.push_back(Value::Int64(v));
      row.push_back(Value::Double(static_cast<double>(v) + 0.5));
      store.AppendRow(row);
      rows.push_back(std::move(row));
    }
  }

  /// The same rows in untyped columns: every kernel takes its Value path.
  RowBatch Untyped() const {
    return RowBatch::FromRows(rows, /*typed=*/false);
  }
  RowBatch Columnar() const {
    return RowBatch::BorrowedColumns(&store, 0, rows.size());
  }
};

const Fixture& SharedFixture() {
  static const Fixture* f = new Fixture();
  return *f;
}

ExprPtr ColRef(int slot) {
  auto ref = std::make_shared<ColumnRefExpr>("", "c", /*is_outer=*/false);
  ref->set_slot(slot);
  return ref;
}

ExprPtr GtThreshold(int slot, Value threshold) {
  return std::make_shared<ComparisonExpr>(
      CompareOp::kGt, ColRef(slot),
      std::make_shared<LiteralExpr>(std::move(threshold)));
}

// ------------------------------------------- fused bypass partition σ±

// The bypass-selection hot loop: partition the batch into TRUE and
// not-TRUE streams (same vector passed as sel_false and sel_null — the
// paper's σ± split). The row batch carries no columns, so PartitionBatch
// runs the Value-based comparison; the columnar batch hits the fused
// typed kernel.
void RunPartition(benchmark::State& state, const RowBatch& batch,
                  const Expr& pred) {
  std::vector<uint32_t> sel_true, sel_rest;
  sel_true.reserve(kBatchRows);
  sel_rest.reserve(kBatchRows);
  for (auto _ : state) {
    sel_true.clear();
    sel_rest.clear();
    Status st = pred.PartitionBatch(batch, /*outer_row=*/nullptr,
                                    &sel_true, &sel_rest, &sel_rest);
    if (!st.ok()) {
      state.SkipWithError(st.ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(sel_true.data());
    benchmark::DoNotOptimize(sel_rest.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kBatchRows));
}

void BM_RowPartitionInt64(benchmark::State& state) {
  RowBatch batch = SharedFixture().Untyped();
  RunPartition(state, batch, *GtThreshold(0, Value::Int64(kI64Threshold)));
}
BENCHMARK(BM_RowPartitionInt64);

void BM_ColumnarPartitionInt64(benchmark::State& state) {
  RowBatch batch = SharedFixture().Columnar();
  RunPartition(state, batch, *GtThreshold(0, Value::Int64(kI64Threshold)));
}
BENCHMARK(BM_ColumnarPartitionInt64);

void BM_RowPartitionDouble(benchmark::State& state) {
  RowBatch batch = SharedFixture().Untyped();
  RunPartition(state, batch,
               *GtThreshold(1, Value::Double(kF64Threshold)));
}
BENCHMARK(BM_RowPartitionDouble);

void BM_ColumnarPartitionDouble(benchmark::State& state) {
  RowBatch batch = SharedFixture().Columnar();
  RunPartition(state, batch,
               *GtThreshold(1, Value::Double(kF64Threshold)));
}
BENCHMARK(BM_ColumnarPartitionDouble);

// ---------------------------------------------------- aggregate folds

// SUM(int64) + MIN(double) over the batch — the scalar-aggregation path.
// Both benches go through AggregatorSet::AccumulateBatch; the row-only
// batch resolves no columns and takes the per-row Accumulate loop, the
// columnar batch folds the raw arrays.
std::vector<AggregateSpec> MakeAggSpecs() {
  std::vector<AggregateSpec> specs;
  AggregateSpec sum;
  sum.func = AggFunc::kSum;
  sum.arg = ColRef(0);
  specs.push_back(std::move(sum));
  AggregateSpec min;
  min.func = AggFunc::kMin;
  min.arg = ColRef(1);
  specs.push_back(std::move(min));
  return specs;
}

void RunAggregate(benchmark::State& state, const RowBatch& batch) {
  const std::vector<AggregateSpec> specs = MakeAggSpecs();
  AggregatorSet aggs(&specs);
  for (auto _ : state) {
    aggs.Reset();
    Status st = aggs.AccumulateBatch(batch, /*outer_row=*/nullptr);
    if (!st.ok()) {
      state.SkipWithError(st.ToString().c_str());
      return;
    }
    std::vector<ColumnVector> out(specs.size(), ColumnVector::Untyped());
    st = aggs.FinalizeInto(out.data());
    if (!st.ok()) {
      state.SkipWithError(st.ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kBatchRows));
}

void BM_RowAggregate(benchmark::State& state) {
  RowBatch batch = SharedFixture().Untyped();
  RunAggregate(state, batch);
}
BENCHMARK(BM_RowAggregate);

void BM_ColumnarAggregate(benchmark::State& state) {
  RowBatch batch = SharedFixture().Columnar();
  RunAggregate(state, batch);
}
BENCHMARK(BM_ColumnarAggregate);

// ------------------------------------------------- --assert-columnar

// End-to-end plumbing probe: a plain table scan must report columnar
// batches when the flag is on (scans attach the table's typed columns)
// and none when it is off. Returns a process exit code.
int AssertColumnarScan() {
  Database db;
  RstOptions opts;
  opts.rows_per_sf = 2000;
  Status st = LoadRst(&db, 1, 1, 1, opts);
  if (!st.ok()) {
    std::fprintf(stderr, "assert-columnar: load failed: %s\n",
                 st.ToString().c_str());
    return 1;
  }
  const char* sql = "SELECT * FROM r WHERE a4 > 500";

  QueryOptions on;
  on.collect_plans = false;
  auto result = db.Query(sql, on);
  if (!result.ok()) {
    std::fprintf(stderr, "assert-columnar: query failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  if (result->stats.columnar_batches <= 0) {
    std::fprintf(stderr,
                 "assert-columnar: FAIL: scan reported %lld columnar "
                 "batches (expected > 0)\n",
                 static_cast<long long>(result->stats.columnar_batches));
    return 1;
  }
  const int64_t with_columns = result->stats.columnar_batches;

  QueryOptions off = on;
  off.enable_columnar = false;
  auto oracle = db.Query(sql, off);
  if (!oracle.ok()) {
    std::fprintf(stderr, "assert-columnar: oracle query failed: %s\n",
                 oracle.status().ToString().c_str());
    return 1;
  }
  if (oracle->stats.columnar_batches != 0) {
    std::fprintf(stderr,
                 "assert-columnar: FAIL: columnar disabled but %lld "
                 "columnar batches reported\n",
                 static_cast<long long>(oracle->stats.columnar_batches));
    return 1;
  }
  if (oracle->rows.size() != result->rows.size()) {
    std::fprintf(stderr,
                 "assert-columnar: FAIL: row/columnar cardinality "
                 "mismatch (%zu vs %zu)\n",
                 oracle->rows.size(), result->rows.size());
    return 1;
  }
  std::printf("assert-columnar: OK (%lld columnar batches, %zu rows)\n",
              static_cast<long long>(with_columns), result->rows.size());
  return 0;
}

}  // namespace

// Custom main (instead of BENCHMARK_MAIN) so the binary can serve as the
// smoke-test probe without dragging google-benchmark flags into CI.
int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--assert-columnar") {
      return AssertColumnarScan();
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
