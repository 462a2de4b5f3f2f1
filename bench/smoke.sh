#!/usr/bin/env bash
# bench-smoke: one tiny iteration of every benchmark binary. This is a
# liveness guard wired into ctest (and the `bench-smoke` build target),
# not a measurement: it catches bench binaries that crash, reject their
# flags, or hang, without paying the full suite's runtime.
#
# Usage: bench/smoke.sh [build-dir]
set -euo pipefail

BUILD_DIR=${1:-build}
BIN=${BUILD_DIR}/bench

for b in bench_operators bench_hash bench_columnar bench_q1 \
         bench_q2corr bench_q2d bench_q3_tree bench_q4_linear \
         bench_quantified bench_select_clause bench_ablation_rank \
         bench_stats bench_serving bench_storage bench_codegen; do
  [[ -x ${BIN}/${b} ]] || {
    echo "missing bench binary ${BIN}/${b} — build first" >&2
    exit 1
  }
done

run() {
  echo "-- $*"
  "$@" >/dev/null
}

# google-benchmark microbenchmarks: one representative per family with a
# minimal measuring window (seconds; benchmark 1.7 accepts plain floats).
run "${BIN}/bench_operators" --benchmark_min_time=0.01 \
  --benchmark_filter='BM_PlainSelection$'
run "${BIN}/bench_hash" --benchmark_min_time=0.01 \
  --benchmark_filter='BM_JoinBuildFlat$|BM_JoinProbeFlat/10$|BM_JoinProbeBatchFlat/10$|BM_GroupUpsertFlat$'
run "${BIN}/bench_columnar" --benchmark_min_time=0.01 \
  --benchmark_filter='BM_ColumnarPartitionInt64$|BM_RowPartitionInt64$'

# Columnar plumbing assertion: a table scan must actually attach typed
# columns (ExecStats::columnar_batches > 0) and report none when the
# option is off. Exits nonzero on failure.
run "${BIN}/bench_columnar" --assert-columnar

# Paper-table harnesses: smallest grid, tiny data, short per-cell budget.
run "${BIN}/bench_q1" --quick --rows-per-sf=20 --timeout=10
run "${BIN}/bench_q2corr" --quick --rows-per-sf=20 --timeout=10
run "${BIN}/bench_q2d" --quick --timeout=10
run "${BIN}/bench_q3_tree" --quick --rows-per-sf=20 --timeout=10
run "${BIN}/bench_q4_linear" --quick --rows-per-sf=20 --timeout=10
run "${BIN}/bench_quantified" --quick --rows-per-sf=20 --timeout=10
run "${BIN}/bench_select_clause" --quick --rows-per-sf=20 --timeout=10
run "${BIN}/bench_ablation_rank" --rows-per-sf=200 --sf=1 --reps=1
run "${BIN}/bench_stats" --quick --rows=200 --json

# Serving plumbing assertion: 4 clients x 50 queries through a shared
# Server must all match the Database::Query oracle with a plan-cache hit
# rate above 0.9 and consistent admission accounting. Exits nonzero on
# failure.
run "${BIN}/bench_serving" --assert-serving --rows=500

# Storage plumbing assertion: a memory budget of data/10 must complete
# the join and sort probes byte-identical to the unlimited oracle with
# nonzero spill, the clustered zone query must skip >= half its segments
# while matching the zones-off control, and the zones-off control must
# report zero segment accounting. Exits nonzero on failure.
run "${BIN}/bench_storage" --quick --assert-storage

# Codegen plumbing assertion: a compiled pipeline must install and run
# natively on filter/bypass shapes with results multiset-identical
# to the interpreted oracle, re-preparing must hit the artifact cache
# instead of recompiling, and the scratch directory must hold no leaked
# emitted files. Prints n/a and passes on builds without the tier.
run "${BIN}/bench_codegen" --assert-codegen --rst-rows=2000

# Widened-region assertion: each generation-2 shape (join probe, group-by
# accumulate, fused probe+accumulate) must install, serve every batch
# natively with zero fallbacks, agree with the interpreted oracle, and a
# textually distinct respelling must share the cached artifact instead of
# recompiling. Prints n/a and passes on builds without the tier.
run "${BIN}/bench_codegen" --assert-codegen-joinagg --rst-rows=2000

echo "bench-smoke OK"
