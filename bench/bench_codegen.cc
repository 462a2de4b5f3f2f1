// Codegen tier benchmark (PR 9): compiled pipelines (C++-emit + dlopen,
// DESIGN.md §12) vs the interpreted vectorized kernels, paired on the
// identical query/plan/data so each ratio is the honest fusion win:
//
//   filter_1m      a 4-way disjunctive filter over a 1M-row table — the
//                  chain is the whole pipeline, so this is the headline
//                  fused-loop number and the break-even base: compile
//                  latency must amortize within <= 10 executions of the
//                  batch-1024 gain.
//   bypass_select  the bypass σ± split (cheap disjunct ahead of a scalar
//                  subquery disjunct) on the RST workload.
//   q2d            the paper's Query 2d on TPC-H (SF 0.01), end to end.
//
// Each cell runs batch_size 1 (row-at-a-time era) and 1024 (default
// vectorized); medians of --reps runs. The compile section reports the
// measured host-compiler latency, the artifact-cache-hit re-prepare
// latency, and break_even_executions = ceil(compile_ms / gain_ms).
//
// Also the CI probe for the codegen plumbing: invoked as
//   bench_codegen --assert-codegen
// it checks that (a) a compiled pipeline installs and actually runs
// (compiled_batches > 0, zero per-batch fallbacks), (b) compiled results
// are multiset-identical to the interpreted oracle on filter and bypass
// shapes, (c) re-preparing the same query hits the artifact
// cache instead of recompiling, and (d) the scratch directory holds no
// leaked sources/objects afterwards. Skips cleanly (exit 0, "n/a") when
// the tier is compiled out or the host toolchain probe fails. Exits
// nonzero on any failure.
//
// Flags: --rows=N           filter table cardinality (default 1000000)
//        --rst-rows=N       RST rows per SF          (default 50000)
//        --reps=N           runs per median          (default 5)
//        --quick            20000/5000 rows, 3 reps
//        --json             machine-readable report on stdout
//        --assert-codegen   smoke probe (see above)
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "codegen/codegen_engine.h"
#include "engine/database.h"
#include "workload/rst.h"
#include "workload/tpch.h"

namespace {

using namespace bypass;         // NOLINT(build/namespaces)
using namespace bypass::bench;  // NOLINT(build/namespaces)

// The 4-way disjunctive filter (no subquery, so the compiled chain spans
// scan → result) and the RST disjunction used for the bypass cell.
// Domains per workload/rst.h: a2 ∈ [0,1000), a3 ∈ [0,rows), a4 ∈
// [0,10000).
const char kFilterSql[] =
    "SELECT COUNT(*) FROM r WHERE a2 < 100 OR a4 > 8000 OR a3 < 5000 "
    "OR a2 >= 950";
const char kBypassSql[] =
    "SELECT COUNT(*) FROM r WHERE a2 < 100 "
    "OR a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2)";

struct Timed {
  double median_ms = 0.0;
  QueryResult last;
};

Timed RunPrepared(PreparedQuery* prepared, const QueryOptions& options,
                  int reps) {
  Timed out;
  std::vector<double> ms;
  for (int i = 0; i < reps + 1; ++i) {  // +1 warm-up, not measured
    const auto start = std::chrono::steady_clock::now();
    auto result = prepared->Execute(options);
    const auto stop = std::chrono::steady_clock::now();
    if (!result.ok()) {
      std::fprintf(stderr, "bench_codegen: %s\n",
                   result.status().ToString().c_str());
      std::exit(1);
    }
    if (i == 0) continue;
    ms.push_back(
        std::chrono::duration<double, std::milli>(stop - start).count());
    out.last = std::move(*result);
  }
  std::sort(ms.begin(), ms.end());
  out.median_ms = ms[ms.size() / 2];
  return out;
}

/// One paired cell: the same prepared query interpreted and compiled.
struct Cell {
  double interpreted_ms = 0.0;
  double compiled_ms = 0.0;
  double speedup = 0.0;
  int64_t compiled_batches = 0;
  int64_t fallback_batches = 0;
  bool result_agrees = false;
};

Cell RunPair(Database* db, const std::string& sql, QueryOptions options,
             size_t batch_size, int reps) {
  options.batch_size = batch_size;
  options.collect_plans = false;
  QueryOptions compiled_opts = options;
  compiled_opts.enable_codegen = true;
  compiled_opts.codegen_synchronous = true;  // measure execution, not swap

  auto interp = db->Prepare(sql, options);
  auto compiled = db->Prepare(sql, compiled_opts);
  if (!interp.ok() || !compiled.ok()) {
    std::fprintf(stderr, "bench_codegen: prepare failed: %s\n",
                 (!interp.ok() ? interp : compiled)
                     .status()
                     .ToString()
                     .c_str());
    std::exit(1);
  }
  if (compiled->compiled_pipelines() == 0) {
    std::fprintf(stderr,
                 "bench_codegen: no compiled pipeline installed for: %s\n",
                 sql.c_str());
    std::exit(1);
  }
  Cell cell;
  const Timed ti = RunPrepared(&*interp, options, reps);
  const Timed tc = RunPrepared(&*compiled, compiled_opts, reps);
  cell.interpreted_ms = ti.median_ms;
  cell.compiled_ms = tc.median_ms;
  cell.speedup = tc.median_ms > 0 ? ti.median_ms / tc.median_ms : 0.0;
  cell.compiled_batches = tc.last.stats.compiled_batches;
  cell.fallback_batches = tc.last.stats.compiled_fallback_batches;
  cell.result_agrees = RowMultisetsEqual(ti.last.rows, tc.last.rows);
  return cell;
}

void PrintCellJson(const char* name, size_t batch, const Cell& c,
                   bool last) {
  std::printf(
      "    \"%s_batch_%zu\": {\"interpreted_ms\": %.3f, "
      "\"compiled_ms\": %.3f, \"speedup_compiled\": %.2f, "
      "\"compiled_batches\": %lld, \"fallback_batches\": %lld, "
      "\"result_agrees\": %s}%s\n",
      name, batch, c.interpreted_ms, c.compiled_ms, c.speedup,
      static_cast<long long>(c.compiled_batches),
      static_cast<long long>(c.fallback_batches),
      c.result_agrees ? "true" : "false", last ? "" : ",");
}

// ----------------------------------------------------- --assert-codegen

int Fail(const char* what) {
  std::fprintf(stderr, "assert-codegen: FAILED: %s\n", what);
  return 1;
}

int AssertCodegen(int64_t rst_rows) {
  Database db;
  RstOptions ro;
  ro.rows_per_sf = rst_rows;
  Status st = LoadRst(&db, 1, 0.1, 0.1, ro);
  if (!st.ok()) {
    std::fprintf(stderr, "assert-codegen: load failed: %s\n",
                 st.ToString().c_str());
    return 1;
  }
  if (!db.AnalyzeAll().ok()) return Fail("ANALYZE failed");
  if (!CodegenEngine::BuiltWithCodegen() ||
      !db.codegen_engine()->Available()) {
    std::printf("assert-codegen: n/a (tier unavailable on this build)\n");
    return 0;
  }

  struct Shape {
    const char* name;
    const char* sql;
  };
  const Shape shapes[] = {{"filter", kFilterSql}, {"bypass", kBypassSql}};
  for (const Shape& shape : shapes) {
    QueryOptions opts = QueryOptions::With(ExecutionStrategy::kUnnested);
    opts.enable_codegen = true;
    opts.codegen_synchronous = true;
    auto prepared = db.Prepare(shape.sql, opts);
    if (!prepared.ok()) return Fail("prepare failed");
    // (a) the pipeline installs and actually runs natively.
    if (prepared->compiled_pipelines() == 0) {
      std::fprintf(stderr, "assert-codegen: FAILED: no pipeline (%s)\n",
                   shape.name);
      return 1;
    }
    auto compiled = prepared->Execute(opts);
    if (!compiled.ok()) return Fail("compiled execution failed");
    if (compiled->stats.compiled_batches <= 0) {
      return Fail("compiled code never ran (compiled_batches == 0)");
    }
    if (compiled->stats.compiled_fallback_batches != 0) {
      return Fail("unexpected per-batch fallback");
    }
    // (b) multiset-identical to the interpreted oracle.
    QueryOptions interp = opts;
    interp.enable_codegen = false;
    auto oracle = db.Query(shape.sql, interp);
    if (!oracle.ok()) return Fail("interpreted oracle failed");
    if (!RowMultisetsEqual(compiled->rows, oracle->rows)) {
      std::fprintf(stderr,
                   "assert-codegen: FAILED: compiled result diverges "
                   "from the interpreter (%s)\n",
                   shape.name);
      return 1;
    }
  }

  // (c) re-preparing hits the artifact cache, no recompilation.
  const CodegenStats before = db.codegen_engine()->stats();
  QueryOptions opts = QueryOptions::With(ExecutionStrategy::kUnnested);
  opts.enable_codegen = true;
  opts.codegen_synchronous = true;
  auto again = db.Prepare(kFilterSql, opts);
  if (!again.ok() || again->compiled_pipelines() == 0) {
    return Fail("re-prepare lost the compiled pipeline");
  }
  const CodegenStats after = db.codegen_engine()->stats();
  if (after.compiles != before.compiles) {
    return Fail("re-prepare recompiled instead of hitting the cache");
  }
  if (after.cache_hits <= before.cache_hits) {
    return Fail("re-prepare did not count an artifact cache hit");
  }
  if (after.compile_errors != 0) return Fail("compile errors reported");

  // (d) temp hygiene: every emitted source/object is already unlinked.
  if (db.codegen_engine()->ScratchFileCount() != 0) {
    return Fail("scratch directory leaked emitted files");
  }

  std::printf(
      "assert-codegen: OK (%lld compiles, %lld cache hits, %.0f ms mean "
      "compile, scratch clean)\n",
      static_cast<long long>(after.compiles),
      static_cast<long long>(after.cache_hits),
      after.compiles > 0
          ? 1e3 * after.compile_seconds_total /
                static_cast<double>(after.compiles)
          : 0.0);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const bool quick = flags.Has("quick");
  const int reps = static_cast<int>(flags.GetInt("reps", quick ? 3 : 5));
  const int64_t filter_rows =
      flags.GetInt("rows", quick ? 20000 : 1000000);
  const int64_t rst_rows = flags.GetInt("rst-rows", quick ? 5000 : 50000);

  if (flags.Has("assert-codegen")) return AssertCodegen(rst_rows);

  const bool json = flags.Has("json");
  if (!CodegenEngine::BuiltWithCodegen()) {
    if (json) std::printf("{\"available\": false}\n");
    else std::printf("bench_codegen: n/a (built without codegen)\n");
    return 0;
  }

  // Fixture 1: the 1M-row filter table (chain == whole pipeline).
  Database filter_db;
  {
    RstOptions ro;
    ro.rows_per_sf = filter_rows;
    Status st = LoadRst(&filter_db, 1, 0.01, 0.01, ro);
    if (!st.ok()) {
      std::fprintf(stderr, "bench_codegen: load failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
    (void)filter_db.AnalyzeAll();
  }
  if (!filter_db.codegen_engine()->Available()) {
    if (json) std::printf("{\"available\": false}\n");
    else std::printf("bench_codegen: n/a (toolchain probe failed)\n");
    return 0;
  }

  // Fixture 2: the RST bypass workload.
  Database rst_db;
  {
    RstOptions ro;
    ro.rows_per_sf = rst_rows;
    Status st = LoadRst(&rst_db, 1, 0.1, 0.1, ro);
    if (!st.ok()) {
      std::fprintf(stderr, "bench_codegen: load failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
    (void)rst_db.AnalyzeAll();
  }

  // Fixture 3: TPC-H for Query 2d.
  Database tpch_db;
  {
    TpchOptions topt;
    topt.scale_factor = quick ? 0.002 : 0.01;
    Status st = LoadTpch(&tpch_db, topt);
    if (!st.ok()) {
      std::fprintf(stderr, "bench_codegen: TPC-H load failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
    (void)tpch_db.AnalyzeAll();
  }

  const QueryOptions plain;  // default strategy: canonical planner
  const QueryOptions unnested =
      QueryOptions::With(ExecutionStrategy::kUnnested);

  struct Row {
    const char* name;
    Database* db;
    const char* sql;
    QueryOptions options;
  };
  const Row rows[] = {
      {"filter_1m", &filter_db, kFilterSql, plain},
      {"bypass_select", &rst_db, kBypassSql, unnested},
      {"q2d", &tpch_db, TpchQuery2d(), unnested},
  };
  constexpr size_t kBatches[] = {1, 1024};

  std::vector<std::pair<std::string, Cell>> cells;
  for (const Row& row : rows) {
    for (size_t batch : kBatches) {
      cells.emplace_back(
          std::string(row.name) + "/" + std::to_string(batch),
          RunPair(row.db, row.sql, row.options, batch, reps));
    }
  }
  // Compile economics: mean measured compiler latency, the cached
  // re-prepare cost, and the break-even execution count against the
  // headline batch-1024 filter gain.
  const CodegenStats cg = filter_db.codegen_engine()->stats();
  const double compile_ms =
      cg.compiles > 0 ? 1e3 * cg.compile_seconds_total /
                            static_cast<double>(cg.compiles)
                      : 0.0;
  const auto t0 = std::chrono::steady_clock::now();
  {
    QueryOptions opts = plain;
    opts.enable_codegen = true;
    opts.codegen_synchronous = true;
    opts.batch_size = 1024;
    auto cached = filter_db.Prepare(kFilterSql, opts);
    if (!cached.ok() || cached->compiled_pipelines() == 0) {
      std::fprintf(stderr, "bench_codegen: cached re-prepare failed\n");
      return 1;
    }
  }
  const double cached_prepare_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();

  const Cell* headline = nullptr;
  for (const auto& [name, cell] : cells) {
    if (name == "filter_1m/1024") headline = &cell;
  }
  const double gain_ms =
      headline != nullptr
          ? headline->interpreted_ms - headline->compiled_ms
          : 0.0;
  const int break_even =
      gain_ms > 0 ? static_cast<int>(std::ceil(compile_ms / gain_ms)) : -1;

  if (json) {
    std::printf("{\n  \"available\": true,\n  \"rows_filter\": %lld,\n"
                "  \"rows_rst\": %lld,\n  \"pipelines\": {\n",
                static_cast<long long>(filter_rows),
                static_cast<long long>(rst_rows));
    for (size_t i = 0; i < cells.size(); ++i) {
      const auto slash = cells[i].first.find('/');
      PrintCellJson(cells[i].first.substr(0, slash).c_str(),
                    static_cast<size_t>(std::stoul(
                        cells[i].first.substr(slash + 1))),
                    cells[i].second, i + 1 == cells.size());
    }
    std::printf(
        "  },\n  \"compile\": {\"compile_ms\": %.1f, "
        "\"cached_prepare_ms\": %.2f, \"compiles\": %lld, "
        "\"cache_hits\": %lld, \"gain_per_exec_ms\": %.3f, "
        "\"break_even_executions\": %d}\n}\n",
        compile_ms, cached_prepare_ms,
        static_cast<long long>(cg.compiles),
        static_cast<long long>(cg.cache_hits), gain_ms, break_even);
    return 0;
  }

  PrintBanner("codegen", "compiled pipelines vs interpreted kernels",
              "median of " + std::to_string(reps) + ", batch 1 and 1024");
  ResultTable table({"interpreted ms", "compiled ms", "speedup"});
  char buf[3][64];
  for (const auto& [name, cell] : cells) {
    std::snprintf(buf[0], sizeof(buf[0]), "%.3f", cell.interpreted_ms);
    std::snprintf(buf[1], sizeof(buf[1]), "%.3f", cell.compiled_ms);
    std::snprintf(buf[2], sizeof(buf[2]), "%.2fx%s", cell.speedup,
                  cell.result_agrees ? "" : " (MISMATCH)");
    table.AddRow(name, {buf[0], buf[1], buf[2]});
  }
  table.Print();
  std::printf(
      "compile: %.1f ms mean (%lld compiles), cached re-prepare %.2f ms, "
      "break-even %d executions of filter_1m@1024 (gain %.3f ms/exec)\n",
      compile_ms, static_cast<long long>(cg.compiles), cached_prepare_ms,
      break_even, gain_ms);
  return 0;
}
