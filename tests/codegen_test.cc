// Differential tests for the codegen tier (DESIGN.md §12): plans whose
// filter/bypass pipelines were fused into dlopen'd
// native code must be byte-identical to the interpreted oracle — across
// batch sizes {1, 2, 7, 1024}, NULL-heavy 3VL data, string comparisons
// and LIKE, the morsel-parallel executor, async compile + swap, and the
// ANALYZE staleness protocol shared with the plan cache. Every test
// skips cleanly when the tier is compiled out or the host toolchain
// probe fails, so minimal and sanitizer builds stay green.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "codegen/codegen_engine.h"
#include "engine/database.h"
#include "engine/plan_cache.h"
#include "engine/server.h"
#include "engine/session.h"
#include "query_corpus.h"
#include "test_util.h"

namespace bypass {
namespace {

using testing_util::LoadSmallRst;

// Predicate shapes the lowering must monomorphize: comparisons over
// int64 under 3VL NULLs, AND/OR/NOT nesting, IS [NOT] NULL, arithmetic
// (+,-,*; division stays interpreted), a scalar-subquery disjunct so
// bypass plans appear, and a grouping with MIN/MAX folds over a
// compiled filter. Values live in [0, 6].
const char* kCodegenQueries[] = {
    "SELECT * FROM r WHERE a1 < 2 OR a2 > 4",
    "SELECT * FROM r WHERE a1 < 2 OR a2 > 4 OR a3 = 3 "
    "OR a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2)",
    "SELECT * FROM r WHERE NOT (a1 >= 3 AND a2 <= 4) OR a3 <> 2",
    "SELECT * FROM r WHERE a1 IS NULL OR a2 IS NOT NULL AND a3 < 5",
    "SELECT * FROM r WHERE a1 + a2 > 6 OR a3 * 2 = a4 "
    "OR a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2)",
    "SELECT * FROM r WHERE a1 - 1 <= a2 OR a4 > 5",
    "SELECT a1, MAX(a2), MIN(a2), COUNT(a2) FROM r WHERE a2 > 1 OR a3 <> 3 "
    "GROUP BY a1",
};

QueryOptions CodegenOptions(size_t batch_size = 1024, int num_threads = 1) {
  QueryOptions opts = QueryOptions::With(ExecutionStrategy::kUnnested);
  opts.enable_codegen = true;
  opts.codegen_synchronous = true;  // deterministic: compiled on first run
  opts.batch_size = batch_size;
  opts.num_threads = num_threads;
  opts.morsel_size = 8;  // split even the small test tables
  return opts;
}

/// Requires a usable codegen tier or skips the test (minimal builds,
/// hosts without a compiler).
#define REQUIRE_CODEGEN(db)                                            \
  do {                                                                 \
    if (!CodegenEngine::BuiltWithCodegen() ||                          \
        !(db).codegen_engine()->Available()) {                         \
      GTEST_SKIP() << "codegen tier unavailable on this build/host";   \
    }                                                                  \
  } while (0)

/// Runs `sql` compiled and interpreted under otherwise-identical options
/// and asserts multiset-equal rows. `expect_compiled` additionally
/// asserts the compiled path really engaged (guards vacuous passes).
void ExpectCompiledAgrees(Database* db, const std::string& sql,
                          QueryOptions opts, bool expect_compiled = true) {
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

  if (expect_compiled) {
    EXPECT_GT(prepared->compiled_pipelines(), 0)
        << "no pipeline was compiled\nsql: " << sql;
    EXPECT_GT(compiled->stats.compiled_batches, 0)
        << "compiled code never ran\nsql: " << sql;
    EXPECT_EQ(compiled->stats.compiled_fallback_batches, 0)
        << "unexpected per-batch fallback\nsql: " << sql;
  }
  EXPECT_TRUE(RowMultisetsEqual(compiled->rows, oracle->rows))
      << "compiled and interpreted plans disagree\nsql: " << sql
      << "\ncompiled rows: " << compiled->rows.size()
      << "\ninterpreted rows: " << oracle->rows.size();
}

// ------------------------------------------------ differential sweeps

class CodegenDifferential
    : public ::testing::TestWithParam<std::tuple<size_t, double>> {};

// Once more with a2 a DOUBLE column of NaN, -0.0, ±inf and integral
// doubles: the emitted compares (double × double, int64 × double) and
// MIN/MAX folds over the compiled selection must follow the numeric
// order as the interpreter does.
TEST_P(CodegenDifferential, MatchesInterpreterOnRst) {
  const auto [batch_size, null_fraction] = GetParam();
  for (bool special_doubles : {false, true}) {
    Database db;
    LoadSmallRst(&db, 91, 60, 30, 15, null_fraction, 6, "", special_doubles);
    REQUIRE_CODEGEN(db);
    for (const char* sql : kCodegenQueries) {
      ExpectCompiledAgrees(&db, sql, CodegenOptions(batch_size));
    }
  }
}

// k = 2..5 leading simple disjuncts unnest to a σ± cascade k levels
// deep; each level is its own compiled bypass stage and must route rows
// like the interpreted BypassFilter± it replaces.
TEST_P(CodegenDifferential, MatchesInterpreterOnLeadingSimpleDisjuncts) {
  const auto [batch_size, null_fraction] = GetParam();
  Database db;
  LoadSmallRst(&db, 92, 60, 30, 15, null_fraction);
  REQUIRE_CODEGEN(db);
  for (const std::string& sql :
       testing_util::LeadingSimpleDisjunctQueries()) {
    ExpectCompiledAgrees(&db, sql, CodegenOptions(batch_size));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CodegenDifferential,
    ::testing::Combine(::testing::Values<size_t>(1, 2, 7, 1024),
                       ::testing::Values(0.0, 0.4)),
    [](const auto& info) {
      return "batch" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) > 0 ? "_nulls" : "_dense");
    });

// Strings: comparisons and LIKE against a dedicated table (RST is pure
// int64). Includes NULL strings, empty strings, and '%'-backtracking
// patterns.
TEST(Codegen, StringCompareAndLikeMatchInterpreter) {
  Database db;
  Schema schema;
  schema.AddColumn({"name", DataType::kString, ""});
  schema.AddColumn({"grade", DataType::kInt64, ""});
  auto table = db.CreateTable("people", schema);
  ASSERT_TRUE(table.ok());
  const char* names[] = {"alice",   "bob",  "carol", "",      "bobcat",
                         "aliceee", "carl", "bo",    "%wild", "under_x"};
  std::vector<Row> rows;
  for (int i = 0; i < 400; ++i) {
    Row row;
    if (i % 11 == 0) {
      row.push_back(Value::Null());
    } else {
      row.push_back(Value::String(names[i % 10]));
    }
    row.push_back(i % 13 == 0 ? Value::Null() : Value::Int64(i % 7));
    rows.push_back(std::move(row));
  }
  ASSERT_TRUE((*table)->AppendUnchecked(std::move(rows)).ok());
  REQUIRE_CODEGEN(db);

  const char* queries[] = {
      "SELECT * FROM people WHERE name = 'bob' OR grade > 4",
      "SELECT * FROM people WHERE name < 'c' AND name >= 'b'",
      "SELECT * FROM people WHERE name LIKE 'bo%' OR name LIKE '%ol'",
      "SELECT * FROM people WHERE name LIKE '%li%e%' OR grade = 2",
      "SELECT * FROM people WHERE name LIKE 'b_b' OR name LIKE '_'",
      "SELECT * FROM people WHERE name NOT LIKE 'a%' AND name <> ''",
      "SELECT * FROM people WHERE name IS NULL OR name LIKE '%cat'",
  };
  for (size_t batch : {size_t{1}, size_t{7}, size_t{1024}}) {
    for (const char* sql : queries) {
      ExpectCompiledAgrees(&db, sql, CodegenOptions(batch));
    }
  }
}

// Mixed int64/double comparisons widen through the same three-way
// ordering the interpreter uses.
TEST(Codegen, MixedNumericComparisonsMatchInterpreter) {
  Database db;
  Schema schema;
  schema.AddColumn({"x", DataType::kInt64, ""});
  schema.AddColumn({"y", DataType::kDouble, ""});
  auto table = db.CreateTable("m", schema);
  ASSERT_TRUE(table.ok());
  std::vector<Row> rows;
  for (int i = 0; i < 300; ++i) {
    Row row;
    row.push_back(i % 9 == 0 ? Value::Null() : Value::Int64(i % 10 - 5));
    row.push_back(i % 7 == 0 ? Value::Null()
                             : Value::Double((i % 11) * 0.5 - 2.0));
    rows.push_back(std::move(row));
  }
  ASSERT_TRUE((*table)->AppendUnchecked(std::move(rows)).ok());
  REQUIRE_CODEGEN(db);

  const char* queries[] = {
      "SELECT * FROM m WHERE x < y OR x > 3",
      "SELECT * FROM m WHERE y = 0.5 OR x = -2",
      "SELECT * FROM m WHERE x + y >= 1.5 AND y < 3",
      "SELECT * FROM m WHERE x * y < 0 OR y IS NULL",
  };
  for (const char* sql : queries) {
    ExpectCompiledAgrees(&db, sql, CodegenOptions(1024));
    ExpectCompiledAgrees(&db, sql, CodegenOptions(3));
  }
}

// ------------------------------------------------------- fallback paths

// Division can raise ExecutionError (no error channel out of emitted
// code), so predicates containing it must stay interpreted: no pipeline
// installs, results still correct.
TEST(Codegen, DivisionStaysInterpreted) {
  Database db;
  LoadSmallRst(&db, 93, 50, 25, 12, 0.2);
  REQUIRE_CODEGEN(db);
  QueryOptions opts = CodegenOptions(1024);
  auto prepared =
      db.Prepare("SELECT * FROM r WHERE a1 / 2 = 1 OR a2 > 4", opts);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  EXPECT_EQ(prepared->compiled_pipelines(), 0);
  ExpectCompiledAgrees(&db, "SELECT * FROM r WHERE a1 / 2 = 1 OR a2 > 4",
                       opts, /*expect_compiled=*/false);
}

// Row-mode batches (enable_columnar = false) have no typed columns; the
// compiled operator must detect that per batch and hand the batch to the
// interpreted chain unchanged.
TEST(Codegen, RowModeBatchesFallBackPerBatch) {
  Database db;
  LoadSmallRst(&db, 94, 50, 25, 12, 0.2);
  REQUIRE_CODEGEN(db);
  QueryOptions opts = CodegenOptions(64);
  opts.enable_columnar = false;
  const std::string sql = kCodegenQueries[1];
  auto prepared = db.Prepare(sql, opts);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  auto res = prepared->Execute(opts);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_GT(res->stats.compiled_fallback_batches, 0);
  EXPECT_EQ(res->stats.compiled_batches, 0);

  QueryOptions interp = opts;
  interp.enable_codegen = false;
  auto oracle = db.Query(sql, interp);
  ASSERT_TRUE(oracle.ok());
  EXPECT_TRUE(RowMultisetsEqual(res->rows, oracle->rows));
}

// ------------------------------------------------- async compile + swap

// Asynchronous submission: the plan runs interpreted until the worker
// thread finishes compiling, then the compiled function is swapped in.
// Either way every execution must agree with the oracle.
TEST(Codegen, AsyncCompileSwapsInWithoutChangingResults) {
  Database db;
  LoadSmallRst(&db, 95, 60, 30, 15, 0.3);
  REQUIRE_CODEGEN(db);
  QueryOptions opts = CodegenOptions(128);
  opts.codegen_synchronous = false;
  const std::string sql = kCodegenQueries[1];

  auto prepared = db.Prepare(sql, opts);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  ASSERT_GT(prepared->compiled_pipelines(), 0);

  QueryOptions interp = opts;
  interp.enable_codegen = false;
  auto oracle = db.Query(sql, interp);
  ASSERT_TRUE(oracle.ok());

  // First execution may race the compiler (interpreted fallback batches
  // are fine); after WaitIdle the compiled function must serve.
  auto first = prepared->Execute(opts);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_TRUE(RowMultisetsEqual(first->rows, oracle->rows));

  ASSERT_TRUE(db.codegen_engine()->WaitIdle(std::chrono::milliseconds(30000)));
  auto second = prepared->Execute(opts);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_GT(second->stats.compiled_batches, 0)
      << "compiled function was not swapped in after WaitIdle";
  EXPECT_EQ(second->stats.compiled_fallback_batches, 0);
  EXPECT_TRUE(RowMultisetsEqual(second->rows, oracle->rows));
}

// ------------------------------------- artifact cache + ANALYZE staleness

// Re-preparing the same query reuses the cached dlopen artifact instead
// of invoking the compiler again.
TEST(Codegen, ArtifactCacheDedupesCompiles) {
  Database db;
  LoadSmallRst(&db, 96, 50, 25, 12);
  REQUIRE_CODEGEN(db);
  QueryOptions opts = CodegenOptions(1024);
  const std::string sql = kCodegenQueries[0];

  auto first = db.Prepare(sql, opts);
  ASSERT_TRUE(first.ok());
  ASSERT_GT(first->compiled_pipelines(), 0);
  const CodegenStats after_first = db.codegen_engine()->stats();
  EXPECT_EQ(after_first.compiles, 1u);

  auto second = db.Prepare(sql, opts);
  ASSERT_TRUE(second.ok());
  ASSERT_GT(second->compiled_pipelines(), 0);
  const CodegenStats after_second = db.codegen_engine()->stats();
  EXPECT_EQ(after_second.compiles, 1u);  // no recompilation
  EXPECT_GT(after_second.cache_hits, after_first.cache_hits);

  auto res = second->Execute(opts);
  ASSERT_TRUE(res.ok());
  EXPECT_GT(res->stats.codegen_cache_hits, 0);
}

// Two textually distinct SQL strings lower to the same emitted source;
// the second Prepare must reuse the first's dlopen artifact (one
// compile) and the engine must count the cross-plan share: the plan tag
// is a hash of the SQL text, so the tags differ while the source hash
// matches.
TEST(Codegen, DistinctSqlTextsShareOneArtifact) {
  Database db;
  LoadSmallRst(&db, 117, 50, 25, 12);
  REQUIRE_CODEGEN(db);
  QueryOptions opts = CodegenOptions(1024);
  const std::string sql_a = "SELECT * FROM r WHERE a1 < 2 OR a2 > 4";
  const std::string sql_b = "SELECT  *  FROM r WHERE (a1 < 2) OR (a2 > 4)";

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

// ------------------------------------------------- float folds + swap

/// The rows as sorted strings, doubles spelled by their bit patterns, so
/// two results compare equal only when every sum is bit-identical.
std::vector<std::string> BitExactRows(const std::vector<Row>& rows) {
  std::vector<std::string> out;
  for (const Row& row : rows) {
    std::string line;
    for (const Value& v : row) {
      if (v.is_double()) {
        const double d = v.double_value();
        uint64_t bits = 0;
        std::memcpy(&bits, &d, sizeof bits);
        line += "d" + std::to_string(bits);
      } else {
        line += v.ToString();
      }
      line += "|";
    }
    out.push_back(std::move(line));
  }
  std::sort(out.begin(), out.end());
  return out;
}

// A grouped float SUM/AVG over a compiled filter chain: the grouping
// stays interpreted and folds each group's rows in row order whether a
// batch was filtered compiled or interpreted, so a run that straddles
// the async swap yields the interpreter's sums bit for bit.
TEST(Codegen, FloatFoldsOverAsyncSwapAreBitIdentical) {
  Database db;
  LoadSmallRst(&db, 119, 400, 30, 15, 0.2);
  REQUIRE_CODEGEN(db);
  QueryOptions opts = CodegenOptions(16);
  opts.codegen_synchronous = false;
  const std::string sql =
      "SELECT a1, SUM(a2 * 0.1), AVG(a3 * 0.1) FROM r WHERE a4 > 2 "
      "GROUP BY a1";

  auto prepared = db.Prepare(sql, opts);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  ASSERT_GT(prepared->compiled_pipelines(), 0);

  QueryOptions interp = opts;
  interp.enable_codegen = false;
  auto oracle = db.Query(sql, interp);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  const std::vector<std::string> want = BitExactRows(oracle->rows);

  auto first = prepared->Execute(opts);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(BitExactRows(first->rows), want);

  ASSERT_TRUE(db.codegen_engine()->WaitIdle(std::chrono::milliseconds(30000)));
  auto second = prepared->Execute(opts);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_GT(second->stats.compiled_batches, 0)
      << "compiled function was not swapped in after WaitIdle";
  EXPECT_EQ(second->stats.compiled_fallback_batches, 0);
  EXPECT_EQ(BitExactRows(second->rows), want);
}

// The regression the staleness protocol exists for: ANALYZE bumps the
// catalog epoch; artifacts compiled under the old epoch must be evicted,
// not served to re-planned queries. Routed through the serving layer so
// the plan cache's EvictStale drives the artifact sweep exactly as in
// production.
TEST(Codegen, AnalyzeNeverServesStaleCompiledCode) {
  Database db;
  LoadSmallRst(&db, 97, 60, 30, 15, 0.2);
  REQUIRE_CODEGEN(db);
  ServerOptions sopts;
  sopts.plan_cache_entries = 32;
  Server server(&db, sopts);
  auto session = server.Connect();
  QueryOptions opts = CodegenOptions(256);
  const std::string sql = kCodegenQueries[1];

  auto r1 = session->Query(sql, opts);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  EXPECT_GT(r1->stats.compiled_batches, 0);
  const CodegenStats before = db.codegen_engine()->stats();
  EXPECT_GE(before.cached_artifacts, 1u);

  // Statistics move; both halves of the cache must invalidate.
  ASSERT_TRUE(db.AnalyzeAll().ok());
  auto r2 = session->Query(sql, opts);
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();

  const CodegenStats after = db.codegen_engine()->stats();
  EXPECT_GE(after.artifact_evictions, before.cached_artifacts)
      << "stale dlopen artifacts survived the ANALYZE sweep";
  const PlanCacheStats cache = server.stats().plan_cache;
  EXPECT_GE(cache.compiled_stale_evictions, 1u);
  // The re-planned query compiled fresh code against the new epoch (the
  // old artifact cannot satisfy it: same source hash, older epoch).
  EXPECT_GT(after.compiles, before.compiles)
      << "re-planned query reused an artifact compiled pre-ANALYZE";
  EXPECT_GT(r2->stats.compiled_batches, 0);
  EXPECT_TRUE(RowMultisetsEqual(r1->rows, r2->rows));
}

// Compiled-tier plan cache statistics: hits/misses/evictions restricted
// to entries holding compiled plans.
TEST(Codegen, PlanCacheTracksCompiledTier) {
  Database db;
  LoadSmallRst(&db, 98, 50, 25, 12);
  REQUIRE_CODEGEN(db);
  ServerOptions sopts;
  sopts.plan_cache_entries = 32;
  Server server(&db, sopts);
  auto session = server.Connect();
  QueryOptions opts = CodegenOptions(1024);

  // One compiled query (miss, then hit), one interpreted-only query.
  ASSERT_TRUE(session->Query(kCodegenQueries[0], opts).ok());
  ASSERT_TRUE(session->Query(kCodegenQueries[0], opts).ok());
  QueryOptions plain = opts;
  plain.enable_codegen = false;
  ASSERT_TRUE(session->Query(kCodegenQueries[0], plain).ok());
  ASSERT_TRUE(session->Query(kCodegenQueries[0], plain).ok());

  const PlanCacheStats cache = server.stats().plan_cache;
  EXPECT_EQ(cache.misses, 2u);
  EXPECT_EQ(cache.hits, 2u);
  EXPECT_EQ(cache.compiled_misses, 1u);
  EXPECT_EQ(cache.compiled_hits, 1u);
  EXPECT_EQ(cache.entries, 2u);
  EXPECT_EQ(cache.compiled_entries, 1u);
}

// The emitted sources/objects live in a scratch directory that the
// engine removes; successful compiles must leave nothing behind even
// while the dlopen handle stays mapped.
TEST(Codegen, ScratchDirectoryStaysClean) {
  Database db;
  LoadSmallRst(&db, 99, 40, 20, 10);
  REQUIRE_CODEGEN(db);
  QueryOptions opts = CodegenOptions(1024);
  auto prepared = db.Prepare(kCodegenQueries[0], opts);
  ASSERT_TRUE(prepared.ok());
  ASSERT_GT(prepared->compiled_pipelines(), 0);
  auto res = prepared->Execute(opts);
  ASSERT_TRUE(res.ok());
  EXPECT_GT(res->stats.compiled_batches, 0);
  // The artifact is live (mapped) yet its files are already unlinked.
  EXPECT_EQ(db.codegen_engine()->ScratchFileCount(), 0);
}

// --------------------------------------------------- parallel execution

class CodegenParallelDifferential
    : public ::testing::TestWithParam<int> {};

TEST_P(CodegenParallelDifferential, MorselParallelMatchesInterpreter) {
  const int num_threads = GetParam();
  Database db;
  LoadSmallRst(&db, 100, 120, 40, 20, 0.3);
  REQUIRE_CODEGEN(db);
  for (const char* sql : kCodegenQueries) {
    ExpectCompiledAgrees(&db, sql, CodegenOptions(32, num_threads));
  }
}

TEST_P(CodegenParallelDifferential, LeadingSimpleDisjunctsMatchInterpreter) {
  const int num_threads = GetParam();
  Database db;
  LoadSmallRst(&db, 100, 120, 40, 20, 0.3);
  REQUIRE_CODEGEN(db);
  for (const std::string& sql :
       testing_util::LeadingSimpleDisjunctQueries()) {
    ExpectCompiledAgrees(&db, sql, CodegenOptions(32, num_threads));
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, CodegenParallelDifferential,
                         ::testing::Values(1, 4),
                         [](const auto& info) {
                           return "t" + std::to_string(info.param);
                         });

// Concurrent sessions racing the async compiler against ANALYZE churn:
// plans swap between interpreted and compiled mid-stream while artifacts
// are evicted; every result must stay correct. (TSan target.)
TEST(CodegenParallelServing, AsyncCompileUnderAnalyzeChurn) {
  Database db;
  LoadSmallRst(&db, 101, 80, 30, 15, 0.2);
  REQUIRE_CODEGEN(db);
  ServerOptions sopts;
  sopts.plan_cache_entries = 16;
  sopts.max_concurrent_queries = 4;
  Server server(&db, sopts);

  QueryOptions opts = CodegenOptions(64);
  opts.codegen_synchronous = false;  // race compiles against queries
  QueryOptions interp = opts;
  interp.enable_codegen = false;
  const std::string sql = kCodegenQueries[1];
  auto oracle = db.Query(sql, interp);
  ASSERT_TRUE(oracle.ok());

  std::vector<std::thread> clients;
  std::atomic<int> mismatches{0};
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      auto session = server.Connect();
      for (int i = 0; i < 12; ++i) {
        auto res = session->Query(sql, opts);
        if (!res.ok() || !RowMultisetsEqual(res->rows, oracle->rows)) {
          mismatches.fetch_add(1);
        }
        if (c == 0 && i % 4 == 3) (void)db.Analyze("r");
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace bypass
