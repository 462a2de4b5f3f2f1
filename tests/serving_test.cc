// Tests for the serving layer (engine/server.h, engine/session.h,
// engine/plan_cache.h): plan-cache behaviour, admission control and
// backpressure, memory budgets, the async Submit/Poll/Wait API, and
// PreparedQuery's non-reentrancy guard. The ServingParallel suite is the
// concurrent differential half — N client threads with mixed strategies
// against a serial oracle — and runs under TSan via the
// `parallel-serving` ctest label.
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/database.h"
#include "engine/plan_cache.h"
#include "engine/server.h"
#include "engine/session.h"
#include "test_util.h"

namespace bypass {
namespace {

using testing_util::IntSchema;
using testing_util::LoadSmallRst;

/// Queries covering the serving-relevant plan shapes: disjunctive
/// correlated blocks (the paper's subject), EXISTS/IN, and a plain scan.
const char* const kServingQueries[] = {
    "SELECT DISTINCT * FROM r "
    "WHERE a4 > 3 OR a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2)",
    "SELECT DISTINCT * FROM r "
    "WHERE a1 IN (SELECT b1 FROM s WHERE b2 = a2) OR a3 = 0",
    "SELECT DISTINCT * FROM r "
    "WHERE EXISTS (SELECT * FROM s WHERE b1 = a1) OR a2 > 4",
    "SELECT a1, a2 FROM r WHERE a3 < 2",
};

const ExecutionStrategy kServingStrategies[] = {
    ExecutionStrategy::kCanonical,
    ExecutionStrategy::kCanonicalMemo,
    ExecutionStrategy::kUnnested,
    ExecutionStrategy::kCostBased,
};

/// A query slow enough to still be running when another thread acts
/// (canonical nested-loop over the full r x s cross section).
const char* kSlowSql =
    "SELECT DISTINCT * FROM r "
    "WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2) OR a4 > 100";

QueryOptions SlowOptions() {
  QueryOptions o = QueryOptions::With(ExecutionStrategy::kCanonical);
  o.collect_plans = false;
  return o;
}

// ----------------------------------------------------------- basic paths

TEST(Serving, SessionQueryMatchesDatabaseQuery) {
  Database db;
  LoadSmallRst(&db, 11, 60, 40, 10, 0.1);
  auto direct = db.Query(kServingQueries[0]);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();

  auto session = db.server()->Connect();
  auto served = session->Query(kServingQueries[0]);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_TRUE(RowMultisetsEqual(direct->rows, served->rows));
  EXPECT_EQ(session->queries_issued(), 1u);
}

TEST(Serving, AsyncSubmitPollWait) {
  Database db;
  LoadSmallRst(&db, 12, 50, 30, 10);
  auto oracle = db.Query(kServingQueries[1]);
  ASSERT_TRUE(oracle.ok());

  auto session = db.server()->Connect();
  QueryHandle handle = session->Submit(kServingQueries[1]);
  ASSERT_TRUE(handle.valid());
  EXPECT_TRUE(handle.WaitFor(std::chrono::milliseconds(10000)));
  EXPECT_TRUE(handle.Poll());
  auto result = handle.Wait();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(RowMultisetsEqual(oracle->rows, result->rows));

  // The result can be taken exactly once.
  auto again = handle.Wait();
  EXPECT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), StatusCode::kInvalidArgument);
}

TEST(Serving, WaitOnEmptyHandleFails) {
  QueryHandle empty;
  EXPECT_FALSE(empty.valid());
  EXPECT_FALSE(empty.Poll());
  auto result = empty.Wait();
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(Serving, QueryErrorsPropagateThroughServer) {
  Database db;
  LoadSmallRst(&db, 13, 10, 10, 10);
  auto session = db.server()->Connect();
  auto bad = session->Query("SELECT nope FROM r");
  EXPECT_FALSE(bad.ok());
  auto handle = session->Submit("SELECT nope FROM r");
  auto async_bad = handle.Wait();
  EXPECT_FALSE(async_bad.ok());
  const ServerStats stats = db.server()->stats();
  EXPECT_GE(stats.queries_failed, 2u);
}

// ------------------------------------------------------------ plan cache

TEST(Serving, PlanCacheKeyNormalization) {
  const QueryOptions opts;
  EXPECT_EQ(PlanCacheKey("SELECT * FROM r", opts),
            PlanCacheKey("  SELECT   *\n FROM r ; ", opts));
  EXPECT_NE(PlanCacheKey("SELECT * FROM r", opts),
            PlanCacheKey("SELECT * FROM s", opts));
  // Plan-shape knobs split the key; execution knobs do not.
  EXPECT_NE(
      PlanCacheKey("SELECT * FROM r",
                   QueryOptions::With(ExecutionStrategy::kCanonical)),
      PlanCacheKey("SELECT * FROM r",
                   QueryOptions::With(ExecutionStrategy::kUnnested)));
  QueryOptions threaded;
  threaded.num_threads = 4;
  threaded.batch_size = 7;
  EXPECT_EQ(PlanCacheKey("SELECT * FROM r", opts),
            PlanCacheKey("SELECT * FROM r", threaded));
}

TEST(Serving, PlanCacheHitsOnRepeatedQueries) {
  Database db;
  LoadSmallRst(&db, 14, 50, 30, 10);
  ServerOptions opts;
  opts.plan_cache_entries = 32;
  Server server(&db, opts);
  auto session = server.Connect();

  auto oracle = db.Query(kServingQueries[0]);
  ASSERT_TRUE(oracle.ok());
  const int kRuns = 25;
  for (int i = 0; i < kRuns; ++i) {
    auto result = session->Query(kServingQueries[0]);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(RowMultisetsEqual(oracle->rows, result->rows));
  }
  const PlanCacheStats cache = server.stats().plan_cache;
  EXPECT_EQ(cache.misses, 1u);
  EXPECT_EQ(cache.hits, static_cast<uint64_t>(kRuns - 1));
  EXPECT_GT(cache.hit_rate(), 0.9);
  EXPECT_EQ(cache.entries, 1u);
}

TEST(Serving, PlanCacheSplitsByStrategy) {
  Database db;
  LoadSmallRst(&db, 15, 40, 25, 10);
  ServerOptions opts;
  opts.plan_cache_entries = 32;
  Server server(&db, opts);
  auto session = server.Connect();
  for (int round = 0; round < 3; ++round) {
    for (ExecutionStrategy s : kServingStrategies) {
      auto result =
          session->Query(kServingQueries[0], QueryOptions::With(s));
      ASSERT_TRUE(result.ok()) << result.status().ToString();
    }
  }
  const PlanCacheStats cache = server.stats().plan_cache;
  // kUnnested and kCostBased may share a fingerprint only if every knob
  // matches — they differ in cost_based, so four distinct entries.
  EXPECT_EQ(cache.entries, 4u);
  EXPECT_EQ(cache.misses, 4u);
  EXPECT_EQ(cache.hits, 8u);
}

TEST(Serving, PlanCacheEvictsStaleEntriesAfterAnalyze) {
  Database db;
  LoadSmallRst(&db, 16, 40, 25, 10);
  ServerOptions opts;
  opts.plan_cache_entries = 32;
  Server server(&db, opts);
  auto session = server.Connect();

  ASSERT_TRUE(session->Query(kServingQueries[0]).ok());
  ASSERT_TRUE(session->Query(kServingQueries[0]).ok());
  EXPECT_EQ(server.stats().plan_cache.entries, 1u);

  // ANALYZE moves r's and s's statistics: the cached plan goes stale
  // and the next query sweeps it out and re-plans.
  ASSERT_TRUE(db.AnalyzeAll().ok());
  auto result = session->Query(kServingQueries[0]);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const PlanCacheStats cache = server.stats().plan_cache;
  EXPECT_GE(cache.stale_evictions, 1u);
  EXPECT_EQ(cache.misses, 2u);  // initial + post-ANALYZE re-plan
}

TEST(Serving, PlanCacheStaysBoundedUnderAnalyzeChurn) {
  Database db;
  LoadSmallRst(&db, 17, 30, 20, 10);
  ServerOptions opts;
  opts.plan_cache_entries = 4;  // deliberately tiny
  Server server(&db, opts);
  auto session = server.Connect();

  // Churn: distinct query texts (rotating literals) interleaved with
  // ANALYZE, far more keys than the cache may hold.
  for (int i = 0; i < 40; ++i) {
    const std::string sql =
        "SELECT DISTINCT * FROM r WHERE a3 = " + std::to_string(i % 10) +
        " OR a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2)";
    auto result = session->Query(sql);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_LE(server.stats().plan_cache.entries, 4u);
    if (i % 7 == 3) {
      ASSERT_TRUE(db.Analyze("r").ok());
    }
  }
  const PlanCacheStats cache = server.stats().plan_cache;
  EXPECT_LE(cache.entries, 4u);
  EXPECT_GT(cache.capacity_evictions + cache.stale_evictions, 0u);
}

// -------------------------------------------------- budgets & admission

TEST(Serving, MemoryBudgetFailsOversizedStandaloneQuery) {
  Database db;
  LoadSmallRst(&db, 18, 400, 10, 10);
  // A few hundred result rows cannot fit a 1 KiB budget.
  QueryOptions tiny;
  tiny.memory_budget_bytes = 1024;
  auto starved = db.Query("SELECT * FROM r", tiny);
  ASSERT_FALSE(starved.ok());
  EXPECT_EQ(starved.status().code(), StatusCode::kResourceExhausted);

  QueryOptions roomy;
  roomy.memory_budget_bytes = 64u << 20;
  auto fine = db.Query("SELECT * FROM r", roomy);
  EXPECT_TRUE(fine.ok()) << fine.status().ToString();
  EXPECT_EQ(fine->rows.size(), 400u);
}

TEST(Serving, ServerDefaultQueryBudgetApplies) {
  Database db;
  LoadSmallRst(&db, 19, 400, 10, 10);
  ServerOptions opts;
  opts.default_query_memory_bytes = 1024;
  Server server(&db, opts);
  auto session = server.Connect();
  auto starved = session->Query("SELECT * FROM r");
  ASSERT_FALSE(starved.ok());
  EXPECT_EQ(starved.status().code(), StatusCode::kResourceExhausted);

  // An explicit per-query budget overrides the server default.
  QueryOptions roomy;
  roomy.memory_budget_bytes = 64u << 20;
  auto fine = session->Query("SELECT * FROM r", roomy);
  EXPECT_TRUE(fine.ok()) << fine.status().ToString();
}

TEST(Serving, AdmissionRejectsBudgetBeyondServerBudget) {
  Database db;
  LoadSmallRst(&db, 20, 20, 10, 10);
  ServerOptions opts;
  opts.memory_budget_bytes = 1u << 20;
  Server server(&db, opts);
  auto session = server.Connect();
  QueryOptions greedy;
  greedy.memory_budget_bytes = 2u << 20;  // can never fit
  auto rejected = session->Query("SELECT * FROM r", greedy);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  EXPECT_GE(server.stats().queries_rejected, 1u);
}

TEST(Serving, SubmitQueueOverflowRejects) {
  Database db;
  LoadSmallRst(&db, 21, 2000, 2000, 10);
  ServerOptions opts;
  opts.max_concurrent_queries = 1;
  opts.max_pending_queries = 2;
  Server server(&db, opts);
  auto session = server.Connect();

  // One slow query occupies the only dispatcher; two fit in the queue;
  // further submissions bounce with ResourceExhausted.
  std::vector<QueryHandle> handles;
  handles.push_back(session->Submit(kSlowSql, SlowOptions()));
  for (int i = 0; i < 6; ++i) {
    handles.push_back(session->Submit(kServingQueries[3]));
  }
  int rejected = 0;
  for (QueryHandle& h : handles) {
    auto result = h.Wait();
    if (!result.ok() &&
        result.status().code() == StatusCode::kResourceExhausted) {
      ++rejected;
    }
  }
  EXPECT_GE(rejected, 4);  // 7 submitted, 1 running + 2 queued at most
  EXPECT_GE(server.stats().queries_rejected, 4u);
}

TEST(Serving, CancelPendingSubmission) {
  Database db;
  LoadSmallRst(&db, 22, 2000, 2000, 10);
  ServerOptions opts;
  opts.max_concurrent_queries = 1;
  Server server(&db, opts);
  auto session = server.Connect();

  QueryHandle blocker = session->Submit(kSlowSql, SlowOptions());
  QueryHandle pending = session->Submit(kServingQueries[3]);
  pending.Cancel();
  auto cancelled = pending.Wait();
  // Either the cancel landed before the dispatcher picked it up
  // (ResourceExhausted) or the query raced to completion — both are
  // valid; the handle must resolve either way.
  if (!cancelled.ok()) {
    EXPECT_EQ(cancelled.status().code(), StatusCode::kResourceExhausted);
  }
  EXPECT_TRUE(blocker.Wait().ok());
}

// ------------------------------------------------- prepared-query guard

TEST(Serving, EmptyPreparedQueryFailsLoudly) {
  PreparedQuery empty;
  auto result = empty.Execute();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

// ===================================================== concurrent suite

TEST(ServingParallel, ConcurrentMixedStrategiesMatchSerialOracle) {
  Database db;
  LoadSmallRst(&db, 31, 60, 40, 15, 0.1);

  // Serial oracle, computed before any concurrency starts.
  std::vector<std::vector<Row>> oracle;
  for (const char* sql : kServingQueries) {
    auto result = db.Query(sql);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    oracle.push_back(std::move(result->rows));
  }

  ServerOptions opts;
  opts.plan_cache_entries = 64;
  opts.max_concurrent_queries = 4;
  Server server(&db, opts);

  constexpr int kThreads = 4;
  constexpr int kQueriesPerThread = 25;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      auto session = server.Connect(/*priority=*/t % 2);
      for (int i = 0; i < kQueriesPerThread; ++i) {
        const size_t q = static_cast<size_t>((t + i) % 4);
        QueryOptions options =
            QueryOptions::With(kServingStrategies[(t * 7 + i) % 4]);
        options.num_threads = (i % 3 == 0) ? 3 : 1;
        options.collect_plans = false;
        auto result = session->Query(kServingQueries[q], options);
        if (!result.ok() ||
            !RowMultisetsEqual(oracle[q], result->rows)) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.queries_succeeded,
            static_cast<uint64_t>(kThreads * kQueriesPerThread));
  EXPECT_EQ(stats.running, 0);
}

TEST(ServingParallel, AsyncSubmissionsDrainAndMatch) {
  Database db;
  LoadSmallRst(&db, 32, 50, 30, 10);
  auto oracle = db.Query(kServingQueries[0]);
  ASSERT_TRUE(oracle.ok());

  ServerOptions opts;
  opts.plan_cache_entries = 16;
  opts.max_concurrent_queries = 3;
  Server server(&db, opts);
  auto session = server.Connect();

  std::vector<QueryHandle> handles;
  QueryOptions options;
  options.collect_plans = false;
  // 60 submissions: at most max_concurrent_queries (3) dispatchers can
  // hold a lease on the same entry at once, so even the worst case of 3
  // cold misses keeps the hit rate at 57/60 = 0.95 — strictly above the
  // 0.9 bar instead of exactly on it.
  for (int i = 0; i < 60; ++i) {
    handles.push_back(session->Submit(kServingQueries[0], options));
  }
  for (QueryHandle& h : handles) {
    auto result = h.Wait();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(RowMultisetsEqual(oracle->rows, result->rows));
  }
  // Repeated identical queries through the cache: near-perfect reuse.
  EXPECT_GT(server.stats().plan_cache.hit_rate(), 0.9);
}

TEST(ServingParallel, AdmissionNeverExceedsConcurrencyLimit) {
  Database db;
  LoadSmallRst(&db, 33, 2000, 2000, 10);
  ServerOptions opts;
  opts.max_concurrent_queries = 2;
  Server server(&db, opts);

  // A sampler thread watches the server's running count while clients
  // hammer it; the cap must hold at every sample.
  std::atomic<bool> done{false};
  std::atomic<int> max_running{0};
  std::thread sampler([&] {
    while (!done.load(std::memory_order_relaxed)) {
      const int running = server.stats().running;
      int prev = max_running.load(std::memory_order_relaxed);
      while (running > prev &&
             !max_running.compare_exchange_weak(prev, running)) {
      }
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> clients;
  for (int t = 0; t < 6; ++t) {
    clients.emplace_back([&] {
      auto session = server.Connect();
      for (int i = 0; i < 4; ++i) {
        auto result = session->Query(kSlowSql, SlowOptions());
        EXPECT_TRUE(result.ok()) << result.status().ToString();
      }
    });
  }
  for (std::thread& t : clients) t.join();
  done.store(true, std::memory_order_relaxed);
  sampler.join();
  EXPECT_LE(max_running.load(), 2);
  EXPECT_GE(server.stats().admission_waits, 1u);
}

TEST(ServingParallel, PriorityOrdersPendingSubmissions) {
  Database db;
  LoadSmallRst(&db, 34, 2000, 2000, 10);
  ServerOptions opts;
  opts.max_concurrent_queries = 1;  // one dispatcher: serial execution
  Server server(&db, opts);
  auto session = server.Connect();

  QueryHandle blocker = session->Submit(kSlowSql, SlowOptions());
  // Enqueued while the blocker holds the only execution slot; the
  // dispatcher must then drain them highest-priority first.
  QueryOptions low;
  low.priority = -5;
  low.collect_plans = false;
  QueryOptions high;
  high.priority = 10;
  high.collect_plans = false;
  QueryHandle low_h = session->Submit(kServingQueries[3], low);
  QueryHandle high_h = session->Submit(kServingQueries[3], high);

  auto high_result = high_h.Wait();
  ASSERT_TRUE(high_result.ok()) << high_result.status().ToString();
  auto low_result = low_h.Wait();
  ASSERT_TRUE(low_result.ok());
  // When the low-priority query finished, the high one (submitted
  // later but more urgent) must long since be done.
  EXPECT_TRUE(high_h.Poll());
  EXPECT_TRUE(blocker.Wait().ok());
}

TEST(ServingParallel, ConcurrentIdenticalQueriesLeaseDistinctPlans) {
  Database db;
  LoadSmallRst(&db, 35, 50, 30, 10);
  auto oracle = db.Query(kServingQueries[1]);
  ASSERT_TRUE(oracle.ok());

  ServerOptions opts;
  opts.plan_cache_entries = 8;
  opts.max_concurrent_queries = 4;
  Server server(&db, opts);

  // Many clients running the *same* SQL concurrently: the cache must
  // lease each execution its own PreparedQuery handle — any sharing
  // would trip the non-reentrancy guard and fail the query.
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&] {
      auto session = server.Connect();
      QueryOptions options;
      options.collect_plans = false;
      for (int i = 0; i < 20; ++i) {
        auto result = session->Query(kServingQueries[1], options);
        if (!result.ok() ||
            !RowMultisetsEqual(oracle->rows, result->rows)) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(ServingParallel, PreparedQueryConcurrentExecuteFailsLoudly) {
  Database db;
  LoadSmallRst(&db, 36, 2000, 2000, 10);
  auto prepared = db.Prepare(kSlowSql, SlowOptions());
  ASSERT_TRUE(prepared.ok());

  // One thread runs the slow query once; the main thread probes the
  // same handle mid-run. Each probe must fail with the InvalidArgument
  // reentrancy error — never crash, race, or return wrong rows. The
  // canonical 250x250 nested loop takes many milliseconds, so probing
  // 2ms after the runner enters Execute lands inside the run.
  std::atomic<bool> started{false};
  std::atomic<bool> finished{false};
  std::thread runner([&] {
    started.store(true, std::memory_order_release);
    auto result = prepared->Execute();
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    finished.store(true, std::memory_order_release);
  });
  while (!started.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  int reentrancy_errors = 0;
  while (!finished.load(std::memory_order_acquire)) {
    auto result = prepared->Execute();
    if (!result.ok()) {
      EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
      ++reentrancy_errors;
      break;  // guard observed; don't contend with the runner further
    }
  }
  runner.join();
  EXPECT_GE(reentrancy_errors, 1);
}

TEST(ServingParallel, AnalyzeChurnDuringServingStaysCorrect) {
  Database db;
  LoadSmallRst(&db, 37, 60, 40, 15, 0.1);
  ASSERT_TRUE(db.AnalyzeAll().ok());
  auto oracle = db.Query(kServingQueries[0]);
  ASSERT_TRUE(oracle.ok());

  ServerOptions opts;
  opts.plan_cache_entries = 16;
  opts.max_concurrent_queries = 4;
  Server server(&db, opts);

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&] {
      auto session = server.Connect();
      QueryOptions options;
      options.collect_plans = false;
      for (int i = 0; i < 15; ++i) {
        auto result = session->Query(kServingQueries[0], options);
        if (!result.ok() ||
            !RowMultisetsEqual(oracle->rows, result->rows)) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  // ANALYZE churns statistics (not data) while clients run: cached
  // plans must be swept/re-planned, never serve wrong results.
  threads.emplace_back([&] {
    for (int i = 0; i < 10; ++i) {
      EXPECT_TRUE(db.Analyze("r").ok());
      EXPECT_TRUE(db.Analyze("s").ok());
    }
  });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ServingParallel, ShutdownResolvesEveryHandle) {
  Database db;
  LoadSmallRst(&db, 38, 2000, 2000, 10);
  std::vector<QueryHandle> handles;
  {
    ServerOptions opts;
    opts.max_concurrent_queries = 1;
    Server server(&db, opts);
    auto session = server.Connect();
    handles.push_back(session->Submit(kSlowSql, SlowOptions()));
    for (int i = 0; i < 10; ++i) {
      handles.push_back(session->Submit(kServingQueries[3]));
    }
    // Server destroyed here with most submissions still queued.
  }
  // Every handle must resolve — executed or failed with the shutdown
  // error — and none may block.
  int shutdown_failures = 0;
  for (QueryHandle& h : handles) {
    auto result = h.Wait();
    if (!result.ok()) {
      EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
      ++shutdown_failures;
    }
  }
  EXPECT_GE(shutdown_failures, 1);
}

TEST(ServingParallel, SharedPoolServesParallelQueriesConcurrently) {
  Database db;
  LoadSmallRst(&db, 39, 80, 50, 20, 0.1);
  auto oracle = db.Query(kServingQueries[0]);
  ASSERT_TRUE(oracle.ok());

  ServerOptions opts;
  opts.num_workers = 4;  // fixed shared pool
  opts.max_concurrent_queries = 4;
  opts.plan_cache_entries = 16;
  Server server(&db, opts);

  // Every client asks for intra-query parallelism; all task groups
  // multiplex over the same four workers.
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&] {
      auto session = server.Connect();
      QueryOptions options;
      options.num_threads = 4;
      options.collect_plans = false;
      for (int i = 0; i < 10; ++i) {
        auto result = session->Query(kServingQueries[0], options);
        if (!result.ok() ||
            !RowMultisetsEqual(oracle->rows, result->rows)) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(server.pool()->num_workers(), 4);
}

}  // namespace
}  // namespace bypass
