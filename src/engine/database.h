// Database: the library's top-level facade. Owns the catalog and drives
// parse → translate → (unnest) → lower → execute. Plan-shape strategies
// (canonical, canonical-memo, unnested, ...) are selected through
// QueryOptions / ExecutionStrategy — see engine/query_options.h.
//
// Two entry points:
//   Query(sql, options)    one-shot: prepare + execute.
//   Prepare(sql, options)  parse/optimize/lower once, Execute() many
//                          times — each run may vary the execution knobs
//                          (threads, batch size, timeout).
//
// Both are thin wrappers over a lazily created embedded Server (see
// engine/server.h): every query — including these compatibility entry
// points — executes through the same admission control and shared worker
// pool that concurrent Sessions use. For multi-client serving (async
// submission, plan cache, priorities, memory budgets) open sessions via
// Database::server()->Connect().
#ifndef BYPASSDB_ENGINE_DATABASE_H_
#define BYPASSDB_ENGINE_DATABASE_H_

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "common/result.h"
#include "engine/query_options.h"
#include "exec/exec_context.h"
#include "exec/executor.h"
#include "exec/worker_pool.h"
#include "rewrite/unnest.h"
#include "stats/analyzer.h"
#include "types/row.h"
#include "types/schema.h"

namespace bypass {

class CodegenEngine;
class Database;
class Server;
class Session;
struct ServerOptions;

/// Everything a PreparedQuery execution needs from its surroundings:
/// which pool drives parallel scans, how its task groups are scheduled
/// against other queries on that pool, and the memory budget buffering
/// operators charge. Built by Server::MakeEnv for both entry points:
/// standalone Execute() on the embedded server's pool, and the serving
/// layer (engine/server.h) once per admitted query.
struct QueryExecEnv {
  /// Pool for morsel-parallel scans; nullptr = serial execution on the
  /// calling thread regardless of num_threads.
  WorkerPool* pool = nullptr;
  /// Per-worker operator-state slots to allocate; must be an upper bound
  /// on every worker id that can touch this query (pool size at admission
  /// time for shared pools). sched.max_worker_id must not exceed it.
  int num_worker_slots = 1;
  /// Priority / intra-query worker cap / worker-id bound for this
  /// query's ParallelFor rounds on a shared pool.
  TaskGroupOptions sched;
  /// Memory budget charged by buffering operators, in bytes; 0 =
  /// unbudgeted.
  int64_t memory_budget_bytes = 0;
};

/// What ANALYZE did for one table.
struct AnalyzeReport {
  std::string table;
  int64_t row_count = 0;
  std::chrono::steady_clock::duration analyze_time{};
  std::string summary;  ///< human-readable per-column statistics
};

/// A parsed, optimized, and lowered SELECT, ready to run repeatedly.
/// Movable, not copyable; must not outlive its Database, and runs are not
/// reentrant: the plan's operators are shared mutable state, so a second
/// Execute while one is in flight fails loudly with InvalidArgument
/// instead of racing. Callers that want concurrency prepare one handle
/// per thread or go through the serving layer's plan cache, which pools
/// idle handles (engine/plan_cache.h). Plan-shape options are baked in at
/// Prepare time; each Execute may override the execution knobs
/// (num_threads, morsel_size, batch_size, timeout, collect_plans). If
/// ANALYZE refreshes statistics for a table the plan references, the next
/// Execute transparently re-plans against the new statistics (cheap epoch
/// check when nothing changed).
class PreparedQuery {
 public:
  /// An empty handle (no plan); Execute on it fails with
  /// InvalidArgument. Assign from Database::Prepare to fill it — lets
  /// containers and lease types hold handles by value.
  PreparedQuery() = default;
  PreparedQuery(PreparedQuery&&) = default;
  PreparedQuery& operator=(PreparedQuery&&) = default;
  PreparedQuery(const PreparedQuery&) = delete;
  PreparedQuery& operator=(const PreparedQuery&) = delete;

  /// Runs with the options given at Prepare time.
  Result<QueryResult> Execute();
  /// Runs with `run_options`' execution knobs. Plan-shape knobs (unnest,
  /// memoize_subqueries, ...) are ignored here — the plan is fixed.
  Result<QueryResult> Execute(const QueryOptions& run_options);
  /// Advanced entry point: runs under an externally provided pool,
  /// scheduler parameters, and memory budget — how the serving layer
  /// executes admitted queries on the shared pool. `env.num_worker_slots`
  /// must bound every worker id the env's pool may assign.
  Result<QueryResult> ExecuteWith(const QueryOptions& run_options,
                                  const QueryExecEnv& env);
  /// True when the catalog's statistics moved for a table this plan
  /// reads (the next Execute would re-plan). Used by the plan cache to
  /// evict stale entries without executing them.
  bool IsStale() const;

  const Schema& output_schema() const { return plan_.output_schema; }
  const QueryOptions& options() const { return options_; }
  const std::vector<std::string>& applied_rules() const {
    return applied_rules_;
  }
  /// Plan strings; empty when prepared with collect_plans=false.
  const std::string& canonical_plan() const { return canonical_plan_; }
  const std::string& optimized_plan() const { return optimized_plan_; }
  std::string physical_plan() const { return plan_.ToString(); }
  /// Time spent in parse/rewrite/lower during Prepare.
  std::chrono::steady_clock::duration optimize_time() const {
    return optimize_time_;
  }
  /// How many times stale statistics forced a re-plan (testing aid).
  int replan_count() const { return replan_count_; }
  /// How many compiled pipelines the codegen tier spliced into the plan
  /// (0 unless prepared with enable_codegen on a codegen-capable build).
  int compiled_pipelines() const { return plan_.num_compiled_pipelines; }

 private:
  friend class Database;

  /// Re-plans through Database::Prepare when the catalog's statistics
  /// changed for a table this plan references.
  Status ReplanIfStale();

  Database* db_ = nullptr;
  QueryOptions options_;
  PhysicalPlan plan_;
  std::vector<std::string> applied_rules_;
  std::string canonical_plan_;
  std::string optimized_plan_;
  std::chrono::steady_clock::duration optimize_time_{};
  std::string sql_;
  /// Catalog-wide statistics epoch observed at Prepare time; a cheap
  /// mismatch check gates the per-table version comparison below.
  uint64_t stats_epoch_ = 0;
  std::vector<std::pair<std::string, uint64_t>> table_stats_versions_;
  int replan_count_ = 0;
  /// Non-reentrancy guard: set for the duration of ExecuteWith. On the
  /// heap (not inline) because atomics are not movable and the handle is;
  /// shared so an in-flight run keeps the flag alive across moves.
  std::shared_ptr<std::atomic<bool>> in_flight_ =
      std::make_shared<std::atomic<bool>>(false);
};

class Database {
 public:
  Database();  // out of line: members need the complete Server type
  ~Database();
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  Catalog* catalog() { return &catalog_; }
  const Catalog* catalog() const { return &catalog_; }

  /// DDL convenience: creates a table with the given columns.
  Result<Table*> CreateTable(const std::string& name, Schema schema);

  /// ANALYZE: one streaming pass over the table builds row count, per
  /// column null fraction, min/max, HyperLogLog distinct estimate and an
  /// equi-depth histogram, then publishes them in the catalog (bumping
  /// the statistics epoch, which invalidates prepared queries that
  /// reference the table).
  Result<AnalyzeReport> Analyze(const std::string& table_name,
                                const AnalyzeOptions& options = {});

  /// ANALYZE for every table in the catalog.
  Result<std::vector<AnalyzeReport>> AnalyzeAll(
      const AnalyzeOptions& options = {});

  /// Runs one SELECT statement (Prepare + Execute).
  Result<QueryResult> Query(const std::string& sql,
                            const QueryOptions& options = QueryOptions());

  /// Parses, optimizes, and lowers once; the returned handle executes
  /// many times without re-planning (subquery memo caches are cleared
  /// between runs, so repetitions are independent).
  Result<PreparedQuery> Prepare(
      const std::string& sql,
      const QueryOptions& options = QueryOptions());

  /// Multi-line EXPLAIN-style report: classification, canonical and
  /// rewritten logical plans, applied equivalences, physical plan.
  Result<std::string> Explain(const std::string& sql,
                              const QueryOptions& options = QueryOptions());

  /// The embedded server every query of this Database runs through,
  /// created lazily (thread-safe) with compatibility-preserving defaults:
  /// elastic pool, effectively unlimited admission, plan cache off. Open
  /// concurrent client sessions with server()->Connect(). To serve with
  /// tighter admission / budgets / plan caching, construct a dedicated
  /// Server over this database instead (engine/server.h).
  Server* server();

  /// The session behind the compatibility entry points above (priority 0,
  /// direct synchronous execution).
  Session* default_session();

  /// The database-wide JIT compile service, created lazily (thread-safe)
  /// on the first codegen-enabled Prepare. Artifacts it caches are keyed
  /// on (source, stats epoch); the plan cache's stale sweep also evicts
  /// here (engine/plan_cache.h).
  CodegenEngine* codegen_engine();
  /// The engine if one was ever created, else nullptr — lets eviction
  /// paths avoid instantiating the compile service just to sweep it.
  CodegenEngine* codegen_engine_if_created();

 private:
  friend class PreparedQuery;
  friend class Server;

  Catalog catalog_;
  /// Declared before the server so in-flight serving work (which may
  /// hold compiled-function slots) is torn down first.
  std::once_flag codegen_once_;
  std::unique_ptr<CodegenEngine> codegen_;
  std::once_flag server_once_;
  std::unique_ptr<Server> server_;
  std::shared_ptr<Session> default_session_;
};

}  // namespace bypass

#endif  // BYPASSDB_ENGINE_DATABASE_H_
