// Server: the shared-scheduler serving layer (DESIGN.md §10). One Server
// multiplexes many concurrent queries over a single morsel-driven
// WorkerPool instead of giving each query a private pool:
//
//   client sessions ──▶ admission control ──▶ shared WorkerPool
//         │                    │                    ▲
//         │                    ├── memory budgets ──┘ (RunContext hooks)
//         └── Submit/Query ────┴── plan cache (engine/plan_cache.h)
//
// Admission bounds how many queries execute at once
// (max_concurrent_queries) and how many bytes their buffering operators
// may retain in aggregate (memory_budget_bytes); waiters queue in
// priority order and are rejected with ResourceExhausted beyond
// max_pending_queries — backpressure instead of unbounded queueing.
// Admitted queries run their parallel scans as task groups on the shared
// pool, where TaskGroupOptions carries the same priority so the pool's
// workers prefer urgent queries (exec/worker_pool.h).
//
// Clients talk to a Server through Session handles (engine/session.h):
// synchronous Query on the caller's thread, or asynchronous Submit
// returning a QueryHandle polled/awaited by the client while dispatcher
// threads (bounded by max_concurrent_queries) drain the submission
// queue. Database::Query/Prepare remain thin wrappers over an embedded
// Server with compatibility defaults, so standalone library use is
// unchanged while every query flows through one scheduler.
#ifndef BYPASSDB_ENGINE_SERVER_H_
#define BYPASSDB_ENGINE_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "engine/plan_cache.h"

namespace bypass {

class Session;

struct ServerOptions {
  /// Workers in the shared pool (driver threads included). 0 = elastic:
  /// start serial and grow to each query's num_threads on demand — the
  /// embedded compatibility default, preserving "ask for N, get N".
  /// Fixed (> 0) pools never grow; queries asking for more threads are
  /// capped at the pool size.
  int num_workers = 0;
  /// Queries executing at once; later arrivals wait (priority order).
  int max_concurrent_queries = 8;
  /// Waiting queries beyond this are rejected with ResourceExhausted
  /// instead of queueing without bound.
  size_t max_pending_queries = 256;
  /// Aggregate memory reservation across admitted queries; a query whose
  /// budget does not fit waits like a slot-less query. 0 = unlimited.
  size_t memory_budget_bytes = 0;
  /// Budget handed to queries that do not set
  /// QueryOptions::memory_budget_bytes. 0 = such queries run unbudgeted.
  size_t default_query_memory_bytes = 0;
  /// Distinct plans kept in the plan cache; 0 disables caching (the
  /// embedded compatibility default — caching changes no results but
  /// skips re-planning, which some tests time or count).
  size_t plan_cache_entries = 0;
};

struct ServerStats {
  uint64_t queries_started = 0;    ///< admitted and executed
  uint64_t queries_succeeded = 0;
  uint64_t queries_failed = 0;     ///< executed but returned an error
  uint64_t queries_rejected = 0;   ///< bounced by admission backpressure
  uint64_t admission_waits = 0;    ///< admissions that had to block
  int running = 0;                 ///< currently executing
  size_t pending = 0;              ///< waiting in admission or queue
  PlanCacheStats plan_cache;
};

/// Client-side handle to one asynchronously submitted query. Cheap to
/// copy (shared state); valid() is false only for default-constructed
/// handles. Outliving the Server is safe: shutdown fails every
/// unfinished submission before the Server returns from its destructor.
class QueryHandle {
 public:
  QueryHandle() = default;

  bool valid() const { return state_ != nullptr; }
  /// True once the result (or error) is available; never blocks.
  bool Poll() const;
  /// Blocks until done, then hands out the result. Each handle's result
  /// can be taken once; later Wait calls on the same query return
  /// InvalidArgument.
  Result<QueryResult> Wait();
  /// Poll with a deadline: true when done within `timeout`.
  bool WaitFor(std::chrono::milliseconds timeout) const;
  /// Best-effort: a query still waiting in the submission queue fails
  /// with ResourceExhausted("cancelled") instead of running; an already
  /// executing query is not interrupted.
  void Cancel();

 private:
  friend class Server;
  struct State;
  explicit QueryHandle(std::shared_ptr<State> state)
      : state_(std::move(state)) {}
  std::shared_ptr<State> state_;
};

class Server {
 public:
  /// Serves queries against `db` (not owned; must outlive the Server).
  explicit Server(Database* db, ServerOptions options = {});
  /// Drains: waits for executing queries, fails queued ones, joins the
  /// dispatcher threads and the pool.
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Opens a client session. Sessions are independent submission
  /// endpoints sharing this server's pool, admission, and plan cache;
  /// they must not outlive the Server.
  std::shared_ptr<Session> Connect(int priority = 0);

  /// Synchronous execution on the caller's thread: admission wait →
  /// plan-cache acquire → run on the shared pool. `priority` orders both
  /// the admission queue and the query's task groups on the pool.
  Result<QueryResult> Execute(const std::string& sql,
                              const QueryOptions& options, int priority);

  /// Asynchronous submission: enqueues and returns immediately; a
  /// dispatcher thread executes the query at `priority` order. Fails
  /// the handle with ResourceExhausted when the queue is full.
  QueryHandle Submit(std::string sql, QueryOptions options, int priority);

  Database* database() { return db_; }
  WorkerPool* pool() { return &pool_; }
  const ServerOptions& options() const { return options_; }
  ServerStats stats() const;

 private:
  friend class Database;
  friend class PreparedQuery;

  /// One admission: a slot under max_concurrent_queries plus a memory
  /// reservation under memory_budget_bytes.
  struct Admission {
    int64_t reserved_bytes = 0;
    bool admitted = false;
  };

  /// Blocks until a slot (and the reservation) is available, honouring
  /// priority order among waiters; rejects with ResourceExhausted when
  /// the wait queue is full or the server is shutting down.
  Status Admit(Admission* admission, int priority, int64_t bytes);
  void Release(const Admission& admission);

  /// The full query path shared by Execute and the dispatchers;
  /// admission must not yet be held.
  Result<QueryResult> RunQuery(const std::string& sql,
                               const QueryOptions& options, int priority);

  /// Per-query env on the shared pool (pool growth for elastic servers,
  /// slots/task-group bounds, the memory budget in bytes). The one env
  /// builder: PreparedQuery::Execute uses it too, without admission.
  QueryExecEnv MakeEnv(const QueryOptions& options, int priority,
                       int64_t memory_budget_bytes);

  void DispatcherLoop();
  /// Lazily adds a dispatcher thread when queued work outnumbers idle
  /// dispatchers (bounded by max_concurrent_queries). Caller holds mu_.
  void MaybeSpawnDispatcherLocked();

  Database* const db_;
  const ServerOptions options_;
  WorkerPool pool_;
  PlanCache plan_cache_;

  mutable std::mutex mu_;
  std::condition_variable admit_cv_;     // admission waiters
  std::condition_variable dispatch_cv_;  // dispatcher wakeups
  bool shutdown_ = false;
  int running_ = 0;
  int64_t reserved_bytes_ = 0;
  /// Priority-ordered admission wait queue: tickets identify waiters so
  /// the highest-priority one proceeds first (FIFO within a priority).
  struct Waiter {
    int priority;
    uint64_t seq;
  };
  std::vector<Waiter> admit_queue_;
  uint64_t admit_seq_ = 0;

  std::deque<std::shared_ptr<QueryHandle::State>> submit_queue_;
  std::vector<std::thread> dispatchers_;
  int idle_dispatchers_ = 0;

  ServerStats stats_;
};

}  // namespace bypass

#endif  // BYPASSDB_ENGINE_SERVER_H_
