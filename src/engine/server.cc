#include "engine/server.h"

#include <algorithm>

#include "common/check.h"
#include "engine/session.h"

namespace bypass {

// ------------------------------------------------------------ QueryHandle

/// Shared between the submitting client and the dispatcher that executes
/// the query. `mu/cv/done/result` carry the outcome back; `cancelled` is
/// polled by the dispatcher before execution starts.
struct QueryHandle::State {
  std::string sql;
  QueryOptions options;
  int priority = 0;
  uint64_t seq = 0;

  std::atomic<bool> cancelled{false};

  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  bool taken = false;
  std::optional<Result<QueryResult>> result;

  void Fulfill(Result<QueryResult> r) {
    std::lock_guard<std::mutex> lock(mu);
    result.emplace(std::move(r));
    done = true;
    cv.notify_all();
  }
};

bool QueryHandle::Poll() const {
  if (state_ == nullptr) return false;
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->done;
}

bool QueryHandle::WaitFor(std::chrono::milliseconds timeout) const {
  if (state_ == nullptr) return false;
  std::unique_lock<std::mutex> lock(state_->mu);
  return state_->cv.wait_for(lock, timeout,
                             [this] { return state_->done; });
}

Result<QueryResult> QueryHandle::Wait() {
  if (state_ == nullptr) {
    return Status::InvalidArgument("Wait on an empty QueryHandle");
  }
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->cv.wait(lock, [this] { return state_->done; });
  if (state_->taken) {
    return Status::InvalidArgument(
        "QueryHandle result was already taken by an earlier Wait");
  }
  state_->taken = true;
  return std::move(*state_->result);
}

void QueryHandle::Cancel() {
  if (state_ != nullptr) {
    state_->cancelled.store(true, std::memory_order_relaxed);
  }
}

// ----------------------------------------------------------------- Server

Server::Server(Database* db, ServerOptions options)
    : db_(db),
      options_(options),
      // Elastic pools start serial and grow per query; fixed pools spin
      // up their full complement now.
      pool_(options.num_workers > 0 ? options.num_workers : 1),
      plan_cache_(PlanCacheOptions{options.plan_cache_entries}) {
  BYPASS_CHECK_MSG(options_.max_concurrent_queries > 0,
                   "ServerOptions::max_concurrent_queries must be >= 1");
}

Server::~Server() {
  std::vector<std::shared_ptr<QueryHandle::State>> orphaned;
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
    orphaned.assign(submit_queue_.begin(), submit_queue_.end());
    submit_queue_.clear();
    admit_cv_.notify_all();
    dispatch_cv_.notify_all();
  }
  // Fail queued-but-never-started submissions so no client blocks in
  // Wait forever; already executing queries run to completion below.
  for (const auto& state : orphaned) {
    state->Fulfill(Status::ResourceExhausted("server is shutting down"));
  }
  for (std::thread& t : dispatchers_) t.join();
  // pool_ joins its workers in its own destructor (members destroy in
  // reverse declaration order, after the dispatchers are gone).
}

std::shared_ptr<Session> Server::Connect(int priority) {
  return std::make_shared<Session>(this, priority);
}

Result<QueryResult> Server::Execute(const std::string& sql,
                                    const QueryOptions& options,
                                    int priority) {
  return RunQuery(sql, options, priority);
}

QueryHandle Server::Submit(std::string sql, QueryOptions options,
                           int priority) {
  auto state = std::make_shared<QueryHandle::State>();
  state->sql = std::move(sql);
  state->options = std::move(options);
  state->priority = priority;
  QueryHandle handle(state);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) {
      state->Fulfill(
          Status::ResourceExhausted("server is shutting down"));
      return handle;
    }
    if (submit_queue_.size() >= options_.max_pending_queries) {
      ++stats_.queries_rejected;
      state->Fulfill(Status::ResourceExhausted(
          "submission queue is full (" +
          std::to_string(options_.max_pending_queries) +
          " pending queries); retry later"));
      return handle;
    }
    state->seq = admit_seq_++;
    submit_queue_.push_back(state);
    MaybeSpawnDispatcherLocked();
    dispatch_cv_.notify_one();
  }
  return handle;
}

void Server::MaybeSpawnDispatcherLocked() {
  if (idle_dispatchers_ > 0) return;
  if (static_cast<int>(dispatchers_.size()) >=
      options_.max_concurrent_queries) {
    return;
  }
  dispatchers_.emplace_back([this] { DispatcherLoop(); });
}

void Server::DispatcherLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    while (!shutdown_ && submit_queue_.empty()) {
      ++idle_dispatchers_;
      dispatch_cv_.wait(lock);
      --idle_dispatchers_;
    }
    if (submit_queue_.empty()) return;  // shutdown and drained
    // Highest priority first, FIFO within a priority — mirrors both the
    // admission queue and the pool's task-group order.
    auto best = submit_queue_.begin();
    for (auto it = std::next(best); it != submit_queue_.end(); ++it) {
      if ((*it)->priority > (*best)->priority ||
          ((*it)->priority == (*best)->priority &&
           (*it)->seq < (*best)->seq)) {
        best = it;
      }
    }
    std::shared_ptr<QueryHandle::State> state = std::move(*best);
    submit_queue_.erase(best);
    lock.unlock();

    if (state->cancelled.load(std::memory_order_relaxed)) {
      state->Fulfill(Status::ResourceExhausted(
          "cancelled before execution started"));
    } else {
      state->Fulfill(
          RunQuery(state->sql, state->options, state->priority));
    }
    lock.lock();
  }
}

Status Server::Admit(Admission* admission, int priority, int64_t bytes) {
  std::unique_lock<std::mutex> lock(mu_);
  if (options_.memory_budget_bytes > 0 &&
      bytes > static_cast<int64_t>(options_.memory_budget_bytes)) {
    ++stats_.queries_rejected;
    return Status::ResourceExhausted(
        "query memory budget (" + std::to_string(bytes) +
        " bytes) exceeds the server budget (" +
        std::to_string(options_.memory_budget_bytes) + " bytes)");
  }
  const auto capacity_free = [this, bytes] {
    return running_ < options_.max_concurrent_queries &&
           (options_.memory_budget_bytes == 0 ||
            reserved_bytes_ + bytes <=
                static_cast<int64_t>(options_.memory_budget_bytes));
  };
  // Equal-or-higher-priority waiters go first (>= keeps FIFO fairness
  // among equals), so a free slot is only taken out of turn by a
  // strictly more urgent arrival.
  const auto has_prior_waiter = [this, priority] {
    return std::any_of(
        admit_queue_.begin(), admit_queue_.end(),
        [priority](const Waiter& w) { return w.priority >= priority; });
  };
  if (shutdown_) {
    return Status::ResourceExhausted("server is shutting down");
  }
  if (!capacity_free() || has_prior_waiter()) {
    if (admit_queue_.size() >= options_.max_pending_queries) {
      ++stats_.queries_rejected;
      return Status::ResourceExhausted(
          "admission queue is full (" +
          std::to_string(options_.max_pending_queries) +
          " waiting queries); retry later");
    }
    const Waiter self{priority, admit_seq_++};
    admit_queue_.push_back(self);
    ++stats_.admission_waits;
    const auto is_front = [this, &self] {
      return std::none_of(admit_queue_.begin(), admit_queue_.end(),
                          [&self](const Waiter& w) {
                            return w.priority > self.priority ||
                                   (w.priority == self.priority &&
                                    w.seq < self.seq);
                          });
    };
    admit_cv_.wait(lock, [&] {
      return shutdown_ || (capacity_free() && is_front());
    });
    admit_queue_.erase(
        std::find_if(admit_queue_.begin(), admit_queue_.end(),
                     [&self](const Waiter& w) {
                       return w.seq == self.seq;
                     }));
    if (shutdown_) {
      admit_cv_.notify_all();
      return Status::ResourceExhausted("server is shutting down");
    }
    // More capacity may remain for the next-best waiter (several slots
    // can free up while the queue holds multiple entries).
    admit_cv_.notify_all();
  }
  running_ += 1;
  reserved_bytes_ += bytes;
  admission->reserved_bytes = bytes;
  admission->admitted = true;
  ++stats_.queries_started;
  return Status::OK();
}

void Server::Release(const Admission& admission) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!admission.admitted) return;
  running_ -= 1;
  reserved_bytes_ -= admission.reserved_bytes;
  admit_cv_.notify_all();
}

QueryExecEnv Server::MakeEnv(const QueryOptions& options, int priority,
                             int64_t memory_budget_bytes) {
  QueryExecEnv env;
  env.memory_budget_bytes = memory_budget_bytes;
  int num_threads = std::max(1, options.num_threads);
  if (options_.num_workers == 0) {
    // Elastic: honour the query's thread request, as a private pool
    // would have. Grow-only, so other in-flight queries stay safe.
    if (num_threads > 1) pool_.EnsureWorkers(num_threads);
  } else {
    num_threads = std::min(num_threads, options_.num_workers);
  }
  if (num_threads > 1) {
    const int slots = pool_.num_workers();
    env.pool = &pool_;
    env.num_worker_slots = slots;
    env.sched.priority = priority;
    env.sched.max_workers = num_threads;
    // The pool may keep growing under other queries while this one
    // runs; the id bound keeps late-spawned workers out of our
    // slots-sized operator state.
    env.sched.max_worker_id = slots;
  }
  return env;
}

Result<QueryResult> Server::RunQuery(const std::string& sql,
                                     const QueryOptions& options,
                                     int priority) {
  // Sweep stale plans before consulting the cache; a catalog-epoch
  // check makes this free when no ANALYZE ran since the last sweep. The
  // codegen artifact cache (if the tier ever ran) is swept to the same
  // epoch so stale compiled code dies with its plans.
  plan_cache_.EvictStale(db_->catalog(), db_->codegen_engine_if_created());
  Result<PlanCache::Lease> leased = plan_cache_.Acquire(db_, sql, options);
  if (!leased.ok()) {
    // Planning failures (parse/bind/unsupported) count as failed
    // queries; they never reached admission.
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.queries_failed;
    return leased.status();
  }
  PlanCache::Lease lease = std::move(*leased);

  const int64_t budget_bytes = static_cast<int64_t>(
      options.memory_budget_bytes > 0 ? options.memory_budget_bytes
                                      : options_.default_query_memory_bytes);
  Admission admission;
  Status admitted = Admit(&admission, priority, budget_bytes);
  if (!admitted.ok()) {
    plan_cache_.Release(std::move(lease));
    return admitted;
  }
  Result<QueryResult> result = lease.prepared.ExecuteWith(
      options, MakeEnv(options, priority, budget_bytes));
  Release(admission);
  plan_cache_.Release(std::move(lease));
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (result.ok()) {
      ++stats_.queries_succeeded;
    } else {
      ++stats_.queries_failed;
    }
  }
  return result;
}

ServerStats Server::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ServerStats out = stats_;
  out.running = running_;
  out.pending = admit_queue_.size() + submit_queue_.size();
  out.plan_cache = plan_cache_.stats();
  return out;
}

}  // namespace bypass
