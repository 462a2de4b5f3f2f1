// Runtime state of one query execution. RunContext holds what the whole
// query shares — batch/morsel sizes, columnar and zone-map toggles, the
// deadline, the memory budget, the spill manager and the per-worker
// statistics slots — and is read by the main plan and every nested
// subplan alike. ExecContext holds what is private to one (sub)plan: the
// correlation row, cancellation, the limit-one flag, and for the main
// plan the pool and its scheduling parameters.
//
// Threading contract (see DESIGN.md §5): during a morsel-parallel phase
// both are read concurrently by all workers, so every field mutated
// mid-execution (cancellation, memory charges) is atomic, and statistics
// go to per-worker slots summed after the run — one slot when serial.
// Everything else is set before RunPlan and immutable while rows flow.
#ifndef BYPASSDB_EXEC_EXEC_CONTEXT_H_
#define BYPASSDB_EXEC_EXEC_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "exec/worker_pool.h"
#include "storage/spill.h"
#include "types/row.h"
#include "types/row_batch.h"

namespace bypass {

/// Default rows per morsel (QueryOptions::morsel_size): small enough to
/// load-balance the small-table end of the study, large enough that a
/// morsel amortizes several batches of dispatch overhead.
inline constexpr size_t kDefaultMorselSize = 4096;

/// Query-level statistics, shared between a query's main plan and all of
/// its subplan executions.
struct ExecStats {
  int64_t rows_scanned = 0;
  int64_t subquery_executions = 0;
  int64_t subquery_cache_hits = 0;
  /// Scan batches emitted with typed columns attached (0 when the
  /// columnar path is disabled — the row-oracle mode of the
  /// differential tests and benches).
  int64_t columnar_batches = 0;
  /// Always 0: no operator partitions batches into tagged streams any
  /// more. Kept only because perfbench reports it as
  /// exec.tagged_batches; it goes with the next benchmark change.
  int64_t tagged_batches = 0;
  /// Segment-storage counters: segments consulted by scans, segments
  /// whose zone maps proved the pushed-down predicate unsatisfiable, and
  /// the rows those skips avoided touching.
  int64_t segments_scanned = 0;
  int64_t segments_skipped = 0;
  int64_t zone_skip_rows = 0;
  /// Spill counters: bytes written to temp files, files created,
  /// external-sort runs, and Grace hash-join partitions processed.
  int64_t spilled_bytes = 0;
  int64_t spill_files = 0;
  int64_t sort_spill_runs = 0;
  int64_t join_spill_partitions = 0;
  /// Codegen-tier counters: batches routed through a compiled pipeline,
  /// batches a compiled operator handed back to its interpreted chain
  /// (artifact still compiling, untyped columns, guard mismatch), and
  /// Prepare-time artifact-cache hits (the compile was skipped entirely).
  int64_t compiled_batches = 0;
  int64_t compiled_fallback_batches = 0;
  int64_t codegen_cache_hits = 0;

  void Add(const ExecStats& other) {
    rows_scanned += other.rows_scanned;
    subquery_executions += other.subquery_executions;
    subquery_cache_hits += other.subquery_cache_hits;
    columnar_batches += other.columnar_batches;
    tagged_batches += other.tagged_batches;
    segments_scanned += other.segments_scanned;
    segments_skipped += other.segments_skipped;
    zone_skip_rows += other.zone_skip_rows;
    spilled_bytes += other.spilled_bytes;
    spill_files += other.spill_files;
    sort_spill_runs += other.sort_spill_runs;
    join_spill_partitions += other.join_spill_partitions;
    compiled_batches += other.compiled_batches;
    compiled_fallback_batches += other.compiled_fallback_batches;
    codegen_cache_hits += other.codegen_cache_hits;
  }
};

/// One cache-line-padded ExecStats per worker id. Each worker writes
/// only its own slot (indexed by CurrentWorkerId()); the engine sums the
/// slots into the user-visible ExecStats after the run.
struct alignas(64) ExecStatsSlot {
  ExecStats stats;
};

/// Rough retained-bytes estimate for `rows` buffered rows of `width`
/// Values each (vector headers included; string payloads are not
/// inspected — the budget bounds growth, it is not an allocator).
inline int64_t ApproxRowsBytes(size_t rows, size_t width) {
  return static_cast<int64_t>(rows) *
         static_cast<int64_t>(width * sizeof(Value) + sizeof(Row));
}

/// The settings and resources of one query execution. The engine builds
/// one per run (PreparedQuery::ExecuteWith); the main plan's context and
/// every nested subplan's context read this same object, so a setting
/// reaches the innermost block of a canonical nested-loop plan without
/// being copied along. Everything is fixed before RunPlan except the
/// per-worker stats slots (each worker writes only its own) and the
/// atomic memory counter.
struct RunContext {
  /// Rows per batch flowing between operators. 1 degenerates to the
  /// original row-at-a-time execution (the differential-test oracle).
  size_t batch_size = kDefaultBatchSize;
  /// Rows per morsel handed to a worker in one dispatch.
  size_t morsel_size = kDefaultMorselSize;
  /// Whether scans emit windows of the table's typed columns, enabling
  /// the columnar predicate/aggregate kernels. Off = the row-oracle mode
  /// the columnar differential tests compare against: scans build each
  /// batch's rows from the columns.
  bool columnar_enabled = true;
  /// Whether scans consult table zone maps to skip segments their
  /// pushed-down predicate cannot match.
  bool zone_maps_enabled = true;
  /// Wall-clock budget; Status::Timeout is raised from scans and other
  /// long-running loops once exceeded.
  std::optional<std::chrono::steady_clock::time_point> deadline;
  /// Memory accounting: buffering operators charge an approximation of
  /// the bytes they retain; once `memory_used` exceeds a positive
  /// `memory_limit` the query fails with ResourceExhausted (or spills)
  /// instead of growing without bound. A limit <= 0 is unbudgeted:
  /// nothing is counted. The serving layer (engine/server.h) hands
  /// per-query budgets out of its process-wide budget through this limit.
  int64_t memory_limit = 0;
  std::atomic<int64_t> memory_used{0};
  /// Spill-file factory for budget-constrained buffering operators;
  /// nullptr disables spilling (budget overruns then surface as
  /// ResourceExhausted). Its destructor removes every temp file.
  std::unique_ptr<SpillManager> spill;
  /// One stats slot per worker id that can touch this query — a single
  /// slot for serial runs. Its size is also the number of per-worker
  /// state slots operators allocate, for subplans too: a subplan runs on
  /// the worker thread that evaluates it and indexes state by that id.
  std::vector<ExecStatsSlot> worker_stats = std::vector<ExecStatsSlot>(1);

  int num_worker_slots() const {
    return static_cast<int>(worker_stats.size());
  }

  /// The calling worker's stats slot.
  ExecStats& stats() {
    return worker_stats[static_cast<size_t>(CurrentWorkerId())].stats;
  }

  /// The slots summed: the query's statistics. Read after the run.
  ExecStats TotalStats() const {
    ExecStats total;
    for (const ExecStatsSlot& slot : worker_stats) total.Add(slot.stats);
    return total;
  }

  /// Cheap periodic deadline check; called once per batch by sources and
  /// every few thousand pairs inside nested-loop operators.
  Status CheckBudget() const {
    if (deadline.has_value() &&
        std::chrono::steady_clock::now() > *deadline) {
      return Status::Timeout("query exceeded its time budget");
    }
    return Status::OK();
  }

  /// Charges `bytes` of retained memory against the budget;
  /// ResourceExhausted once a positive limit is exceeded. Called by
  /// buffering operators (result sink, join build side) at batch
  /// granularity; relaxed order suffices — the check is a bound, not an
  /// exact account.
  Status ChargeMemory(int64_t bytes) {
    if (memory_limit <= 0) return Status::OK();
    const int64_t used =
        memory_used.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    if (used > memory_limit) {
      return Status::ResourceExhausted(
          "query exceeded its memory budget (" + std::to_string(used) +
          " of " + std::to_string(memory_limit) + " bytes)");
    }
    return Status::OK();
  }

  /// All-or-nothing variant of ChargeMemory for spill-capable operators:
  /// charges `bytes` and returns true, or rolls the charge back and
  /// returns false when it would exceed the limit — the operator then
  /// spills instead of failing the query.
  bool TryChargeMemory(int64_t bytes) {
    if (memory_limit <= 0) return true;
    const int64_t used =
        memory_used.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    if (used > memory_limit) {
      memory_used.fetch_sub(bytes, std::memory_order_relaxed);
      return false;
    }
    return true;
  }

  /// Returns previously charged bytes to the budget (a spill released
  /// the buffer, or a partition finished probing).
  void ReleaseMemory(int64_t bytes) {
    if (memory_limit > 0) {
      memory_used.fetch_sub(bytes, std::memory_order_relaxed);
    }
  }
};

/// Per-context state of one (sub)plan over the query's shared run.
class ExecContext {
 public:
  /// A context over a fresh default run (one worker slot, no deadline,
  /// no budget): enough to run a plan standalone.
  ExecContext() : run_(std::make_shared<RunContext>()) {}
  explicit ExecContext(std::shared_ptr<RunContext> run)
      : run_(std::move(run)) {}
  ExecContext(const ExecContext&) = delete;
  ExecContext& operator=(const ExecContext&) = delete;

  /// The query's shared settings and resources.
  RunContext& run() const { return *run_; }
  /// Joins this context to `run` (a subplan, before its query runs).
  void set_run(std::shared_ptr<RunContext> run) { run_ = std::move(run); }

  /// The enclosing block's current tuple during subplan execution;
  /// nullptr for top-level plans.
  const Row* outer_row() const { return outer_row_; }
  void set_outer_row(const Row* row) { outer_row_ = row; }

  /// Early-termination flag (EXISTS probing, LIMIT); producers poll it.
  /// Written by sinks on worker threads, hence atomic; relaxed order is
  /// enough — it only accelerates shutdown, correctness never depends on
  /// observing it promptly.
  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }
  void set_cancelled(bool v) {
    cancelled_.store(v, std::memory_order_relaxed);
  }

  /// When set, the collector sink cancels the execution after the first
  /// result row (EXISTS only needs one witness).
  bool limit_one() const { return limit_one_; }
  void set_limit_one(bool v) { limit_one_ = v; }

  /// The pool driving this plan's scan pipelines; nullptr (or a 1-worker
  /// pool) runs the serial executor. Subplan contexts never carry a pool:
  /// nested blocks execute serially on whichever worker evaluates them.
  WorkerPool* pool() const { return pool_; }
  void set_pool(WorkerPool* pool) { pool_ = pool; }

  /// Scheduling parameters the executor passes to WorkerPool::ParallelFor
  /// for this query's morsel rounds: priority, the intra-query worker cap
  /// (num_threads), and the worker-id bound matching num_worker_slots.
  const TaskGroupOptions& task_group_options() const { return sched_; }
  void set_task_group_options(const TaskGroupOptions& opts) {
    sched_ = opts;
  }

 private:
  std::shared_ptr<RunContext> run_;
  const Row* outer_row_ = nullptr;
  WorkerPool* pool_ = nullptr;
  TaskGroupOptions sched_;
  std::atomic<bool> cancelled_{false};
  bool limit_one_ = false;
};

}  // namespace bypass

#endif  // BYPASSDB_EXEC_EXEC_CONTEXT_H_
