// Per-execution runtime state shared by all operators of one (sub)plan
// execution: the correlation row, the time budget, cancellation, and
// counters reported by EXPLAIN ANALYZE-style output and the benchmarks.
//
// Threading contract (see DESIGN.md §5): during a morsel-parallel phase
// the context is read concurrently by all workers, so every field
// mutated mid-execution (cancellation) is atomic, and statistics are
// routed to per-worker slots aggregated after the run. Fields set before
// RunPlan (deadline, batch size, worker count) are immutable while rows
// flow.
#ifndef BYPASSDB_EXEC_EXEC_CONTEXT_H_
#define BYPASSDB_EXEC_EXEC_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
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
  int64_t rows_emitted = 0;
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
  /// Spill counters: bytes/rows written to temp files, files created,
  /// external-sort runs, and Grace hash-join partitions processed.
  int64_t spilled_bytes = 0;
  int64_t spilled_rows = 0;
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
  /// Widened-region counters: compiled batches whose emitted pipeline
  /// also ran the fused hash-join probe loop / group-by accumulate loop
  /// (a fused filter→probe→group-by batch increments both).
  int64_t compiled_join_batches = 0;
  int64_t compiled_agg_batches = 0;

  void Add(const ExecStats& other) {
    rows_scanned += other.rows_scanned;
    rows_emitted += other.rows_emitted;
    subquery_executions += other.subquery_executions;
    subquery_cache_hits += other.subquery_cache_hits;
    columnar_batches += other.columnar_batches;
    tagged_batches += other.tagged_batches;
    segments_scanned += other.segments_scanned;
    segments_skipped += other.segments_skipped;
    zone_skip_rows += other.zone_skip_rows;
    spilled_bytes += other.spilled_bytes;
    spilled_rows += other.spilled_rows;
    spill_files += other.spill_files;
    sort_spill_runs += other.sort_spill_runs;
    join_spill_partitions += other.join_spill_partitions;
    compiled_batches += other.compiled_batches;
    compiled_fallback_batches += other.compiled_fallback_batches;
    codegen_cache_hits += other.codegen_cache_hits;
    compiled_join_batches += other.compiled_join_batches;
    compiled_agg_batches += other.compiled_agg_batches;
  }
};

/// One cache-line-padded ExecStats per worker, shared by the main plan
/// and every subplan context of a parallel query. Each worker writes only
/// its own slot (indexed by CurrentWorkerId()); the engine aggregates the
/// slots into the user-visible ExecStats after the run.
struct alignas(64) ExecStatsSlot {
  ExecStats stats;
};
using SharedWorkerStats = std::shared_ptr<std::vector<ExecStatsSlot>>;

/// Memory accounting for one query execution, shared by the main plan's
/// context and every subplan context. Buffering operators charge an
/// approximation of the bytes they retain; once `used` exceeds a non-zero
/// `limit` the query fails with ResourceExhausted instead of growing
/// without bound. The serving layer (engine/server.h) hands per-query
/// budgets out of its process-wide budget through this hook.
struct MemoryBudget {
  std::atomic<int64_t> used{0};
  int64_t limit = 0;  ///< bytes; 0 = track only, never fail
};
using SharedMemoryBudget = std::shared_ptr<MemoryBudget>;

/// Rough retained-bytes estimate for `rows` buffered rows of `width`
/// Values each (vector headers included; string payloads are not
/// inspected — the budget bounds growth, it is not an allocator).
inline int64_t ApproxRowsBytes(size_t rows, size_t width) {
  return static_cast<int64_t>(rows) *
         static_cast<int64_t>(width * sizeof(Value) + sizeof(Row));
}

class ExecContext {
 public:
  ExecContext() = default;
  ExecContext(const ExecContext&) = delete;
  ExecContext& operator=(const ExecContext&) = delete;

  /// The enclosing block's current tuple during subplan execution;
  /// nullptr for top-level plans.
  const Row* outer_row() const { return outer_row_; }
  void set_outer_row(const Row* row) { outer_row_ = row; }

  /// Arms a wall-clock budget; Status::Timeout is raised from scans and
  /// other long-running loops once exceeded.
  void set_deadline(std::chrono::steady_clock::time_point deadline) {
    deadline_ = deadline;
    has_deadline_ = true;
  }
  void clear_deadline() { has_deadline_ = false; }

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

  /// Stats sink for the current worker: with per-worker slots installed
  /// (parallel queries) each worker gets its own padded slot; otherwise
  /// the single user-provided struct.
  ExecStats* stats() {
    if (worker_stats_ != nullptr) {
      return &(*worker_stats_)[static_cast<size_t>(CurrentWorkerId())]
                  .stats;
    }
    return stats_;
  }
  void set_stats(ExecStats* stats) { stats_ = stats; }
  void set_worker_stats(SharedWorkerStats worker_stats) {
    worker_stats_ = std::move(worker_stats);
  }
  const SharedWorkerStats& worker_stats() const { return worker_stats_; }

  /// Rows per batch flowing between operators. 1 degenerates to the
  /// original row-at-a-time execution (the differential-test oracle).
  size_t batch_size() const { return batch_size_; }
  void set_batch_size(size_t n) { batch_size_ = n == 0 ? 1 : n; }

  /// Whether scans attach typed columns to emitted batches, enabling the
  /// columnar predicate/aggregate kernels. Off = the row-oracle mode the
  /// columnar differential tests compare against. Set before RunPlan,
  /// immutable while rows flow.
  bool columnar_enabled() const { return columnar_enabled_; }
  void set_columnar_enabled(bool v) { columnar_enabled_ = v; }

  /// Rows per morsel handed to a worker in one dispatch.
  size_t morsel_size() const { return morsel_size_; }
  void set_morsel_size(size_t n) {
    morsel_size_ = n == 0 ? kDefaultMorselSize : n;
  }

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

  /// Per-query memory accounting; nullptr = unbudgeted (the default for
  /// standalone library use). Shared with every subplan context.
  const SharedMemoryBudget& memory() const { return memory_; }
  void set_memory(SharedMemoryBudget memory) {
    memory_ = std::move(memory);
  }

  /// Charges `bytes` of retained memory against the query's budget;
  /// ResourceExhausted once a non-zero limit is exceeded. Called by
  /// buffering operators (result sink, join build side) at batch
  /// granularity; relaxed order suffices — the check is a bound, not an
  /// exact account.
  Status ChargeMemory(int64_t bytes) {
    if (memory_ == nullptr) return Status::OK();
    const int64_t used =
        memory_->used.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    if (memory_->limit > 0 && used > memory_->limit) {
      return Status::ResourceExhausted(
          "query exceeded its memory budget (" + std::to_string(used) +
          " of " + std::to_string(memory_->limit) + " bytes)");
    }
    return Status::OK();
  }

  /// All-or-nothing variant of ChargeMemory for spill-capable operators:
  /// charges `bytes` and returns true, or rolls the charge back and
  /// returns false when it would exceed the limit — the operator then
  /// spills instead of failing the query. With no budget installed (or
  /// limit 0, track-only) the charge always sticks.
  bool TryChargeMemory(int64_t bytes) {
    if (memory_ == nullptr) return true;
    const int64_t used =
        memory_->used.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    if (memory_->limit > 0 && used > memory_->limit) {
      memory_->used.fetch_sub(bytes, std::memory_order_relaxed);
      return false;
    }
    return true;
  }

  /// Returns previously charged bytes to the budget (a spill released
  /// the buffer, or a partition finished probing).
  void ReleaseMemory(int64_t bytes) {
    if (memory_ != nullptr && bytes != 0) {
      memory_->used.fetch_sub(bytes, std::memory_order_relaxed);
    }
  }

  /// Spill-file factory for budget-constrained buffering operators;
  /// nullptr disables spilling (budget overruns then surface as
  /// ResourceExhausted exactly as before).
  SpillManager* spill() const { return spill_.get(); }
  void set_spill(std::shared_ptr<SpillManager> spill) {
    spill_ = std::move(spill);
  }
  const std::shared_ptr<SpillManager>& shared_spill() const {
    return spill_;
  }

  /// Whether scans consult table zone maps to skip segments their
  /// pushed-down predicate cannot match. Set before RunPlan.
  bool zone_maps_enabled() const { return zone_maps_enabled_; }
  void set_zone_maps_enabled(bool v) { zone_maps_enabled_ = v; }

  /// Number of per-worker state slots operators must allocate. This is
  /// the *query's* worker count even for (serial) subplan contexts,
  /// because a subplan runs on the worker thread that evaluates it and
  /// its operators index state by that worker's id.
  int num_worker_slots() const { return num_worker_slots_; }
  void set_num_worker_slots(int n) {
    num_worker_slots_ = n < 1 ? 1 : n;
  }

  /// Cheap periodic budget check; called once per batch by sources and
  /// every few thousand pairs inside nested-loop operators.
  Status CheckBudget() const {
    if (has_deadline_ &&
        std::chrono::steady_clock::now() > deadline_) {
      return Status::Timeout("query exceeded its time budget");
    }
    return Status::OK();
  }

  bool has_deadline() const { return has_deadline_; }
  std::chrono::steady_clock::time_point deadline() const {
    return deadline_;
  }

 private:
  const Row* outer_row_ = nullptr;
  size_t batch_size_ = kDefaultBatchSize;
  bool columnar_enabled_ = true;
  size_t morsel_size_ = kDefaultMorselSize;
  WorkerPool* pool_ = nullptr;
  TaskGroupOptions sched_;
  SharedMemoryBudget memory_;
  std::shared_ptr<SpillManager> spill_;
  bool zone_maps_enabled_ = true;
  int num_worker_slots_ = 1;
  std::chrono::steady_clock::time_point deadline_{};
  bool has_deadline_ = false;
  std::atomic<bool> cancelled_{false};
  bool limit_one_ = false;
  ExecStats* stats_ = nullptr;
  SharedWorkerStats worker_stats_;
};

}  // namespace bypass

#endif  // BYPASSDB_EXEC_EXEC_CONTEXT_H_
