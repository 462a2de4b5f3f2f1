// Query-level options and results for the Database facade.
//
// The four plan-shape knobs (unnest / cost_based / memoize_subqueries /
// shortcut_disjunctions) interact; most callers want one of the named
// strategies from the paper's study, so ExecutionStrategy presets them in
// one step. The individual bools remain public for fine-grained overrides
// and source compatibility with older code.
#ifndef BYPASSDB_ENGINE_QUERY_OPTIONS_H_
#define BYPASSDB_ENGINE_QUERY_OPTIONS_H_

#include <chrono>
#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "exec/exec_context.h"
#include "rewrite/unnest.h"
#include "stats/feedback.h"
#include "types/row.h"
#include "types/schema.h"

namespace bypass {

/// The evaluation strategies compared throughout the paper's study, as
/// one-stop presets for QueryOptions' plan-shape knobs:
///
///   kCanonical            nested-loop subqueries, OR short-circuiting
///   kCanonicalNoShortcut  + disjunctions reordered nested-blocks-first
///                           (the worst commercial behaviour observed)
///   kCanonicalMemo        + memoized correlated subqueries (S2-like)
///   kUnnested             the paper's bypass plans (default)
///   kCostBased            unnest only when the cost model prefers it
enum class ExecutionStrategy {
  kCanonical,
  kCanonicalNoShortcut,
  kCanonicalMemo,
  kUnnested,
  kCostBased,
};

inline const char* ExecutionStrategyToString(ExecutionStrategy s) {
  switch (s) {
    case ExecutionStrategy::kCanonical:
      return "canonical";
    case ExecutionStrategy::kCanonicalNoShortcut:
      return "canonical-noshortcut";
    case ExecutionStrategy::kCanonicalMemo:
      return "canonical-memo";
    case ExecutionStrategy::kUnnested:
      return "unnested";
    case ExecutionStrategy::kCostBased:
      return "cost-based";
  }
  return "?";
}

struct QueryOptions {
  QueryOptions() = default;
  /// \deprecated Implicit strategy-to-options conversion predates the
  /// serving API and hides an options object behind an enum at call
  /// sites. Use the explicit factory `QueryOptions::With(strategy)`
  /// instead; this constructor remains only for source compatibility
  /// with older callers.
  QueryOptions(ExecutionStrategy strategy) {  // NOLINT(runtime/explicit)
    set_strategy(strategy);
  }

  /// Options preset to the given strategy — the explicit replacement for
  /// the deprecated converting constructor above:
  ///   db.Query(sql, QueryOptions::With(ExecutionStrategy::kCanonical))
  static QueryOptions With(ExecutionStrategy strategy) {
    QueryOptions options;
    options.set_strategy(strategy);
    return options;
  }

  /// Presets the four plan-shape knobs below. Later direct writes to the
  /// individual knobs still win — the strategy is a preset, not a mode.
  void set_strategy(ExecutionStrategy s) {
    unnest = s == ExecutionStrategy::kUnnested ||
             s == ExecutionStrategy::kCostBased;
    cost_based = s == ExecutionStrategy::kCostBased;
    memoize_subqueries = s == ExecutionStrategy::kCanonicalMemo;
    shortcut_disjunctions = s != ExecutionStrategy::kCanonicalNoShortcut;
  }

  /// Classifies the current knob values back into a strategy name (used
  /// by benchmark reports; knob combinations outside the presets map to
  /// the nearest strategy).
  ExecutionStrategy strategy() const {
    if (unnest) {
      return cost_based ? ExecutionStrategy::kCostBased
                        : ExecutionStrategy::kUnnested;
    }
    if (memoize_subqueries) return ExecutionStrategy::kCanonicalMemo;
    if (!shortcut_disjunctions) {
      return ExecutionStrategy::kCanonicalNoShortcut;
    }
    return ExecutionStrategy::kCanonical;
  }

  // --- Plan-shape knobs (fixed at Prepare time). Prefer the
  //     ExecutionStrategy presets; these remain as overrides.

  /// Apply the paper's unnesting equivalences.
  bool unnest = true;
  /// With `unnest`, keep the canonical plan anyway when the cost model
  /// estimates it cheaper (paper Sec. 1: "some unnesting strategies do
  /// not always result in better plans" — e.g. Eqv. 5's quadratic pair
  /// stream on queries whose canonical evaluation is also quadratic).
  bool cost_based = false;
  /// Memoize correlated subquery results by correlation values.
  bool memoize_subqueries = false;
  /// When false, disjunctions are reordered so nested blocks are
  /// evaluated first — simulating an optimizer that does not short-cut
  /// ORs (the worst commercial behaviour observed in the paper).
  bool shortcut_disjunctions = true;
  /// Fine-grained rewriter knobs (enable_unnesting is overridden by
  /// `unnest` above).
  RewriteOptions rewrite;

  // --- Execution knobs (honoured per Execute on a PreparedQuery).

  /// Abort the execution after this long (paper: six hours → "n/a").
  std::optional<std::chrono::milliseconds> timeout;
  /// Record plan strings in the result (small cost; on by default).
  bool collect_plans = true;
  /// Rows per batch flowing between physical operators. 1 degenerates to
  /// row-at-a-time execution (useful as a differential-testing oracle).
  size_t batch_size = kDefaultBatchSize;
  /// Workers driving the top-level scan pipelines. 1 (default) is the
  /// fully serial executor — bit-for-bit the pre-parallelism behaviour;
  /// >1 splits every table scan into morsels dispatched to a shared
  /// worker pool. Result *set* is identical either way, but row order is
  /// only defined under ORDER BY.
  int num_threads = 1;
  /// Rows per morsel handed to a worker in one dispatch (num_threads>1).
  size_t morsel_size = kDefaultMorselSize;
  /// Attach typed columns to scan batches so the columnar predicate /
  /// aggregate kernels engage (on by default). Off forces the row-at-a-
  /// time Value paths everywhere — the oracle side of the columnar
  /// differential tests and the "row" side of the paired benches.
  bool enable_columnar = true;
  /// After execution, write actual base-table cardinalities back to the
  /// catalog when they drifted from the ANALYZE row counts (runtime
  /// cardinality feedback). The write bumps the statistics epoch, so
  /// prepared queries over the affected tables re-plan on their next run.
  bool refresh_stats = false;

  // --- Scheduling knobs (honoured by the serving layer; see
  //     engine/server.h). Standalone Database::Query still applies the
  //     memory budget; priority only matters once queries share a pool.

  /// Scheduling priority relative to other queries on the same Server:
  /// higher admits and claims shared-pool workers first. Added to the
  /// submitting session's priority.
  int priority = 0;
  /// Per-query memory budget in bytes for buffering operators (result
  /// collection, join build sides, sorts), enforced through
  /// ExecContext::ChargeMemory. 0 = the server's default (or unlimited
  /// for standalone use). With `allow_spill` (the default) budgeted hash
  /// joins and sorts overflow to temp files and complete with the same
  /// results; operators without a spill path (notably result collection)
  /// still fail with ResourceExhausted rather than grow without bound.
  size_t memory_budget_bytes = 0;
  /// Let budgeted executions spill join build sides and sort runs to
  /// temp files (Grace hash join / external merge sort) instead of
  /// failing. Off restores the strict pre-spill ResourceExhausted
  /// behaviour for every operator.
  bool allow_spill = true;
  /// Scratch directory for spill files; empty = the system temp
  /// directory. The per-query subdirectory is removed when the query
  /// finishes.
  std::string spill_directory;

  // --- Segment-storage knobs (see storage/segment.h).

  /// Consult per-segment zone maps (min/max/null counts) to skip table
  /// segments that cannot satisfy the scan's pushed-down predicate.
  bool enable_zone_maps = true;
  /// Read scans through the compressed segment store, decompressing one
  /// segment per worker at a time, instead of borrowing the table's flat
  /// in-memory columns — the out-of-core read path. Off by default: flat
  /// scans stay zero-copy.
  bool scan_from_segments = false;

  // --- Codegen-tier knobs (see src/codegen/, DESIGN.md §12). Only
  //     effective in builds with BYPASS_ENABLE_CODEGEN and a working
  //     host toolchain; otherwise silently interpreted.

  /// Splice compiled pipelines into prepared plans: scan-rooted
  /// filter/σ± chains (and an eligible hash-join probe or group-by
  /// accumulate behind them) are JIT-compiled via the host compiler +
  /// dlopen. Off by default — serving workloads that prepare
  /// once and execute many opt in.
  bool enable_codegen = false;
  /// Compile on the preparing thread instead of the background compile
  /// thread, so the first execution already runs native. For tests and
  /// compile-time measurement; serving keeps the default (async).
  bool codegen_synchronous = false;
};

struct QueryResult {
  Schema schema;
  std::vector<Row> rows;
  ExecStats stats;
  /// Wall-clock execution time (excludes parse/optimize).
  std::chrono::steady_clock::duration execution_time{};
  std::chrono::steady_clock::duration optimize_time{};

  double execution_seconds() const {
    return std::chrono::duration<double>(execution_time).count();
  }
  double optimize_seconds() const {
    return std::chrono::duration<double>(optimize_time).count();
  }

  std::string canonical_plan;   ///< logical plan before unnesting
  std::string optimized_plan;   ///< logical plan after unnesting
  std::string physical_plan;
  std::string operator_stats;   ///< per-operator emitted-row accounting
  /// Estimate-vs-actual cardinality per operator (collect_plans only).
  std::vector<OperatorFeedback> operator_feedback;
  std::vector<std::string> applied_rules;  ///< e.g. {"Eqv.2", "Eqv.1"}
};

}  // namespace bypass

#endif  // BYPASSDB_ENGINE_QUERY_OPTIONS_H_
