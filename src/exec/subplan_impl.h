// ExecSubplan: executable nested query block. Re-runs its physical plan
// per outer tuple (the canonical nested-loop evaluation) with optional
// memoization keyed on the block's free attributes — the strategy our
// benchmark suite labels "canonical-memo".
//
// Thread safety: plan execution is shared mutable state (the subplan's
// operators and sink), so it is serialized by a per-subplan exec mutex.
// The memo caches, however, are sharded into kNumStripes stripes each
// guarded by its own mutex, so concurrent workers whose keys land in
// different stripes resolve cache *hits* without contending on a single
// lock. Cache misses take the exec mutex, re-check the stripe (another
// worker may have computed the entry while this one waited), execute,
// and publish the result. Lock order is exec → stripe; a stripe lock is
// never held while acquiring the exec lock.
#ifndef BYPASSDB_EXEC_SUBPLAN_IMPL_H_
#define BYPASSDB_EXEC_SUBPLAN_IMPL_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "common/flat_table.h"
#include "exec/executor.h"
#include "expr/subplan.h"

namespace bypass {

class ExecSubplan : public CorrelatedSubplan {
 public:
  /// `free_outer_slots`: outer-row slots the block actually reads; empty
  /// means the block is uncorrelated (Kim type A/N) and its result is
  /// cached after the first execution regardless of the memoize flag.
  ExecSubplan(PhysicalPlan plan, std::vector<int> free_outer_slots,
              bool memoize);

  Result<Value> EvalScalar(const Row* outer_row) override;
  Result<bool> EvalExists(const Row* outer_row) override;
  Result<TriBool> EvalSome(CompareOp op, const Value& probe,
                           const Row* outer_row) override;

  int64_t num_executions() const override {
    return num_executions_.load(std::memory_order_relaxed);
  }

  /// Joins this block, and every block nested in it, to the query's
  /// run context (called by the engine before running). The run's
  /// worker slots must cover every worker id that can evaluate
  /// expressions referencing this subplan.
  void Configure(const std::shared_ptr<RunContext>& run);

  /// Drops memoized results (between benchmark repetitions).
  void ClearCache();

  PhysicalPlan* plan() { return &plan_; }

 private:
  static constexpr size_t kNumStripes = 8;  // power of two

  /// One shard of the memo caches, padded onto its own cache line so
  /// stripe locks taken by different workers never false-share.
  struct alignas(64) CacheStripe {
    std::mutex mu;
    FlatRowMap<Value> scalar;
    FlatRowMap<uint8_t> exists;  // 0 or 1
    FlatRowMap<TriBool> some;
  };

  /// Runs the plan for `outer_row` and leaves the rows in the sink.
  /// Caller must hold exec_mu_.
  Status Execute(const Row* outer_row);

  Row MemoKey(const Row* outer_row) const;
  /// True when this call should consult/fill the memo caches.
  bool UseCache() const { return memoize_ || free_outer_slots_.empty(); }
  /// True when the memo key is non-trivial (transparent probes apply).
  bool HasKeySlots(const Row* outer_row) const {
    return outer_row != nullptr && !free_outer_slots_.empty();
  }
  /// Stripe owning the memo key of `outer_row` (+ optional SOME probe).
  CacheStripe& StripeFor(const Row* outer_row, const Value* probe);
  /// Looks up `cache` under the caller-held stripe lock via a transparent
  /// probe (no key materialization on the hit path).
  template <typename V>
  const V* Lookup(const FlatRowMap<V>& cache, const Row* outer_row) const;

  PhysicalPlan plan_;
  std::vector<int> free_outer_slots_;
  bool memoize_;
  ExecContext ctx_;
  std::atomic<int64_t> num_executions_{0};

  /// Serializes plan execution (operators + sink are shared state).
  std::mutex exec_mu_;
  CacheStripe stripes_[kNumStripes];
};

}  // namespace bypass

#endif  // BYPASSDB_EXEC_SUBPLAN_IMPL_H_
