#include "exec/subplan_impl.h"

namespace bypass {

ExecSubplan::ExecSubplan(PhysicalPlan plan,
                         std::vector<int> free_outer_slots, bool memoize)
    : plan_(std::move(plan)),
      free_outer_slots_(std::move(free_outer_slots)),
      memoize_(memoize) {}

void ExecSubplan::Configure(const std::shared_ptr<RunContext>& run) {
  // No pool: the subplan runs serially on whichever worker evaluates it,
  // but its operators must have a state slot for that worker's id.
  ctx_.set_run(run);
  for (ExecSubplan* nested : plan_.subplans) nested->Configure(run);
}

void ExecSubplan::ClearCache() {
  std::lock_guard<std::mutex> exec_lock(exec_mu_);
  for (CacheStripe& s : stripes_) {
    std::lock_guard<std::mutex> lock(s.mu);
    s.scalar.Clear();
    s.exists.Clear();
    s.some.Clear();
  }
  num_executions_.store(0, std::memory_order_relaxed);
  for (ExecSubplan* nested : plan_.subplans) {
    nested->ClearCache();
  }
}

Row ExecSubplan::MemoKey(const Row* outer_row) const {
  if (!HasKeySlots(outer_row)) return Row{};
  return ProjectRow(*outer_row, free_outer_slots_);
}

ExecSubplan::CacheStripe& ExecSubplan::StripeFor(const Row* outer_row,
                                                 const Value* probe) {
  // Mirrors HashRow over the materialized memo key (free attributes,
  // plus the probe value for SOME) so equal keys always pick the same
  // stripe; the table inside the stripe re-hashes with its own scheme.
  size_t h = 0x345678;
  if (HasKeySlots(outer_row)) {
    for (int s : free_outer_slots_) {
      h = h * 1000003 + (*outer_row)[static_cast<size_t>(s)].Hash();
    }
  }
  if (probe != nullptr) h = h * 1000003 + probe->Hash();
  return stripes_[h & (kNumStripes - 1)];
}

template <typename V>
const V* ExecSubplan::Lookup(const FlatRowMap<V>& cache,
                             const Row* outer_row) const {
  if (HasKeySlots(outer_row)) {
    return cache.Find(RowSlotsRef{outer_row, &free_outer_slots_});
  }
  return cache.Find(Row{});
}

Status ExecSubplan::Execute(const Row* outer_row) {
  // The per-row re-execution loop is the canonical plans' hot spot; it is
  // also where a time budget must be enforced even when each individual
  // run is short.
  BYPASS_RETURN_IF_ERROR(ctx_.run().CheckBudget());
  num_executions_.fetch_add(1, std::memory_order_relaxed);
  ++ctx_.run().stats().subquery_executions;
  ctx_.set_cancelled(false);
  ctx_.set_outer_row(outer_row);
  return RunPlan(&plan_, &ctx_);
}

Result<Value> ExecSubplan::EvalScalar(const Row* outer_row) {
  // Uncorrelated (type A) blocks are always materialized once; correlated
  // blocks only under the memoization strategy.
  const bool use_cache = UseCache();
  CacheStripe* stripe = nullptr;
  if (use_cache) {
    stripe = &StripeFor(outer_row, nullptr);
    std::lock_guard<std::mutex> lock(stripe->mu);
    if (const Value* hit = Lookup(stripe->scalar, outer_row)) {
      ++ctx_.run().stats().subquery_cache_hits;
      return *hit;
    }
  }
  std::lock_guard<std::mutex> exec_lock(exec_mu_);
  if (use_cache) {
    // Double-check: another worker may have filled the entry while this
    // one waited for the exec lock.
    std::lock_guard<std::mutex> lock(stripe->mu);
    if (const Value* hit = Lookup(stripe->scalar, outer_row)) {
      ++ctx_.run().stats().subquery_cache_hits;
      return *hit;
    }
  }
  BYPASS_RETURN_IF_ERROR(Execute(outer_row));
  const std::vector<Row>& rows = plan_.sink->rows();
  Value result;
  if (rows.empty()) {
    // Only possible for non-aggregate scalar blocks; SQL yields NULL.
    result = Value::Null();
  } else if (rows.size() == 1) {
    if (rows[0].size() != 1) {
      return Status::ExecutionError(
          "scalar subquery must return a single column");
    }
    result = rows[0][0];
  } else {
    return Status::ExecutionError(
        "scalar subquery returned more than one row");
  }
  if (use_cache) {
    std::lock_guard<std::mutex> lock(stripe->mu);
    stripe->scalar.FindOrEmplace(MemoKey(outer_row),
                                 [&] { return result; });
  }
  return result;
}

Result<bool> ExecSubplan::EvalExists(const Row* outer_row) {
  const bool use_cache = UseCache();
  CacheStripe* stripe = nullptr;
  if (use_cache) {
    stripe = &StripeFor(outer_row, nullptr);
    std::lock_guard<std::mutex> lock(stripe->mu);
    if (const uint8_t* hit = Lookup(stripe->exists, outer_row)) {
      ++ctx_.run().stats().subquery_cache_hits;
      return *hit != 0;
    }
  }
  std::lock_guard<std::mutex> exec_lock(exec_mu_);
  if (use_cache) {
    std::lock_guard<std::mutex> lock(stripe->mu);
    if (const uint8_t* hit = Lookup(stripe->exists, outer_row)) {
      ++ctx_.run().stats().subquery_cache_hits;
      return *hit != 0;
    }
  }
  ctx_.set_limit_one(true);
  Status st = Execute(outer_row);
  ctx_.set_limit_one(false);
  BYPASS_RETURN_IF_ERROR(st);
  const bool found = !plan_.sink->rows().empty();
  if (use_cache) {
    std::lock_guard<std::mutex> lock(stripe->mu);
    stripe->exists.FindOrEmplace(MemoKey(outer_row),
                                 [&] { return uint8_t{found}; });
  }
  return found;
}

Result<TriBool> ExecSubplan::EvalSome(CompareOp op, const Value& probe,
                                      const Row* outer_row) {
  const bool use_cache = UseCache();
  CacheStripe* stripe = nullptr;
  Row key;
  if (use_cache) {
    // The SOME key appends the probe value to the free attributes, so the
    // transparent slot-based probe does not apply; materialize once and
    // reuse the row for the lookups and the insert.
    key = MemoKey(outer_row);
    key.push_back(probe);
    stripe = &StripeFor(outer_row, &probe);
    std::lock_guard<std::mutex> lock(stripe->mu);
    if (const TriBool* hit = stripe->some.Find(key)) {
      ++ctx_.run().stats().subquery_cache_hits;
      return *hit;
    }
  }
  std::lock_guard<std::mutex> exec_lock(exec_mu_);
  if (use_cache) {
    std::lock_guard<std::mutex> lock(stripe->mu);
    if (const TriBool* hit = stripe->some.Find(key)) {
      ++ctx_.run().stats().subquery_cache_hits;
      return *hit;
    }
  }
  BYPASS_RETURN_IF_ERROR(Execute(outer_row));
  const std::vector<Row>& rows = plan_.sink->rows();
  TriBool result = TriBool::kFalse;
  for (const Row& r : rows) {
    if (r.size() != 1) {
      return Status::ExecutionError(
          "quantified subquery must return a single column");
    }
    const TriBool c = probe.Compare(op, r[0]);
    if (c == TriBool::kTrue) {
      result = TriBool::kTrue;
      break;
    }
    if (c == TriBool::kUnknown) result = TriBool::kUnknown;
  }
  if (use_cache) {
    std::lock_guard<std::mutex> lock(stripe->mu);
    stripe->some.FindOrEmplace(std::move(key), [&] { return result; });
  }
  return result;
}

}  // namespace bypass
