#include "exec/group_by.h"

#include <algorithm>

#include "common/check.h"

namespace bypass {

namespace {

/// Folds `src` into `dst`: groups absent from `dst` move over wholesale
/// (key and accumulator, no re-aggregation), overlapping groups are
/// combined with AggregatorSet::Merge. Runs on the single-threaded finish
/// path; merging per-worker partials in worker order keeps the final
/// entry order deterministic.
template <typename GroupMap>
Status MergeGroupMaps(GroupMap* dst, GroupMap* src) {
  if (dst->empty()) {
    *dst = std::move(*src);
    src->Clear();
    return Status::OK();
  }
  for (uint32_t id = 0; id < src->size(); ++id) {
    bool moved = false;
    auto& value = dst->FindOrEmplace(src->key(id), [&] {
      moved = true;
      return std::move(src->values()[id]);
    });
    if (!moved) BYPASS_RETURN_IF_ERROR(value->Merge(*src->values()[id]));
  }
  src->Clear();
  return Status::OK();
}

/// An empty aggregate value column, typed by its first non-NULL value.
ColumnVector ValueColumn() { return ColumnVector(DataType::kInt64); }

}  // namespace

// ------------------------------------------------------------ HashGroupBy

HashGroupByOp::HashGroupByOp(std::vector<int> key_slots,
                             std::vector<AggregateSpec> aggregates,
                             bool scalar)
    : key_slots_(std::move(key_slots)),
      aggregates_(std::move(aggregates)),
      scalar_(scalar) {
  BYPASS_CHECK_MSG(!scalar_ || key_slots_.empty(),
                   "scalar aggregation cannot have group keys");
  partials_.resize(1);
  if (scalar_) {
    partials_[0].scalar = std::make_unique<AggregatorSet>(&aggregates_);
  }
}

Status HashGroupByOp::Prepare(ExecContext* ctx) {
  BYPASS_RETURN_IF_ERROR(UnaryPhysOp::Prepare(ctx));
  partials_.resize(static_cast<size_t>(ctx->run().num_worker_slots()));
  if (scalar_) {
    for (Partial& p : partials_) {
      if (p.scalar == nullptr) {
        p.scalar = std::make_unique<AggregatorSet>(&aggregates_);
      }
    }
  }
  return Status::OK();
}

void HashGroupByOp::Reset() {
  for (Partial& p : partials_) {
    p.groups.Clear();
    if (p.scalar) p.scalar->Reset();
  }
}

Status HashGroupByOp::Consume(int, RowBatch batch) {
  Partial& partial = partials_[static_cast<size_t>(CurrentWorkerId())];
  if (scalar_) {
    return partial.scalar->AccumulateBatch(batch, ctx_->outer_row());
  }
  // Resolve every selected row's group in one batch call — packed keys
  // straight off the typed key columns — then fold the aggregates over
  // the batch.
  const size_t n = batch.size();
  partial.groups.FindOrEmplaceBatch(
      batch, key_slots_,
      [&] { return std::make_unique<AggregatorSet>(&aggregates_); },
      &partial.ids);
  std::vector<AggregatorSet*>& sets = partial.sets;
  sets.resize(n);
  for (size_t i = 0; i < n; ++i) {
    sets[i] = partial.groups.values()[partial.ids[i]].get();
  }
  return AggregatorSet::AccumulateGrouped(batch, sets.data(),
                                          ctx_->outer_row());
}

Status HashGroupByOp::FinishPort(int) {
  // Finish runs single-threaded: merge the worker partials into slot 0,
  // then finalize. With one worker slot this is a no-op pass-through.
  Partial& merged = partials_[0];
  for (size_t w = 1; w < partials_.size(); ++w) {
    if (scalar_) {
      BYPASS_RETURN_IF_ERROR(merged.scalar->Merge(*partials_[w].scalar));
      partials_[w].scalar->Reset();
    } else {
      BYPASS_RETURN_IF_ERROR(
          MergeGroupMaps(&merged.groups, &partials_[w].groups));
    }
  }
  // Keys and finalized aggregates go straight into dense column stores of
  // at most batch_size groups each; scalar mode emits one keyless group.
  const GroupMap& groups = merged.groups;
  const size_t num_groups = scalar_ ? 1 : groups.size();
  for (size_t begin = 0; begin < num_groups; begin += batch_size()) {
    const size_t end = std::min(num_groups, begin + batch_size());
    ColumnStore out;
    if (!scalar_) {
      groups.index().AppendKeyColumns(static_cast<uint32_t>(begin),
                                      static_cast<uint32_t>(end),
                                      &out.columns);
    }
    const size_t num_keys = out.columns.size();
    out.columns.resize(num_keys + aggregates_.size(), ValueColumn());
    for (size_t id = begin; id < end; ++id) {
      const AggregatorSet& set =
          scalar_ ? *merged.scalar : *groups.values()[id];
      BYPASS_RETURN_IF_ERROR(set.FinalizeInto(&out.columns[num_keys]));
    }
    out.num_rows = end - begin;
    BYPASS_RETURN_IF_ERROR(
        Emit(kPortOut, RowBatch::FromColumns(std::move(out))));
  }
  return EmitFinish(kPortOut);
}

// ---------------------------------------------------- BinaryGroupBy(hash)

BinaryGroupByHashOp::BinaryGroupByHashOp(
    int left_key_slot, int right_key_slot,
    std::vector<AggregateSpec> aggregates)
    : left_key_slots_{left_key_slot},
      right_key_slots_{right_key_slot},
      aggregates_(std::move(aggregates)) {}

void BinaryGroupByHashOp::Reset() {
  BinaryPhysOp::Reset();
  group_keys_.Clear();
  group_values_ = ColumnStore();
}

Status BinaryGroupByHashOp::BuildFromRight() {
  // Phase 1: one AggregatorSet per distinct right key, folded a window of
  // the right columns at a time. NULL keys never match (SQL '='), so they
  // leave the window's selection first.
  const ColumnStore& right = right_columns();
  GroupMap groups;
  std::vector<uint32_t> ids;
  std::vector<AggregatorSet*> sets;
  for (size_t begin = 0; begin < right.num_rows; begin += batch_size()) {
    RowBatch window = RowBatch::BorrowedColumns(
        &right, begin, std::min(right.num_rows, begin + batch_size()));
    const ColumnVector& key =
        right.columns[static_cast<size_t>(right_key_slots_[0])];
    if (key.has_nulls()) {
      std::vector<uint32_t> keyed;
      for (uint32_t idx : window.selection()) {
        if (!key.IsNull(idx)) keyed.push_back(idx);
      }
      window = window.ShareWithSelection(std::move(keyed));
    }
    if (window.empty()) continue;
    groups.FindOrEmplaceBatch(
        window, right_key_slots_,
        [&] { return std::make_unique<AggregatorSet>(&aggregates_); }, &ids);
    sets.resize(window.size());
    for (size_t i = 0; i < sets.size(); ++i) {
      sets[i] = groups.values()[ids[i]].get();
    }
    BYPASS_RETURN_IF_ERROR(AggregatorSet::AccumulateGrouped(
        window, sets.data(), ctx_->outer_row()));
  }
  // Phase 2: finalize into columns by key id, then f(∅) — an empty set's
  // values — as the last row.
  group_values_ = ColumnStore();
  group_values_.columns.assign(aggregates_.size(), ValueColumn());
  for (const std::unique_ptr<AggregatorSet>& aggs : groups.values()) {
    BYPASS_RETURN_IF_ERROR(aggs->FinalizeInto(group_values_.columns.data()));
  }
  BYPASS_RETURN_IF_ERROR(AggregatorSet(&aggregates_).FinalizeInto(
      group_values_.columns.data()));
  group_values_.num_rows = groups.size() + 1;
  group_keys_ = std::move(groups.index());
  return Status::OK();
}

Status BinaryGroupByHashOp::ProcessLeftBatch(RowBatch batch) {
  // Each left row reads its group's row of the value columns, or the
  // f(∅) row when its key has no group (a NULL key never has one).
  const size_t n = batch.size();
  std::vector<uint32_t> rows(n,
                             static_cast<uint32_t>(group_values_.num_rows - 1));
  KeyScratch scratch;
  group_keys_.FindBatch(batch, left_key_slots_, &scratch,
                        [&rows](size_t i, uint32_t id) { rows[i] = id; });
  ColumnStore out = batch.ConsumeColumns();
  for (const ColumnVector& values : group_values_.columns) {
    ColumnVector col = values.EmptyLike();
    col.AppendGather(values, rows.data(), n);
    out.columns.push_back(std::move(col));
  }
  return Emit(kPortOut, RowBatch::FromColumns(std::move(out)));
}

// ------------------------------------------------------ BinaryGroupBy(nl)

BinaryGroupByNLOp::BinaryGroupByNLOp(int left_key_slot, CompareOp op,
                                     int right_key_slot,
                                     std::vector<AggregateSpec> aggregates)
    : left_key_slot_(left_key_slot),
      op_(op),
      right_key_slot_(right_key_slot),
      aggregates_(std::move(aggregates)) {}

Status BinaryGroupByNLOp::BuildFromRight() {
  const ColumnStore& right_store = right_columns();
  const ColumnVector& keys =
      right_store.columns[static_cast<size_t>(right_key_slot_)];
  right_keys_.clear();
  right_keys_.reserve(right_store.num_rows);
  for (size_t r = 0; r < right_store.num_rows; ++r) {
    right_keys_.push_back(keys.GetValue(r));
  }
  return Status::OK();
}

Status BinaryGroupByNLOp::ProcessLeftBatch(RowBatch batch) {
  // Each left row selects the right rows its key matches under θ and
  // folds them as one batch over the right columns.
  ColumnStore out = batch.ConsumeColumns();
  const size_t width = out.columns.size();
  out.columns.resize(width + aggregates_.size(), ValueColumn());
  const ColumnVector& left_keys =
      out.columns[static_cast<size_t>(left_key_slot_)];
  const RowBatch right = RowBatch::BorrowedColumns(&right_columns(), 0, 0);
  AggregatorSet aggs(&aggregates_);
  std::vector<uint32_t> matches;
  int64_t since_check = 0;
  for (size_t i = 0; i < out.num_rows; ++i) {
    const Value left_key = left_keys.GetValue(i);
    matches.clear();
    for (uint32_t r = 0; r < right_keys_.size(); ++r) {
      if (++since_check >= 4096) {
        since_check = 0;
        BYPASS_RETURN_IF_ERROR(ctx_->run().CheckBudget());
      }
      if (left_key.Compare(op_, right_keys_[r]) == TriBool::kTrue) {
        matches.push_back(r);
      }
    }
    aggs.Reset();
    BYPASS_RETURN_IF_ERROR(aggs.AccumulateBatch(
        right.ShareWithSelection(matches), ctx_->outer_row()));
    BYPASS_RETURN_IF_ERROR(aggs.FinalizeInto(&out.columns[width]));
  }
  return Emit(kPortOut, RowBatch::FromColumns(std::move(out)));
}

}  // namespace bypass
