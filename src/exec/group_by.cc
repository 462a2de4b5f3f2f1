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
  if (scalar_) {
    Row out;
    BYPASS_RETURN_IF_ERROR(merged.scalar->FinalizeInto(&out));
    BYPASS_RETURN_IF_ERROR(EmitRow(kPortOut, std::move(out)));
  } else {
    for (uint32_t id = 0; id < merged.groups.size(); ++id) {
      Row out = merged.groups.key(id);
      BYPASS_RETURN_IF_ERROR(merged.groups.values()[id]->FinalizeInto(&out));
      BYPASS_RETURN_IF_ERROR(EmitRow(kPortOut, std::move(out)));
    }
  }
  return EmitFinish(kPortOut);
}

// ---------------------------------------------------- BinaryGroupBy(hash)

BinaryGroupByHashOp::BinaryGroupByHashOp(
    int left_key_slot, int right_key_slot,
    std::vector<AggregateSpec> aggregates)
    : left_key_slot_(left_key_slot),
      right_key_slot_(right_key_slot),
      left_key_slots_{left_key_slot},
      right_key_slots_{right_key_slot},
      aggregates_(std::move(aggregates)) {}

void BinaryGroupByHashOp::Reset() {
  BinaryPhysOp::Reset();
  group_keys_.Clear();
  group_values_.clear();
  empty_group_values_.clear();
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
        right.columns[static_cast<size_t>(right_key_slot_)];
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
  // Phase 2: finalize into value rows, by key id, probed per left tuple.
  group_values_.clear();
  group_values_.reserve(groups.size());
  for (const std::unique_ptr<AggregatorSet>& aggs : groups.values()) {
    Row vals;
    BYPASS_RETURN_IF_ERROR(aggs->FinalizeInto(&vals));
    group_values_.push_back(std::move(vals));
  }
  group_keys_ = std::move(groups.index());
  // f(∅) for empty groups.
  empty_group_values_.clear();
  for (const AggregateSpec& a : aggregates_) {
    empty_group_values_.push_back(AggEmptyValue(a.func));
  }
  return Status::OK();
}

Status BinaryGroupByHashOp::ProcessLeftBatch(RowBatch batch) {
  const size_t n = batch.size();
  for (size_t i = 0; i < n; ++i) {
    Row row = batch.TakeRow(i);
    const Value& key_val = row[static_cast<size_t>(left_key_slot_)];
    const Row* vals = &empty_group_values_;
    if (!key_val.is_null()) {
      const uint32_t id =
          group_keys_.Find(RowSlotsRef{&row, &left_key_slots_});
      if (id != KeyIndex::kNone) vals = &group_values_[id];
    }
    for (const Value& v : *vals) row.push_back(v);
    BYPASS_RETURN_IF_ERROR(EmitRow(kPortOut, std::move(row)));
  }
  return Status::OK();
}

// ------------------------------------------------------ BinaryGroupBy(nl)

BinaryGroupByNLOp::BinaryGroupByNLOp(int left_key_slot, CompareOp op,
                                     int right_key_slot,
                                     std::vector<AggregateSpec> aggregates)
    : left_key_slot_(left_key_slot),
      op_(op),
      right_key_slot_(right_key_slot),
      aggregates_(std::move(aggregates)) {}

void BinaryGroupByNLOp::Reset() {
  BinaryPhysOp::Reset();
  right_window_ = RowBatch();
}

Status BinaryGroupByNLOp::BuildFromRight() {
  right_window_ = RowBatch::BorrowedColumns(&right_columns(), 0,
                                            right_columns().num_rows);
  return Status::OK();
}

Status BinaryGroupByNLOp::ProcessLeftBatch(RowBatch batch) {
  // A view per call: concurrent workers share one build of the rows.
  const RowBatch& window = right_window_;
  const RowBatch right = window.ShareWithSelection(window.selection());
  const size_t n = batch.size();
  for (size_t i = 0; i < n; ++i) {
    Row row = batch.TakeRow(i);
    AggregatorSet aggs(&aggregates_);
    const Value& left_key = row[static_cast<size_t>(left_key_slot_)];
    int64_t since_check = 0;
    for (size_t r = 0; r < right.size(); ++r) {
      if (++since_check >= 4096) {
        since_check = 0;
        BYPASS_RETURN_IF_ERROR(ctx_->run().CheckBudget());
      }
      const Row& right_row = right.row(r);
      const Value& right_key =
          right_row[static_cast<size_t>(right_key_slot_)];
      if (left_key.Compare(op_, right_key) != TriBool::kTrue) continue;
      EvalContext ectx{&right_row, ctx_->outer_row()};
      BYPASS_RETURN_IF_ERROR(aggs.Accumulate(ectx));
    }
    BYPASS_RETURN_IF_ERROR(aggs.FinalizeInto(&row));
    BYPASS_RETURN_IF_ERROR(EmitRow(kPortOut, std::move(row)));
  }
  return Status::OK();
}

}  // namespace bypass
