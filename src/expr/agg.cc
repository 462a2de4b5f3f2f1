#include "expr/agg.h"

#include <numeric>

#include "common/check.h"
#include "expr/column_kernels.h"

namespace bypass {

const char* AggFuncToString(AggFunc func) {
  switch (func) {
    case AggFunc::kCount:
      return "count";
    case AggFunc::kSum:
      return "sum";
    case AggFunc::kAvg:
      return "avg";
    case AggFunc::kMin:
      return "min";
    case AggFunc::kMax:
      return "max";
  }
  return "?";
}

std::string AggregateSpec::ToString() const {
  std::string out = AggFuncToString(func);
  out += "(";
  if (distinct) out += "DISTINCT ";
  out += arg ? arg->ToString() : "*";
  out += ")";
  return out;
}

bool IsAggDecomposable(const AggregateSpec& spec) {
  // count/sum/avg/min/max all decompose; DISTINCT variants of count/sum/avg
  // do not (paper, footnote 1). DISTINCT min/max would decompose, but we
  // treat all DISTINCT aggregates uniformly via Eqv. 5 for simplicity —
  // this only costs plan quality, never correctness.
  return !spec.distinct;
}

Value AggEmptyValue(AggFunc func) {
  return func == AggFunc::kCount ? Value::Int64(0) : Value::Null();
}

void Aggregator::Reset() {
  count_ = 0;
  sum_is_double_ = false;
  int_sum_ = 0;
  double_sum_ = 0;
  extreme_ = Value::Null();
  distinct_.Clear();
}

Status Aggregator::AccumulateArg(const Value& v) {
  if (v.is_null()) return Status::OK();  // aggregates skip NULL inputs
  if (spec_->distinct && !distinct_.FindOrInsert(v).second) {
    return Status::OK();
  }
  return AccumulateValue(v);
}

void Aggregator::CountDistinctRows(size_t index, const RowBatch& batch,
                                   AggregatorSet* const* sets) {
  std::vector<int> slots(batch.width());
  std::iota(slots.begin(), slots.end(), 0);
  const std::vector<uint32_t>& sel = batch.selection();
  std::vector<uint32_t> ids;
  for (size_t i = 0, end = 0; i < batch.size(); i = end) {
    end = i + 1;
    while (end < batch.size() && sets[end] == sets[i]) ++end;
    Aggregator& agg = sets[i]->aggs_[index];
    const size_t before = agg.distinct_.size();
    ids.resize(end - i);
    agg.distinct_.FindOrInsertBatch(
        batch.ShareWithSelection({sel.begin() + i, sel.begin() + end}), slots,
        ids.data());
    agg.count_ += static_cast<int64_t>(agg.distinct_.size() - before);
  }
}

bool Aggregator::AccumulateColumnarGrouped(size_t index,
                                           const RowBatch& batch,
                                           AggregatorSet* const* sets) {
  const size_t n = batch.size();
  if (n == 0) return true;
  const AggregateSpec& spec = *sets[0]->aggs_[index].spec_;
  if (spec.distinct) return false;
  if (spec.arg == nullptr) {
    for (size_t i = 0; i < n; ++i) ++sets[i]->aggs_[index].count_;
    return true;
  }
  ColumnOperand operand;
  if (!ResolveColumnOperand(*spec.arg, batch, /*outer_row=*/nullptr,
                            &operand) ||
      operand.column == nullptr) {
    return false;
  }
  const ColumnVector& col = *operand.column;
  const std::vector<uint32_t>& sel = batch.selection();
  if (spec.func == AggFunc::kCount) {
    for (size_t i = 0; i < n; ++i) {
      if (!col.IsNull(sel[i])) ++sets[i]->aggs_[index].count_;
    }
    return true;
  }
  if (col.type() == DataType::kInt64) {
    const int64_t* data = col.i64_data();
    for (size_t i = 0; i < n; ++i) {
      const uint32_t idx = sel[i];
      if (!col.IsNull(idx)) sets[i]->aggs_[index].FoldInt64(data[idx]);
    }
    return true;
  }
  if (col.type() == DataType::kDouble) {
    const double* data = col.f64_data();
    for (size_t i = 0; i < n; ++i) {
      const uint32_t idx = sel[i];
      if (!col.IsNull(idx)) sets[i]->aggs_[index].FoldDouble(data[idx]);
    }
    return true;
  }
  // bool/string columns: let the fallback raise the SQL type error.
  return false;
}

void Aggregator::FoldInt64(int64_t v) {
  switch (spec_->func) {
    case AggFunc::kSum:
    case AggFunc::kAvg:
      ++count_;
      int_sum_ += v;
      double_sum_ += static_cast<double>(v);
      return;
    case AggFunc::kMin:
    case AggFunc::kMax:
      if (extreme_.is_int64()) {
        const int c = CompareNumeric(v, extreme_.int64_value());
        if (spec_->func == AggFunc::kMin ? c < 0 : c > 0) {
          extreme_ = Value::Int64(v);
        }
        return;
      }
      break;
    case AggFunc::kCount:
      break;
  }
  (void)AccumulateValue(Value::Int64(v));
}

void Aggregator::FoldDouble(double v) {
  switch (spec_->func) {
    case AggFunc::kSum:
    case AggFunc::kAvg:
      ++count_;
      sum_is_double_ = true;
      double_sum_ += v;
      return;
    case AggFunc::kMin:
    case AggFunc::kMax:
      // The numeric order, as AccumulateValue's OrderCompare: a NaN is
      // the largest value, whatever the arrival order.
      if (extreme_.is_double()) {
        const int c = CompareNumeric(v, extreme_.double_value());
        if (spec_->func == AggFunc::kMin ? c < 0 : c > 0) {
          extreme_ = Value::Double(v);
        }
        return;
      }
      break;
    case AggFunc::kCount:
      break;
  }
  (void)AccumulateValue(Value::Double(v));
}

Status Aggregator::AccumulateValue(const Value& v) {
  switch (spec_->func) {
    case AggFunc::kCount:
      ++count_;
      return Status::OK();
    case AggFunc::kSum:
    case AggFunc::kAvg: {
      if (!v.is_numeric()) {
        return Status::ExecutionError("sum/avg on non-numeric value " +
                                      v.ToString());
      }
      ++count_;
      if (v.is_double()) sum_is_double_ = true;
      if (v.is_int64()) int_sum_ += v.int64_value();
      double_sum_ += v.AsDouble();
      return Status::OK();
    }
    case AggFunc::kMin:
    case AggFunc::kMax: {
      if (extreme_.is_null()) {
        extreme_ = v;
      } else {
        const int c = v.OrderCompare(extreme_);
        if ((spec_->func == AggFunc::kMin && c < 0) ||
            (spec_->func == AggFunc::kMax && c > 0)) {
          extreme_ = v;
        }
      }
      return Status::OK();
    }
  }
  BYPASS_UNREACHABLE("bad AggFunc");
}

Status Aggregator::Merge(const Aggregator& other) {
  if (spec_->distinct) {
    // Re-apply only the entries this accumulator has not seen; the other
    // side's sums/counts cannot be added directly because the two dedup
    // sets may overlap.
    for (uint32_t id = 0; id < other.distinct_.size(); ++id) {
      const Row key = other.distinct_.Key(id);
      if (!distinct_.FindOrInsert(key).second) continue;
      if (spec_->arg == nullptr) {
        ++count_;
      } else {
        BYPASS_RETURN_IF_ERROR(AccumulateValue(key[0]));
      }
    }
    return Status::OK();
  }
  count_ += other.count_;
  sum_is_double_ = sum_is_double_ || other.sum_is_double_;
  int_sum_ += other.int_sum_;
  double_sum_ += other.double_sum_;
  if (!other.extreme_.is_null()) {
    if (extreme_.is_null()) {
      extreme_ = other.extreme_;
    } else {
      const int c = other.extreme_.OrderCompare(extreme_);
      if ((spec_->func == AggFunc::kMin && c < 0) ||
          (spec_->func == AggFunc::kMax && c > 0)) {
        extreme_ = other.extreme_;
      }
    }
  }
  return Status::OK();
}

Result<Value> Aggregator::Finalize() const {
  switch (spec_->func) {
    case AggFunc::kCount:
      return Value::Int64(count_);
    case AggFunc::kSum:
      if (count_ == 0) return Value::Null();  // SQL: sum(∅) is NULL
      return sum_is_double_ ? Value::Double(double_sum_)
                            : Value::Int64(int_sum_);
    case AggFunc::kAvg:
      if (count_ == 0) return Value::Null();
      return Value::Double(double_sum_ / static_cast<double>(count_));
    case AggFunc::kMin:
    case AggFunc::kMax:
      return extreme_;
  }
  BYPASS_UNREACHABLE("bad AggFunc");
}

AggregatorSet::AggregatorSet(const std::vector<AggregateSpec>* specs) {
  aggs_.reserve(specs->size());
  for (const AggregateSpec& s : *specs) aggs_.emplace_back(&s);
  Reset();
}

void AggregatorSet::Reset() {
  for (Aggregator& a : aggs_) a.Reset();
}

Status AggregatorSet::AccumulateBatch(const RowBatch& batch,
                                      const Row* outer_row) {
  const std::vector<AggregatorSet*> sets(batch.size(), this);
  return AccumulateGrouped(batch, sets.data(), outer_row);
}

Status AggregatorSet::AccumulateGrouped(const RowBatch& batch,
                                        AggregatorSet* const* sets,
                                        const Row* outer_row) {
  const size_t n = batch.size();
  if (n == 0) return Status::OK();
  std::vector<Value> args;
  for (size_t j = 0; j < sets[0]->aggs_.size(); ++j) {
    if (Aggregator::AccumulateColumnarGrouped(j, batch, sets)) continue;
    const ExprPtr& arg = sets[0]->aggs_[j].spec_->arg;
    if (arg == nullptr) {  // COUNT(DISTINCT *)
      Aggregator::CountDistinctRows(j, batch, sets);
      continue;
    }
    args.clear();
    BYPASS_RETURN_IF_ERROR(arg->EvalBatch(batch, outer_row, &args));
    for (size_t i = 0; i < n; ++i) {
      BYPASS_RETURN_IF_ERROR(sets[i]->aggs_[j].AccumulateArg(args[i]));
    }
  }
  return Status::OK();
}

Status AggregatorSet::Merge(const AggregatorSet& other) {
  BYPASS_CHECK_MSG(aggs_.size() == other.aggs_.size(),
                   "merging AggregatorSets of different shape");
  for (size_t i = 0; i < aggs_.size(); ++i) {
    BYPASS_RETURN_IF_ERROR(aggs_[i].Merge(other.aggs_[i]));
  }
  return Status::OK();
}

Status AggregatorSet::FinalizeInto(ColumnVector* columns) const {
  for (size_t i = 0; i < aggs_.size(); ++i) {
    BYPASS_ASSIGN_OR_RETURN(Value v, aggs_[i].Finalize());
    columns[i].Append(std::move(v));
  }
  return Status::OK();
}

}  // namespace bypass
