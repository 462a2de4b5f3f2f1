#include "expr/expr.h"

#include <cmath>
#include <numeric>

#include "common/check.h"
#include "common/string_util.h"
#include "expr/column_kernels.h"

namespace bypass {

namespace {

/// Appends each selected row's storage index to the stream of its truth
/// value, truth_at(i) for the i-th: TRUE to `sel_true`, FALSE to
/// `sel_false` and NULL to `sel_null` when those are non-null, in batch
/// order (so `sel_false == sel_null` gets one ordered stream).
template <typename TruthAt>
void SplitByTruth(const std::vector<uint32_t>& sel, TruthAt&& truth_at,
                  std::vector<uint32_t>* sel_true,
                  std::vector<uint32_t>* sel_false,
                  std::vector<uint32_t>* sel_null) {
  // Indexed by TriBool (kFalse=0, kTrue=1, kUnknown=2).
  std::vector<uint32_t>* const outs[3] = {sel_false, sel_true, sel_null};
  for (size_t i = 0; i < sel.size(); ++i) {
    std::vector<uint32_t>* out = outs[static_cast<int>(truth_at(i))];
    if (out != nullptr) out->push_back(sel[i]);
  }
}

Value TriBoolToValue(TriBool t) {
  switch (t) {
    case TriBool::kTrue:
      return Value::Bool(true);
    case TriBool::kFalse:
      return Value::Bool(false);
    case TriBool::kUnknown:
      return Value::Null();
  }
  BYPASS_UNREACHABLE("bad TriBool");
}

}  // namespace

TriBool ValueToTriBool(const Value& v) {
  if (v.is_null()) return TriBool::kUnknown;
  if (v.is_bool()) {
    return v.bool_value() ? TriBool::kTrue : TriBool::kFalse;
  }
  return TriBool::kUnknown;
}

Status Expr::PartitionBatch(const RowBatch& batch, const Row* outer_row,
                            std::vector<uint32_t>* sel_true,
                            std::vector<uint32_t>* sel_false,
                            std::vector<uint32_t>* sel_null) const {
  std::vector<Value> values;
  BYPASS_RETURN_IF_ERROR(EvalBatch(batch, outer_row, &values));
  SplitByTruth(
      batch.selection(), [&](size_t i) { return ValueToTriBool(values[i]); },
      sel_true, sel_false, sel_null);
  return Status::OK();
}

// ---------------------------------------------------------------- Literal

Status LiteralExpr::EvalBatch(const RowBatch& batch, const Row*,
                              std::vector<Value>* out) const {
  out->insert(out->end(), batch.size(), value_);
  return Status::OK();
}

ExprPtr LiteralExpr::Clone() const {
  return std::make_shared<LiteralExpr>(value_);
}

// -------------------------------------------------------------- ColumnRef

Status ColumnRefExpr::EvalBatch(const RowBatch& batch, const Row* outer_row,
                                std::vector<Value>* out) const {
  if (slot_ < 0) {
    return Status::Internal("evaluating unbound column reference " +
                            ToString());
  }
  const size_t n = batch.size();
  const size_t slot = static_cast<size_t>(slot_);
  out->reserve(out->size() + n);
  if (is_outer_) {
    // The correlation row is shared by the whole batch: evaluate once.
    if (outer_row == nullptr) {
      return Status::Internal("no outer row bound while evaluating " +
                              ToString());
    }
    if (slot >= outer_row->size()) {
      return Status::Internal("slot out of range for " + ToString());
    }
    out->insert(out->end(), n, (*outer_row)[slot]);
    return Status::OK();
  }
  if (slot >= batch.width()) {
    return Status::Internal("slot out of range for " + ToString());
  }
  batch.columns()->columns[slot].GetValues(batch.selection().data(), n, out);
  return Status::OK();
}

ExprPtr ColumnRefExpr::Clone() const {
  auto copy = std::make_shared<ColumnRefExpr>(qualifier_, name_, is_outer_);
  copy->set_slot(slot_);
  copy->position_ = position_;
  return copy;
}

std::string ColumnRefExpr::ToString() const {
  std::string out;
  if (is_outer_) out += "^";  // correlated (outer block) reference
  if (!qualifier_.empty()) {
    out += qualifier_;
    out += ".";
  }
  out += name_;
  return out;
}

// ------------------------------------------------------------- Comparison

Status ComparisonExpr::EvalBatch(const RowBatch& batch,
                                 const Row* outer_row,
                                 std::vector<Value>* out) const {
  // Columnar kernel: one branch on (op, column type) per batch, raw
  // column data + null bitmaps per element. Untyped columns and
  // constant pairs compare Value by Value.
  ColumnOperand cl, cr;
  if (ResolveColumnOperand(*left_, batch, outer_row, &cl) &&
      ResolveColumnOperand(*right_, batch, outer_row, &cr) &&
      ColumnarCompareEval(op_, cl, cr, batch, out)) {
    return Status::OK();
  }
  std::vector<Value> l, r;
  BYPASS_RETURN_IF_ERROR(left_->EvalBatch(batch, outer_row, &l));
  BYPASS_RETURN_IF_ERROR(right_->EvalBatch(batch, outer_row, &r));
  out->reserve(out->size() + l.size());
  for (size_t i = 0; i < l.size(); ++i) {
    out->push_back(TriBoolToValue(l[i].Compare(op_, r[i])));
  }
  return Status::OK();
}

Status ComparisonExpr::PartitionBatch(const RowBatch& batch,
                                      const Row* outer_row,
                                      std::vector<uint32_t>* sel_true,
                                      std::vector<uint32_t>* sel_false,
                                      std::vector<uint32_t>* sel_null) const {
  // Fused columnar bypass-partition kernel: typed comparison and σ± split
  // in one pass over raw column data, no Value materialization.
  ColumnOperand cl, cr;
  if (ResolveColumnOperand(*left_, batch, outer_row, &cl) &&
      ResolveColumnOperand(*right_, batch, outer_row, &cr) &&
      ColumnarComparePartition(op_, cl, cr, batch, sel_true, sel_false,
                               sel_null)) {
    return Status::OK();
  }
  return Expr::PartitionBatch(batch, outer_row, sel_true, sel_false,
                              sel_null);
}

ExprPtr ComparisonExpr::Clone() const {
  return std::make_shared<ComparisonExpr>(op_, left_->Clone(),
                                          right_->Clone());
}

std::string ComparisonExpr::ToString() const {
  return "(" + left_->ToString() + " " + CompareOpToString(op_) + " " +
         right_->ToString() + ")";
}

// ---------------------------------------------------------------- And/Or

namespace {

/// Walks the selection `sel` of a partitioned batch alongside the TRUE and
/// NULL streams its partition produced, calling visit(j, truth) for each
/// entry j in order; an entry in neither stream is FALSE. Each stream is
/// a subsequence of `sel`, and equal storage indices share one truth
/// value, so a stream's head matches entry j exactly when j belongs to it.
template <typename Visit>
void WalkTruth(const std::vector<uint32_t>& sel,
               const std::vector<uint32_t>& is_true,
               const std::vector<uint32_t>& is_null, Visit&& visit) {
  size_t t = 0;
  size_t u = 0;
  for (size_t j = 0; j < sel.size(); ++j) {
    if (t < is_true.size() && is_true[t] == sel[j]) {
      ++t;
      visit(j, TriBool::kTrue);
    } else if (u < is_null.size() && is_null[u] == sel[j]) {
      ++u;
      visit(j, TriBool::kUnknown);
    } else {
      visit(j, TriBool::kFalse);
    }
  }
}

/// The one junction kernel: the 3VL value of an n-ary AND/OR for each
/// selected row of `batch`, in selection order. Terms run left to right,
/// each partitioning (σ±) only the rows still undecided, so each row
/// short-circuits exactly as SQL's 3VL allows: a term is never evaluated
/// (no error, no subquery execution) for a row an earlier term already
/// decided — the bypass intuition of Eqv. 2/3.
Status JunctionTruth(const std::vector<ExprPtr>& terms, bool is_and,
                     const RowBatch& batch, const Row* outer_row,
                     std::vector<TriBool>* truth) {
  const size_t n = batch.size();
  const TriBool absorbing = is_and ? TriBool::kFalse : TriBool::kTrue;
  truth->assign(n, is_and ? TriBool::kTrue : TriBool::kFalse);
  std::vector<uint32_t> undecided(n);  // positions in [0, n)
  std::iota(undecided.begin(), undecided.end(), 0);
  std::vector<uint32_t> is_true, is_null;
  for (const ExprPtr& term : terms) {
    if (undecided.empty()) break;
    // While no row is decided the term partitions the batch itself.
    RowBatch sub;
    if (undecided.size() < n) {
      std::vector<uint32_t> sub_sel(undecided.size());
      for (size_t j = 0; j < undecided.size(); ++j) {
        sub_sel[j] = batch.selection()[undecided[j]];
      }
      sub = batch.ShareWithSelection(std::move(sub_sel));
    }
    const RowBatch& view = undecided.size() < n ? sub : batch;
    is_true.clear();
    is_null.clear();
    BYPASS_RETURN_IF_ERROR(
        term->PartitionBatch(view, outer_row, &is_true, nullptr, &is_null));
    size_t kept = 0;
    WalkTruth(view.selection(), is_true, is_null,
              [&](size_t j, TriBool v) {
                const uint32_t pos = undecided[j];
                if (v == absorbing) {
                  (*truth)[pos] = absorbing;
                  return;
                }
                if (v == TriBool::kUnknown) (*truth)[pos] = v;
                undecided[kept++] = pos;
              });
    undecided.resize(kept);
  }
  return Status::OK();
}

Status EvalJunctionBatch(const std::vector<ExprPtr>& terms, bool is_and,
                         const RowBatch& batch, const Row* outer_row,
                         std::vector<Value>* out) {
  std::vector<TriBool> truth;
  BYPASS_RETURN_IF_ERROR(
      JunctionTruth(terms, is_and, batch, outer_row, &truth));
  out->reserve(out->size() + truth.size());
  for (TriBool t : truth) out->push_back(TriBoolToValue(t));
  return Status::OK();
}

Status PartitionJunctionBatch(const std::vector<ExprPtr>& terms, bool is_and,
                              const RowBatch& batch, const Row* outer_row,
                              std::vector<uint32_t>* sel_true,
                              std::vector<uint32_t>* sel_false,
                              std::vector<uint32_t>* sel_null) {
  std::vector<TriBool> truth;
  BYPASS_RETURN_IF_ERROR(
      JunctionTruth(terms, is_and, batch, outer_row, &truth));
  SplitByTruth(
      batch.selection(), [&](size_t i) { return truth[i]; }, sel_true,
      sel_false, sel_null);
  return Status::OK();
}

}  // namespace

Status AndExpr::EvalBatch(const RowBatch& batch, const Row* outer_row,
                          std::vector<Value>* out) const {
  return EvalJunctionBatch(terms_, /*is_and=*/true, batch, outer_row, out);
}

Status AndExpr::PartitionBatch(const RowBatch& batch, const Row* outer_row,
                               std::vector<uint32_t>* sel_true,
                               std::vector<uint32_t>* sel_false,
                               std::vector<uint32_t>* sel_null) const {
  return PartitionJunctionBatch(terms_, /*is_and=*/true, batch, outer_row,
                                sel_true, sel_false, sel_null);
}

ExprPtr AndExpr::Clone() const {
  std::vector<ExprPtr> terms;
  terms.reserve(terms_.size());
  for (const ExprPtr& t : terms_) terms.push_back(t->Clone());
  return std::make_shared<AndExpr>(std::move(terms));
}

std::string AndExpr::ToString() const {
  std::vector<std::string> parts;
  parts.reserve(terms_.size());
  for (const ExprPtr& t : terms_) parts.push_back(t->ToString());
  return "(" + Join(parts, " AND ") + ")";
}

Status OrExpr::EvalBatch(const RowBatch& batch, const Row* outer_row,
                         std::vector<Value>* out) const {
  return EvalJunctionBatch(terms_, /*is_and=*/false, batch, outer_row, out);
}

Status OrExpr::PartitionBatch(const RowBatch& batch, const Row* outer_row,
                              std::vector<uint32_t>* sel_true,
                              std::vector<uint32_t>* sel_false,
                              std::vector<uint32_t>* sel_null) const {
  return PartitionJunctionBatch(terms_, /*is_and=*/false, batch, outer_row,
                                sel_true, sel_false, sel_null);
}

ExprPtr OrExpr::Clone() const {
  std::vector<ExprPtr> terms;
  terms.reserve(terms_.size());
  for (const ExprPtr& t : terms_) terms.push_back(t->Clone());
  return std::make_shared<OrExpr>(std::move(terms));
}

std::string OrExpr::ToString() const {
  std::vector<std::string> parts;
  parts.reserve(terms_.size());
  for (const ExprPtr& t : terms_) parts.push_back(t->ToString());
  return "(" + Join(parts, " OR ") + ")";
}

// -------------------------------------------------------------------- Not

Status NotExpr::EvalBatch(const RowBatch& batch, const Row* outer_row,
                          std::vector<Value>* out) const {
  std::vector<Value> vals;
  BYPASS_RETURN_IF_ERROR(input_->EvalBatch(batch, outer_row, &vals));
  out->reserve(out->size() + vals.size());
  for (const Value& v : vals) {
    out->push_back(TriBoolToValue(TriNot(ValueToTriBool(v))));
  }
  return Status::OK();
}

Status NotExpr::PartitionBatch(const RowBatch& batch, const Row* outer_row,
                               std::vector<uint32_t>* sel_true,
                               std::vector<uint32_t>* sel_false,
                               std::vector<uint32_t>* sel_null) const {
  // NOT swaps TRUE and FALSE and keeps NULL.
  if (sel_false == nullptr || sel_false != sel_null) {
    std::vector<uint32_t> unused;
    return input_->PartitionBatch(batch, outer_row,
                                  sel_false != nullptr ? sel_false : &unused,
                                  sel_true, sel_null);
  }
  // One complement-of-TRUE stream: the input's TRUE and NULL rows merged
  // back into batch order.
  std::vector<uint32_t> is_true, is_null;
  BYPASS_RETURN_IF_ERROR(input_->PartitionBatch(batch, outer_row, &is_true,
                                                sel_true, &is_null));
  const std::vector<uint32_t>& sel = batch.selection();
  WalkTruth(sel, is_true, is_null, [&](size_t j, TriBool v) {
    if (v != TriBool::kFalse) sel_false->push_back(sel[j]);
  });
  return Status::OK();
}

ExprPtr NotExpr::Clone() const {
  return std::make_shared<NotExpr>(input_->Clone());
}

std::string NotExpr::ToString() const {
  return "(NOT " + input_->ToString() + ")";
}

// ------------------------------------------------------------- Arithmetic

Status ArithmeticExpr::EvalBatch(const RowBatch& batch,
                                 const Row* outer_row,
                                 std::vector<Value>* out) const {
  ColumnOperand cl, cr;
  if (ResolveColumnOperand(*left_, batch, outer_row, &cl) &&
      ResolveColumnOperand(*right_, batch, outer_row, &cr)) {
    if (auto st = ColumnarArithmeticEval(op_, cl, cr, batch, ToString(),
                                         out)) {
      return *st;
    }
  }
  std::vector<Value> l, r;
  BYPASS_RETURN_IF_ERROR(left_->EvalBatch(batch, outer_row, &l));
  BYPASS_RETURN_IF_ERROR(right_->EvalBatch(batch, outer_row, &r));
  out->reserve(out->size() + l.size());
  for (size_t i = 0; i < l.size(); ++i) {
    BYPASS_ASSIGN_OR_RETURN(Value v, Combine(l[i], r[i]));
    out->push_back(std::move(v));
  }
  return Status::OK();
}

Result<Value> ArithmeticExpr::Combine(const Value& l, const Value& r) const {
  if (l.is_null() || r.is_null()) return Value::Null();
  if (!l.is_numeric() || !r.is_numeric()) {
    return Status::ExecutionError("arithmetic on non-numeric values: " +
                                  ToString());
  }
  if (op_ == ArithOp::kDiv) {
    const double denom = r.AsDouble();
    if (denom == 0.0) {
      return Status::ExecutionError("division by zero: " + ToString());
    }
    return Value::Double(l.AsDouble() / denom);
  }
  if (l.is_int64() && r.is_int64()) {
    const int64_t a = l.int64_value(), b = r.int64_value();
    switch (op_) {
      case ArithOp::kAdd:
        return Value::Int64(a + b);
      case ArithOp::kSub:
        return Value::Int64(a - b);
      case ArithOp::kMul:
        return Value::Int64(a * b);
      case ArithOp::kDiv:
        break;
    }
  }
  const double a = l.AsDouble(), b = r.AsDouble();
  switch (op_) {
    case ArithOp::kAdd:
      return Value::Double(a + b);
    case ArithOp::kSub:
      return Value::Double(a - b);
    case ArithOp::kMul:
      return Value::Double(a * b);
    case ArithOp::kDiv:
      break;
  }
  BYPASS_UNREACHABLE("bad ArithOp");
}

ExprPtr ArithmeticExpr::Clone() const {
  return std::make_shared<ArithmeticExpr>(op_, left_->Clone(),
                                          right_->Clone());
}

std::string ArithmeticExpr::ToString() const {
  const char* sym = "?";
  switch (op_) {
    case ArithOp::kAdd:
      sym = "+";
      break;
    case ArithOp::kSub:
      sym = "-";
      break;
    case ArithOp::kMul:
      sym = "*";
      break;
    case ArithOp::kDiv:
      sym = "/";
      break;
  }
  return "(" + left_->ToString() + " " + sym + " " + right_->ToString() +
         ")";
}

// ------------------------------------------------------------------- Like

Result<Value> LikeExpr::Match(const Value& v) const {
  if (v.is_null()) return Value::Null();
  if (!v.is_string()) {
    return Status::ExecutionError("LIKE on non-string value: " +
                                  ToString());
  }
  const bool match = LikeMatch(v.string_value(), pattern_);
  return Value::Bool(negated_ ? !match : match);
}

Status LikeExpr::EvalBatch(const RowBatch& batch, const Row* outer_row,
                           std::vector<Value>* out) const {
  // Typed string kernel: one matcher loop over raw column data. Falls
  // back to matching the input's evaluated values (and their non-string
  // execution error) when the input is not a typed string column /
  // string constant.
  ColumnOperand in;
  if (ResolveColumnOperand(*input_, batch, outer_row, &in) &&
      ColumnarLikeEval(in, pattern_, negated_, batch, out)) {
    return Status::OK();
  }
  std::vector<Value> vals;
  BYPASS_RETURN_IF_ERROR(input_->EvalBatch(batch, outer_row, &vals));
  out->reserve(out->size() + vals.size());
  for (const Value& v : vals) {
    BYPASS_ASSIGN_OR_RETURN(Value match, Match(v));
    out->push_back(std::move(match));
  }
  return Status::OK();
}

Status LikeExpr::PartitionBatch(const RowBatch& batch, const Row* outer_row,
                                std::vector<uint32_t>* sel_true,
                                std::vector<uint32_t>* sel_false,
                                std::vector<uint32_t>* sel_null) const {
  // Fused LIKE σ± split, mirroring ComparisonExpr::PartitionBatch.
  ColumnOperand in;
  if (ResolveColumnOperand(*input_, batch, outer_row, &in) &&
      ColumnarLikePartition(in, pattern_, negated_, batch, sel_true,
                            sel_false, sel_null)) {
    return Status::OK();
  }
  return Expr::PartitionBatch(batch, outer_row, sel_true, sel_false,
                              sel_null);
}

ExprPtr LikeExpr::Clone() const {
  return std::make_shared<LikeExpr>(input_->Clone(), pattern_, negated_);
}

std::string LikeExpr::ToString() const {
  return "(" + input_->ToString() + (negated_ ? " NOT LIKE '" : " LIKE '") +
         pattern_ + "')";
}

// ----------------------------------------------------------------- IsNull

Status IsNullExpr::EvalBatch(const RowBatch& batch, const Row* outer_row,
                             std::vector<Value>* out) const {
  // Columnar path: IS [NOT] NULL over a typed column is a pure bitmap
  // read; over a batch-constant it is one test for the whole batch.
  ColumnOperand operand;
  if (ResolveColumnOperand(*input_, batch, outer_row, &operand)) {
    const size_t n = batch.size();
    out->reserve(out->size() + n);
    if (operand.column == nullptr) {
      out->insert(out->end(), n,
                  Value::Bool(negated_ ? !operand.constant->is_null()
                                       : operand.constant->is_null()));
      return Status::OK();
    }
    const ColumnVector& col = *operand.column;
    for (uint32_t idx : batch.selection()) {
      const bool is_null = col.IsNull(idx);
      out->push_back(Value::Bool(negated_ ? !is_null : is_null));
    }
    return Status::OK();
  }
  std::vector<Value> vals;
  BYPASS_RETURN_IF_ERROR(input_->EvalBatch(batch, outer_row, &vals));
  out->reserve(out->size() + vals.size());
  for (const Value& v : vals) {
    out->push_back(Value::Bool(negated_ ? !v.is_null() : v.is_null()));
  }
  return Status::OK();
}

ExprPtr IsNullExpr::Clone() const {
  return std::make_shared<IsNullExpr>(input_->Clone(), negated_);
}

std::string IsNullExpr::ToString() const {
  return "(" + input_->ToString() +
         (negated_ ? " IS NOT NULL)" : " IS NULL)");
}

// --------------------------------------------------------------- Function

Status FunctionExpr::EvalBatch(const RowBatch& batch, const Row* outer_row,
                               std::vector<Value>* out) const {
  if ((func_ == BuiltinFunc::kAddIgnoreNull ||
       func_ == BuiltinFunc::kCoalesce) &&
      EvalInt64Batch(batch, outer_row, out)) {
    return Status::OK();
  }
  // Arguments column at a time (column references read the batch's
  // columns), then one combine per row. Every argument of every row is
  // evaluated; the built-ins take no short-circuit.
  const size_t n = batch.size();
  const size_t k = args_.size();
  std::vector<Value> args;  // row-major: args[i * k + j]
  args.resize(n * k);
  std::vector<Value> column;
  for (size_t j = 0; j < k; ++j) {
    column.clear();
    BYPASS_RETURN_IF_ERROR(args_[j]->EvalBatch(batch, outer_row, &column));
    for (size_t i = 0; i < n; ++i) args[i * k + j] = std::move(column[i]);
  }
  out->reserve(out->size() + n);
  for (size_t i = 0; i < n; ++i) {
    BYPASS_ASSIGN_OR_RETURN(Value v, Apply(args.data() + i * k, k));
    out->push_back(std::move(v));
  }
  return Status::OK();
}

bool FunctionExpr::EvalInt64Batch(const RowBatch& batch,
                                  const Row* outer_row,
                                  std::vector<Value>* out) const {
  // Eqv. 4's combine over int64 inputs: every argument a typed int64
  // column or an int64 / NULL constant. Both functions then yield an
  // int64 or NULL, exactly as Apply does.
  std::vector<ColumnOperand> ops(args_.size());
  for (size_t j = 0; j < args_.size(); ++j) {
    if (!ResolveColumnOperand(*args_[j], batch, outer_row, &ops[j])) {
      return false;
    }
    const bool ok = ops[j].column != nullptr
                        ? ops[j].column->type() == DataType::kInt64
                        : ops[j].constant->is_null() ||
                              ops[j].constant->is_int64();
    if (!ok) return false;
  }
  const bool add = func_ == BuiltinFunc::kAddIgnoreNull;
  const std::vector<uint32_t>& sel = batch.selection();
  out->reserve(out->size() + sel.size());
  for (uint32_t idx : sel) {
    bool any = false;
    int64_t acc = 0;
    for (const ColumnOperand& op : ops) {
      int64_t v;
      if (op.column != nullptr) {
        if (op.column->IsNull(idx)) continue;
        v = op.column->i64_data()[idx];
      } else {
        if (op.constant->is_null()) continue;
        v = op.constant->int64_value();
      }
      if (!add) {
        acc = v;
        any = true;
        break;
      }
      acc += v;
      any = true;
    }
    out->push_back(any ? Value::Int64(acc) : Value::Null());
  }
  return true;
}

Result<Value> FunctionExpr::Apply(const Value* vals, size_t n) const {
  auto arg = [&](size_t j) -> const Value& { return vals[j]; };
  switch (func_) {
    case BuiltinFunc::kCoalesce: {
      for (size_t j = 0; j < n; ++j) {
        if (!arg(j).is_null()) return arg(j);
      }
      return Value::Null();
    }
    case BuiltinFunc::kAddIgnoreNull: {
      bool any = false;
      bool all_int = true;
      double dsum = 0;
      int64_t isum = 0;
      for (size_t j = 0; j < n; ++j) {
        const Value& v = arg(j);
        if (v.is_null()) continue;
        if (!v.is_numeric()) {
          return Status::ExecutionError("ADD_IGNORE_NULL on non-numeric");
        }
        any = true;
        if (v.is_int64()) {
          isum += v.int64_value();
        } else {
          all_int = false;
        }
        dsum += v.AsDouble();
      }
      if (!any) return Value::Null();
      return all_int ? Value::Int64(isum) : Value::Double(dsum);
    }
    case BuiltinFunc::kLeastIgnoreNull:
    case BuiltinFunc::kGreatestIgnoreNull: {
      Value best;
      for (size_t j = 0; j < n; ++j) {
        const Value& v = arg(j);
        if (v.is_null()) continue;
        if (best.is_null()) {
          best = v;
        } else {
          const int c = v.OrderCompare(best);
          if ((func_ == BuiltinFunc::kLeastIgnoreNull && c < 0) ||
              (func_ == BuiltinFunc::kGreatestIgnoreNull && c > 0)) {
            best = v;
          }
        }
      }
      return best;
    }
    case BuiltinFunc::kDivOrNullIfZero: {
      if (n != 2) {
        return Status::Internal("DIV_OR_NULL expects 2 arguments");
      }
      const Value& num = arg(0);
      const Value& den = arg(1);
      if (num.is_null() || den.is_null()) return Value::Null();
      if (!num.is_numeric() || !den.is_numeric()) {
        return Status::ExecutionError("DIV_OR_NULL on non-numeric");
      }
      const double d = den.AsDouble();
      if (d == 0.0) return Value::Null();
      return Value::Double(num.AsDouble() / d);
    }
  }
  BYPASS_UNREACHABLE("bad BuiltinFunc");
}

ExprPtr FunctionExpr::Clone() const {
  std::vector<ExprPtr> args;
  args.reserve(args_.size());
  for (const ExprPtr& a : args_) args.push_back(a->Clone());
  return std::make_shared<FunctionExpr>(func_, std::move(args));
}

std::string FunctionExpr::ToString() const {
  const char* name = "?";
  switch (func_) {
    case BuiltinFunc::kCoalesce:
      name = "COALESCE";
      break;
    case BuiltinFunc::kAddIgnoreNull:
      name = "ADD_IGNORE_NULL";
      break;
    case BuiltinFunc::kLeastIgnoreNull:
      name = "LEAST_IGNORE_NULL";
      break;
    case BuiltinFunc::kGreatestIgnoreNull:
      name = "GREATEST_IGNORE_NULL";
      break;
    case BuiltinFunc::kDivOrNullIfZero:
      name = "DIV_OR_NULL";
      break;
  }
  std::vector<std::string> parts;
  parts.reserve(args_.size());
  for (const ExprPtr& a : args_) parts.push_back(a->ToString());
  return std::string(name) + "(" + Join(parts, ", ") + ")";
}

// --------------------------------------------------------------- Subquery

Status SubqueryExpr::EvalBatch(const RowBatch& batch, const Row* outer_row,
                               std::vector<Value>* out) const {
  if (subplan_ == nullptr) {
    return Status::Internal(
        "subquery expression evaluated before lowering: " + ToString());
  }
  std::vector<Value> probes;
  if (subquery_kind_ == SubqueryKind::kQuantified) {
    BYPASS_RETURN_IF_ERROR(probe_->EvalBatch(batch, outer_row, &probes));
  }
  // 3VL: x θ ALL S is NOT (x θ̄ SOME S).
  const bool all = quantifier_ == Quantifier::kAll;
  const CompareOp some_op = all ? NegateCompareOp(compare_op_) : compare_op_;
  // Each selected row is built into one scratch row, the block's outer
  // row: the block's free attributes read this operator's input.
  const std::vector<uint32_t>& sel = batch.selection();
  out->reserve(out->size() + sel.size());
  Row row;
  for (size_t i = 0; i < sel.size(); ++i) {
    row.clear();
    for (const ColumnVector& col : batch.columns()->columns) {
      row.push_back(col.GetValue(sel[i]));
    }
    if (subquery_kind_ == SubqueryKind::kScalar) {
      BYPASS_ASSIGN_OR_RETURN(Value v, subplan_->EvalScalar(&row));
      out->push_back(std::move(v));
    } else if (subquery_kind_ == SubqueryKind::kExists) {
      BYPASS_ASSIGN_OR_RETURN(bool exists, subplan_->EvalExists(&row));
      out->push_back(Value::Bool(negated_ ? !exists : exists));
    } else {
      BYPASS_ASSIGN_OR_RETURN(TriBool some,
                              subplan_->EvalSome(some_op, probes[i], &row));
      out->push_back(TriBoolToValue(all ? TriNot(some) : some));
    }
  }
  return Status::OK();
}

ExprPtr SubqueryExpr::Clone() const {
  auto copy = std::make_shared<SubqueryExpr>(
      subquery_kind_, plan_ ? CloneLogicalPlan(plan_) : nullptr);
  copy->set_negated(negated_);
  copy->set_quantified(compare_op_, quantifier_);
  if (probe_) copy->set_probe(probe_->Clone());
  copy->set_subplan(subplan_);  // executable subplans are shareable
  return copy;
}

std::string SubqueryExpr::ToString() const {
  std::string plan_str =
      plan_ ? LogicalPlanSummary(*plan_) : std::string("<lowered>");
  switch (subquery_kind_) {
    case SubqueryKind::kScalar:
      return "SCALAR(" + plan_str + ")";
    case SubqueryKind::kExists:
      return std::string(negated_ ? "NOT " : "") + "EXISTS(" + plan_str +
             ")";
    case SubqueryKind::kQuantified: {
      const bool all = quantifier_ == Quantifier::kAll;
      std::string link;
      if (compare_op_ == CompareOp::kEq && !all) {
        link = " IN (";
      } else if (compare_op_ == CompareOp::kNe && all) {
        link = " NOT IN (";
      } else {
        link = std::string(" ") + CompareOpToString(compare_op_) +
               (all ? " ALL (" : " SOME (");
      }
      return probe_->ToString() + link + plan_str + ")";
    }
  }
  BYPASS_UNREACHABLE("bad SubqueryKind");
}

// -------------------------------------------------------------- Factories

ExprPtr MakeLiteral(Value v) {
  return std::make_shared<LiteralExpr>(std::move(v));
}

ExprPtr MakeColumnRef(std::string qualifier, std::string name,
                      bool is_outer) {
  return std::make_shared<ColumnRefExpr>(std::move(qualifier),
                                         std::move(name), is_outer);
}

ExprPtr MakeComparison(CompareOp op, ExprPtr left, ExprPtr right) {
  return std::make_shared<ComparisonExpr>(op, std::move(left),
                                          std::move(right));
}

namespace {

template <typename NodeT>
ExprPtr MakeFlattenedJunction(std::vector<ExprPtr> terms, ExprKind kind) {
  std::vector<ExprPtr> flat;
  for (ExprPtr& t : terms) {
    if (t->kind() == kind) {
      for (const ExprPtr& c : t->children()) flat.push_back(c);
    } else {
      flat.push_back(std::move(t));
    }
  }
  if (flat.size() == 1) return flat[0];
  return std::make_shared<NodeT>(std::move(flat));
}

}  // namespace

ExprPtr MakeAnd(std::vector<ExprPtr> terms) {
  BYPASS_CHECK(!terms.empty());
  return MakeFlattenedJunction<AndExpr>(std::move(terms), ExprKind::kAnd);
}

ExprPtr MakeOr(std::vector<ExprPtr> terms) {
  BYPASS_CHECK(!terms.empty());
  return MakeFlattenedJunction<OrExpr>(std::move(terms), ExprKind::kOr);
}

ExprPtr MakeNot(ExprPtr input) {
  return std::make_shared<NotExpr>(std::move(input));
}

}  // namespace bypass
