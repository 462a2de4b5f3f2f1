#include "algebra/logical_op.h"

#include <sstream>

#include "common/check.h"
#include "common/string_util.h"

namespace bypass {

const char* LogicalOpKindToString(LogicalOpKind kind) {
  switch (kind) {
    case LogicalOpKind::kGet:
      return "Get";
    case LogicalOpKind::kSelect:
      return "Select";
    case LogicalOpKind::kProject:
      return "Project";
    case LogicalOpKind::kDistinct:
      return "Distinct";
    case LogicalOpKind::kMap:
      return "Map";
    case LogicalOpKind::kJoin:
      return "Join";
    case LogicalOpKind::kLeftOuterJoin:
      return "LeftOuterJoin";
    case LogicalOpKind::kSemiJoin:
      return "SemiJoin";
    case LogicalOpKind::kAntiJoin:
      return "AntiJoin";
    case LogicalOpKind::kGroupBy:
      return "GroupBy";
    case LogicalOpKind::kBinaryGroupBy:
      return "BinaryGroupBy";
    case LogicalOpKind::kUnion:
      return "UnionAll";
    case LogicalOpKind::kBypassSelect:
      return "BypassSelect";
    case LogicalOpKind::kNumbering:
      return "Numbering";
    case LogicalOpKind::kSort:
      return "Sort";
    case LogicalOpKind::kLimit:
      return "Limit";
  }
  return "?";
}

namespace {

/// Best-effort static type of an expression against `input`. Runtime
/// values are dynamically typed, so this only feeds schema display and
/// defaults; a wrong guess is harmless.
DataType InferExprType(const Expr& expr, const Schema& input) {
  switch (expr.kind()) {
    case ExprKind::kLiteral: {
      const Value& v = static_cast<const LiteralExpr&>(expr).value();
      return v.is_null() ? DataType::kInt64 : v.type();
    }
    case ExprKind::kColumnRef: {
      const auto& ref = static_cast<const ColumnRefExpr&>(expr);
      if (!ref.is_outer()) {
        auto slot = input.FindColumn(ref.qualifier(), ref.name());
        if (slot.ok()) return input.column(*slot).type;
      }
      return DataType::kInt64;
    }
    case ExprKind::kComparison:
    case ExprKind::kAnd:
    case ExprKind::kOr:
    case ExprKind::kNot:
    case ExprKind::kLike:
    case ExprKind::kIsNull:
      return DataType::kBool;
    case ExprKind::kArithmetic: {
      const auto& a = static_cast<const ArithmeticExpr&>(expr);
      if (a.op() == ArithOp::kDiv) return DataType::kDouble;
      const DataType l = InferExprType(*a.left(), input);
      const DataType r = InferExprType(*a.right(), input);
      if (l == DataType::kDouble || r == DataType::kDouble) {
        return DataType::kDouble;
      }
      return DataType::kInt64;
    }
    case ExprKind::kFunction: {
      const auto& f = static_cast<const FunctionExpr&>(expr);
      if (f.func() == BuiltinFunc::kDivOrNullIfZero) {
        return DataType::kDouble;
      }
      if (!f.args().empty()) return InferExprType(*f.args()[0], input);
      return DataType::kInt64;
    }
    case ExprKind::kSubquery: {
      const auto& sq = static_cast<const SubqueryExpr&>(expr);
      if (sq.subquery_kind() != SubqueryKind::kScalar) {
        return DataType::kBool;
      }
      if (sq.plan() && sq.plan()->schema().num_columns() > 0) {
        return sq.plan()->schema().column(0).type;
      }
      return DataType::kInt64;
    }
  }
  return DataType::kInt64;
}

DataType AggOutputType(const AggregateSpec& spec, const Schema& input) {
  switch (spec.func) {
    case AggFunc::kCount:
      return DataType::kInt64;
    case AggFunc::kAvg:
      return DataType::kDouble;
    case AggFunc::kSum:
    case AggFunc::kMin:
    case AggFunc::kMax:
      return spec.arg ? InferExprType(*spec.arg, input)
                      : DataType::kInt64;
  }
  return DataType::kInt64;
}

std::vector<LogicalInput> CloneInputs(
    const std::vector<LogicalInput>& inputs,
    std::unordered_map<const LogicalOp*, LogicalOpPtr>* memo) {
  std::vector<LogicalInput> out;
  out.reserve(inputs.size());
  for (const LogicalInput& in : inputs) {
    out.push_back({in.op->CloneWithMemo(memo), in.port});
  }
  return out;
}

}  // namespace

LogicalOpPtr LogicalOp::CloneWithMemo(
    std::unordered_map<const LogicalOp*, LogicalOpPtr>* memo) const {
  auto it = memo->find(this);
  if (it != memo->end()) return it->second;
  LogicalOpPtr copy = CloneNode(CloneInputs(inputs_, memo));
  memo->emplace(this, copy);
  return copy;
}

// Declared in expr/expr.h to break the header cycle.
LogicalOpPtr CloneLogicalPlan(const LogicalOpPtr& plan) {
  if (plan == nullptr) return nullptr;
  std::unordered_map<const LogicalOp*, LogicalOpPtr> memo;
  return plan->CloneWithMemo(&memo);
}

std::string LogicalPlanSummary(const LogicalOp& plan) {
  std::string out = plan.Label();
  if (!plan.inputs().empty()) out += " ...";
  return out;
}

// -------------------------------------------------------------------- Get

std::string GetOp::Label() const {
  std::string out = "Get(" + table_name_;
  if (!alias_.empty() && !EqualsIgnoreCase(alias_, table_name_)) {
    out += " AS " + alias_;
  }
  out += ")";
  return out;
}

LogicalOpPtr GetOp::CloneNode(std::vector<LogicalInput>) const {
  return std::make_shared<GetOp>(table_name_, alias_, schema_);
}

// ----------------------------------------------------------------- Select

std::string SelectOp::Label() const {
  return "Select " + predicate_->ToString();
}

LogicalOpPtr SelectOp::CloneNode(std::vector<LogicalInput> in) const {
  return std::make_shared<SelectOp>(std::move(in[0]), predicate_->Clone());
}

std::string BypassSelectOp::Label() const {
  return "BypassSelect± " + predicate_->ToString();
}

LogicalOpPtr BypassSelectOp::CloneNode(std::vector<LogicalInput> in) const {
  return std::make_shared<BypassSelectOp>(std::move(in[0]),
                                          predicate_->Clone());
}

// ---------------------------------------------------------------- Project

ProjectOp::ProjectOp(LogicalInput input, std::vector<NamedExpr> items)
    : LogicalOp({std::move(input)}, Schema()), items_(std::move(items)) {
  Schema out;
  for (const NamedExpr& it : items_) {
    out.AddColumn({it.name, InferExprType(*it.expr, input_schema(0)),
                   it.qualifier});
  }
  schema_ = std::move(out);
}

std::string ProjectOp::Label() const {
  std::vector<std::string> parts;
  parts.reserve(items_.size());
  for (const NamedExpr& it : items_) {
    std::string s = it.expr->ToString();
    const std::string shown =
        it.qualifier.empty() ? it.name : it.qualifier + "." + it.name;
    if (s != shown) s += " AS " + shown;
    parts.push_back(std::move(s));
  }
  return "Project [" + Join(parts, ", ") + "]";
}

LogicalOpPtr ProjectOp::CloneNode(std::vector<LogicalInput> in) const {
  std::vector<NamedExpr> items;
  items.reserve(items_.size());
  for (const NamedExpr& it : items_) items.push_back(it.CloneItem());
  return std::make_shared<ProjectOp>(std::move(in[0]), std::move(items));
}

// --------------------------------------------------------------- Distinct

LogicalOpPtr DistinctOp::CloneNode(std::vector<LogicalInput> in) const {
  return std::make_shared<DistinctOp>(std::move(in[0]));
}

// -------------------------------------------------------------------- Map

MapOp::MapOp(LogicalInput input, std::vector<NamedExpr> items)
    : LogicalOp({std::move(input)}, Schema()), items_(std::move(items)) {
  Schema out = input_schema(0);
  for (const NamedExpr& it : items_) {
    out.AddColumn({it.name, InferExprType(*it.expr, input_schema(0)),
                   it.qualifier});
  }
  schema_ = std::move(out);
}

std::string MapOp::Label() const {
  std::vector<std::string> parts;
  parts.reserve(items_.size());
  for (const NamedExpr& it : items_) {
    parts.push_back(it.name + " := " + it.expr->ToString());
  }
  return "Map χ[" + Join(parts, ", ") + "]";
}

LogicalOpPtr MapOp::CloneNode(std::vector<LogicalInput> in) const {
  std::vector<NamedExpr> items;
  items.reserve(items_.size());
  for (const NamedExpr& it : items_) items.push_back(it.CloneItem());
  return std::make_shared<MapOp>(std::move(in[0]), std::move(items));
}

// ------------------------------------------------------------------ Joins

JoinOp::JoinOp(LogicalInput left, LogicalInput right, ExprPtr predicate)
    : LogicalOp({std::move(left), std::move(right)}, Schema()),
      predicate_(std::move(predicate)) {
  schema_ = Schema::Concat(input_schema(0), input_schema(1));
}

std::string JoinOp::Label() const {
  return predicate_ ? "Join " + predicate_->ToString() : "CrossProduct";
}

LogicalOpPtr JoinOp::CloneNode(std::vector<LogicalInput> in) const {
  return std::make_shared<JoinOp>(std::move(in[0]), std::move(in[1]),
                                  predicate_ ? predicate_->Clone()
                                             : nullptr);
}

LeftOuterJoinOp::LeftOuterJoinOp(
    LogicalInput left, LogicalInput right, ExprPtr predicate,
    std::vector<std::pair<std::string, Value>> unmatched_defaults)
    : LogicalOp({std::move(left), std::move(right)}, Schema()),
      predicate_(std::move(predicate)),
      unmatched_defaults_(std::move(unmatched_defaults)) {
  schema_ = Schema::Concat(input_schema(0), input_schema(1));
}

std::string LeftOuterJoinOp::Label() const {
  std::string out = "LeftOuterJoin " + predicate_->ToString();
  if (!unmatched_defaults_.empty()) {
    std::vector<std::string> defs;
    defs.reserve(unmatched_defaults_.size());
    for (const auto& [name, value] : unmatched_defaults_) {
      defs.push_back(name + ":" + value.ToString());
    }
    out += " defaults{" + Join(defs, ", ") + "}";
  }
  return out;
}

LogicalOpPtr LeftOuterJoinOp::CloneNode(
    std::vector<LogicalInput> in) const {
  return std::make_shared<LeftOuterJoinOp>(std::move(in[0]),
                                           std::move(in[1]),
                                           predicate_->Clone(),
                                           unmatched_defaults_);
}

SemiJoinOp::SemiJoinOp(LogicalInput left, LogicalInput right,
                       ExprPtr predicate)
    : LogicalOp({std::move(left), std::move(right)}, Schema()),
      predicate_(std::move(predicate)) {
  schema_ = input_schema(0);
}

std::string SemiJoinOp::Label() const {
  return "SemiJoin " + predicate_->ToString();
}

LogicalOpPtr SemiJoinOp::CloneNode(std::vector<LogicalInput> in) const {
  return std::make_shared<SemiJoinOp>(std::move(in[0]), std::move(in[1]),
                                      predicate_->Clone());
}

AntiJoinOp::AntiJoinOp(LogicalInput left, LogicalInput right,
                       ExprPtr predicate)
    : LogicalOp({std::move(left), std::move(right)}, Schema()),
      predicate_(std::move(predicate)) {
  schema_ = input_schema(0);
}

std::string AntiJoinOp::Label() const {
  return "AntiJoin " + predicate_->ToString();
}

LogicalOpPtr AntiJoinOp::CloneNode(std::vector<LogicalInput> in) const {
  return std::make_shared<AntiJoinOp>(std::move(in[0]), std::move(in[1]),
                                      predicate_->Clone());
}

// --------------------------------------------------------------- GroupBy

GroupByOp::GroupByOp(LogicalInput input, std::vector<GroupKey> keys,
                     std::vector<AggregateSpec> aggregates, bool scalar)
    : LogicalOp({std::move(input)}, Schema()),
      keys_(std::move(keys)),
      aggregates_(std::move(aggregates)),
      scalar_(scalar) {
  BYPASS_CHECK_MSG(!scalar_ || keys_.empty(),
                   "scalar aggregation cannot have group keys");
  Schema out;
  const Schema& in = input_schema(0);
  for (const GroupKey& k : keys_) {
    auto slot = in.FindColumn(k.qualifier, k.name);
    BYPASS_CHECK_MSG(slot.ok(), "group key not found in input schema");
    ColumnDef col = in.column(*slot);
    if (!k.output_alias.empty()) {
      col.name = k.output_alias;
      col.qualifier.clear();
    }
    out.AddColumn(col);
  }
  for (const AggregateSpec& a : aggregates_) {
    out.AddColumn({a.output_name, AggOutputType(a, in), ""});
  }
  schema_ = std::move(out);
}

std::string GroupByOp::Label() const {
  std::vector<std::string> key_strs;
  key_strs.reserve(keys_.size());
  for (const GroupKey& k : keys_) {
    std::string s =
        k.qualifier.empty() ? k.name : k.qualifier + "." + k.name;
    if (!k.output_alias.empty()) s = k.output_alias + " := " + s;
    key_strs.push_back(std::move(s));
  }
  std::vector<std::string> agg_strs;
  agg_strs.reserve(aggregates_.size());
  for (const AggregateSpec& a : aggregates_) {
    agg_strs.push_back(a.output_name + " := " + a.ToString());
  }
  std::string name = scalar_ ? "ScalarAgg" : "GroupBy Γ";
  return name + "[" + Join(key_strs, ", ") + "; " + Join(agg_strs, ", ") +
         "]";
}

LogicalOpPtr GroupByOp::CloneNode(std::vector<LogicalInput> in) const {
  std::vector<AggregateSpec> aggs;
  aggs.reserve(aggregates_.size());
  for (const AggregateSpec& a : aggregates_) aggs.push_back(a.Clone());
  return std::make_shared<GroupByOp>(std::move(in[0]), keys_,
                                     std::move(aggs), scalar_);
}

// --------------------------------------------------------- BinaryGroupBy

BinaryGroupByOp::BinaryGroupByOp(LogicalInput left, LogicalInput right,
                                 GroupKey left_key, CompareOp op,
                                 GroupKey right_key,
                                 std::vector<AggregateSpec> aggregates)
    : LogicalOp({std::move(left), std::move(right)}, Schema()),
      left_key_(std::move(left_key)),
      op_(op),
      right_key_(std::move(right_key)),
      aggregates_(std::move(aggregates)) {
  Schema out = input_schema(0);
  const Schema& right_schema = input_schema(1);
  for (const AggregateSpec& a : aggregates_) {
    out.AddColumn({a.output_name, AggOutputType(a, right_schema), ""});
  }
  schema_ = std::move(out);
}

std::string BinaryGroupByOp::Label() const {
  std::vector<std::string> agg_strs;
  agg_strs.reserve(aggregates_.size());
  for (const AggregateSpec& a : aggregates_) {
    agg_strs.push_back(a.output_name + " := " + a.ToString());
  }
  auto key_str = [](const GroupKey& k) {
    return k.qualifier.empty() ? k.name : k.qualifier + "." + k.name;
  };
  return "BinaryGroupBy Γ[" + key_str(left_key_) + " " +
         CompareOpToString(op_) + " " + key_str(right_key_) + "; " +
         Join(agg_strs, ", ") + "]";
}

LogicalOpPtr BinaryGroupByOp::CloneNode(
    std::vector<LogicalInput> in) const {
  std::vector<AggregateSpec> aggs;
  aggs.reserve(aggregates_.size());
  for (const AggregateSpec& a : aggregates_) aggs.push_back(a.Clone());
  return std::make_shared<BinaryGroupByOp>(std::move(in[0]),
                                           std::move(in[1]), left_key_,
                                           op_, right_key_,
                                           std::move(aggs));
}

// ------------------------------------------------------------------ Union

UnionOp::UnionOp(LogicalInput left, LogicalInput right)
    : UnionOp(std::vector<LogicalInput>{std::move(left),
                                        std::move(right)}) {}

UnionOp::UnionOp(std::vector<LogicalInput> inputs)
    : LogicalOp(std::move(inputs), Schema()) {
  BYPASS_CHECK_MSG(!inputs_.empty(), "union needs at least one input");
  for (size_t i = 1; i < inputs_.size(); ++i) {
    BYPASS_CHECK_MSG(input_schema(0).num_columns() ==
                         input_schema(static_cast<int>(i)).num_columns(),
                     "union inputs must have equal arity");
  }
  schema_ = input_schema(0);
}

LogicalOpPtr UnionOp::CloneNode(std::vector<LogicalInput> in) const {
  return std::make_shared<UnionOp>(std::move(in));
}

// -------------------------------------------------------------- Numbering

NumberingOp::NumberingOp(LogicalInput input, std::string column_name)
    : LogicalOp({std::move(input)}, Schema()),
      column_name_(std::move(column_name)) {
  Schema out = input_schema(0);
  out.AddColumn({column_name_, DataType::kInt64, ""});
  schema_ = std::move(out);
}

std::string NumberingOp::Label() const {
  return "Numbering ν[" + column_name_ + "]";
}

LogicalOpPtr NumberingOp::CloneNode(std::vector<LogicalInput> in) const {
  return std::make_shared<NumberingOp>(std::move(in[0]), column_name_);
}

// ------------------------------------------------------------------- Sort

SortOp::SortOp(LogicalInput input, std::vector<SortKey> keys)
    : LogicalOp({std::move(input)}, Schema()), keys_(std::move(keys)) {
  schema_ = input_schema(0);
}

std::string SortOp::Label() const {
  std::vector<std::string> parts;
  parts.reserve(keys_.size());
  for (const SortKey& k : keys_) {
    parts.push_back(k.expr->ToString() +
                    (k.descending ? " DESC" : " ASC"));
  }
  return "Sort [" + Join(parts, ", ") + "]";
}

LogicalOpPtr SortOp::CloneNode(std::vector<LogicalInput> in) const {
  std::vector<SortKey> keys;
  keys.reserve(keys_.size());
  for (const SortKey& k : keys_) keys.push_back(k.CloneItem());
  return std::make_shared<SortOp>(std::move(in[0]), std::move(keys));
}

LogicalOpPtr LimitOp::CloneNode(std::vector<LogicalInput> in) const {
  return std::make_shared<LimitOp>(std::move(in[0]), count_);
}

// --------------------------------------------------------------- Printing

namespace {

void CollectTopological(const LogicalOp* node,
                        std::unordered_map<const LogicalOp*, bool>* seen,
                        std::vector<const LogicalOp*>* out) {
  auto it = seen->find(node);
  if (it != seen->end()) return;
  (*seen)[node] = true;
  for (const LogicalInput& in : node->inputs()) {
    CollectTopological(in.op.get(), seen, out);
  }
  out->push_back(node);
}

struct PrintState {
  std::unordered_map<const LogicalOp*, int> shared_ids;
  std::unordered_map<const LogicalOp*, bool> printed;
  int next_id = 1;
};

void PrintNode(const LogicalOp* node, StreamPort port, int indent,
               PrintState* state, std::ostringstream* os) {
  for (int i = 0; i < indent; ++i) *os << "  ";
  if (port == StreamPort::kNegative) {
    *os << "[-] ";
  } else if (state->shared_ids.count(node) > 0) {
    *os << "[+] ";
  }
  auto id_it = state->shared_ids.find(node);
  if (id_it != state->shared_ids.end()) {
    *os << "#" << id_it->second << " ";
    if (state->printed[node]) {
      *os << "(shared " << node->Label() << ")\n";
      return;
    }
    state->printed[node] = true;
  }
  *os << node->Label() << "\n";
  for (const LogicalInput& in : node->inputs()) {
    PrintNode(in.op.get(), in.port, indent + 1, state, os);
  }
}

}  // namespace

std::vector<const LogicalOp*> TopologicalNodes(const LogicalOp& root) {
  std::unordered_map<const LogicalOp*, bool> seen;
  std::vector<const LogicalOp*> out;
  CollectTopological(&root, &seen, &out);
  return out;
}

std::string PlanToString(const LogicalOp& root) {
  // Count references to discover shared (bypass) nodes.
  std::unordered_map<const LogicalOp*, int> ref_count;
  for (const LogicalOp* node : TopologicalNodes(root)) {
    for (const LogicalInput& in : node->inputs()) {
      ++ref_count[in.op.get()];
    }
  }
  PrintState state;
  for (const auto& [node, count] : ref_count) {
    if (count > 1) state.shared_ids[node] = state.next_id++;
  }
  std::ostringstream os;
  PrintNode(&root, StreamPort::kOut, 0, &state, &os);
  return os.str();
}

}  // namespace bypass
