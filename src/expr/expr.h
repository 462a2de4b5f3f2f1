// Expression trees. One IR serves both the logical plane (name-based column
// references, subqueries carried as logical plans) and the physical plane
// (slot-bound references, subqueries lowered to executable subplans); the
// planner's binder produces bound copies.
#ifndef BYPASSDB_EXPR_EXPR_H_
#define BYPASSDB_EXPR_EXPR_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "expr/subplan.h"
#include "types/row.h"
#include "types/row_batch.h"
#include "types/value.h"

namespace bypass {

class LogicalOp;  // defined in algebra/logical_op.h
using LogicalOpPtr = std::shared_ptr<LogicalOp>;

/// Deep-copies a logical plan. Implemented in algebra/logical_op.cc; the
/// declaration lives here so SubqueryExpr::Clone can deep-copy its nested
/// block without a header cycle.
LogicalOpPtr CloneLogicalPlan(const LogicalOpPtr& plan);

/// One-line summary of a logical plan for expression printing; implemented
/// in algebra/logical_op.cc.
std::string LogicalPlanSummary(const LogicalOp& plan);

class Expr;
using ExprPtr = std::shared_ptr<Expr>;

enum class ExprKind {
  kLiteral,
  kColumnRef,
  kComparison,
  kAnd,
  kOr,
  kNot,
  kArithmetic,
  kLike,
  kIsNull,
  kFunction,
  kSubquery,
};

enum class ArithOp { kAdd, kSub, kMul, kDiv };

/// Built-in scalar functions; primarily the NULL-aware combiners required
/// by aggregate decomposition (Eqv. 4).
enum class BuiltinFunc {
  kCoalesce,         ///< first non-NULL argument
  kAddIgnoreNull,    ///< sum of non-NULL args; NULL iff all args NULL
  kLeastIgnoreNull,  ///< min of non-NULL args; NULL iff all args NULL
  kGreatestIgnoreNull,
  kDivOrNullIfZero,  ///< a / b; NULL if b is NULL or 0 (avg recombination)
};

enum class SubqueryKind {
  kScalar,      ///< scalar (aggregate) subquery: yields one value
  kExists,      ///< EXISTS / NOT EXISTS
  kQuantified,  ///< probe θ SOME|ALL (single-column subquery)
};

/// Quantifier of a kQuantified subquery. IN is `= SOME` and NOT IN is
/// `<> ALL`.
enum class Quantifier { kSome, kAll };

/// Abstract expression node. Immutable after construction except for
/// binder-owned binding state in ColumnRefExpr.
class Expr {
 public:
  virtual ~Expr() = default;

  virtual ExprKind kind() const = 0;

  /// Evaluates the expression for every selected row of `batch`, appending
  /// one value per row (in selection order) to `out`: the only evaluation
  /// entry. Boolean-valued expressions yield Value::Bool or NULL
  /// (= unknown). `outer_row` is the directly enclosing block's current
  /// tuple, shared by the whole batch, for correlated references (direct
  /// correlation only, as in the paper). AND/OR keep per-row
  /// short-circuit: a row an earlier term decided never reaches the later
  /// terms.
  virtual Status EvalBatch(const RowBatch& batch, const Row* outer_row,
                           std::vector<Value>* out) const = 0;

  /// Partitions the batch's selected rows by the expression's 3VL truth
  /// value: storage indices (entries of batch.selection(), in batch
  /// order) are appended to `sel_true`, and to `sel_false` / `sel_null`
  /// when those are non-null. Passing the same vector as `sel_false` and
  /// `sel_null` collects the complement of TRUE as one ordered stream —
  /// exactly the σ± split of a bypass selection. The base implementation
  /// goes through EvalBatch. Comparisons and LIKE override it with typed
  /// column kernels that never materialize a Value per row; AND and OR
  /// partition each term over the rows still undecided, narrowing the
  /// selection term by term, and NOT swaps its input's TRUE and FALSE.
  virtual Status PartitionBatch(const RowBatch& batch, const Row* outer_row,
                                std::vector<uint32_t>* sel_true,
                                std::vector<uint32_t>* sel_false,
                                std::vector<uint32_t>* sel_null) const;

  /// Deep copy (nested logical plans deep-copied as well).
  virtual ExprPtr Clone() const = 0;

  /// SQL-ish display form for EXPLAIN output and debugging.
  virtual std::string ToString() const = 0;

  /// Children for generic traversal (subquery plans are not children).
  virtual std::vector<ExprPtr> children() const { return {}; }
};

/// Constant.
class LiteralExpr : public Expr {
 public:
  explicit LiteralExpr(Value value) : value_(std::move(value)) {}
  ExprKind kind() const override { return ExprKind::kLiteral; }
  const Value& value() const { return value_; }
  Status EvalBatch(const RowBatch& batch, const Row* outer_row,
                   std::vector<Value>* out) const override;
  ExprPtr Clone() const override;
  std::string ToString() const override { return value_.ToString(); }

 private:
  Value value_;
};

/// Column reference. Logical form: (qualifier, name) with `is_outer`
/// marking a correlated reference to the enclosing block. Physical form:
/// `slot` >= 0 after binding.
class ColumnRefExpr : public Expr {
 public:
  ColumnRefExpr(std::string qualifier, std::string name, bool is_outer)
      : qualifier_(std::move(qualifier)),
        name_(std::move(name)),
        is_outer_(is_outer) {}

  ExprKind kind() const override { return ExprKind::kColumnRef; }
  const std::string& qualifier() const { return qualifier_; }
  const std::string& name() const { return name_; }
  bool is_outer() const { return is_outer_; }
  int slot() const { return slot_; }

  /// A reference to the input column at `position`, whatever its name:
  /// how a Π tells apart two columns of one name (the translator's Π
  /// above a sort with computed keys). `qualifier`/`name` only label it.
  static std::shared_ptr<ColumnRefExpr> AtPosition(int position,
                                                   std::string qualifier,
                                                   std::string name) {
    auto ref = std::make_shared<ColumnRefExpr>(std::move(qualifier),
                                               std::move(name), false);
    ref->position_ = position;
    return ref;
  }
  /// The input position of an AtPosition reference; -1 for a reference
  /// by name.
  int position() const { return position_; }

  /// Binder hooks (planner / rewriter only).
  void set_slot(int slot) { slot_ = slot; }
  void set_is_outer(bool outer) { is_outer_ = outer; }
  void set_qualifier(std::string q) { qualifier_ = std::move(q); }
  void set_name(std::string n) { name_ = std::move(n); }

  Status EvalBatch(const RowBatch& batch, const Row* outer_row,
                   std::vector<Value>* out) const override;
  ExprPtr Clone() const override;
  std::string ToString() const override;

 private:
  std::string qualifier_;
  std::string name_;
  bool is_outer_;
  int slot_ = -1;
  int position_ = -1;
};

/// Binary comparison with a linking/correlation operator θ.
class ComparisonExpr : public Expr {
 public:
  ComparisonExpr(CompareOp op, ExprPtr left, ExprPtr right)
      : op_(op), left_(std::move(left)), right_(std::move(right)) {}
  ExprKind kind() const override { return ExprKind::kComparison; }
  CompareOp op() const { return op_; }
  const ExprPtr& left() const { return left_; }
  const ExprPtr& right() const { return right_; }
  Status EvalBatch(const RowBatch& batch, const Row* outer_row,
                   std::vector<Value>* out) const override;
  Status PartitionBatch(const RowBatch& batch, const Row* outer_row,
                        std::vector<uint32_t>* sel_true,
                        std::vector<uint32_t>* sel_false,
                        std::vector<uint32_t>* sel_null) const override;
  ExprPtr Clone() const override;
  std::string ToString() const override;
  std::vector<ExprPtr> children() const override {
    return {left_, right_};
  }

 private:
  CompareOp op_;
  ExprPtr left_;
  ExprPtr right_;
};

/// N-ary conjunction (3VL, short-circuit on false).
class AndExpr : public Expr {
 public:
  explicit AndExpr(std::vector<ExprPtr> terms) : terms_(std::move(terms)) {}
  ExprKind kind() const override { return ExprKind::kAnd; }
  const std::vector<ExprPtr>& terms() const { return terms_; }
  Status EvalBatch(const RowBatch& batch, const Row* outer_row,
                   std::vector<Value>* out) const override;
  Status PartitionBatch(const RowBatch& batch, const Row* outer_row,
                        std::vector<uint32_t>* sel_true,
                        std::vector<uint32_t>* sel_false,
                        std::vector<uint32_t>* sel_null) const override;
  ExprPtr Clone() const override;
  std::string ToString() const override;
  std::vector<ExprPtr> children() const override { return terms_; }

 private:
  std::vector<ExprPtr> terms_;
};

/// N-ary disjunction (3VL, short-circuit on true).
class OrExpr : public Expr {
 public:
  explicit OrExpr(std::vector<ExprPtr> terms) : terms_(std::move(terms)) {}
  ExprKind kind() const override { return ExprKind::kOr; }
  const std::vector<ExprPtr>& terms() const { return terms_; }
  Status EvalBatch(const RowBatch& batch, const Row* outer_row,
                   std::vector<Value>* out) const override;
  Status PartitionBatch(const RowBatch& batch, const Row* outer_row,
                        std::vector<uint32_t>* sel_true,
                        std::vector<uint32_t>* sel_false,
                        std::vector<uint32_t>* sel_null) const override;
  ExprPtr Clone() const override;
  std::string ToString() const override;
  std::vector<ExprPtr> children() const override { return terms_; }

 private:
  std::vector<ExprPtr> terms_;
};

/// 3VL negation.
class NotExpr : public Expr {
 public:
  explicit NotExpr(ExprPtr input) : input_(std::move(input)) {}
  ExprKind kind() const override { return ExprKind::kNot; }
  const ExprPtr& input() const { return input_; }
  Status EvalBatch(const RowBatch& batch, const Row* outer_row,
                   std::vector<Value>* out) const override;
  Status PartitionBatch(const RowBatch& batch, const Row* outer_row,
                        std::vector<uint32_t>* sel_true,
                        std::vector<uint32_t>* sel_false,
                        std::vector<uint32_t>* sel_null) const override;
  ExprPtr Clone() const override;
  std::string ToString() const override;
  std::vector<ExprPtr> children() const override { return {input_}; }

 private:
  ExprPtr input_;
};

/// Arithmetic; +,-,* preserve int64 on int64 inputs, / yields double.
/// NULL operands propagate.
class ArithmeticExpr : public Expr {
 public:
  ArithmeticExpr(ArithOp op, ExprPtr left, ExprPtr right)
      : op_(op), left_(std::move(left)), right_(std::move(right)) {}
  ExprKind kind() const override { return ExprKind::kArithmetic; }
  ArithOp op() const { return op_; }
  const ExprPtr& left() const { return left_; }
  const ExprPtr& right() const { return right_; }
  Status EvalBatch(const RowBatch& batch, const Row* outer_row,
                   std::vector<Value>* out) const override;
  ExprPtr Clone() const override;
  std::string ToString() const override;
  std::vector<ExprPtr> children() const override {
    return {left_, right_};
  }

 private:
  Result<Value> Combine(const Value& l, const Value& r) const;

  ArithOp op_;
  ExprPtr left_;
  ExprPtr right_;
};

/// input LIKE 'pattern' ('%' and '_' wildcards).
class LikeExpr : public Expr {
 public:
  LikeExpr(ExprPtr input, std::string pattern, bool negated)
      : input_(std::move(input)),
        pattern_(std::move(pattern)),
        negated_(negated) {}
  ExprKind kind() const override { return ExprKind::kLike; }
  const ExprPtr& input() const { return input_; }
  const std::string& pattern() const { return pattern_; }
  bool negated() const { return negated_; }
  Status EvalBatch(const RowBatch& batch, const Row* outer_row,
                   std::vector<Value>* out) const override;
  Status PartitionBatch(const RowBatch& batch, const Row* outer_row,
                        std::vector<uint32_t>* sel_true,
                        std::vector<uint32_t>* sel_false,
                        std::vector<uint32_t>* sel_null) const override;
  ExprPtr Clone() const override;
  std::string ToString() const override;
  std::vector<ExprPtr> children() const override { return {input_}; }

 private:
  /// The result for one input value (NULL, a match, or an error).
  Result<Value> Match(const Value& v) const;

  ExprPtr input_;
  std::string pattern_;
  bool negated_;
};

/// input IS [NOT] NULL (always two-valued).
class IsNullExpr : public Expr {
 public:
  IsNullExpr(ExprPtr input, bool negated)
      : input_(std::move(input)), negated_(negated) {}
  ExprKind kind() const override { return ExprKind::kIsNull; }
  const ExprPtr& input() const { return input_; }
  bool negated() const { return negated_; }
  Status EvalBatch(const RowBatch& batch, const Row* outer_row,
                   std::vector<Value>* out) const override;
  ExprPtr Clone() const override;
  std::string ToString() const override;
  std::vector<ExprPtr> children() const override { return {input_}; }

 private:
  ExprPtr input_;
  bool negated_;
};

/// Built-in scalar function call.
class FunctionExpr : public Expr {
 public:
  FunctionExpr(BuiltinFunc func, std::vector<ExprPtr> args)
      : func_(func), args_(std::move(args)) {}
  ExprKind kind() const override { return ExprKind::kFunction; }
  BuiltinFunc func() const { return func_; }
  const std::vector<ExprPtr>& args() const { return args_; }
  Status EvalBatch(const RowBatch& batch, const Row* outer_row,
                   std::vector<Value>* out) const override;
  ExprPtr Clone() const override;
  std::string ToString() const override;
  std::vector<ExprPtr> children() const override { return args_; }

 private:
  /// The function over one row's argument values vals[0, n).
  Result<Value> Apply(const Value* vals, size_t n) const;
  /// Typed ADD_IGNORE_NULL / COALESCE over int64 argument columns and
  /// constants; false (nothing appended) when some argument is not one.
  bool EvalInt64Batch(const RowBatch& batch, const Row* outer_row,
                      std::vector<Value>* out) const;

  BuiltinFunc func_;
  std::vector<ExprPtr> args_;
};

/// A nested query block used as an expression. Before lowering it carries
/// the block's logical plan; the planner installs an executable
/// CorrelatedSubplan. Evaluating it re-executes the block per outer tuple
/// — exactly the nested-loop evaluation the paper's canonical plans pay.
class SubqueryExpr : public Expr {
 public:
  SubqueryExpr(SubqueryKind subquery_kind, LogicalOpPtr plan)
      : subquery_kind_(subquery_kind), plan_(std::move(plan)) {}

  ExprKind kind() const override { return ExprKind::kSubquery; }
  SubqueryKind subquery_kind() const { return subquery_kind_; }
  /// NOT EXISTS (kExists only).
  bool negated() const { return negated_; }
  void set_negated(bool negated) { negated_ = negated; }

  /// θ and the quantifier of `probe θ SOME|ALL (...)` (kQuantified only).
  CompareOp compare_op() const { return compare_op_; }
  Quantifier quantifier() const { return quantifier_; }
  void set_quantified(CompareOp op, Quantifier quantifier) {
    compare_op_ = op;
    quantifier_ = quantifier;
  }

  /// The probe expression of `probe θ SOME|ALL (...)`; null otherwise.
  const ExprPtr& probe() const { return probe_; }
  void set_probe(ExprPtr probe) { probe_ = std::move(probe); }

  const LogicalOpPtr& plan() const { return plan_; }
  void set_plan(LogicalOpPtr plan) { plan_ = std::move(plan); }

  const CorrelatedSubplanPtr& subplan() const { return subplan_; }
  void set_subplan(CorrelatedSubplanPtr subplan) {
    subplan_ = std::move(subplan);
  }

  Status EvalBatch(const RowBatch& batch, const Row* outer_row,
                   std::vector<Value>* out) const override;
  ExprPtr Clone() const override;
  std::string ToString() const override;
  std::vector<ExprPtr> children() const override {
    if (probe_) return {probe_};
    return {};
  }

 private:
  SubqueryKind subquery_kind_;
  bool negated_ = false;
  CompareOp compare_op_ = CompareOp::kEq;
  Quantifier quantifier_ = Quantifier::kSome;
  ExprPtr probe_;
  LogicalOpPtr plan_;
  CorrelatedSubplanPtr subplan_;
};

/// Convenience factories.
ExprPtr MakeLiteral(Value v);
ExprPtr MakeColumnRef(std::string qualifier, std::string name,
                      bool is_outer = false);
ExprPtr MakeComparison(CompareOp op, ExprPtr left, ExprPtr right);
/// Builds a (flattened) conjunction; returns the single term if only one.
ExprPtr MakeAnd(std::vector<ExprPtr> terms);
/// Builds a (flattened) disjunction; returns the single term if only one.
ExprPtr MakeOr(std::vector<ExprPtr> terms);
ExprPtr MakeNot(ExprPtr input);

/// Interprets an evaluated Value as a 3VL truth value (NULL → unknown;
/// non-bool non-null values are an execution error upstream, treated as
/// unknown here).
TriBool ValueToTriBool(const Value& v);

}  // namespace bypass

#endif  // BYPASSDB_EXPR_EXPR_H_
