// Logical algebra: the paper's extended relational algebra (Sec. 2.3).
// Core operators plus the five extensions (unary grouping Γ, binary
// grouping Γ, left outer join with default function, numbering ν, map χ)
// and the bypass selection σ± from Kemper et al. [17]. Plans are DAGs:
// bypass operators have two output ports (positive/negative) that a
// disjoint union re-unites.
#ifndef BYPASSDB_ALGEBRA_LOGICAL_OP_H_
#define BYPASSDB_ALGEBRA_LOGICAL_OP_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "expr/agg.h"
#include "expr/expr.h"
#include "types/schema.h"

namespace bypass {

class LogicalOp;
using LogicalOpPtr = std::shared_ptr<LogicalOp>;

/// Output stream selector. Non-bypass operators only have kOut.
enum class StreamPort : int {
  kOut = 0,       ///< the (positive) output
  kNegative = 1,  ///< bypass operators' complement stream
};

/// An edge in the plan DAG: a child operator plus which of its output
/// streams feeds this input.
struct LogicalInput {
  LogicalOpPtr op;
  StreamPort port = StreamPort::kOut;
};

enum class LogicalOpKind {
  kGet,
  kSelect,
  kProject,
  kDistinct,
  kMap,
  kJoin,
  kLeftOuterJoin,
  kSemiJoin,
  kAntiJoin,
  kGroupBy,
  kBinaryGroupBy,
  kUnion,
  kBypassSelect,
  kNumbering,
  kSort,
  kLimit,
};

const char* LogicalOpKindToString(LogicalOpKind kind);

/// Base class for all logical operators. Nodes own their expressions and
/// are mutated only by the translator/rewriter that created them.
class LogicalOp {
 public:
  virtual ~LogicalOp() = default;

  virtual LogicalOpKind kind() const = 0;

  const std::vector<LogicalInput>& inputs() const { return inputs_; }
  std::vector<LogicalInput>* mutable_inputs() { return &inputs_; }

  /// Output schema of the (positive) stream. For bypass operators, both
  /// streams have the same schema.
  const Schema& schema() const { return schema_; }

  /// Single-line description (operator name + parameters).
  virtual std::string Label() const = 0;

  /// Deep copy of this node and everything below it, preserving DAG
  /// sharing. `memo` maps original nodes to their copies.
  LogicalOpPtr CloneWithMemo(
      std::unordered_map<const LogicalOp*, LogicalOpPtr>* memo) const;

  /// Copy of this node (expressions cloned) attached to the given inputs;
  /// the rewriter's rebuild primitive.
  LogicalOpPtr WithNewInputs(std::vector<LogicalInput> new_inputs) const {
    return CloneNode(std::move(new_inputs));
  }

 protected:
  LogicalOp(std::vector<LogicalInput> inputs, Schema schema)
      : inputs_(std::move(inputs)), schema_(std::move(schema)) {}

  /// Copies this node only, with the given (already-cloned) inputs.
  virtual LogicalOpPtr CloneNode(
      std::vector<LogicalInput> cloned_inputs) const = 0;

  const Schema& input_schema(int i) const {
    return inputs_[static_cast<size_t>(i)].op->schema();
  }

  std::vector<LogicalInput> inputs_;
  Schema schema_;
};

/// A named output column computed from an expression (Project/Map items).
struct NamedExpr {
  ExprPtr expr;
  std::string name;
  std::string qualifier;  ///< kept so later references like r.a1 resolve

  NamedExpr CloneItem() const { return {expr->Clone(), name, qualifier}; }
};

/// Base-table access.
class GetOp : public LogicalOp {
 public:
  /// `schema` must already be qualified with the table alias.
  GetOp(std::string table_name, std::string alias, Schema schema)
      : LogicalOp({}, std::move(schema)),
        table_name_(std::move(table_name)),
        alias_(std::move(alias)) {}
  LogicalOpKind kind() const override { return LogicalOpKind::kGet; }
  const std::string& table_name() const { return table_name_; }
  const std::string& alias() const { return alias_; }
  std::string Label() const override;

 protected:
  LogicalOpPtr CloneNode(std::vector<LogicalInput>) const override;

 private:
  std::string table_name_;
  std::string alias_;
};

/// Selection σ_p. The predicate may contain nested subquery expressions
/// (the canonical translation's "algebraic expressions in subscripts").
class SelectOp : public LogicalOp {
 public:
  SelectOp(LogicalInput input, ExprPtr predicate)
      : LogicalOp({std::move(input)}, Schema()),
        predicate_(std::move(predicate)) {
    schema_ = input_schema(0);
  }
  LogicalOpKind kind() const override { return LogicalOpKind::kSelect; }
  const ExprPtr& predicate() const { return predicate_; }
  void set_predicate(ExprPtr p) { predicate_ = std::move(p); }
  std::string Label() const override;

 protected:
  LogicalOpPtr CloneNode(std::vector<LogicalInput> in) const override;

 private:
  ExprPtr predicate_;
};

/// Bypass selection σ±_p: positive stream = tuples where p is true,
/// negative stream = the rest (false or unknown).
class BypassSelectOp : public LogicalOp {
 public:
  BypassSelectOp(LogicalInput input, ExprPtr predicate)
      : LogicalOp({std::move(input)}, Schema()),
        predicate_(std::move(predicate)) {
    schema_ = input_schema(0);
  }
  LogicalOpKind kind() const override {
    return LogicalOpKind::kBypassSelect;
  }
  const ExprPtr& predicate() const { return predicate_; }
  std::string Label() const override;

 protected:
  LogicalOpPtr CloneNode(std::vector<LogicalInput> in) const override;

 private:
  ExprPtr predicate_;
};

/// Projection Π. Duplicate-preserving; pair with DistinctOp for Π^D.
class ProjectOp : public LogicalOp {
 public:
  ProjectOp(LogicalInput input, std::vector<NamedExpr> items);
  LogicalOpKind kind() const override { return LogicalOpKind::kProject; }
  const std::vector<NamedExpr>& items() const { return items_; }
  std::string Label() const override;

 protected:
  LogicalOpPtr CloneNode(std::vector<LogicalInput> in) const override;

 private:
  std::vector<NamedExpr> items_;
};

/// Duplicate elimination over full rows.
class DistinctOp : public LogicalOp {
 public:
  explicit DistinctOp(LogicalInput input)
      : LogicalOp({std::move(input)}, Schema()) {
    schema_ = input_schema(0);
  }
  LogicalOpKind kind() const override { return LogicalOpKind::kDistinct; }
  std::string Label() const override { return "Distinct"; }

 protected:
  LogicalOpPtr CloneNode(std::vector<LogicalInput> in) const override;
};

/// Map χ_{a:e}: appends computed columns to each tuple.
class MapOp : public LogicalOp {
 public:
  MapOp(LogicalInput input, std::vector<NamedExpr> items);
  LogicalOpKind kind() const override { return LogicalOpKind::kMap; }
  const std::vector<NamedExpr>& items() const { return items_; }
  std::string Label() const override;

 protected:
  LogicalOpPtr CloneNode(std::vector<LogicalInput> in) const override;

 private:
  std::vector<NamedExpr> items_;
};

/// Inner join (cross product when predicate is null).
class JoinOp : public LogicalOp {
 public:
  JoinOp(LogicalInput left, LogicalInput right, ExprPtr predicate);
  LogicalOpKind kind() const override { return LogicalOpKind::kJoin; }
  const ExprPtr& predicate() const { return predicate_; }
  std::string Label() const override;

 protected:
  LogicalOpPtr CloneNode(std::vector<LogicalInput> in) const override;

 private:
  ExprPtr predicate_;
};

/// Left outer join with default function (g:f(∅)): unmatched left tuples
/// are padded with NULLs on the right side except for columns listed in
/// `unmatched_defaults`, which receive the given constants — the paper's
/// count-bug fix.
class LeftOuterJoinOp : public LogicalOp {
 public:
  LeftOuterJoinOp(LogicalInput left, LogicalInput right, ExprPtr predicate,
                  std::vector<std::pair<std::string, Value>>
                      unmatched_defaults);
  LogicalOpKind kind() const override {
    return LogicalOpKind::kLeftOuterJoin;
  }
  const ExprPtr& predicate() const { return predicate_; }
  const std::vector<std::pair<std::string, Value>>& unmatched_defaults()
      const {
    return unmatched_defaults_;
  }
  std::string Label() const override;

 protected:
  LogicalOpPtr CloneNode(std::vector<LogicalInput> in) const override;

 private:
  ExprPtr predicate_;
  std::vector<std::pair<std::string, Value>> unmatched_defaults_;
};

/// Semijoin ⋉: left tuples with at least one match. Used by the
/// quantified-subquery extension (EXISTS/IN).
class SemiJoinOp : public LogicalOp {
 public:
  SemiJoinOp(LogicalInput left, LogicalInput right, ExprPtr predicate);
  LogicalOpKind kind() const override { return LogicalOpKind::kSemiJoin; }
  const ExprPtr& predicate() const { return predicate_; }
  std::string Label() const override;

 protected:
  LogicalOpPtr CloneNode(std::vector<LogicalInput> in) const override;

 private:
  ExprPtr predicate_;
};

/// Antijoin ▷: left tuples with no match (NOT EXISTS / NOT IN semantics
/// are built from this plus NULL handling in the rewriter).
class AntiJoinOp : public LogicalOp {
 public:
  AntiJoinOp(LogicalInput left, LogicalInput right, ExprPtr predicate);
  LogicalOpKind kind() const override { return LogicalOpKind::kAntiJoin; }
  const ExprPtr& predicate() const { return predicate_; }
  std::string Label() const override;

 protected:
  LogicalOpPtr CloneNode(std::vector<LogicalInput> in) const override;

 private:
  ExprPtr predicate_;
};

/// A grouping column, referenced by (qualifier, name) in the input schema.
struct GroupKey {
  std::string qualifier;
  std::string name;
  /// When non-empty, the key column is renamed to this (with no
  /// qualifier) in the group output schema. Lets rewrites key directly
  /// on an input column without a χ materializing a copy of it, while
  /// still hiding the inner column name from downstream consumers.
  std::string output_alias;
};

/// Unary grouping Γ_{g;=A;f}. With `scalar` set (empty keys), emits
/// exactly one row even on empty input (SQL aggregate-without-GROUP-BY
/// semantics) — this is how nested scalar blocks are translated.
class GroupByOp : public LogicalOp {
 public:
  GroupByOp(LogicalInput input, std::vector<GroupKey> keys,
            std::vector<AggregateSpec> aggregates, bool scalar);
  LogicalOpKind kind() const override { return LogicalOpKind::kGroupBy; }
  const std::vector<GroupKey>& keys() const { return keys_; }
  const std::vector<AggregateSpec>& aggregates() const {
    return aggregates_;
  }
  bool scalar() const { return scalar_; }
  std::string Label() const override;

 protected:
  LogicalOpPtr CloneNode(std::vector<LogicalInput> in) const override;

 private:
  std::vector<GroupKey> keys_;
  std::vector<AggregateSpec> aggregates_;
  bool scalar_;
};

/// Binary grouping Γ_{g;A1θA2;f} (Cluet/Moerkotte): every left tuple x is
/// extended with g = f({y ∈ right | x.A1 θ y.A2}). Empty groups get f(∅).
/// The aggregate arguments are evaluated against right-side tuples.
class BinaryGroupByOp : public LogicalOp {
 public:
  /// `left_key`/`right_key` name columns in the respective input schemas;
  /// `op` is the grouping comparison θ.
  BinaryGroupByOp(LogicalInput left, LogicalInput right, GroupKey left_key,
                  CompareOp op, GroupKey right_key,
                  std::vector<AggregateSpec> aggregates);
  LogicalOpKind kind() const override {
    return LogicalOpKind::kBinaryGroupBy;
  }
  const GroupKey& left_key() const { return left_key_; }
  const GroupKey& right_key() const { return right_key_; }
  CompareOp compare_op() const { return op_; }
  const std::vector<AggregateSpec>& aggregates() const {
    return aggregates_;
  }
  std::string Label() const override;

 protected:
  LogicalOpPtr CloneNode(std::vector<LogicalInput> in) const override;

 private:
  GroupKey left_key_;
  CompareOp op_;
  GroupKey right_key_;
  std::vector<AggregateSpec> aggregates_;
};

/// Disjoint multiset union (concatenation). Inputs must have compatible
/// schemas; the output takes the left input's column names.
class UnionOp : public LogicalOp {
 public:
  UnionOp(LogicalInput left, LogicalInput right);
  /// N-ary form (n >= 1), used by cloning.
  explicit UnionOp(std::vector<LogicalInput> inputs);
  LogicalOpKind kind() const override { return LogicalOpKind::kUnion; }
  std::string Label() const override { return "UnionAll"; }

 protected:
  LogicalOpPtr CloneNode(std::vector<LogicalInput> in) const override;
};

/// Numbering ν_t: appends a unique int64 tuple id (Eqv. 5's key for
/// re-assembling groups; also turns multisets into sets, Sec. 3.7).
class NumberingOp : public LogicalOp {
 public:
  NumberingOp(LogicalInput input, std::string column_name);
  LogicalOpKind kind() const override { return LogicalOpKind::kNumbering; }
  const std::string& column_name() const { return column_name_; }
  std::string Label() const override;

 protected:
  LogicalOpPtr CloneNode(std::vector<LogicalInput> in) const override;

 private:
  std::string column_name_;
};

/// Sort key: expression + direction.
struct SortKey {
  ExprPtr expr;
  bool descending = false;

  SortKey CloneItem() const { return {expr->Clone(), descending}; }
};

/// ORDER BY.
class SortOp : public LogicalOp {
 public:
  SortOp(LogicalInput input, std::vector<SortKey> keys);
  LogicalOpKind kind() const override { return LogicalOpKind::kSort; }
  const std::vector<SortKey>& keys() const { return keys_; }
  std::string Label() const override;

 protected:
  LogicalOpPtr CloneNode(std::vector<LogicalInput> in) const override;

 private:
  std::vector<SortKey> keys_;
};

/// LIMIT n: forwards the first n rows.
class LimitOp : public LogicalOp {
 public:
  LimitOp(LogicalInput input, int64_t count)
      : LogicalOp({std::move(input)}, Schema()), count_(count) {
    schema_ = input_schema(0);
  }
  LogicalOpKind kind() const override { return LogicalOpKind::kLimit; }
  int64_t count() const { return count_; }
  std::string Label() const override {
    return "Limit " + std::to_string(count_);
  }

 protected:
  LogicalOpPtr CloneNode(std::vector<LogicalInput> in) const override;

 private:
  int64_t count_;
};

/// Multi-line indented plan rendering; shared bypass nodes are printed
/// once and referenced by stream tags ([+]/[-]).
std::string PlanToString(const LogicalOp& root);

/// Returns all nodes reachable from root (each once), children first.
std::vector<const LogicalOp*> TopologicalNodes(const LogicalOp& root);

/// The "#k" PlanToString prints for each shared (bypass) node: 1, 2, ...
/// in first-visit order, so the ids depend only on the plan's shape.
std::unordered_map<const LogicalOp*, int> SharedNodeIds(
    const LogicalOp& root);

}  // namespace bypass

#endif  // BYPASSDB_ALGEBRA_LOGICAL_OP_H_
