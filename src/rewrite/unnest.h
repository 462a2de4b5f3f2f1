// The paper's contribution: unnesting equivalences for scalar subqueries
// with disjunctive linking and correlation predicates, realized as rewrite
// rules over the logical algebra.
//
//   Eqv. 1  conjunctive linking      Γ + left outer join (classical);
//                                    Γ groups only the keys the outer
//                                    stream probes (S ⋉ K) when the
//                                    cost model says that is cheaper
//   Eqv. 2  disjunctive linking      bypass-select on the simple
//                                    predicate, Eqv. 1 in its negative
//                                    stream
//   Eqv. 3  disjunctive linking      unnested linking predicate first,
//                                    simple predicate in the negative
//                                    stream (rank-based choice vs Eqv. 2)
//   Eqv. 4  disjunctive correlation  bypass-select inside the block +
//                                    decomposed aggregate recombined by χ
//   Eqv. 5  disjunctive correlation  numbering ν + (θ join ∪ "θ not
//                                    TRUE" join over σp(S)) + binary
//                                    grouping Γ (general case)
//
// Tree and linear queries fall out of repeated application (Sec. 3.5/3.6):
// a disjunct cascade of bypass selections handles trees, and the rewriter
// reaches fixpoint across nesting levels for linear queries. The
// technical-report extension for quantified table subqueries (EXISTS /
// NOT EXISTS / IN / NOT IN in disjunctions) is implemented with bypass
// semi-/anti-join pairs.
#ifndef BYPASSDB_REWRITE_UNNEST_H_
#define BYPASSDB_REWRITE_UNNEST_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "algebra/logical_op.h"
#include "common/result.h"

namespace bypass {

class Catalog;

/// How a disjunct cascade orders its branches.
enum class DisjunctOrder {
  kByRank,         ///< Slagle ranks (paper default)
  kSimpleFirst,    ///< force Eqv. 2 shape
  kSubqueryFirst,  ///< force Eqv. 3 shape
};

struct RewriteOptions {
  /// Master switch; off reproduces the canonical (nested-loop) plans.
  bool enable_unnesting = true;
  /// Unnest quantified table subqueries (EXISTS/IN; TR extension).
  bool enable_quantified = true;
  /// Branch ordering within a disjunct cascade.
  DisjunctOrder disjunct_order = DisjunctOrder::kByRank;
  /// Per-tuple cost charged to a nested block in the rank model. The
  /// default keeps subqueries last (Eqv. 2) unless a simple predicate is
  /// extremely expensive (Eqv. 3), mirroring the paper's remark. Only
  /// used when no catalog is wired in (below).
  double subquery_cost = 1000.0;
  /// When set, disjunct ranks are computed from data: selectivities from
  /// the referenced tables' statistics (ANALYZE histograms when present,
  /// lazy min/max/NDV otherwise) and nested-block costs from the blocks'
  /// estimated plans — so the Eqv. 2 vs Eqv. 3 choice reacts to the
  /// actual data distribution instead of textbook constants.
  const Catalog* catalog = nullptr;
  /// Fixpoint bound (linear queries need one pass per nesting level).
  int max_passes = 16;
};

/// Applies the unnesting equivalences bottom-up until fixpoint. Returns
/// the original plan untouched when nothing applies — unsupported shapes
/// simply stay canonical, never fail.
class UnnestingRewriter {
 public:
  explicit UnnestingRewriter(RewriteOptions options)
      : options_(std::move(options)) {}

  Result<LogicalOpPtr> Rewrite(LogicalOpPtr plan);

  /// Names of the equivalences applied, in application order
  /// ("Eqv.2", "Eqv.1", "Eqv.5", "TypeA", "SemiJoin", ...).
  const std::vector<std::string>& applied_rules() const {
    return applied_rules_;
  }

  /// One line per Eqv. 1 key-reduction gate decision, "applied" or
  /// "declined", with the estimated |K|, NDV(B2) and the two costs.
  const std::vector<std::string>& key_reductions() const {
    return key_reductions_;
  }

 private:
  /// One bottom-up pass; memoized for DAG-shaped plans.
  Result<LogicalOpPtr> RewriteNode(
      const LogicalOpPtr& node,
      std::unordered_map<const LogicalOp*, LogicalOpPtr>* memo);

  /// Tries to unnest one Select whose predicate contains subqueries.
  /// Returns nullptr when the shape is unsupported (keep canonical).
  Result<LogicalOpPtr> TryRewriteSelect(const SelectOp& select,
                                        LogicalInput input);

  /// Nesting in the SELECT clause (paper Sec. 1): replaces scalar blocks
  /// inside projection items by unnested $g columns. Returns nullptr when
  /// no item contains a supported scalar block.
  Result<LogicalOpPtr> TryRewriteProject(const ProjectOp& project,
                                         LogicalInput input);

  /// Builds the bypass cascade for one conjunct (a disjunction whose
  /// disjuncts may be simple predicates, scalar linking comparisons, or
  /// quantified subqueries). Returns nullptr when unsupported.
  Result<LogicalOpPtr> RewriteConjunct(LogicalInput stream,
                                       const ExprPtr& conjunct);

  /// "Extend with aggregate": turns `other θ (scalar block)` into a
  /// stream extended with a computed column $g plus the residual linking
  /// predicate `other θ $g`. Dispatches to the Eqv. 1 grouping, the
  /// type-A materialization, binary grouping for non-equality
  /// correlation, or Eqv. 4 / Eqv. 5 for disjunctive correlation.
  struct Extended {
    LogicalOpPtr stream;
    ExprPtr link_pred;
  };
  Result<Extended> ExtendWithAggregate(LogicalInput stream,
                                       const ExprPtr& comparison);

  /// The core of Eqv. 1/4/5 + type A: extends `stream` with a computed
  /// column holding the block's aggregate value per tuple.
  struct ExtendedValue {
    LogicalOpPtr stream;
    ExprPtr value;  ///< reference to the $g column (nullptr: unsupported)
  };
  Result<ExtendedValue> UnnestScalarBlock(LogicalInput stream,
                                          const SubqueryExpr& subquery);

  /// Eqv. 1's stream ⟕ Γ_{keys; agg}(inner_rel), with `inner_rel`
  /// reduced by a semijoin with K = Π[$m_i := outer_keys_i](stream) when
  /// the cost model prices that cheaper (the decision is logged to
  /// key_reductions()). `inner_keys` are column refs into `inner_rel`;
  /// the semijoin sits on the inner-join input owning all of them, or
  /// directly under Γ when they span join inputs or a χ computes one.
  LogicalOpPtr GroupAndJoin(LogicalInput stream, LogicalOpPtr inner_rel,
                            const std::vector<GroupKey>& keys,
                            const std::vector<ExprPtr>& inner_keys,
                            const std::vector<ExprPtr>& outer_keys,
                            const AggregateSpec& agg);

  /// Rebuilds a projection item expression with every scalar block
  /// replaced by an unnested $g reference, extending `*current` along the
  /// way. Returns nullptr when the expression contains an unsupported
  /// block (keep canonical).
  Result<ExprPtr> RewriteItemExpr(const ExprPtr& expr,
                                  LogicalInput* current);

  /// Quantified disjunct: produces the positive branch (semi/anti join)
  /// and the remainder stream (the complementary join) for the cascade.
  struct QuantifiedSplit {
    LogicalOpPtr positive;
    LogicalOpPtr remainder;
  };
  Result<QuantifiedSplit> SplitQuantified(LogicalInput stream,
                                          const SubqueryExpr& subquery);

  std::string FreshName(const char* prefix);
  void LogRule(const char* rule) { applied_rules_.emplace_back(rule); }

  /// Log positions to roll back to when a rewrite is abandoned.
  struct LogMark {
    size_t rules;
    size_t key_reductions;
  };
  LogMark Mark() const {
    return LogMark{applied_rules_.size(), key_reductions_.size()};
  }
  void Rollback(LogMark mark) {
    applied_rules_.resize(mark.rules);
    key_reductions_.resize(mark.key_reductions);
  }

  RewriteOptions options_;
  std::vector<std::string> applied_rules_;
  std::vector<std::string> key_reductions_;
  int name_counter_ = 0;
  /// Counter of K's $m columns, apart from name_counter_ so a declined
  /// reduction leaves every other fresh name as it was.
  int probe_counter_ = 0;
  bool changed_ = false;
};

}  // namespace bypass

#endif  // BYPASSDB_REWRITE_UNNEST_H_
