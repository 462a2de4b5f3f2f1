// CorrelatedSubplan: the interface through which expressions evaluate
// nested query blocks. The paper's canonical plans contain "algebraic
// expressions in selection predicates" (Sec. 2.3); this interface is their
// runtime form. Concrete implementations wrap executable physical plans
// (see exec/subplan_impl.h) and may memoize results per correlation-value
// combination (the "canonical-memo" comparator strategy).
#ifndef BYPASSDB_EXPR_SUBPLAN_H_
#define BYPASSDB_EXPR_SUBPLAN_H_

#include <memory>

#include "common/result.h"
#include "types/row.h"
#include "types/value.h"

namespace bypass {

/// An executable nested query block. `outer_row` supplies the values for
/// the block's free attributes (direct correlation only, per the paper's
/// stated limitation).
class CorrelatedSubplan {
 public:
  virtual ~CorrelatedSubplan() = default;

  /// Evaluates a scalar (type A/JA) block: the block's top-level aggregate
  /// value for this outer row. An empty input yields the aggregate's
  /// f(∅): 0 for count, NULL otherwise.
  virtual Result<Value> EvalScalar(const Row* outer_row) = 0;

  /// EXISTS semantics: true iff the block produces at least one row.
  virtual Result<bool> EvalExists(const Row* outer_row) = 0;

  /// `probe θ SOME (block)` under SQL three-valued logic: kTrue if some
  /// row y makes probe θ y TRUE; else kUnknown if some pair is UNKNOWN
  /// (a NULL on either side); else kFalse (the empty block included).
  /// A subplan is always asked with the same θ, so its memo is keyed on
  /// (outer row, probe) alone.
  virtual Result<TriBool> EvalSome(CompareOp op, const Value& probe,
                                   const Row* outer_row) = 0;

  /// Number of times the block was (re-)executed; reported by benchmarks.
  virtual int64_t num_executions() const = 0;
};

using CorrelatedSubplanPtr = std::shared_ptr<CorrelatedSubplan>;

}  // namespace bypass

#endif  // BYPASSDB_EXPR_SUBPLAN_H_
