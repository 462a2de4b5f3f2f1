// Required columns: one top-down pass over the rewritten logical DAG that
// records, per node, which of its output columns some consumer reads. The
// planner materializes only those at join outputs and projections, so a
// join copies neither the columns its ancestors never look at nor (on the
// build side) buffers them (DESIGN.md §16).
#ifndef BYPASSDB_PLANNER_REQUIRED_COLUMNS_H_
#define BYPASSDB_PLANNER_REQUIRED_COLUMNS_H_

#include <unordered_map>
#include <vector>

#include "algebra/logical_op.h"

namespace bypass {

/// Per node: which columns of node->schema() some consumer reads. The
/// root needs every column. A node feeding several consumers (a shared
/// σ± node's positive and negative streams) gets the union of their
/// needs; UnionAll inputs get exactly the union's needs, position for
/// position, so their layouts can be aligned.
class RequiredColumns {
 public:
  /// Ascending indices into node->schema(); `node` must be reachable
  /// from the root the columns were computed for.
  std::vector<int> Of(const LogicalOp* node) const;

 private:
  friend RequiredColumns ComputeRequiredColumns(const LogicalOp& root);

  /// One need flag per column, each node's flags at its offset.
  std::unordered_map<const LogicalOp*, size_t> offset_;
  std::vector<char> flags_;
};

/// Linear in the number of nodes plus the size of their expressions.
RequiredColumns ComputeRequiredColumns(const LogicalOp& root);

/// Appends to `out` the indices into `schema` that `expr` reads: its
/// non-correlated column references plus the direct outer references of
/// nested blocks (bound against this schema at run time). Returns false
/// when a reference does not resolve uniquely; the caller then keeps
/// every column and leaves the error to binding.
bool CollectExprColumns(const Expr& expr, const Schema& schema,
                        std::vector<int>* out);

}  // namespace bypass

#endif  // BYPASSDB_PLANNER_REQUIRED_COLUMNS_H_
