// A textbook cardinality/cost model over logical plans. Its purpose here
// is the paper's point that unnesting equivalences should be applied
// cost-based during plan generation (Sec. 1): Eqv. 5 joins every outer
// row with every row of σp(S), so when p keeps most of S the canonical
// nested-loop plan is actually cheaper — the model detects exactly that.
//
// Units are abstract "row touches"; only relative comparisons matter.
#ifndef BYPASSDB_PLANNER_COST_MODEL_H_
#define BYPASSDB_PLANNER_COST_MODEL_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "algebra/logical_op.h"
#include "catalog/catalog.h"

namespace bypass {

struct PlanEstimate {
  double rows = 0;  ///< estimated output cardinality (positive stream)
  double cost = 0;  ///< estimated total work to produce it
  /// Bypass operators only: estimated cardinality of the complement
  /// (negative) stream. Zero elsewhere.
  double neg_rows = 0;
};

/// Estimates a plan bottom-up. Base-table cardinalities come from ANALYZE
/// statistics when present, otherwise from the table's actual row count
/// (noted in `notes` as "no stats"); a nullptr catalog or unknown table
/// falls back to 1000 rows, also noted. Nested subquery blocks inside
/// selection predicates are charged once per input row when correlated —
/// the canonical nested-loop cost — and once in total when uncorrelated.
PlanEstimate EstimatePlan(const LogicalOp& root, const Catalog* catalog,
                          std::vector<std::string>* notes = nullptr);

class Estimator;

/// One estimation pass over several plans: a node reached from more than
/// one of them is estimated once. The unnesting rewriter prices a
/// rewrite against its alternative with one.
class PlanEstimator {
 public:
  explicit PlanEstimator(const Catalog* catalog);
  ~PlanEstimator();
  PlanEstimator(const PlanEstimator&) = delete;
  PlanEstimator& operator=(const PlanEstimator&) = delete;

  /// Estimate for one input edge (negative bypass streams carry the
  /// complement cardinality).
  PlanEstimate Input(const LogicalInput& input);

  /// Distinct count of an uncorrelated column, 0 when unknown: base-table
  /// statistics, or a column that a Project/Map estimated so far derives
  /// from one column (a rename, or arithmetic with literals).
  int64_t DistinctCount(const ColumnRefExpr& ref) const;

 private:
  std::unique_ptr<Estimator> impl_;
};

/// Estimates the whole plan and returns the per-node memo (including
/// nodes of nested subquery blocks). The planner uses it to annotate
/// physical operators with expected cardinalities so the runtime can
/// report per-operator q-errors.
std::unordered_map<const LogicalOp*, PlanEstimate> EstimateAllNodes(
    const LogicalOp& root, const Catalog* catalog);

}  // namespace bypass

#endif  // BYPASSDB_PLANNER_COST_MODEL_H_
