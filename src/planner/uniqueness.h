// Uniqueness as a plan property (Paulley & Larson, "Exploiting
// Uniqueness in Query Optimization", ICDE 1994): one bottom-up pass over
// the rewritten logical DAG derives, per stream, a key — columns no two
// rows agree on under DISTINCT's equality — and the base tables whose
// own duplicate-freeness that key rests on. A δ whose input has a key
// removes no row, so the planner hands its physical operator the tables
// to check at run time (exec/distinct.h, DESIGN.md §17).
//
// Sources: a base table is keyed on all its columns, provided it is
// duplicate-free; a Γ on its grouping columns (a scalar Γ on none: one
// row); ν on its number; δ on all its columns.
// Kept by: σ and each σ± stream, semi and anti joins, χ, ν, sort, limit,
// binary grouping (its left key) and a Π that keeps every key column.
// A ⋈ or ⟕ keeps its left key when its right input is keyed on join
// columns (each left row meets at most one right row), an inner join
// symmetrically its right key, and otherwise both keys together.
// A ⊎ keeps a key only when its branches are provably disjoint. Each
// stream carries its lineage: the splits its rows came through — the two
// streams of a σ±, or a semi and an anti join of one left stream against
// one right stream on one predicate — with the columns that hold the
// split input's key. Two branches are disjoint when they came through
// opposite sides of one split with that key in the same columns: each
// input row takes one side, and distinct input rows differ on the key.
// Anything else is unknown, and its δ is kept.
#ifndef BYPASSDB_PLANNER_UNIQUENESS_H_
#define BYPASSDB_PLANNER_UNIQUENESS_H_

#include <unordered_map>

#include "algebra/logical_op.h"
#include "catalog/catalog.h"
#include "exec/distinct.h"

namespace bypass {

/// One verdict per δ reachable from `root` (empty when the plan has
/// none): whether its input is duplicate-free, and on which of
/// `catalog`'s tables that rests. Its text names the plan steps ("⊎ of
/// σ± #1 ±" or "⊎ of ⋉/▷ <predicate> ±", with the σ± ids
/// PlanToString(root) prints), the key's source when no table is involved
/// ("Γ keys"), or why there is no proof ("⊎ branches not provably
/// disjoint").
std::unordered_map<const LogicalOp*, DistinctGate> ProveDistinctInputs(
    const LogicalOp& root, const Catalog& catalog);

}  // namespace bypass

#endif  // BYPASSDB_PLANNER_UNIQUENESS_H_
