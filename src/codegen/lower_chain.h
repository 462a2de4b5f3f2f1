// Chain lowering: turns a straight-line operator chain — zero or more
// σ filters optionally terminated by one σ± bypass split — into one
// self-contained C++ translation unit implementing the fused per-row
// routing loop (DESIGN.md §12). The
// emitted function replicates the interpreter's semantics exactly:
//
//   * SQL 3VL encoded as int {0 = false, 1 = true, 2 = unknown}, with
//     AND/OR short-circuiting per row exactly like TriAnd/TriOr folds
//     (OR exits on the first TRUE disjunct).
//   * Comparisons monomorphized on the columns' declared types: numbers
//     in the numeric order, through emitted copies of CompareNumeric
//     (types/value.h; exact int64 × double, NaN the largest number);
//     strings via memcmp-then-length (std::string::compare); bool × bool
//     as 0/1 ints; any other pairing — and any NULL operand — yields
//     unknown.
//   * LIKE mirrors LikeMatch's iterative '%'-backtracking byte for byte.
//   * Arithmetic (+,-,*) preserves int64 on int64 × int64 and widens to
//     double otherwise, NULL propagating. Division is deliberately NOT
//     lowered: its divide-by-zero ExecutionError has no channel out of
//     emitted code, so chains containing '/' stay interpreted — emitted
//     code is error-free by construction.
//
// Anything outside this matrix — subqueries, correlated outer
// references, builtin functions, mixed-mode (untyped) columns — makes
// the stage unsupported; the install pass (codegen/install.h) then cuts
// the chain before that operator and leaves the rest interpreted.
#ifndef BYPASSDB_CODEGEN_LOWER_CHAIN_H_
#define BYPASSDB_CODEGEN_LOWER_CHAIN_H_

#include <string>
#include <vector>

#include "expr/expr.h"
#include "types/schema.h"

namespace bypass {

enum class ChainStageKind {
  kFilter,  ///< σ: TRUE rows continue, rest dropped
  kBypass,  ///< σ±: TRUE → port 0, FALSE/UNKNOWN → port 1 (terminal)
};

/// One operator of the chain and its predicate.
struct ChainStage {
  ChainStageKind kind;
  const Expr* predicate;
};

/// One input column the emitted code reads: the table-schema slot and
/// its declared type (the runtime guard re-checks both per batch).
struct CgSlotUse {
  int slot;
  DataType type;
};

struct LoweredChain {
  /// The complete emitted translation unit (no #includes; exports
  /// bypass_cg_abi and bypass_cg_run).
  std::string source;
  /// Columns in CgBatch::cols order.
  std::vector<CgSlotUse> slots;
  int num_out_ports = 1;
  /// Short human-readable shape note for operator labels.
  std::string summary;
};

/// Lowers the chain against the scanned table's schema. False when any
/// stage uses a construct outside the supported matrix (the chain then
/// stays interpreted; use StageSupported to cut at operator granularity).
bool LowerChain(const std::vector<ChainStage>& stages,
                const Schema& schema, LoweredChain* out);

/// Dry-run of one stage: true when it would lower. The install pass uses
/// this to find the longest compilable prefix of a chain.
bool StageSupported(const ChainStage& stage, const Schema& schema);

}  // namespace bypass

#endif  // BYPASSDB_CODEGEN_LOWER_CHAIN_H_
