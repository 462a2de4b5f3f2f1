// Chain lowering: turns a straight-line operator chain — zero or more
// σ filters optionally terminated by one σ± bypass split — into one
// self-contained C++ translation unit implementing the fused per-row
// routing loop (DESIGN.md §12). The
// emitted function replicates the interpreter's semantics exactly:
//
//   * SQL 3VL encoded as int {0 = false, 1 = true, 2 = unknown}, with
//     AND/OR short-circuiting per row exactly like TriAnd/TriOr folds
//     (OR exits on the first TRUE disjunct).
//   * Comparisons monomorphized on the columns' declared types: int64 ×
//     int64 compares exactly; mixed numeric widens to double through the
//     same ordering function as Value::CompareSlow (NaN compares equal
//     to everything); strings via memcmp-then-length (std::string::
//     compare); bool × bool as 0/1 ints; any other pairing — and any
//     NULL operand — yields unknown.
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

#include "expr/agg.h"
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

/// What terminates a widened (generation-2) chain — the fused pipeline
/// breakers of DESIGN.md §12. kNone marks a generation-1 routing chain.
enum class ChainTerminalKind {
  kNone,
  kJoinProbe,    ///< hash-join probe loop → (position, build row) pairs
  kGroupBy,      ///< group-by accumulate loop over the int64 fast path
  kJoinGroupBy,  ///< probe feeding accumulate, fully fused
};

/// One aggregate the emitted accumulate loop folds in-register. The
/// argument is a scan-slot column load (already remapped through any
/// projection copy layers by the install pass); only int64/double
/// arguments — and argument-less COUNT(*) — lower.
struct CgAggFold {
  AggFunc func = AggFunc::kCount;
  bool star = false;  ///< COUNT(*): no argument column
  int slot = -1;      ///< scan slot of the argument (ignored when star)
  DataType type = DataType::kInt64;
};

/// Terminal description for the generation-2 lowering: which breaker(s)
/// the chain fuses and the scan slots their keys live in.
struct ChainTerminal {
  ChainTerminalKind kind = ChainTerminalKind::kNone;
  int probe_slot = -1;  ///< scan slot of the int64 join probe key
  int group_slot = -1;  ///< scan slot of the int64 group key
  std::vector<CgAggFold> aggs;
};

struct LoweredChain {
  /// The complete emitted translation unit (no #includes; exports
  /// bypass_cg_abi plus bypass_cg_run or bypass_cg_run2 by generation).
  std::string source;
  /// Columns in CgBatch::cols order.
  std::vector<CgSlotUse> slots;
  int num_out_ports = 1;
  /// ABI generation of the emitted entry point (1 = routing chain,
  /// 2 = widened probe/accumulate chain).
  int generation = 1;
  /// Echo of the widened terminal (generation 2 only).
  ChainTerminal terminal;
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

/// Generation-2 lowering: σ filters (only — no σ± stage, and
/// `stages` may be empty for a bare scan→breaker chain) terminated by a
/// fused hash-join probe and/or group-by accumulate loop. The emitted TU
/// exports bypass_cg_run2 (abi 2); it probes the interpreter's hash
/// structures through the CgJoinView/CgGroupView slot views and folds
/// aggregates into the caller's SoA accumulator arrays (DESIGN.md §12).
/// False when a filter or the terminal is outside the supported matrix.
bool LowerChainWidened(const std::vector<ChainStage>& stages,
                       const ChainTerminal& terminal, const Schema& schema,
                       LoweredChain* out);

}  // namespace bypass

#endif  // BYPASSDB_CODEGEN_LOWER_CHAIN_H_
