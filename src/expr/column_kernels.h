// Type-specialized columnar predicate/arithmetic kernels. These branch
// once per batch on (operator, column type) and then run tight loops over
// raw column data + null bitmaps, instead of per-value std::variant
// dispatch through Value::Compare. Semantics replicate the Value paths
// bit for bit: SQL 3VL (NULL operand → Unknown), exact int64×int64
// comparison, cross-numeric comparison after widening to double with the
// engine's total-order double comparator (NaN compares equal), string
// comparison by std::string::compare, bool as 0/1 ints, and mismatched
// non-numeric types → Unknown.
//
// Every kernel is a *try*: it applies only when the batch carries typed
// columns (RowBatch::columns()) and both operands resolve to a typed
// column or a batch-constant. Mixed-mode columns, unbound references and
// row-only batches fall back to the row paths in expr.cc.
#ifndef BYPASSDB_EXPR_COLUMN_KERNELS_H_
#define BYPASSDB_EXPR_COLUMN_KERNELS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "expr/expr.h"
#include "types/column_vector.h"
#include "types/row_batch.h"
#include "types/value.h"

namespace bypass {

/// A comparison/arithmetic operand resolved against a columnar batch:
/// either a typed (non-mixed) column of the batch's ColumnStore, or a
/// batch-constant Value (literal or correlated outer reference).
struct ColumnOperand {
  const ColumnVector* column = nullptr;
  const Value* constant = nullptr;
};

/// Resolves `e` to a ColumnOperand. False when the batch has no typed
/// columns, the expression is not a literal / bound column reference, the
/// slot is out of range, or the column is in mixed mode.
bool ResolveColumnOperand(const Expr& e, const RowBatch& batch,
                          const Row* outer_row, ColumnOperand* out);

/// Fused bypass-partition kernel: partitions the batch's selected rows by
/// `l op r` under 3VL in one pass, appending storage indices (in batch
/// order) to sel_true / sel_false / sel_null (null pointers skipped;
/// passing the same vector as sel_false and sel_null yields the σ±
/// negative stream). Returns false when no typed kernel applies — the
/// caller falls back to the row path. Requires at least one column
/// operand.
bool ColumnarComparePartition(CompareOp op, const ColumnOperand& l,
                              const ColumnOperand& r, const RowBatch& batch,
                              std::vector<uint32_t>* sel_true,
                              std::vector<uint32_t>* sel_false,
                              std::vector<uint32_t>* sel_null);

/// Columnar comparison evaluation: appends one Value (Bool or NULL) per
/// selected row, in selection order. Returns false when no typed kernel
/// applies.
bool ColumnarCompareEval(CompareOp op, const ColumnOperand& l,
                         const ColumnOperand& r, const RowBatch& batch,
                         std::vector<Value>* out);

/// Fused LIKE partition kernel: partitions by `input [NOT] LIKE pattern`
/// under 3VL (NULL input → Unknown), with the same output contract as
/// ColumnarComparePartition. Returns false when the input is not a typed
/// string column or string/NULL constant — non-string inputs raise an
/// execution error on the row path and must keep doing so.
bool ColumnarLikePartition(const ColumnOperand& input,
                           std::string_view pattern, bool negated,
                           const RowBatch& batch,
                           std::vector<uint32_t>* sel_true,
                           std::vector<uint32_t>* sel_false,
                           std::vector<uint32_t>* sel_null);

/// Columnar LIKE evaluation: appends one Value (Bool or NULL) per
/// selected row. Returns false when no typed kernel applies.
bool ColumnarLikeEval(const ColumnOperand& input, std::string_view pattern,
                      bool negated, const RowBatch& batch,
                      std::vector<Value>* out);

/// Columnar arithmetic: appends one Value per selected row, replicating
/// ArithmeticExpr::Combine exactly (int64-preserving +,-,*; / always
/// double with a division-by-zero execution error naming `expr_str`;
/// NULL propagates). nullopt when no typed kernel applies; otherwise the
/// loop's Status (errors abort at the first offending row, like the row
/// path).
std::optional<Status> ColumnarArithmeticEval(
    ArithOp op, const ColumnOperand& l, const ColumnOperand& r,
    const RowBatch& batch, const std::string& expr_str,
    std::vector<Value>* out);

}  // namespace bypass

#endif  // BYPASSDB_EXPR_COLUMN_KERNELS_H_
