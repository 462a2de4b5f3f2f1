// RowBatch: the unit of data flow between physical operators. A batch is
// a selection vector over shared row storage, so selections narrow and
// bypass operators split streams without touching the rows themselves —
// the paper's σ± stream partition is a partition of the selection
// vector. Storage is either owned (shared among the views produced by a
// bypass split / fan-out edge) or borrowed from longer-lived memory such
// as a catalog table, which makes scans zero-copy.
#ifndef BYPASSDB_TYPES_ROW_BATCH_H_
#define BYPASSDB_TYPES_ROW_BATCH_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "types/column_vector.h"
#include "types/row.h"

namespace bypass {

/// Default number of rows per batch (QueryOptions::batch_size).
inline constexpr size_t kDefaultBatchSize = 1024;

class RowBatch {
 public:
  RowBatch() = default;

  /// Owning batch over freshly materialized rows; every row selected.
  static RowBatch FromRows(std::vector<Row> rows);

  /// Zero-copy view over external storage that outlives the execution
  /// (e.g. a table's row vector); rows [begin, end) selected.
  static RowBatch Borrowed(const std::vector<Row>* storage, size_t begin,
                           size_t end);

  /// Zero-copy columnar view: like Borrowed, but additionally carries the
  /// table's typed columns so predicate/aggregate kernels can read raw
  /// column data. `storage` is the table's materialized row shim backing
  /// the row(i) API for operators not yet ported; selection indices are
  /// shared between the two representations.
  static RowBatch BorrowedColumnar(const ColumnStore* columns,
                                   const std::vector<Row>* storage,
                                   size_t begin, size_t end);

  /// Typed columns backing this batch, or nullptr for row-only batches.
  /// Selection-vector entries index both columns and row storage.
  const ColumnStore* columns() const { return columns_; }

  /// Number of selected rows.
  size_t size() const { return sel_.size(); }
  bool empty() const { return sel_.empty(); }

  /// The i-th selected row (i indexes the selection vector, not storage).
  const Row& row(size_t i) const { return (*storage_)[sel_[i]]; }

  /// The selection vector: indices into the shared storage. Operators
  /// that only drop rows (filter, limit, distinct) narrow it in place.
  /// Mutable access conservatively drops the dense flag.
  std::vector<uint32_t>& selection() {
    dense_ = false;
    return sel_;
  }
  const std::vector<uint32_t>& selection() const { return sel_; }

  /// True when the selection is a contiguous run over storage
  /// (sel[i] == sel[0] + i), as produced by scans and fresh
  /// materializations. Hot loops use it to index storage directly.
  bool dense() const { return dense_; }

  /// Re-asserts density after a mutation that provably kept the selection
  /// a contiguous run (e.g. a filter that dropped no rows). The non-const
  /// selection() accessor conservatively clears the flag; callers that
  /// preserved contiguity restore the fast path with this.
  void MarkDense() { dense_ = true; }

  /// Storage row by storage index (an entry of selection()).
  const Row& storage_row(uint32_t storage_idx) const {
    return (*storage_)[storage_idx];
  }

  /// True when this batch owns its storage and no other live view shares
  /// it — the prerequisite for mutating or moving rows out.
  bool ExclusivelyOwned() const {
    return owned_ != nullptr && owned_.use_count() == 1;
  }

  /// Mutable access to the i-th selected row; only valid when
  /// ExclusivelyOwned().
  Row& MutableRow(size_t i) { return (*owned_)[sel_[i]]; }

  /// A new view over the same storage with its own selection vector —
  /// the zero-copy output of a bypass split.
  RowBatch ShareWithSelection(std::vector<uint32_t> sel) const;

  /// The i-th selected row, moved out when exclusively owned, copied
  /// otherwise. Each selected row may be taken at most once.
  Row TakeRow(size_t i);

  /// Appends all selected rows to `out` (moving when exclusively owned).
  /// The batch is empty afterwards.
  void ConsumeRowsInto(std::vector<Row>* out);

  /// Like ConsumeRowsInto, but appends each row narrowed to `slots`
  /// (distinct), moving the kept values when exclusively owned.
  void ConsumeRowsInto(std::vector<Row>* out, const std::vector<int>& slots);

  /// Materializes the selected rows (convenience for tests).
  std::vector<Row> ToRows();

 private:
  std::shared_ptr<std::vector<Row>> owned_;
  const std::vector<Row>* storage_ = nullptr;
  const ColumnStore* columns_ = nullptr;
  std::vector<uint32_t> sel_;
  bool dense_ = false;
};

}  // namespace bypass

#endif  // BYPASSDB_TYPES_ROW_BATCH_H_
