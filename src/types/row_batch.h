// RowBatch: the unit of data flow between physical operators. A batch is
// a selection vector over shared storage, so selections narrow and
// bypass operators split streams without touching the data itself — the
// paper's σ± stream partition is a partition of the selection vector.
// Storage is always a ColumnStore, in one of two forms:
//   - a window [begin, end) of a longer-lived store such as a catalog
//     table's (BorrowedColumns) — zero-copy scans and build-side windows;
//   - owned columns (FromColumns), shared among the views produced by a
//     bypass split / fan-out edge: the output of joins, χ and Π, and of
//     operators that build new rows (FromRows transposes them).
// A column is typed (raw arrays) or untyped (a Value per entry, the row
// oracle's form, which every typed kernel declines). Column kernels read
// the columns directly; a consumer that still reads rows (row(i)) builds
// the rows of the storage it covers — the whole owned store, or the
// borrowed window only — from the columns once, shared by all views.
#ifndef BYPASSDB_TYPES_ROW_BATCH_H_
#define BYPASSDB_TYPES_ROW_BATCH_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "types/column_vector.h"
#include "types/row.h"

namespace bypass {

/// Default number of rows per batch (QueryOptions::batch_size).
inline constexpr size_t kDefaultBatchSize = 1024;

class RowBatch {
 public:
  RowBatch() = default;

  /// Owning batch over `rows` transposed into columns, every row
  /// selected: typed by each column's first non-NULL value, or untyped
  /// (a Value per entry) when `typed` is false — the row oracle's form.
  static RowBatch FromRows(std::vector<Row> rows, bool typed = true);

  /// Zero-copy view of rows [begin, end) of `columns`, which outlive the
  /// execution (a table's column store); selection entries index
  /// `columns`. The first row(i)/storage_row call on it or any of its
  /// views builds the rows of this window, not of the whole store.
  static RowBatch BorrowedColumns(const ColumnStore* columns, size_t begin,
                                  size_t end);

  /// Owning column batch. The first form selects every row of the
  /// store (dense); the second selects `sel` (storage indices).
  static RowBatch FromColumns(ColumnStore columns);
  static RowBatch FromColumns(ColumnStore columns,
                              std::vector<uint32_t> sel);

  /// The columns backing this batch; never null. Selection-vector
  /// entries index them (and the rows built from them).
  const ColumnStore* columns() const { return columns_; }

  /// Number of selected rows.
  size_t size() const { return sel_.size(); }
  bool empty() const { return sel_.empty(); }

  /// Values per row: the column count.
  size_t width() const { return columns_->columns.size(); }

  /// The i-th selected row (i indexes the selection vector, not storage).
  /// The first call materializes the batch's rows from the columns.
  /// Views of one batch may call it from different threads; one batch
  /// object is read by one thread at a time.
  const Row& row(size_t i) const { return storage_row(sel_[i]); }

  /// True once some row(i)/storage_row call on this batch or a view of
  /// it materialized rows from the columns.
  bool has_rows() const {
    return storage_ != nullptr ||
           (col_data_ != nullptr && col_data_->rows_ready.load(
                                        std::memory_order_acquire));
  }

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
    if (storage_ == nullptr) MaterializeRows();
    return (*storage_)[storage_idx - row_base_];
  }

  /// True when this batch owns its columns, no other live view shares
  /// them and its selection is every storage row in order: the columns
  /// can then be taken (TakeColumns) instead of gathered.
  bool OwnsAllColumns() const;

  /// Moves the owned columns out; requires OwnsAllColumns(). The batch
  /// is empty afterwards.
  ColumnStore TakeColumns();

  /// The selected rows as a dense column store, one column per entry of
  /// `slots` (every column when null), gathered from the batch's columns.
  ColumnStore GatherColumns(const std::vector<int>* slots) const;

  /// A new view over the same storage with its own selection vector —
  /// the zero-copy output of a bypass split.
  RowBatch ShareWithSelection(std::vector<uint32_t> sel) const;

  /// The i-th selected row, built from the columns.
  Row TakeRow(size_t i) const { return columns_->MaterializeRow(sel_[i]); }

  /// Appends all selected rows to `out`, built column by column. The
  /// batch is empty afterwards.
  void ConsumeRowsInto(std::vector<Row>* out);

  /// Materializes the selected rows (convenience for tests).
  std::vector<Row> ToRows();

 private:
  /// Storage shared by a batch and its views: the owned columns (empty
  /// on a borrowed window) and the rows of storage indices
  /// [rows_begin, rows_end) materialized from the columns on first demand.
  struct ColumnData {
    ColumnStore columns;
    size_t rows_begin = 0;
    size_t rows_end = 0;
    std::once_flag rows_once;
    std::atomic<bool> rows_ready{false};
    std::vector<Row> rows;
  };

  /// A store with no columns and no rows: the default batch's.
  static const ColumnStore* EmptyColumns();

  void MaterializeRows() const;

  std::shared_ptr<ColumnData> col_data_;
  /// Row storage; null until row() materializes.
  mutable const std::vector<Row>* storage_ = nullptr;
  /// Storage index of (*storage_)[0]: a borrowed window's begin.
  mutable uint32_t row_base_ = 0;
  const ColumnStore* columns_ = EmptyColumns();
  std::vector<uint32_t> sel_;
  bool dense_ = false;
};

}  // namespace bypass

#endif  // BYPASSDB_TYPES_ROW_BATCH_H_
