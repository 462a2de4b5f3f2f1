// RowBatch: the unit of data flow between physical operators. A batch is
// a selection vector over shared storage, so selections narrow and
// bypass operators split streams without touching the data itself — the
// paper's σ± stream partition is a partition of the selection vector.
// Storage is rows or columns:
//   - owned rows (FromRows), shared among the views produced by a bypass
//     split / fan-out edge; the row-oracle scan and operators that build
//     new rows emit them;
//   - rows borrowed from longer-lived memory (Borrowed), e.g. a join's
//     buffered build rows;
//   - a window [begin, end) of a longer-lived column store such as a
//     catalog table's (BorrowedColumns) — zero-copy scans;
//   - owned columns only (FromColumns): the output of joins, χ and Π.
// Column kernels read the columns directly. On a column batch, a consumer
// that still reads rows (row(i)) materializes the rows of the storage it
// covers — the whole owned store, or the borrowed window only — from the
// columns once, shared by all views of it.
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

  /// Owning batch over freshly materialized rows; every row selected.
  static RowBatch FromRows(std::vector<Row> rows);

  /// Zero-copy view over external rows that outlive the execution (e.g.
  /// a join's buffered build rows); rows [begin, end) selected.
  static RowBatch Borrowed(const std::vector<Row>* storage, size_t begin,
                           size_t end);

  /// Zero-copy view of rows [begin, end) of `columns`, which outlive the
  /// execution (a table's column store); selection entries index
  /// `columns`. The first row(i)/storage_row call on it or any of its
  /// views builds the rows of this window, not of the whole store.
  static RowBatch BorrowedColumns(const ColumnStore* columns, size_t begin,
                                  size_t end);

  /// Owning column-only batch. The first form selects every row of the
  /// store (dense); the second selects `sel` (storage indices).
  static RowBatch FromColumns(ColumnStore columns);
  static RowBatch FromColumns(ColumnStore columns,
                              std::vector<uint32_t> sel);

  /// Typed columns backing this batch, or nullptr for row-only batches.
  /// Selection-vector entries index both columns and row storage.
  const ColumnStore* columns() const { return columns_; }

  /// Number of selected rows.
  size_t size() const { return sel_.size(); }
  bool empty() const { return sel_.empty(); }

  /// Values per row: the column count when the batch has columns, else
  /// the first selected row's width (0 when empty). Never materializes.
  size_t width() const;

  /// The i-th selected row (i indexes the selection vector, not storage).
  /// On a column batch the first call materializes its rows from the
  /// columns. Views of one batch may call it from different threads; one
  /// batch object is read by one thread at a time.
  const Row& row(size_t i) const { return storage_row(sel_[i]); }

  /// True when row storage exists: owned or borrowed rows, or the rows a
  /// column batch materialized on demand.
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

  /// True when this batch owns its row storage and no other live view
  /// shares it — the prerequisite for moving rows out.
  bool ExclusivelyOwned() const {
    return owned_ != nullptr && owned_.use_count() == 1;
  }

  /// True when this batch owns its columns, no other live view shares
  /// them and its selection is every storage row in order: the columns
  /// can then be taken (TakeColumns) instead of gathered.
  bool OwnsAllColumns() const;

  /// Moves the owned columns out; requires OwnsAllColumns(). The batch
  /// is empty afterwards.
  ColumnStore TakeColumns();

  /// The selected rows as a dense column store, one column per entry of
  /// `slots` (every column when null): typed gathers from the batch's
  /// columns, or a transpose of its rows typed by their values.
  ColumnStore GatherColumns(const std::vector<int>* slots) const;

  /// A new view over the same storage with its own selection vector —
  /// the zero-copy output of a bypass split.
  RowBatch ShareWithSelection(std::vector<uint32_t> sel) const;

  /// The i-th selected row: built from the columns when the batch has
  /// them, else moved out when exclusively owned and copied otherwise.
  /// Each selected row may be taken at most once.
  Row TakeRow(size_t i);

  /// Appends all selected rows to `out`, built from the columns when the
  /// batch has them (column by column), else moved when exclusively owned
  /// and copied otherwise. The batch is empty afterwards.
  void ConsumeRowsInto(std::vector<Row>* out);

  /// Like ConsumeRowsInto, but appends each row narrowed to `slots`
  /// (distinct).
  void ConsumeRowsInto(std::vector<Row>* out, const std::vector<int>& slots);

  /// Materializes the selected rows (convenience for tests).
  std::vector<Row> ToRows();

 private:
  /// Storage of a column batch, shared by its views: the owned columns
  /// (empty on a borrowed window) and the rows of storage indices
  /// [rows_begin, rows_end) materialized from the columns on first demand.
  struct ColumnData {
    ColumnStore columns;
    size_t rows_begin = 0;
    size_t rows_end = 0;
    std::once_flag rows_once;
    std::atomic<bool> rows_ready{false};
    std::vector<Row> rows;
  };

  void MaterializeRows() const;
  void ReserveFor(std::vector<Row>* out) const;

  std::shared_ptr<std::vector<Row>> owned_;
  std::shared_ptr<ColumnData> col_data_;
  /// Row storage; null on a column batch until row() materializes.
  mutable const std::vector<Row>* storage_ = nullptr;
  /// Storage index of (*storage_)[0]: a borrowed window's begin.
  mutable uint32_t row_base_ = 0;
  const ColumnStore* columns_ = nullptr;
  std::vector<uint32_t> sel_;
  bool dense_ = false;
};

}  // namespace bypass

#endif  // BYPASSDB_TYPES_ROW_BATCH_H_
