// ColumnVector: typed contiguous column storage with a null bitmap — the
// engine's columnar data plane. A column declared as int64/double/bool
// stores raw machine values in one contiguous array; strings live in a
// shared character arena addressed by offsets. NULLs occupy a placeholder
// slot in the typed array and are flagged in a bitmap (bit set = NULL), so
// kernels can branch once per batch on the column's type and consult the
// bitmap only when null_count() > 0.
//
// Values are stored losslessly: GetValue(i) round-trips the exact Value
// that was appended, including its dynamic type. A column is typed by its
// first non-NULL value: while it holds only NULLs its declared type is a
// placeholder that the first non-NULL datum replaces. After that, the
// catalog's cross-typed numeric loads (an int64 datum in a kDouble column
// and vice versa) would change observable result types downstream if
// coerced (e.g. SUM's int-vs-double output), so a type-mismatched append
// demotes the whole column to a mixed-mode std::vector<Value> fallback
// instead. An untyped column (Untyped()) is mixed from the start — the
// row oracle's form. typed() distinguishes the two representations;
// every kernel checks it and takes its Value path for mixed columns.
#ifndef BYPASSDB_TYPES_COLUMN_VECTOR_H_
#define BYPASSDB_TYPES_COLUMN_VECTOR_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "types/row.h"
#include "types/value.h"

namespace bypass {

class ColumnVector {
 public:
  explicit ColumnVector(DataType type) : type_(type) {}

  /// A mixed-mode column from the start: a Value per entry, which every
  /// typed kernel declines.
  static ColumnVector Untyped() {
    ColumnVector col(DataType::kInt64);
    col.mixed_mode_ = true;
    return col;
  }
  /// An empty column of this one's form: untyped when it is mixed, else
  /// of its type.
  ColumnVector EmptyLike() const {
    return mixed_mode_ ? Untyped() : ColumnVector(type_);
  }

  DataType type() const { return type_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// True while the column holds raw typed storage; false after a
  /// type-mismatched append demoted it to the Value-vector fallback.
  bool typed() const { return !mixed_mode_; }

  size_t null_count() const { return null_count_; }
  bool has_nulls() const { return null_count_ > 0; }

  void Reserve(size_t n);
  void Clear();

  /// Appends one datum. NULLs set the bitmap bit and a zero placeholder;
  /// a non-NULL datum whose dynamic type differs from the declared type
  /// demotes the column to mixed mode (exact round-trip preserved).
  void Append(const Value& v);
  /// As Append, moving the datum into a mixed-mode column.
  void Append(Value&& v);

  /// Exact round-trip of the appended Value (type included).
  Value GetValue(size_t i) const;

  /// Appends the values at storage indices idx[0, n) to `out`, in order
  /// (GetValue per index, with the type dispatch hoisted out of the loop).
  void GetValues(const uint32_t* idx, size_t n,
                 std::vector<Value>* out) const;

  /// Appends the value at storage index idx[i] to rows[i], for i < n —
  /// one column of a row materialization.
  void AppendToRows(const uint32_t* idx, size_t n, Row* rows) const;

  /// Appends src's entries at storage indices idx[0, n): a typed copy
  /// when both columns are typed with one type (a column of NULLs only
  /// takes src's), an exact per-Value append otherwise.
  void AppendGather(const ColumnVector& src, const uint32_t* idx, size_t n);

  /// Bytes of the entries' storage: typed arrays, string chars and
  /// offsets, the null bitmap, and sizeof(Value) per mixed entry.
  int64_t ApproxBytes() const;

  bool IsNull(size_t i) const {
    if (mixed_mode_) return mixed_[i].is_null();
    return null_count_ > 0 &&
           ((null_words_[i >> 6] >> (i & 63)) & uint64_t{1}) != 0;
  }

  // Raw typed accessors — valid only when typed() and the declared type
  // matches. NULL positions hold zero placeholders; consult IsNull().
  const int64_t* i64_data() const { return i64_.data(); }
  const double* f64_data() const { return f64_.data(); }
  const uint8_t* bool_data() const { return bool_.data(); }
  std::string_view string_at(size_t i) const {
    return std::string_view(chars_.data() + offsets_[i],
                            offsets_[i + 1] - offsets_[i]);
  }
  /// Raw string-arena views for kString columns (size_+1 offsets into
  /// chars_); the codegen ABI hands these straight to emitted code.
  const uint64_t* string_offsets() const { return offsets_.data(); }
  const char* string_chars() const { return chars_.data(); }

  /// Null bitmap words (bit set = NULL); ceil(size/64) entries in typed
  /// mode once has_nulls(), none before the first NULL.
  const uint64_t* null_words() const { return null_words_.data(); }

 private:
  void SetNullBit(size_t i);
  void DemoteToMixed();
  /// Replaces the placeholder type of a column that holds only NULLs.
  void Retype(DataType type);

  DataType type_;
  size_t size_ = 0;

  std::vector<int64_t> i64_;
  std::vector<double> f64_;
  std::vector<uint8_t> bool_;
  std::string chars_;               // string arena
  std::vector<uint64_t> offsets_;   // size_+1 entries for kString columns

  std::vector<uint64_t> null_words_;  // bit set = NULL; empty until one
  size_t null_count_ = 0;

  bool mixed_mode_ = false;
  std::vector<Value> mixed_;
};

/// A table's worth of columns plus the shared row count (which holds
/// even with no columns). Every RowBatch reads one of these — a table's
/// (RowBatch::BorrowedColumns) or the batch's own — and so does every
/// buffered join or grouping build side.
struct ColumnStore {
  std::vector<ColumnVector> columns;
  size_t num_rows = 0;

  void Reserve(size_t n) {
    for (ColumnVector& c : columns) c.Reserve(n);
  }
  void Clear() {
    for (ColumnVector& c : columns) c.Clear();
    num_rows = 0;
  }
  /// Appends one row; row arity must match the column count. A store
  /// with neither columns nor rows first takes one column per value.
  void AppendRow(const Row& row);
  /// Appends rows idx[0, n) of `src`, narrowed to `slots` when non-null.
  /// A store with neither columns nor rows first takes an EmptyLike
  /// column per source column.
  void AppendGather(const ColumnStore& src, const uint32_t* idx, size_t n,
                    const std::vector<int>* slots);
  /// Sum of the columns' ApproxBytes.
  int64_t ApproxBytes() const;
  /// Materializes row i (exact Values).
  Row MaterializeRow(size_t i) const;
  /// Appends rows idx[0, n) to `out`, built column by column.
  void MaterializeRows(const uint32_t* idx, size_t n,
                       std::vector<Row>* out) const;
};

/// A column holding `values` (exact round trip), typed by the first
/// non-NULL one.
ColumnVector ColumnFromValues(const std::vector<Value>& values);

}  // namespace bypass

#endif  // BYPASSDB_TYPES_COLUMN_VECTOR_H_
