// ColumnVector: typed contiguous column storage with a null bitmap — the
// engine's columnar data plane. A column declared as int64/double/bool
// stores raw machine values in one contiguous array; strings live in a
// shared character arena addressed by offsets. NULLs occupy a placeholder
// slot in the typed array and are flagged in a bitmap (bit set = NULL), so
// kernels can branch once per batch on the column's type and consult the
// bitmap only when null_count() > 0.
//
// Values are stored losslessly: GetValue(i) round-trips the exact Value
// that was appended, including its dynamic type. The catalog permits
// cross-typed numeric loads (an int64 datum in a kDouble column and vice
// versa); coercing those on append would change observable result types
// downstream (e.g. SUM's int-vs-double output), so a type-mismatched
// append demotes the whole column to a mixed-mode std::vector<Value>
// fallback instead. typed() distinguishes the two representations; every
// kernel checks it and falls back to the row path for mixed columns.
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
  /// when both columns are typed with one declared type, an exact
  /// per-Value append otherwise.
  void AppendGather(const ColumnVector& src, const uint32_t* idx, size_t n);

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

/// A table's worth of columns plus the shared row count. RowBatch carries
/// a pointer to one of these — a table's (RowBatch::BorrowedColumns) or
/// the batch's own (RowBatch::FromColumns) — so columnar kernels and
/// row-at-a-time operators coexist over the same batch.
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
  /// Appends one row; row arity must match the column count.
  void AppendRow(const Row& row);
  /// Materializes row i (exact Values).
  Row MaterializeRow(size_t i) const;
  /// Appends rows idx[0, n), narrowed to `slots` when non-null, to `out`
  /// — built column by column.
  void MaterializeRows(const uint32_t* idx, size_t n,
                       const std::vector<int>* slots,
                       std::vector<Row>* out) const;
};

/// The type of the first non-NULL value in `values`, or `fallback` when
/// every value is NULL: the declared type of a column built from
/// computed values, so that it stays typed whenever the values agree.
DataType FirstValueType(const std::vector<Value>& values, DataType fallback);

/// A column holding `values` (exact round trip), typed as
/// FirstValueType(values, kInt64).
ColumnVector ColumnFromValues(const std::vector<Value>& values);

}  // namespace bypass

#endif  // BYPASSDB_TYPES_COLUMN_VECTOR_H_
