#include "types/column_vector.h"

#include <cassert>

namespace bypass {

void ColumnVector::Reserve(size_t n) {
  if (mixed_mode_) {
    mixed_.reserve(n);
    return;
  }
  switch (type_) {
    case DataType::kInt64:
      i64_.reserve(n);
      break;
    case DataType::kDouble:
      f64_.reserve(n);
      break;
    case DataType::kBool:
      bool_.reserve(n);
      break;
    case DataType::kString:
      offsets_.reserve(n + 1);
      break;
  }
}

void ColumnVector::Clear() {
  size_ = 0;
  i64_.clear();
  f64_.clear();
  bool_.clear();
  chars_.clear();
  offsets_.clear();
  null_words_.clear();
  null_count_ = 0;
  mixed_mode_ = false;
  mixed_.clear();
}

void ColumnVector::SetNullBit(size_t i) {
  // The bitmap is allocated at the first NULL; from then on it covers
  // every row (Append adds a word per 64 rows).
  if (null_words_.size() <= (i >> 6)) null_words_.resize((i >> 6) + 1, 0);
  null_words_[i >> 6] |= uint64_t{1} << (i & 63);
  ++null_count_;
}

void ColumnVector::Append(const Value& v) {
  if (mixed_mode_) {
    if (v.is_null()) ++null_count_;
    mixed_.push_back(v);
    ++size_;
    return;
  }
  const size_t i = size_;
  const bool matches =
      !v.is_null() &&
      ((type_ == DataType::kInt64 && v.is_int64()) ||
       (type_ == DataType::kDouble && v.is_double()) ||
       (type_ == DataType::kBool && v.is_bool()) ||
       (type_ == DataType::kString && v.is_string()));
  if (!v.is_null() && !matches) {
    // The first non-NULL datum types the column. A later cross-typed one
    // (e.g. int64 in a kDouble column) demotes the whole column rather
    // than coerce — GetValue must round-trip exactly.
    if (null_count_ == size_) {
      Retype(v.type());
    } else {
      DemoteToMixed();
    }
    Append(v);
    return;
  }
  if (null_count_ > 0 && (i & 63) == 0) null_words_.push_back(0);
  switch (type_) {
    case DataType::kInt64:
      i64_.push_back(v.is_null() ? 0 : v.int64_value());
      break;
    case DataType::kDouble:
      f64_.push_back(v.is_null() ? 0.0 : v.double_value());
      break;
    case DataType::kBool:
      bool_.push_back(v.is_null() ? 0 : (v.bool_value() ? 1 : 0));
      break;
    case DataType::kString:
      if (offsets_.empty()) offsets_.push_back(0);
      if (!v.is_null()) chars_.append(v.string_value());
      offsets_.push_back(chars_.size());
      break;
  }
  if (v.is_null()) SetNullBit(i);
  ++size_;
}

void ColumnVector::Append(Value&& v) {
  if (!mixed_mode_) return Append(static_cast<const Value&>(v));
  if (v.is_null()) ++null_count_;
  mixed_.push_back(std::move(v));
  ++size_;
}

Value ColumnVector::GetValue(size_t i) const {
  if (mixed_mode_) return mixed_[i];
  if (IsNull(i)) return Value::Null();
  switch (type_) {
    case DataType::kInt64:
      return Value::Int64(i64_[i]);
    case DataType::kDouble:
      return Value::Double(f64_[i]);
    case DataType::kBool:
      return Value::Bool(bool_[i] != 0);
    case DataType::kString:
      return Value::String(std::string(string_at(i)));
  }
  return Value::Null();
}

namespace {

/// Calls fn(i, value at idx[i]) for i < n, with the type dispatch
/// hoisted out of the loop for int64 and double columns.
template <typename Fn>
void ForEachValue(const ColumnVector& col, const uint32_t* idx, size_t n,
                  Fn&& fn) {
  const bool nulls = col.has_nulls();
  if (col.typed() && col.type() == DataType::kInt64) {
    const int64_t* data = col.i64_data();
    for (size_t i = 0; i < n; ++i) {
      fn(i, nulls && col.IsNull(idx[i]) ? Value::Null()
                                        : Value::Int64(data[idx[i]]));
    }
  } else if (col.typed() && col.type() == DataType::kDouble) {
    const double* data = col.f64_data();
    for (size_t i = 0; i < n; ++i) {
      fn(i, nulls && col.IsNull(idx[i]) ? Value::Null()
                                        : Value::Double(data[idx[i]]));
    }
  } else {
    for (size_t i = 0; i < n; ++i) fn(i, col.GetValue(idx[i]));
  }
}

}  // namespace

void ColumnVector::GetValues(const uint32_t* idx, size_t n,
                             std::vector<Value>* out) const {
  out->reserve(out->size() + n);
  ForEachValue(*this, idx, n,
               [out](size_t, Value v) { out->push_back(std::move(v)); });
}

void ColumnVector::AppendToRows(const uint32_t* idx, size_t n,
                                Row* rows) const {
  ForEachValue(*this, idx, n, [rows](size_t i, Value v) {
    rows[i].push_back(std::move(v));
  });
}

void ColumnVector::AppendGather(const ColumnVector& src, const uint32_t* idx,
                                size_t n) {
  if (!mixed_mode_ && !src.mixed_mode_ && src.type_ != type_ &&
      null_count_ == size_) {
    Retype(src.type_);
  }
  if (mixed_mode_ || src.mixed_mode_ || src.type_ != type_) {
    for (size_t i = 0; i < n; ++i) Append(src.GetValue(idx[i]));
    return;
  }
  // One typed copy loop per column; NULL placeholders copy along.
  switch (type_) {
    case DataType::kInt64: {
      i64_.resize(size_ + n);
      int64_t* out = i64_.data() + size_;
      for (size_t i = 0; i < n; ++i) out[i] = src.i64_[idx[i]];
      break;
    }
    case DataType::kDouble: {
      f64_.resize(size_ + n);
      double* out = f64_.data() + size_;
      for (size_t i = 0; i < n; ++i) out[i] = src.f64_[idx[i]];
      break;
    }
    case DataType::kBool: {
      bool_.resize(size_ + n);
      uint8_t* out = bool_.data() + size_;
      for (size_t i = 0; i < n; ++i) out[i] = src.bool_[idx[i]];
      break;
    }
    case DataType::kString:
      if (offsets_.empty()) offsets_.push_back(0);
      offsets_.reserve(offsets_.size() + n);
      for (size_t i = 0; i < n; ++i) {
        chars_.append(src.string_at(idx[i]));
        offsets_.push_back(chars_.size());
      }
      break;
  }
  if (src.null_count_ > 0) {
    for (size_t i = 0; i < n; ++i) {
      if (src.IsNull(idx[i])) SetNullBit(size_ + i);
    }
  }
  size_ += n;
  if (null_count_ > 0) null_words_.resize((size_ + 63) / 64, 0);
}

int64_t ColumnVector::ApproxBytes() const {
  const size_t words = i64_.size() + f64_.size() + offsets_.size() +
                       null_words_.size();
  return static_cast<int64_t>(words * 8 + bool_.size() + chars_.size() +
                              mixed_.size() * sizeof(Value));
}

void ColumnVector::Retype(DataType type) {
  type_ = type;
  i64_.clear();
  f64_.clear();
  bool_.clear();
  chars_.clear();
  offsets_.clear();
  switch (type) {
    case DataType::kInt64:
      i64_.resize(size_);
      break;
    case DataType::kDouble:
      f64_.resize(size_);
      break;
    case DataType::kBool:
      bool_.resize(size_);
      break;
    case DataType::kString:
      offsets_.assign(size_ + 1, 0);
      break;
  }
}

void ColumnVector::DemoteToMixed() {
  std::vector<Value> values;
  values.reserve(size_ + 1);
  for (size_t i = 0; i < size_; ++i) values.push_back(GetValue(i));
  mixed_mode_ = true;
  mixed_ = std::move(values);
  i64_.clear();
  i64_.shrink_to_fit();
  f64_.clear();
  f64_.shrink_to_fit();
  bool_.clear();
  bool_.shrink_to_fit();
  chars_.clear();
  chars_.shrink_to_fit();
  offsets_.clear();
  offsets_.shrink_to_fit();
  null_words_.clear();
  null_words_.shrink_to_fit();
}

void ColumnStore::AppendRow(const Row& row) {
  if (columns.empty() && num_rows == 0) {
    for (const Value& v : row) {
      columns.emplace_back(v.is_null() ? DataType::kInt64 : v.type());
    }
  }
  assert(row.size() == columns.size());
  for (size_t c = 0; c < columns.size(); ++c) columns[c].Append(row[c]);
  ++num_rows;
}

void ColumnStore::AppendGather(const ColumnStore& src, const uint32_t* idx,
                               size_t n, const std::vector<int>* slots) {
  const size_t width = slots != nullptr ? slots->size() : src.columns.size();
  auto source = [&](size_t c) -> const ColumnVector& {
    return src.columns[slots != nullptr ? static_cast<size_t>((*slots)[c])
                                        : c];
  };
  if (columns.empty() && num_rows == 0) {
    columns.reserve(width);
    for (size_t c = 0; c < width; ++c) columns.push_back(source(c).EmptyLike());
  }
  assert(columns.size() == width);
  for (size_t c = 0; c < width; ++c) {
    columns[c].AppendGather(source(c), idx, n);
  }
  num_rows += n;
}

int64_t ColumnStore::ApproxBytes() const {
  int64_t bytes = 0;
  for (const ColumnVector& c : columns) bytes += c.ApproxBytes();
  return bytes;
}

Row ColumnStore::MaterializeRow(size_t i) const {
  Row row;
  row.reserve(columns.size());
  for (const ColumnVector& c : columns) row.push_back(c.GetValue(i));
  return row;
}

void ColumnStore::MaterializeRows(const uint32_t* idx, size_t n,
                                  std::vector<Row>* out) const {
  const size_t base = out->size();
  out->resize(base + n);
  Row* rows = out->data() + base;
  for (size_t i = 0; i < n; ++i) rows[i].reserve(columns.size());
  for (const ColumnVector& col : columns) col.AppendToRows(idx, n, rows);
}

ColumnVector ColumnFromValues(const std::vector<Value>& values) {
  ColumnVector col(DataType::kInt64);  // the first non-NULL value retypes it
  col.Reserve(values.size());
  for (const Value& v : values) col.Append(v);
  return col;
}

}  // namespace bypass
