#include "common/key_index.h"

#include <algorithm>
#include <string>

namespace bypass {

void KeyIndex::Clear() {
  slots_.clear();
  mask_ = 0;
  size_ = 0;
  width_ = 0;
  stride_ = 0;
  reserve_ = 0;
  null_stored_ = false;
  shape_ = Shape::kUnset;
  arena_.clear();
  rows_.clear();
}

void KeyIndex::Reserve(size_t n) {
  reserve_ = std::max(reserve_, n);
  size_t cap = 16;
  while (cap * max_load_ < (n + 1) * 8) cap <<= 1;
  if (cap > slots_.size()) Rebuild(cap);
  if (shape_ == Shape::kPacked) arena_.reserve(reserve_ * stride_);
  if (shape_ == Shape::kGeneric) rows_.reserve(reserve_);
}

void KeyIndex::Elect(KeyRef key, bool exact) {
  shape_ = Shape::kGeneric;
  if (key.width <= kMaxPackedWidth) {
    width_ = key.width;
    stride_ = width_ + 1;
    int64_t rec[kMaxPackedWidth + 1];
    if (Pack(key, exact, rec)) shape_ = Shape::kPacked;
  }
  Reserve(reserve_);
}

bool KeyIndex::PackBatch(const RowBatch& batch, const std::vector<int>& slots,
                         bool exact, KeyScratch* s) const {
  const size_t n = batch.size();
  const size_t w = width_;
  const std::vector<uint32_t>& sel = batch.selection();
  s->keys.resize(n * stride_);
  s->hashes.resize(n);
  s->packed.assign(n, slots.size() == w ? 1 : 0);
  if (slots.size() != w) return false;
  int64_t* keys = s->keys.data();
  for (size_t i = 0; i < n; ++i) keys[i * stride_] = 0;  // null bitmaps
  bool all = true;
  for (size_t j = 0; j < w; ++j) {
    const size_t slot = static_cast<size_t>(slots[j]);
    const int64_t bit = static_cast<int64_t>(uint64_t{1} << j);
    if (const ColumnVector* col = TypedInt64Column(batch, slot)) {
      const int64_t* data = col->i64_data();  // 0 under NULL
      for (size_t i = 0; i < n; ++i) keys[i * stride_ + j + 1] = data[sel[i]];
      if (col->has_nulls()) {
        for (size_t i = 0; i < n; ++i) {
          if (col->IsNull(sel[i])) keys[i * stride_] |= bit;
        }
      }
      continue;
    }
    for (size_t i = 0; i < n; ++i) {
      if (s->packed[i] == 0) continue;
      const Value v = BatchValue(batch, i, slot);
      bool is_null;
      if ((exact && !v.is_int64() && !v.is_null()) ||
          !Int64KeyOf(v, &keys[i * stride_ + j + 1], &is_null)) {
        s->packed[i] = 0;
        all = false;
      } else if (is_null) {
        keys[i * stride_] |= bit;
      }
    }
  }
  for (size_t i = 0; i < n; ++i) s->hashes[i] = HashPacked(keys + i * stride_);
  return all;
}

uint64_t KeyIndex::HashGeneric(KeyRef key) {
  uint64_t h = 0x345678;
  for (size_t j = 0; j < key.width; ++j) h = h * 1000003 + key[j].Hash();
  return h;
}

uint32_t KeyIndex::FindPacked(const int64_t* rec, uint64_t hash) const {
  const bool by_hash = HashDecides(rec);
  for (size_t pos = hash & mask_;; pos = (pos + 1) & mask_) {
    const Slot& s = slots_[pos];
    if (s.id == kNone) return kNone;
    if (s.hash == hash && (by_hash || SameRecord(rec, s.id))) return s.id;
  }
}

uint32_t KeyIndex::FindGeneric(KeyRef key, uint64_t hash) const {
  for (size_t pos = hash & mask_;; pos = (pos + 1) & mask_) {
    const Slot& s = slots_[pos];
    if (s.id == kNone) return kNone;
    if (s.hash != hash) continue;
    const Row& stored = rows_[s.id];
    bool equal = stored.size() == key.width;
    for (size_t j = 0; equal && j < key.width; ++j) {
      equal = stored[j].StructurallyEquals(key[j]);
    }
    if (equal) return s.id;
  }
}

uint32_t KeyIndex::Find(KeyRef key) const {
  if (size_ == 0) return kNone;
  if (shape_ == Shape::kPacked) {
    int64_t rec[kMaxPackedWidth + 1];
    if (!Pack(key, /*exact=*/false, rec)) return kNone;
    return FindPacked(rec, HashPacked(rec));
  }
  return FindGeneric(key, HashGeneric(key));
}

std::pair<uint32_t, bool> KeyIndex::FindOrInsertSlow(KeyRef key,
                                                     Equality equality) {
  const bool join = equality == Equality::kJoin;
  for (size_t j = 0; join && j < key.width; ++j) {
    if (key[j].is_null()) return {kNone, false};
  }
  if (shape_ == Shape::kUnset) Elect(key, /*exact=*/!join);
  EnsureSlots();
  if (shape_ == Shape::kPacked) {
    int64_t rec[kMaxPackedWidth + 1];
    if (Pack(key, !join, rec)) return InsertPacked(rec, HashPacked(rec));
    Downgrade();
  }
  return InsertGeneric(key);
}

void KeyIndex::FindOrInsertBatch(const RowBatch& batch,
                                 const std::vector<int>& slots, uint32_t* ids,
                                 Equality equality) {
  const size_t n = batch.size();
  if (n == 0) return;
  const bool join = equality == Equality::kJoin;
  if (shape_ == Shape::kUnset) {
    Row first;  // elects from the first row's key
    BatchKey(batch, 0, slots, &first);
    Elect(first, /*exact=*/!join);
  }
  EnsureSlots();
  if (shape_ == Shape::kPacked) {
    if (PackBatch(batch, slots, /*exact=*/!join, &batch_)) {
      const int64_t* keys = batch_.keys.data();
      const uint64_t* hashes = batch_.hashes.data();
      for (size_t i = 0; i < n; ++i) {
        if (i + kPrefetchDistance < n) {
          __builtin_prefetch(&slots_[hashes[i + kPrefetchDistance] & mask_]);
        }
        const int64_t* rec = keys + i * stride_;
        ids[i] =
            join && rec[0] != 0 ? kNone : InsertPacked(rec, hashes[i]).first;
      }
      return;
    }
    Downgrade();
  }
  Row key;
  for (size_t i = 0; i < n; ++i) {
    BatchKey(batch, i, slots, &key);
    ids[i] = FindOrInsert(key, equality).first;
  }
}

std::pair<uint32_t, bool> KeyIndex::InsertGeneric(KeyRef key) {
  const uint64_t hash = HashGeneric(key);
  const uint32_t id = FindGeneric(key, hash);
  if (id != kNone) return {id, false};
  size_t pos = hash & mask_;
  while (slots_[pos].id != kNone) pos = (pos + 1) & mask_;
  Row row(key.width);
  for (size_t j = 0; j < key.width; ++j) row[j] = key[j];
  rows_.push_back(std::move(row));
  return {AddSlot(pos, hash), true};
}

uint32_t KeyIndex::AddSlot(size_t pos, uint64_t hash) {
  const uint32_t id = static_cast<uint32_t>(size_++);
  slots_[pos] = Slot{hash, id};
  // Grow before the next insert could pass the maximum load.
  if ((size_ + 1) * 8 > slots_.size() * max_load_) {
    Rebuild(slots_.size() * 2);
  }
  return id;
}

void KeyIndex::Rebuild(size_t capacity) {
  std::vector<Slot> old(capacity, Slot{0, kNone});
  old.swap(slots_);
  mask_ = capacity - 1;
  for (const Slot& s : old) {
    if (s.id == kNone) continue;
    size_t pos = s.hash & mask_;
    while (slots_[pos].id != kNone) pos = (pos + 1) & mask_;
    slots_[pos] = s;
  }
}

void KeyIndex::Downgrade() {
  rows_.reserve(std::max(reserve_, size_));
  for (uint32_t id = 0; id < size_; ++id) rows_.push_back(Key(id));
  shape_ = Shape::kGeneric;
  null_stored_ = false;
  arena_.clear();
  arena_.shrink_to_fit();
  std::fill(slots_.begin(), slots_.end(), Slot{0, kNone});
  for (uint32_t id = 0; id < size_; ++id) {
    const uint64_t hash = HashGeneric(rows_[id]);
    size_t pos = hash & mask_;
    while (slots_[pos].id != kNone) pos = (pos + 1) & mask_;
    slots_[pos] = Slot{hash, id};
  }
}

Row KeyIndex::Key(uint32_t id) const {
  if (shape_ != Shape::kPacked) return rows_[id];
  const int64_t* rec = arena_.data() + size_t{id} * stride_;
  const uint64_t nulls = static_cast<uint64_t>(rec[0]);
  Row row;
  row.reserve(width_);
  for (size_t j = 0; j < width_; ++j) {
    row.push_back(((nulls >> j) & 1) != 0 ? Value::Null()
                                          : Value::Int64(rec[j + 1]));
  }
  return row;
}

void KeyIndex::AppendKeyColumns(uint32_t begin, uint32_t end,
                                std::vector<ColumnVector>* out) const {
  const bool packed = shape_ == Shape::kPacked;
  const size_t width = packed ? width_ : rows_.empty() ? 0 : rows_[0].size();
  for (size_t j = 0; j < width; ++j) {
    ColumnVector col(DataType::kInt64);  // the first non-NULL key retypes it
    for (uint32_t id = begin; id < end; ++id) {
      if (!packed) {
        col.Append(rows_[id][j]);
        continue;
      }
      const int64_t* rec = arena_.data() + size_t{id} * stride_;
      col.Append(((static_cast<uint64_t>(rec[0]) >> j) & 1) != 0
                     ? Value::Null()
                     : Value::Int64(rec[j + 1]));
    }
    out->push_back(std::move(col));
  }
}

int64_t KeyIndex::RetainedBytes() const {
  size_t bytes = slots_.capacity() * sizeof(Slot) +
                 arena_.capacity() * sizeof(int64_t) +
                 rows_.capacity() * sizeof(Row);
  const size_t inline_chars = std::string().capacity();
  for (const Row& row : rows_) {
    bytes += row.capacity() * sizeof(Value);
    for (const Value& v : row) {
      // A string longer than the inline buffer holds its chars on the heap.
      if (v.is_string() && v.string_value().capacity() > inline_chars) {
        bytes += v.string_value().capacity() + 1;
      }
    }
  }
  return static_cast<int64_t>(bytes);
}

}  // namespace bypass
