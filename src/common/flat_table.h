// FlatRowMap: a KeyIndex (common/key_index.h, DESIGN.md §7) plus one
// value per key id — the groupings' group maps and the subplan memo
// caches. Keys live only in the index; they are unpacked when a caller
// reads them back (emit, merge).
#ifndef BYPASSDB_COMMON_FLAT_TABLE_H_
#define BYPASSDB_COMMON_FLAT_TABLE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/key_index.h"
#include "types/row.h"
#include "types/row_batch.h"

namespace bypass {

/// Flat hash map from keys (structural semantics, NULL == NULL) to
/// values, dense by key id: values() is in insertion order, which makes
/// downstream emission deterministic. Not thread-safe.
template <typename V>
class FlatRowMap {
 public:
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

  void Clear() {
    index_.Clear();
    values_.clear();
  }

  /// Pre-sizes the map for `n` keys.
  void Reserve(size_t n) {
    index_.Reserve(n);
    values_.reserve(n);
  }

  KeyIndex& index() { return index_; }
  const KeyIndex& index() const { return index_; }
  /// Values by key id.
  std::vector<V>& values() { return values_; }
  const std::vector<V>& values() const { return values_; }
  /// The key of id `id`.
  Row key(uint32_t id) const { return index_.Key(id); }

  V* Find(KeyRef key) {
    const uint32_t id = index_.Find(key);
    return id == KeyIndex::kNone ? nullptr : &values_[id];
  }
  const V* Find(KeyRef key) const {
    return const_cast<FlatRowMap*>(this)->Find(key);
  }

  /// Id of `key`, inserting it with value `make()` when absent.
  template <typename Make>
  uint32_t FindOrEmplaceId(KeyRef key, Make&& make) {
    const auto [id, inserted] = index_.FindOrInsert(key);
    if (inserted) values_.push_back(make());
    return id;
  }
  template <typename Make>
  V& FindOrEmplace(KeyRef key, Make&& make) {
    return values_[FindOrEmplaceId(key, std::forward<Make>(make))];
  }

  /// Batch find-or-insert of the key at `slots` of every selected row
  /// (KeyIndex::FindOrInsertBatch): (*ids)[i] is row i's id, and each new
  /// key gets value `make()`.
  template <typename Make>
  void FindOrEmplaceBatch(const RowBatch& batch, const std::vector<int>& slots,
                          Make&& make, std::vector<uint32_t>* ids) {
    ids->resize(batch.size());
    index_.FindOrInsertBatch(batch, slots, ids->data());
    while (values_.size() < index_.size()) values_.push_back(make());
  }

 private:
  KeyIndex index_;
  std::vector<V> values_;
};

}  // namespace bypass

#endif  // BYPASSDB_COMMON_FLAT_TABLE_H_
