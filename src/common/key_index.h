// KeyIndex: the one key index behind every hash operator in the engine —
// the join index, both groupings' group maps, DISTINCT, the DISTINCT
// aggregates' seen sets and the subplan memo caches (DESIGN.md §7). It
// maps a key (one or more Values) to a dense id, handed out in order of
// first insertion, and is the only place that knows the slot layout, the
// hash rule and the key shapes.
//
// Slots: one power-of-two array of {cached 64-bit hash, key id} probed
// linearly. It doubles once the keys pass the caller's maximum load (in
// eighths); growth re-spreads the slots from their cached hashes, keys
// never move, and nothing is erased, so there are no tombstones.
//
// Shapes. The first key elects one:
//   packed   every key is int64/NULL and of one width w <= kMaxPackedWidth:
//            keys are records of w + 1 words in one fixed-stride int64
//            arena — a null bitmap word, then the w values (0 under NULL).
//            Width 1 hashes with HashInt64Key (kNullKeyHash for NULL),
//            wider keys with HashInt64Words over the whole record.
//   generic  anything else: keys are Rows of Values, compared
//            structurally (NULL = NULL, 1 = 1.0).
// Inserting a key the packed shape cannot hold (a double, string or bool,
// or another width) downgrades the index once to generic: the records
// are unpacked to Rows in id order and re-hashed. An emitted key thus
// keeps its first occurrence's exact type. A probe, by contrast, packs an
// integral double as its int64 twin, and one that cannot pack misses
// without touching the slots. Clear() re-elects the shape.
#ifndef BYPASSDB_COMMON_KEY_INDEX_H_
#define BYPASSDB_COMMON_KEY_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "types/column_vector.h"
#include "types/row.h"
#include "types/row_batch.h"

namespace bypass {

/// splitmix64 finalizer: full-avalanche mix of a raw int64 key. It is a
/// bijection, so two int64 keys with one hash are one key.
inline uint64_t HashInt64Key(int64_t key) {
  uint64_t h = static_cast<uint64_t>(key);
  h += 0x9e3779b97f4a7c15ULL;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  return h ^ (h >> 31);
}

/// Mix of `n` raw int64 words (a packed multi-column key): each word is
/// folded in turn, then the result takes the splitmix64 finalizer.
inline uint64_t HashInt64Words(const int64_t* words, size_t n) {
  uint64_t h = 0x6a09e667f3bcc909ULL;
  for (size_t j = 0; j < n; ++j) {
    h = (h ^ static_cast<uint64_t>(words[j])) * 0x9e3779b97f4a7c15ULL;
    h ^= h >> 29;
  }
  return HashInt64Key(static_cast<int64_t>(h));
}

/// Hash of a width-1 NULL key. Some int64 hashes to it too, so a
/// hash-only resolve is sound only while no NULL key is stored.
inline constexpr uint64_t kNullKeyHash = 0x7b4a5c8d9e2f1a6bULL;

/// Converts `v` to its int64 key representation when it can structurally
/// equal an int64: int64 itself, or a double with an Int64TwinOf. Returns
/// false for values that can never equal an int64 key; `*is_null` is set
/// for NULL (`*key` is then 0).
inline bool Int64KeyOf(const Value& v, int64_t* key, bool* is_null) {
  *is_null = false;
  if (v.is_int64()) {
    *key = v.int64_value();
    return true;
  }
  if (v.is_null()) {
    *is_null = true;
    *key = 0;
    return true;
  }
  return v.is_double() && Int64TwinOf(v.double_value(), key);
}

/// A key's values: `width` values of `vals`, read at `slots` when given.
/// Converts implicitly from a whole Row, a RowSlotsRef and a single Value;
/// it borrows them, so it must not outlive the call it is passed to.
struct KeyRef {
  KeyRef(const Row& row) : vals(row.data()), width(row.size()) {}
  KeyRef(const RowSlotsRef& ref)
      : vals(ref.row->data()),
        slots(ref.slots->data()),
        width(ref.slots->size()) {}
  KeyRef(const Value& v) : vals(&v), width(1) {}

  const Value& operator[](size_t j) const {
    return vals[slots != nullptr ? static_cast<size_t>(slots[j]) : j];
  }

  const Value* vals;
  const int* slots = nullptr;
  size_t width;
};

/// Scratch of a batch call: the selection's packed keys (one record per
/// row), their hashes, and whether each row packed.
struct KeyScratch {
  std::vector<int64_t> keys;
  std::vector<uint64_t> hashes;
  std::vector<uint8_t> packed;
};

/// Flat index from keys to dense ids (see the file comment). Not
/// thread-safe; the const calls may run concurrently with each other.
class KeyIndex {
 public:
  static constexpr uint32_t kNone = 0xffffffffu;
  /// Widest packed key: one null bitmap word covers its columns.
  static constexpr size_t kMaxPackedWidth = 63;

  /// The slot array doubles once the keys pass `max_load_eighths` / 8 of
  /// it: 7 for groupings and sets; a join passes 2, so a probe that
  /// misses ends at about its first slot.
  explicit KeyIndex(size_t max_load_eighths = 7)
      : max_load_(max_load_eighths) {}

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// True while the keys are packed records — the index's one shape query.
  bool packed() const { return shape_ == Shape::kPacked; }

  /// Forgets every key and the shape.
  void Clear();
  /// Pre-sizes for `n` keys: the slots now, the key storage once the
  /// first key has elected the shape.
  void Reserve(size_t n);

  /// Id of `key`, or kNone.
  uint32_t Find(KeyRef key) const;
  /// The two SQL key equalities an insert can follow.
  enum class Equality : uint8_t {
    /// Grouping and DISTINCT: NULL = NULL, and a key keeps its exact type.
    kGrouping,
    /// A join's `=`: a key holding a NULL is not inserted (its id is
    /// kNone), and an integral double inserts as its int64 twin instead
    /// of downgrading — the join never reads its keys back.
    kJoin,
  };
  /// Id of `key`, inserting it when absent; `second` is true when it was
  /// inserted.
  std::pair<uint32_t, bool> FindOrInsert(
      KeyRef key, Equality equality = Equality::kGrouping);

  /// Resolves the key at `slots` of every selected row of `batch`,
  /// calling `hit(i, id)` for each row i whose key is present. Packed
  /// keys pack column at a time from the batch's typed int64 columns,
  /// else value by value from its columns; a generic key is built from
  /// its columns row by row (BatchKey). A width-1
  /// index with no NULL key reads a typed int64 probe column in one pass
  /// with a hash-only resolve. Safe concurrently with distinct scratches.
  template <typename Hit>
  void FindBatch(const RowBatch& batch, const std::vector<int>& slots,
                 KeyScratch* scratch, Hit&& hit) const;
  /// Find-or-insert over the batch: ids[i] is the id of row i's key.
  /// Ids of new keys are handed out in row order, so row i holds the
  /// first occurrence of a new key exactly when its id is the next one.
  /// Packs like FindBatch, then inserts with the slot of row i + 8
  /// prefetched.
  void FindOrInsertBatch(const RowBatch& batch, const std::vector<int>& slots,
                         uint32_t* ids,
                         Equality equality = Equality::kGrouping);

  /// The key of `id`: packed records unpack to int64/NULL Values.
  Row Key(uint32_t id) const;
  /// Appends one column per key value holding the keys of ids
  /// [begin, end) in id order, each typed by its first non-NULL value
  /// (exact round trip, as Key). The key layout stays private.
  void AppendKeyColumns(uint32_t begin, uint32_t end,
                        std::vector<ColumnVector>* out) const;

  /// The one layout emitted code reads (DESIGN.md §12). Valid while the
  /// index is empty (null `slots`: every probe misses) or packed at width
  /// 1; `keys` then holds a {null word, value} record per id. Pointers
  /// are a snapshot: an insert may move them.
  struct Int64View {
    const void* slots = nullptr;  ///< Slot{u64 hash, u32 id} array
    uint64_t mask = 0;
    const int64_t* keys = nullptr;
    bool valid = false;
  };
  Int64View ExportInt64View() const;

  /// Bytes held: slots, packed records and generic key rows, the heap
  /// chars of their strings included.
  int64_t RetainedBytes() const;

 private:
  enum class Shape : uint8_t { kUnset, kPacked, kGeneric };

  struct Slot {
    uint64_t hash;
    uint32_t id;
  };
  static constexpr size_t kPrefetchDistance = 8;

  /// True when a slot hash equal to `rec`'s decides equality: a width-1
  /// non-NULL key while no NULL key is stored (HashInt64Key is a
  /// bijection; kNullKeyHash is the only other width-1 hash).
  bool HashDecides(const int64_t* rec) const {
    return width_ == 1 && rec[0] == 0 && !null_stored_;
  }
  bool SameRecord(const int64_t* rec, uint32_t id) const {
    const int64_t* stored = arena_.data() + size_t{id} * stride_;
    for (size_t j = 0; j < stride_; ++j) {
      if (stored[j] != rec[j]) return false;
    }
    return true;
  }
  /// Width-1 packed key `key` (not NULL) by its hash alone: with no NULL
  /// key stored, an equal hash is an equal key.
  uint32_t FindInt64(int64_t key) const {
    const uint64_t h = HashInt64Key(key);
    for (size_t pos = h & mask_;; pos = (pos + 1) & mask_) {
      const Slot& s = slots_[pos];
      if (s.id == kNone || s.hash == h) return s.id;
    }
  }

  /// Elects the shape from the first key.
  void Elect(KeyRef key, bool exact);
  /// FindOrInsert's path for a key the current shape cannot pack: it
  /// elects the shape, downgrades, or inserts a generic key.
  std::pair<uint32_t, bool> FindOrInsertSlow(KeyRef key, Equality equality);
  /// Packs `key` into one record at `out`; false when it does not fit
  /// this index's width, or holds a value that is not int64/NULL (with
  /// `exact`) or equals no int64 (without).
  bool Pack(KeyRef key, bool exact, int64_t* out) const;
  /// Packs and hashes the batch's selection into `s`; false when some
  /// row did not pack.
  bool PackBatch(const RowBatch& batch, const std::vector<int>& slots,
                 bool exact, KeyScratch* s) const;
  uint64_t HashPacked(const int64_t* rec) const {
    if (width_ != 1) return HashInt64Words(rec, stride_);
    return rec[0] != 0 ? kNullKeyHash : HashInt64Key(rec[1]);
  }
  static uint64_t HashGeneric(KeyRef key);
  uint32_t FindPacked(const int64_t* rec, uint64_t hash) const;
  uint32_t FindGeneric(KeyRef key, uint64_t hash) const;
  std::pair<uint32_t, bool> InsertPacked(const int64_t* rec, uint64_t hash);
  std::pair<uint32_t, bool> InsertGeneric(KeyRef key);
  /// Claims the empty slot at `pos` for a new key; returns its id.
  uint32_t AddSlot(size_t pos, uint64_t hash);
  void Rebuild(size_t capacity);
  void Downgrade();
  void EnsureSlots() {
    if (slots_.empty()) Rebuild(16);
  }

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  size_t size_ = 0;
  size_t max_load_;
  size_t width_ = 0;    // packed key width
  size_t stride_ = 0;   // width_ + 1: the null bitmap word
  size_t reserve_ = 0;  // Reserve() hint for the key storage
  bool null_stored_ = false;  // packed width 1: a NULL key is stored
  Shape shape_ = Shape::kUnset;
  std::vector<int64_t> arena_;  // packed records, stride_ words each
  std::vector<Row> rows_;       // generic keys
  KeyScratch batch_;            // FindOrInsertBatch scratch
};

/// The value at `slot` of the batch's i-th row, read from its column.
inline Value BatchValue(const RowBatch& batch, size_t i, size_t slot) {
  return batch.columns()->columns[slot].GetValue(batch.selection()[i]);
}

/// The key at `slots` of the batch's i-th row, built into `key`.
inline void BatchKey(const RowBatch& batch, size_t i,
                     const std::vector<int>& slots, Row* key) {
  key->resize(slots.size());
  for (size_t j = 0; j < slots.size(); ++j) {
    (*key)[j] = BatchValue(batch, i, static_cast<size_t>(slots[j]));
  }
}

/// The batch's typed int64 column at `slot`, or null.
inline const ColumnVector* TypedInt64Column(const RowBatch& batch,
                                            size_t slot) {
  const ColumnStore* store = batch.columns();
  if (slot >= store->columns.size()) return nullptr;
  const ColumnVector& col = store->columns[slot];
  return col.typed() && col.type() == DataType::kInt64 ? &col : nullptr;
}

// The per-key hot path, inline so that per-key callers (memo caches,
// DISTINCT aggregates, partial merges) pay no call per key.

inline bool KeyIndex::Pack(KeyRef key, bool exact, int64_t* out) const {
  if (key.width != width_) return false;
  uint64_t nulls = 0;
  for (size_t j = 0; j < key.width; ++j) {
    const Value& v = key[j];
    bool is_null;
    if ((exact && !v.is_int64() && !v.is_null()) ||
        !Int64KeyOf(v, &out[j + 1], &is_null)) {
      return false;
    }
    if (is_null) nulls |= uint64_t{1} << j;
  }
  out[0] = static_cast<int64_t>(nulls);
  return true;
}

inline std::pair<uint32_t, bool> KeyIndex::InsertPacked(const int64_t* rec,
                                                        uint64_t hash) {
  const bool by_hash = HashDecides(rec);
  size_t pos = hash & mask_;
  for (;; pos = (pos + 1) & mask_) {
    const Slot& s = slots_[pos];
    if (s.id == kNone) break;
    if (s.hash == hash && (by_hash || SameRecord(rec, s.id))) {
      return {s.id, false};
    }
  }
  arena_.insert(arena_.end(), rec, rec + stride_);
  if (width_ == 1 && rec[0] != 0) null_stored_ = true;
  return {AddSlot(pos, hash), true};
}

inline std::pair<uint32_t, bool> KeyIndex::FindOrInsert(KeyRef key,
                                                        Equality equality) {
  const bool join = equality == Equality::kJoin;
  int64_t rec[kMaxPackedWidth + 1];
  if (shape_ == Shape::kPacked && Pack(key, !join, rec)) {
    if (join && rec[0] != 0) return {kNone, false};
    return InsertPacked(rec, HashPacked(rec));
  }
  return FindOrInsertSlow(key, equality);
}

template <typename Hit>
void KeyIndex::FindBatch(const RowBatch& batch, const std::vector<int>& slots,
                         KeyScratch* scratch, Hit&& hit) const {
  const size_t n = batch.size();
  if (size_ == 0 || n == 0) return;
  const std::vector<uint32_t>& sel = batch.selection();
  const ColumnVector* col =
      shape_ == Shape::kPacked && width_ == 1 && !null_stored_ &&
              slots.size() == 1
          ? TypedInt64Column(batch, static_cast<size_t>(slots[0]))
          : nullptr;
  if (col != nullptr) {
    // One pass off the typed column, resolved by hash alone; a NULL probe
    // misses, since no NULL key is stored.
    const int64_t* data = col->i64_data();
    const bool nulls = col->has_nulls();
    for (size_t i = 0; i < n; ++i) {
      const uint32_t idx = sel[i];
      if (nulls && col->IsNull(idx)) continue;
      const uint32_t id = FindInt64(data[idx]);
      if (id != kNone) hit(i, id);
    }
    return;
  }
  if (shape_ == Shape::kPacked) {
    PackBatch(batch, slots, /*exact=*/false, scratch);
    const uint64_t* hashes = scratch->hashes.data();
    for (size_t i = 0; i < n; ++i) {
      if (i + kPrefetchDistance < n) {
        __builtin_prefetch(&slots_[hashes[i + kPrefetchDistance] & mask_]);
      }
      if (scratch->packed[i] == 0) continue;
      const uint32_t id =
          FindPacked(scratch->keys.data() + i * stride_, hashes[i]);
      if (id != kNone) hit(i, id);
    }
    return;
  }
  Row key;
  for (size_t i = 0; i < n; ++i) {
    BatchKey(batch, i, slots, &key);
    const uint32_t id = FindGeneric(key, HashGeneric(key));
    if (id != kNone) hit(i, id);
  }
}

}  // namespace bypass

#endif  // BYPASSDB_COMMON_KEY_INDEX_H_
