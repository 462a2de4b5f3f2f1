// Flat open-addressing hash containers shared by every hash operator in
// the engine (joins, grouping, DISTINCT, subplan memo caches). Replaces
// the node-based std::unordered_map<Row, ...> tables whose per-entry
// allocations and pointer-chasing dominated the probe-side profiles
// (BENCH_PR1: unnested q2d at 1.17× vs seed while scalar operators hit
// ~2×).
//
// Layout (DESIGN.md §7): a contiguous power-of-two slot array of
// {cached 64-bit hash, dense entry index} pairs probed linearly, plus
// dense side arrays holding the owned keys/values in insertion order.
// Rehashing redistributes the slot array from the cached hashes alone —
// keys are never re-hashed or moved — and nothing here supports erase, so
// there are no tombstones (operators only ever clear whole tables).
//
// Fixed-width fast path: a table whose keys are single-column int64 (the
// dominant shape — every RST/TPC-H join and group key) stores the raw
// int64 beside each entry and hashes it with a splitmix64 finalizer,
// skipping Value-vector hashing entirely. The mode is chosen from the
// first inserted key and transparently downgraded (one rebuild) if a key
// of another shape ever arrives. Because int64 and double Values compare
// structurally equal when numerically equal (1 == 1.0), probes convert
// exactly-representable doubles to int64 before hashing; probes that
// cannot equal any int64 key (strings, bools, fractional doubles) miss
// without touching the table.
#ifndef BYPASSDB_COMMON_FLAT_TABLE_H_
#define BYPASSDB_COMMON_FLAT_TABLE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.h"
#include "types/column_vector.h"
#include "types/row.h"
#include "types/row_batch.h"

namespace bypass {

namespace flat_internal {

/// splitmix64 finalizer: full-avalanche mix of a raw int64 key.
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

/// Hash reserved for NULL keys in int64 mode (NULL == NULL structurally).
inline constexpr uint64_t kNullKeyHash = 0x7b4a5c8d9e2f1a6bULL;

/// Converts `v` to its int64 key representation when it can structurally
/// equal an int64 (int64 itself, or a double exactly representable as
/// int64). Returns false for values that can never equal an int64 key;
/// `*is_null` is set for NULL (which participates in structural keys).
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
  if (v.is_double()) {
    const double d = v.double_value();
    // Guard the cast: int64 range is [-2^63, 2^63); 2^63 itself is not
    // representable, so compare against the exact double bounds.
    if (d >= -9223372036854775808.0 && d < 9223372036854775808.0) {
      const int64_t i = static_cast<int64_t>(d);
      if (static_cast<double>(i) == d) {
        *key = i;
        return true;
      }
    }
  }
  return false;
}

/// Smallest power of two >= max(16, needed).
inline size_t NextPow2Capacity(size_t needed) {
  size_t cap = 16;
  while (cap < needed) cap <<= 1;
  return cap;
}

}  // namespace flat_internal

/// Flat hash map from owned Row keys (structural semantics, NULL == NULL)
/// to values. Find-or-insert probes accept a transparent RowSlotsRef so
/// the key row is only materialized for genuinely new entries, matching
/// the RowKeyHash/RowKeyEq contract of the previous unordered_map tables.
/// Iteration (entries()) is dense and in insertion order, which makes
/// downstream emission deterministic. Not thread-safe.
template <typename V>
class FlatRowMap {
 public:
  struct Entry {
    Row key;
    V value;
  };

  FlatRowMap() = default;
  FlatRowMap(FlatRowMap&&) noexcept = default;
  FlatRowMap& operator=(FlatRowMap&&) noexcept = default;
  FlatRowMap(const FlatRowMap&) = delete;
  FlatRowMap& operator=(const FlatRowMap&) = delete;

  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  void Clear() {
    entries_.clear();
    hashes_.clear();
    i64_.clear();
    slots_.clear();
    mask_ = 0;
    mode_ = Mode::kUnset;
  }

  /// Pre-sizes the slot array for `n` entries (one rehash at most).
  void Reserve(size_t n) {
    entries_.reserve(n);
    hashes_.reserve(n);
    const size_t cap = flat_internal::NextPow2Capacity(n + n / 2 + 1);
    if (cap > slots_.size()) Rebuild(cap);
  }

  /// Raw-slot view of an int64-mode table for the codegen tier: the
  /// emitted group-by accumulate loop probes the slot array directly
  /// (DESIGN.md §12). Valid while the map is in int64 mode (or still
  /// empty/unset — then `slots` is null and every compiled probe
  /// misses); a table downgraded to generic hashing returns an invalid
  /// view and the caller falls back to the interpreter for the batch.
  /// Pointers are a snapshot: any insert may grow the backing arrays,
  /// so the view must be re-exported per batch.
  struct Int64SlotView {
    const void* slots = nullptr;  ///< Slot{u64 hash, u32 idx} array
    uint64_t mask = 0;
    const void* keys = nullptr;   ///< I64Key{int64 key, bool null} array
    uint64_t num_entries = 0;
    bool valid = false;
  };
  Int64SlotView ExportInt64View() const {
    static_assert(sizeof(Slot) == 16 && offsetof(Slot, idx) == 8,
                  "emitted CgGSlot mirrors this layout");
    static_assert(sizeof(I64Key) == 16 && offsetof(I64Key, null) == 8,
                  "emitted CgGKey mirrors this layout");
    Int64SlotView v;
    if (mode_ == Mode::kGeneric) return v;
    v.valid = true;
    if (mode_ == Mode::kInt64 && !slots_.empty()) {
      v.slots = slots_.data();
      v.mask = mask_;
      v.keys = i64_.data();
      v.num_entries = entries_.size();
    }
    return v;
  }

  /// FindOrEmplaceInt64 variant returning the dense entry index — the
  /// codegen tier's phase-B insert path, which addresses its SoA
  /// accumulators by entry index. Only callable while the exported view
  /// is valid (int64 or unset mode); the int64-only inserts here can
  /// never force a downgrade.
  template <typename Make>
  uint32_t FindOrEmplaceInt64Idx(int64_t key, bool is_null, Make&& make) {
    if (entries_.empty() && mode_ == Mode::kUnset) mode_ = Mode::kInt64;
    BYPASS_CHECK_MSG(mode_ == Mode::kInt64,
                     "indexed int64 insert on a downgraded map");
    if (slots_.empty()) Rebuild(16);
    ProbeKey p;
    p.i64 = key;
    p.null = is_null;
    p.hash = is_null ? flat_internal::kNullKeyHash
                     : flat_internal::HashInt64Key(key);
    size_t pos = p.hash & mask_;
    while (true) {
      const Slot& s = slots_[pos];
      if (s.idx == kEmpty) break;
      if (s.hash == p.hash) {
        const I64Key& e = i64_[s.idx];
        if (e.null == p.null && (p.null || e.key == p.i64)) {
          return s.idx;
        }
      }
      pos = (pos + 1) & mask_;
    }
    Row row;
    row.push_back(is_null ? Value::Null() : Value::Int64(key));
    InsertEntry(p, std::move(row), make());
    return static_cast<uint32_t>(entries_.size() - 1);
  }

  /// Entries in insertion order.
  const std::vector<Entry>& entries() const { return entries_; }
  /// Mutable entries, for moving keys/values out during a merge; callers
  /// must Clear() the map afterwards (the index still references them).
  std::vector<Entry>& mutable_entries() { return entries_; }

  V* Find(const Row& key) { return FindImpl(key); }
  const V* Find(const Row& key) const {
    return const_cast<FlatRowMap*>(this)->FindImpl(key);
  }
  V* Find(const RowSlotsRef& ref) { return FindImpl(ref); }
  const V* Find(const RowSlotsRef& ref) const {
    return const_cast<FlatRowMap*>(this)->FindImpl(ref);
  }

  /// Returns the value for the key addressed by `ref`, inserting
  /// `make()` under the materialized (projected) key when absent.
  template <typename Make>
  V& FindOrEmplace(const RowSlotsRef& ref, Make&& make) {
    return FindOrEmplaceImpl(
        ref, [&] { return ProjectRow(*ref.row, *ref.slots); },
        std::forward<Make>(make));
  }

  /// Find-or-insert with an owned key (moved in only when absent).
  template <typename Make>
  V& FindOrEmplace(Row&& key, Make&& make) {
    return FindOrEmplaceImpl(
        key, [&] { return std::move(key); }, std::forward<Make>(make));
  }

  /// Int64 fast-path find-or-insert for callers that already hold the raw
  /// key (typed-column group-by): no Value is touched on the probe, and a
  /// single-Value key row is materialized only for genuinely new entries.
  /// An empty table adopts int64 mode; a table already downgraded to
  /// generic mode routes through the Row path so hashes stay consistent.
  template <typename Make>
  V& FindOrEmplaceInt64(int64_t key, bool is_null, Make&& make) {
    if (entries_.empty() && mode_ == Mode::kUnset) mode_ = Mode::kInt64;
    if (mode_ != Mode::kInt64) {
      Row row;
      row.push_back(is_null ? Value::Null() : Value::Int64(key));
      return FindOrEmplace(std::move(row), std::forward<Make>(make));
    }
    if (slots_.empty()) Rebuild(16);
    ProbeKey p;
    p.i64 = key;
    p.null = is_null;
    p.hash = is_null ? flat_internal::kNullKeyHash
                     : flat_internal::HashInt64Key(key);
    size_t pos = p.hash & mask_;
    while (true) {
      const Slot& s = slots_[pos];
      if (s.idx == kEmpty) break;
      if (s.hash == p.hash) {
        const I64Key& e = i64_[s.idx];
        if (e.null == p.null && (p.null || e.key == p.i64)) {
          return entries_[s.idx].value;
        }
      }
      pos = (pos + 1) & mask_;
    }
    Row row;
    row.push_back(is_null ? Value::Null() : Value::Int64(key));
    return InsertEntry(p, std::move(row), make());
  }

  /// Unconditional insert of a key known to be absent (merge paths).
  void EmplaceNew(Row&& key, V&& value) {
    PrepareForInsert(key);
    ProbeKey p = ProbeFor(key);
    if (!p.compatible) {
      Downgrade();
      p = ProbeFor(key);
    }
    InsertEntry(p, std::move(key), std::move(value));
  }

 private:
  enum class Mode { kUnset, kInt64, kGeneric };

  struct Slot {
    uint64_t hash;
    uint32_t idx;
  };
  static constexpr uint32_t kEmpty = 0xffffffffu;

  /// Entry-side int64 key cache (int64 mode only).
  struct I64Key {
    int64_t key;
    bool null;
  };

  /// A fully resolved probe: hash plus the int64 view when applicable.
  struct ProbeKey {
    uint64_t hash = 0;
    int64_t i64 = 0;
    bool null = false;
    /// False when the probe's shape cannot live in the current mode
    /// (int64 mode and a multi-column / non-convertible key).
    bool compatible = true;
    /// True when, additionally, an incompatible probe could never equal
    /// any stored key (pure lookup can miss without downgrade).
    bool never_matches = false;
  };

  ProbeKey ProbeFor(const Row& key) const {
    ProbeKey p;
    if (mode_ == Mode::kInt64) {
      if (key.size() != 1 ||
          !flat_internal::Int64KeyOf(key[0], &p.i64, &p.null)) {
        p.compatible = false;
        p.never_matches = true;  // cannot equal any single int64/NULL key
        return p;
      }
      p.hash = p.null ? flat_internal::kNullKeyHash
                      : flat_internal::HashInt64Key(p.i64);
      return p;
    }
    p.hash = HashRow(key);
    return p;
  }

  ProbeKey ProbeFor(const RowSlotsRef& ref) const {
    ProbeKey p;
    if (mode_ == Mode::kInt64) {
      if (ref.slots->size() != 1 ||
          !flat_internal::Int64KeyOf(
              (*ref.row)[static_cast<size_t>((*ref.slots)[0])], &p.i64,
              &p.null)) {
        p.compatible = false;
        p.never_matches = true;
        return p;
      }
      p.hash = p.null ? flat_internal::kNullKeyHash
                      : flat_internal::HashInt64Key(p.i64);
      return p;
    }
    p.hash = HashRowSlots(*ref.row, *ref.slots);
    return p;
  }

  bool EntryEquals(uint32_t idx, const ProbeKey& p, const Row& key) const {
    if (mode_ == Mode::kInt64) {
      const I64Key& e = i64_[idx];
      return e.null == p.null && (p.null || e.key == p.i64);
    }
    return RowsStructurallyEqual(entries_[idx].key, key);
  }

  bool EntryEquals(uint32_t idx, const ProbeKey& p,
                   const RowSlotsRef& ref) const {
    if (mode_ == Mode::kInt64) {
      const I64Key& e = i64_[idx];
      return e.null == p.null && (p.null || e.key == p.i64);
    }
    return RowKeyEq{}(ref, entries_[idx].key);
  }

  template <typename K>
  V* FindImpl(const K& key) {
    if (entries_.empty()) return nullptr;
    const ProbeKey p = ProbeFor(key);
    if (p.never_matches) return nullptr;
    size_t pos = p.hash & mask_;
    while (true) {
      const Slot& s = slots_[pos];
      if (s.idx == kEmpty) return nullptr;
      if (s.hash == p.hash && EntryEquals(s.idx, p, key)) {
        return &entries_[s.idx].value;
      }
      pos = (pos + 1) & mask_;
    }
  }

  /// Lazily picks the key mode from the first key and ensures the slot
  /// array exists; called at the top of every insert path.
  template <typename K>
  void PrepareForInsert(const K& key) {
    if (entries_.empty() && mode_ == Mode::kUnset) InitModeFrom(key);
    if (slots_.empty()) Rebuild(16);
  }

  template <typename K, typename MakeKey, typename MakeValue>
  V& FindOrEmplaceImpl(const K& key, MakeKey&& make_key,
                       MakeValue&& make_value) {
    PrepareForInsert(key);
    ProbeKey p = ProbeFor(key);
    if (!p.compatible) {
      // A key of a new shape forces the generic representation; the
      // rebuild re-hashes every stored entry once.
      Downgrade();
      p = ProbeFor(key);
    }
    size_t pos = p.hash & mask_;
    while (true) {
      const Slot& s = slots_[pos];
      if (s.idx == kEmpty) break;
      if (s.hash == p.hash && EntryEquals(s.idx, p, key)) {
        return entries_[s.idx].value;
      }
      pos = (pos + 1) & mask_;
    }
    return InsertEntry(p, make_key(), make_value());
  }

  V& InsertEntry(const ProbeKey& p, Row&& key, V&& value) {
    // In int64 mode an owned key may still be incompatible when coming
    // through EmplaceNew; callers downgraded already, so p.compatible
    // holds here.
    const uint32_t idx = static_cast<uint32_t>(entries_.size());
    entries_.push_back(Entry{std::move(key), std::move(value)});
    hashes_.push_back(p.hash);
    if (mode_ == Mode::kInt64) i64_.push_back(I64Key{p.i64, p.null});
    // Grow at 7/8 load *before* placing, so placement never splits.
    if ((entries_.size() + 1) * 8 > slots_.size() * 7) {
      Rebuild(slots_.size() * 2);
    } else {
      Place(p.hash, idx);
    }
    return entries_.back().value;
  }

  void InitModeFrom(const Row& key) {
    int64_t k;
    bool is_null;
    mode_ = (key.size() == 1 &&
             flat_internal::Int64KeyOf(key[0], &k, &is_null))
                ? Mode::kInt64
                : Mode::kGeneric;
  }
  void InitModeFrom(const RowSlotsRef& ref) {
    int64_t k;
    bool is_null;
    mode_ = (ref.slots->size() == 1 &&
             flat_internal::Int64KeyOf(
                 (*ref.row)[static_cast<size_t>((*ref.slots)[0])], &k,
                 &is_null))
                ? Mode::kInt64
                : Mode::kGeneric;
  }

  void Place(uint64_t hash, uint32_t idx) {
    size_t pos = hash & mask_;
    while (slots_[pos].idx != kEmpty) pos = (pos + 1) & mask_;
    slots_[pos] = Slot{hash, idx};
  }

  /// Rebuilds the slot array at `capacity` from the cached hashes.
  void Rebuild(size_t capacity) {
    slots_.assign(capacity, Slot{0, kEmpty});
    mask_ = capacity - 1;
    for (uint32_t i = 0; i < entries_.size(); ++i) {
      Place(hashes_[i], i);
    }
  }

  /// Switches an int64-mode table to generic hashing (re-hashes every
  /// entry once); triggered by the first key of a different shape.
  void Downgrade() {
    if (mode_ != Mode::kInt64) {
      if (mode_ == Mode::kUnset) mode_ = Mode::kGeneric;
      return;
    }
    mode_ = Mode::kGeneric;
    i64_.clear();
    i64_.shrink_to_fit();
    for (size_t i = 0; i < entries_.size(); ++i) {
      hashes_[i] = HashRow(entries_[i].key);
    }
    Rebuild(slots_.empty() ? 16 : slots_.size());
  }

  std::vector<Entry> entries_;
  std::vector<uint64_t> hashes_;  // cached per-entry hash (rehash fuel)
  std::vector<I64Key> i64_;       // int64 mode only, aligned with entries_
  std::vector<Slot> slots_;
  size_t mask_ = 0;
  Mode mode_ = Mode::kUnset;
};

/// Flat hash set of Rows (structural semantics, NULL == NULL): the
/// Distinct operator's streaming dedup and the DISTINCT aggregates' seen
/// sets. Keys iterate in first-occurrence order; one probe per insert.
///
/// Packed mode: while every key is all-int64/NULL and of one width
/// w <= kMaxPackedWidth, keys are fixed-width records of w + 1 words in
/// one int64 arena — a null bitmap word, then the w values (0 under
/// NULL). Equality is a word compare and the hash mixes the words, so no
/// Value is hashed and no Row is allocated. The first key of any other
/// kind (a double, string or bool, or another width) downgrades the set
/// once to generic mode: the stored keys are re-materialized as Rows in
/// order and re-hashed. Generic mode hashes and compares Values
/// structurally (1 = 1.0). The first key elects the mode; Clear()
/// re-elects it. Not thread-safe.
class FlatRowSet {
 public:
  /// Widest packed key: the null bitmap is one word.
  static constexpr size_t kMaxPackedWidth = 63;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// True while the keys are held packed (for tests).
  bool packed() const { return mode_ == Mode::kPacked; }

  void Clear() {
    arena_.clear();
    rows_.clear();
    slots_.clear();
    mask_ = 0;
    size_ = 0;
    stride_ = 0;
    reserve_ = 0;
    mode_ = Mode::kUnset;
  }

  /// Pre-sizes the set for `n` keys: the slot array now, the key storage
  /// once the first key has elected the mode.
  void Reserve(size_t n) {
    reserve_ = std::max(reserve_, n);
    const size_t cap = flat_internal::NextPow2Capacity(n + n / 7 + 2);
    if (cap > slots_.size()) Rebuild(cap);
    ReserveStorage();
  }

  /// True when `row` was not present (and is now inserted).
  bool Insert(const Row& row) { return InsertValues(row.data(), row.size()); }

  /// Single-value key, as a one-column row (DISTINCT aggregates).
  bool Insert(const Value& v) { return InsertValues(&v, 1); }

  /// Inserts every selected row of `batch` and narrows its selection to
  /// the rows that were new, in order (a duplicate within the batch
  /// keeps its first occurrence). In packed mode the whole selection is
  /// packed and hashed first — from the batch's typed columns when it
  /// carries them, else from its rows — and then probed with the slot of
  /// row i + kPrefetchDistance prefetched.
  void InsertBatch(RowBatch* batch) {
    const size_t n = batch->size();
    if (n == 0) return;
    if (mode_ == Mode::kUnset) {
      const Row& first = batch->row(0);
      Elect(first.data(), first.size());
    }
    std::vector<uint32_t>& sel = batch->selection();
    size_t kept = 0;
    if (mode_ == Mode::kPacked) {
      if (PackBatch(*batch)) {
        if (slots_.empty()) Rebuild(16);  // prefetches index it
        const int64_t* keys = batch_keys_.data();
        const uint64_t* hashes = batch_hashes_.data();
        for (size_t i = 0; i < n; ++i) {
          if (i + kPrefetchDistance < n) {
            __builtin_prefetch(
                &slots_[hashes[i + kPrefetchDistance] & mask_]);
          }
          if (InsertPacked(keys + i * stride_, hashes[i])) {
            sel[kept++] = sel[i];
          }
        }
        sel.resize(kept);
        return;
      }
      Downgrade();
    }
    for (size_t i = 0; i < n; ++i) {
      const Row& row = batch->row(i);
      if (InsertGeneric(row.data(), row.size())) sel[kept++] = sel[i];
    }
    sel.resize(kept);
  }

  bool Contains(const Row& row) const {
    if (size_ == 0) return false;
    if (mode_ == Mode::kPacked) {
      // Integral doubles equal their int64 twins; any other value that
      // cannot pack can equal no stored key.
      if (row.size() + 1 != stride_) return false;
      int64_t key[kMaxPackedWidth + 1];
      uint64_t nulls = 0;
      for (size_t j = 0; j < row.size(); ++j) {
        bool is_null = false;
        if (!flat_internal::Int64KeyOf(row[j], &key[j + 1], &is_null)) {
          return false;
        }
        if (is_null) nulls |= uint64_t{1} << j;
      }
      key[0] = static_cast<int64_t>(nulls);
      return FindPacked(key, HashPacked(key)) != kEmpty;
    }
    const uint64_t hash = HashGeneric(row.data(), row.size());
    for (size_t pos = hash & mask_;; pos = (pos + 1) & mask_) {
      const Slot& s = slots_[pos];
      if (s.idx == kEmpty) return false;
      if (s.hash == hash &&
          EqualsGeneric(rows_[s.idx], row.data(), row.size())) {
        return true;
      }
    }
  }

  /// Stored rows in first-occurrence order (packed keys are
  /// materialized one at a time).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    if (mode_ != Mode::kPacked) {
      for (const Row& row : rows_) fn(row);
      return;
    }
    for (size_t i = 0; i < size_; ++i) fn(Unpack(i));
  }

 private:
  enum class Mode : uint8_t { kUnset, kPacked, kGeneric };

  struct Slot {
    uint64_t hash;
    uint32_t idx;
  };
  static constexpr uint32_t kEmpty = 0xffffffffu;
  static constexpr size_t kPrefetchDistance = 8;

  /// Picks packed mode when the first key is all-int64/NULL and narrow
  /// enough, generic mode otherwise.
  void Elect(const Value* vals, size_t n) {
    mode_ = Mode::kGeneric;
    if (n <= kMaxPackedWidth) {
      bool packable = true;
      for (size_t j = 0; j < n && packable; ++j) {
        packable = vals[j].is_int64() || vals[j].is_null();
      }
      if (packable) {
        mode_ = Mode::kPacked;
        stride_ = n + 1;
      }
    }
    ReserveStorage();
  }

  void ReserveStorage() {
    if (mode_ == Mode::kPacked) {
      arena_.reserve(reserve_ * stride_);
    } else if (mode_ == Mode::kGeneric) {
      rows_.reserve(reserve_);
    }
  }

  bool InsertValues(const Value* vals, size_t n) {
    if (mode_ == Mode::kUnset) Elect(vals, n);
    if (mode_ == Mode::kPacked) {
      int64_t key[kMaxPackedWidth + 1];
      if (PackRow(vals, n, key)) return InsertPacked(key, HashPacked(key));
      Downgrade();
    }
    return InsertGeneric(vals, n);
  }

  /// Packs `n` values into `out` (stride_ words); false when the key does
  /// not fit this set's packed width or holds a non-int64 value.
  bool PackRow(const Value* vals, size_t n, int64_t* out) const {
    if (n + 1 != stride_) return false;
    uint64_t nulls = 0;
    for (size_t j = 0; j < n; ++j) {
      const Value& v = vals[j];
      if (v.is_int64()) {
        out[j + 1] = v.int64_value();
      } else if (v.is_null()) {
        nulls |= uint64_t{1} << j;
        out[j + 1] = 0;
      } else {
        return false;
      }
    }
    out[0] = static_cast<int64_t>(nulls);
    return true;
  }

  /// Packs and hashes the batch's whole selection into batch_keys_ /
  /// batch_hashes_; false when some row does not pack.
  bool PackBatch(const RowBatch& batch) {
    const size_t n = batch.size();
    batch_keys_.resize(n * stride_);
    batch_hashes_.resize(n);
    int64_t* keys = batch_keys_.data();
    const ColumnStore* store = batch.columns();
    if (store == nullptr || !PackColumns(*store, batch.selection(), keys)) {
      for (size_t i = 0; i < n; ++i) {
        const Row& row = batch.row(i);
        if (!PackRow(row.data(), row.size(), keys + i * stride_)) {
          return false;
        }
      }
    }
    for (size_t i = 0; i < n; ++i) {
      batch_hashes_[i] = HashPacked(keys + i * stride_);
    }
    return true;
  }

  /// Column-at-a-time packing; false (nothing relied on) unless every
  /// column is typed int64 and the store has this set's width.
  bool PackColumns(const ColumnStore& store,
                   const std::vector<uint32_t>& sel, int64_t* keys) const {
    const size_t w = store.columns.size();
    if (w + 1 != stride_) return false;
    for (const ColumnVector& col : store.columns) {
      if (!col.typed() || col.type() != DataType::kInt64) return false;
    }
    const size_t n = sel.size();
    for (size_t i = 0; i < n; ++i) keys[i * stride_] = 0;
    for (size_t j = 0; j < w; ++j) {
      const ColumnVector& col = store.columns[j];
      const int64_t* data = col.i64_data();
      int64_t* out = keys + j + 1;
      if (!col.has_nulls()) {
        for (size_t i = 0; i < n; ++i) out[i * stride_] = data[sel[i]];
        continue;
      }
      for (size_t i = 0; i < n; ++i) {
        if (col.IsNull(sel[i])) {
          out[i * stride_] = 0;
          keys[i * stride_] |= static_cast<int64_t>(uint64_t{1} << j);
        } else {
          out[i * stride_] = data[sel[i]];
        }
      }
    }
    return true;
  }

  uint64_t HashPacked(const int64_t* key) const {
    return flat_internal::HashInt64Words(key, stride_);
  }

  /// HashRow's formula over a value span.
  static uint64_t HashGeneric(const Value* vals, size_t n) {
    uint64_t h = 0x345678;
    for (size_t j = 0; j < n; ++j) h = h * 1000003 + vals[j].Hash();
    return h;
  }

  static bool EqualsGeneric(const Row& stored, const Value* vals, size_t n) {
    if (stored.size() != n) return false;
    for (size_t j = 0; j < n; ++j) {
      if (!stored[j].StructurallyEquals(vals[j])) return false;
    }
    return true;
  }

  /// Slot index of the packed key, or kEmpty.
  uint32_t FindPacked(const int64_t* key, uint64_t hash) const {
    for (size_t pos = hash & mask_;; pos = (pos + 1) & mask_) {
      const Slot& s = slots_[pos];
      if (s.idx == kEmpty) return kEmpty;
      if (s.hash == hash &&
          std::equal(key, key + stride_,
                     arena_.data() + size_t{s.idx} * stride_)) {
        return s.idx;
      }
    }
  }

  bool InsertPacked(const int64_t* key, uint64_t hash) {
    if (slots_.empty()) Rebuild(16);
    size_t pos = hash & mask_;
    for (;; pos = (pos + 1) & mask_) {
      const Slot& s = slots_[pos];
      if (s.idx == kEmpty) break;
      if (s.hash == hash &&
          std::equal(key, key + stride_,
                     arena_.data() + size_t{s.idx} * stride_)) {
        return false;
      }
    }
    arena_.insert(arena_.end(), key, key + stride_);
    AddSlot(pos, hash);
    return true;
  }

  bool InsertGeneric(const Value* vals, size_t n) {
    if (slots_.empty()) Rebuild(16);
    const uint64_t hash = HashGeneric(vals, n);
    size_t pos = hash & mask_;
    for (;; pos = (pos + 1) & mask_) {
      const Slot& s = slots_[pos];
      if (s.idx == kEmpty) break;
      if (s.hash == hash && EqualsGeneric(rows_[s.idx], vals, n)) {
        return false;
      }
    }
    rows_.emplace_back(vals, vals + n);
    AddSlot(pos, hash);
    return true;
  }

  /// Claims the empty slot at `pos` for the key just appended.
  void AddSlot(size_t pos, uint64_t hash) {
    slots_[pos] = Slot{hash, static_cast<uint32_t>(size_)};
    ++size_;
    // Grow at 7/8 load.
    if ((size_ + 1) * 8 > slots_.size() * 7) Rebuild(slots_.size() * 2);
  }

  Row Unpack(size_t idx) const {
    const int64_t* key = arena_.data() + idx * stride_;
    const uint64_t nulls = static_cast<uint64_t>(key[0]);
    Row row;
    row.reserve(stride_ - 1);
    for (size_t j = 0; j + 1 < stride_; ++j) {
      row.push_back(((nulls >> j) & 1) != 0 ? Value::Null()
                                            : Value::Int64(key[j + 1]));
    }
    return row;
  }

  void Place(uint64_t hash, uint32_t idx) {
    size_t pos = hash & mask_;
    while (slots_[pos].idx != kEmpty) pos = (pos + 1) & mask_;
    slots_[pos] = Slot{hash, idx};
  }

  /// Re-spreads the slot array at `capacity` from the stored hashes.
  void Rebuild(size_t capacity) {
    std::vector<Slot> old(capacity, Slot{0, kEmpty});
    old.swap(slots_);
    mask_ = capacity - 1;
    for (const Slot& s : old) {
      if (s.idx != kEmpty) Place(s.hash, s.idx);
    }
  }

  /// Packed -> generic, once: re-materializes and re-hashes every key in
  /// first-occurrence order.
  void Downgrade() {
    mode_ = Mode::kGeneric;
    rows_.reserve(std::max(reserve_, size_));
    for (size_t i = 0; i < size_; ++i) rows_.push_back(Unpack(i));
    arena_.clear();
    arena_.shrink_to_fit();
    if (slots_.empty()) return;
    slots_.assign(slots_.size(), Slot{0, kEmpty});
    for (uint32_t i = 0; i < size_; ++i) {
      Place(HashGeneric(rows_[i].data(), rows_[i].size()), i);
    }
  }

  std::vector<int64_t> arena_;  // packed keys, stride_ words each
  std::vector<Row> rows_;       // generic keys
  std::vector<Slot> slots_;
  size_t mask_ = 0;
  size_t size_ = 0;
  size_t stride_ = 0;   // packed width + 1 (the null bitmap word)
  size_t reserve_ = 0;  // Reserve() hint for the key storage
  Mode mode_ = Mode::kUnset;
  // InsertBatch scratch: the selection's packed keys and their hashes.
  std::vector<int64_t> batch_keys_;
  std::vector<uint64_t> batch_hashes_;
};

}  // namespace bypass

#endif  // BYPASSDB_COMMON_FLAT_TABLE_H_
