// Row: a tuple of Values, plus helpers for hashing, comparing, and
// multiset-equality of row collections (used heavily by the property tests
// that validate the unnesting equivalences on multisets).
#ifndef BYPASSDB_TYPES_ROW_H_
#define BYPASSDB_TYPES_ROW_H_

#include <string>
#include <vector>

#include "types/value.h"

namespace bypass {

using Row = std::vector<Value>;

/// Concatenation x ◦ y.
Row ConcatRows(const Row& left, const Row& right);

/// Projection of `row` to the given slots.
Row ProjectRow(const Row& row, const std::vector<int>& slots);

/// Structural equality of full rows (NULL == NULL).
bool RowsStructurallyEqual(const Row& a, const Row& b);

/// Lexicographic total order on rows using Value::OrderCompare.
int CompareRows(const Row& a, const Row& b);

/// Hash consistent with RowsStructurallyEqual.
size_t HashRow(const Row& row);

/// Hash of the given slots of a row.
size_t HashRowSlots(const Row& row, const std::vector<int>& slots);

/// Structural equality of the given slots.
bool RowSlotsEqual(const Row& a, const Row& b,
                   const std::vector<int>& slots_a,
                   const std::vector<int>& slots_b);

/// True iff `a` and `b` contain the same rows with the same multiplicities
/// (order-insensitive), rows compared with RowsStructurallyEqual after
/// sorting both with CompareRows.
/// The workhorse assertion of the equivalence tests.
bool RowMultisetsEqual(std::vector<Row> a, std::vector<Row> b);

/// "(v1, v2, ...)".
std::string RowToString(const Row& row);

/// Functors for using rows in hash containers (structural semantics).
struct RowHash {
  size_t operator()(const Row& r) const { return HashRow(r); }
};
struct RowEq {
  bool operator()(const Row& a, const Row& b) const {
    return RowsStructurallyEqual(a, b);
  }
};

/// Heterogeneous probe key: a row plus the slots forming the key. Lets
/// keyed hash containers look up against stored key rows without
/// materializing a projected row per probe.
struct RowSlotsRef {
  const Row* row;
  const std::vector<int>* slots;
};

/// Transparent hash/equality over stored key rows and RowSlotsRef probes.
/// HashRowSlots(row, slots) is hash-consistent with
/// HashRow(ProjectRow(row, slots)), which makes the heterogeneous lookup
/// sound. Used by the join hash table and hash aggregation, where the
/// probe-side allocation would otherwise dominate.
struct RowKeyHash {
  using is_transparent = void;
  size_t operator()(const Row& key) const { return HashRow(key); }
  size_t operator()(const RowSlotsRef& ref) const {
    return HashRowSlots(*ref.row, *ref.slots);
  }
};

struct RowKeyEq {
  using is_transparent = void;
  bool operator()(const Row& a, const Row& b) const {
    return RowsStructurallyEqual(a, b);
  }
  bool operator()(const RowSlotsRef& ref, const Row& key) const {
    return RowSlotsEqualKey(ref, key);
  }
  bool operator()(const Row& key, const RowSlotsRef& ref) const {
    return RowSlotsEqualKey(ref, key);
  }
  bool operator()(const RowSlotsRef& a, const RowSlotsRef& b) const {
    return RowSlotsEqual(*a.row, *b.row, *a.slots, *b.slots);
  }

 private:
  static bool RowSlotsEqualKey(const RowSlotsRef& ref, const Row& key);
};

}  // namespace bypass

#endif  // BYPASSDB_TYPES_ROW_H_
