#include "types/row.h"

#include <algorithm>

namespace bypass {

Row ConcatRows(const Row& left, const Row& right) {
  Row out;
  out.reserve(left.size() + right.size());
  out.insert(out.end(), left.begin(), left.end());
  out.insert(out.end(), right.begin(), right.end());
  return out;
}

Row ProjectRow(const Row& row, const std::vector<int>& slots) {
  Row out;
  out.reserve(slots.size());
  for (int s : slots) out.push_back(row[static_cast<size_t>(s)]);
  return out;
}

bool RowsStructurallyEqual(const Row& a, const Row& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!a[i].StructurallyEquals(b[i])) return false;
  }
  return true;
}

int CompareRows(const Row& a, const Row& b) {
  const size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    const int c = a[i].OrderCompare(b[i]);
    if (c != 0) return c;
  }
  if (a.size() < b.size()) return -1;
  if (a.size() > b.size()) return 1;
  return 0;
}

size_t HashRow(const Row& row) {
  size_t h = 0x345678;
  for (const Value& v : row) {
    h = h * 1000003 + v.Hash();
  }
  return h;
}

size_t HashRowSlots(const Row& row, const std::vector<int>& slots) {
  size_t h = 0x345678;
  for (int s : slots) {
    h = h * 1000003 + row[static_cast<size_t>(s)].Hash();
  }
  return h;
}

bool RowSlotsEqual(const Row& a, const Row& b,
                   const std::vector<int>& slots_a,
                   const std::vector<int>& slots_b) {
  if (slots_a.size() != slots_b.size()) return false;
  for (size_t i = 0; i < slots_a.size(); ++i) {
    if (!a[static_cast<size_t>(slots_a[i])].StructurallyEquals(
            b[static_cast<size_t>(slots_b[i])])) {
      return false;
    }
  }
  return true;
}

bool RowKeyEq::RowSlotsEqualKey(const RowSlotsRef& ref, const Row& key) {
  if (ref.slots->size() != key.size()) return false;
  for (size_t i = 0; i < key.size(); ++i) {
    const size_t slot = static_cast<size_t>((*ref.slots)[i]);
    if (!(*ref.row)[slot].StructurallyEquals(key[i])) return false;
  }
  return true;
}

bool RowMultisetsEqual(std::vector<Row> a, std::vector<Row> b) {
  if (a.size() != b.size()) return false;
  auto cmp = [](const Row& x, const Row& y) { return CompareRows(x, y) < 0; };
  std::sort(a.begin(), a.end(), cmp);
  std::sort(b.begin(), b.end(), cmp);
  for (size_t i = 0; i < a.size(); ++i) {
    if (!RowsStructurallyEqual(a[i], b[i])) return false;
  }
  return true;
}

std::string RowToString(const Row& row) {
  std::string out = "(";
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out += ", ";
    out += row[i].ToString();
  }
  out += ")";
  return out;
}

}  // namespace bypass
