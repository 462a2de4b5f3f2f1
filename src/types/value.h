// Value: the engine's runtime datum. SQL NULL is a distinguished state of
// every value, and comparisons follow SQL three-valued logic.
#ifndef BYPASSDB_TYPES_VALUE_H_
#define BYPASSDB_TYPES_VALUE_H_

#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <ostream>
#include <string>
#include <variant>

#include "common/result.h"

namespace bypass {

/// Column / value types supported by the engine.
enum class DataType {
  kBool,
  kInt64,
  kDouble,
  kString,
};

const char* DataTypeToString(DataType type);

/// SQL three-valued truth values.
enum class TriBool { kFalse = 0, kTrue = 1, kUnknown = 2 };

inline TriBool TriNot(TriBool v) {
  if (v == TriBool::kUnknown) return TriBool::kUnknown;
  return v == TriBool::kTrue ? TriBool::kFalse : TriBool::kTrue;
}

inline TriBool TriAnd(TriBool a, TriBool b) {
  if (a == TriBool::kFalse || b == TriBool::kFalse) return TriBool::kFalse;
  if (a == TriBool::kUnknown || b == TriBool::kUnknown) {
    return TriBool::kUnknown;
  }
  return TriBool::kTrue;
}

inline TriBool TriOr(TriBool a, TriBool b) {
  if (a == TriBool::kTrue || b == TriBool::kTrue) return TriBool::kTrue;
  if (a == TriBool::kUnknown || b == TriBool::kUnknown) {
    return TriBool::kUnknown;
  }
  return TriBool::kFalse;
}

/// Comparison operators usable as linking / correlation operators
/// (the paper's θ ∈ {=, ≠, <, ≤, >, ≥}).
enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };

const char* CompareOpToString(CompareOp op);
/// The operator θ' such that (a θ b) == (b θ' a).
CompareOp FlipCompareOp(CompareOp op);
/// The operator θ' such that (a θ' b) == NOT (a θ b) under two-valued logic.
CompareOp NegateCompareOp(CompareOp op);

// The numeric order: the one rule for how two numbers compare (DESIGN.md
// §3). Every comparison, hash, fold, index, zone and sort reaches numbers
// only through these functions.
//   * int64 × int64 is exact.
//   * int64 × double is exact, with no widening: 2^53 + 1 > 2^53.0.
//   * double × double follows PostgreSQL: -0.0 = 0.0, NaN = NaN, and NaN
//     sorts above every number, +inf included.

/// True when `d` equals an int64 exactly (its "twin", stored in `*out`):
/// integral and in [-2^63, 2^63). -0.0's twin is 0; NaN and ±inf have none.
inline bool Int64TwinOf(double d, int64_t* out) {
  // 2^63 itself is not an int64, so the bounds are the exact doubles.
  if (!(d >= -9223372036854775808.0 && d < 9223372036854775808.0)) {
    return false;
  }
  const int64_t i = static_cast<int64_t>(d);
  if (static_cast<double>(i) != d) return false;
  *out = i;
  return true;
}

/// Three-way numeric order (<0, 0, >0); see above.
inline int CompareNumeric(int64_t a, int64_t b) {
  return a < b ? -1 : (a > b ? 1 : 0);
}
inline int CompareNumeric(double a, double b) {
  if (a < b) return -1;
  if (a > b) return 1;
  if (a == b) return 0;
  // Unordered: at least one NaN, and NaN is the largest number.
  return static_cast<int>(std::isnan(a)) - static_cast<int>(std::isnan(b));
}
inline int CompareNumeric(int64_t a, double b) {
  if (!(b >= -9223372036854775808.0)) return std::isnan(b) ? -1 : 1;
  if (b >= 9223372036854775808.0) return -1;
  // b truncates to an int64 t, exactly representable as a double, so
  // comparing a to t and then t to b decides exactly.
  const int64_t t = static_cast<int64_t>(b);
  if (a != t) return a < t ? -1 : 1;
  return CompareNumeric(static_cast<double>(t), b);
}
inline int CompareNumeric(double a, int64_t b) {
  return -CompareNumeric(b, a);
}

/// Hash of a number, equal for numbers the order calls equal: ±0.0 hash
/// as 0.0, every NaN alike, and an int64 hashes as its double.
inline size_t HashNumeric(double d) {
  if (d == 0.0) d = 0.0;
  if (std::isnan(d)) d = std::numeric_limits<double>::quiet_NaN();
  return std::hash<double>()(d);
}
inline size_t HashNumeric(int64_t i) {
  return HashNumeric(static_cast<double>(i));
}

/// A single SQL datum: NULL or a typed value.
class Value {
 public:
  /// Constructs SQL NULL.
  Value() : rep_(std::monostate{}) {}

  static Value Null() { return Value(); }
  static Value Bool(bool v) { return Value(Rep(v)); }
  static Value Int64(int64_t v) { return Value(Rep(v)); }
  static Value Double(double v) { return Value(Rep(v)); }
  static Value String(std::string v) { return Value(Rep(std::move(v))); }

  bool is_null() const {
    return std::holds_alternative<std::monostate>(rep_);
  }
  bool is_bool() const { return std::holds_alternative<bool>(rep_); }
  bool is_int64() const { return std::holds_alternative<int64_t>(rep_); }
  bool is_double() const { return std::holds_alternative<double>(rep_); }
  bool is_string() const {
    return std::holds_alternative<std::string>(rep_);
  }
  /// True for int64 or double.
  bool is_numeric() const { return is_int64() || is_double(); }

  bool bool_value() const { return std::get<bool>(rep_); }
  int64_t int64_value() const { return std::get<int64_t>(rep_); }
  double double_value() const { return std::get<double>(rep_); }
  const std::string& string_value() const {
    return std::get<std::string>(rep_);
  }

  /// Numeric value widened to double (valid for int64/double).
  double AsDouble() const;

  /// The dynamic type; invalid to call on NULL.
  DataType type() const;

  /// SQL comparison: NULL operands yield Unknown; numbers compare in the
  /// numeric order; mismatched non-numeric types yield Unknown.
  /// The all-int64 case is inlined: it dominates comparison traffic in
  /// filters, join probes, and grouping.
  TriBool Compare(CompareOp op, const Value& other) const {
    if (const int64_t* a = std::get_if<int64_t>(&rep_)) {
      if (const int64_t* b = std::get_if<int64_t>(&other.rep_)) {
        return OrderingToTriBool(op, CompareNumeric(*a, *b));
      }
    }
    return CompareSlow(op, other);
  }

  /// Total order used for sorting and grouping keys: NULL sorts first and
  /// equals NULL (unlike SQL comparison), then bool < number < string,
  /// numbers in the numeric order. Returns <0, 0, >0.
  int OrderCompare(const Value& other) const {
    if (const int64_t* a = std::get_if<int64_t>(&rep_)) {
      if (const int64_t* b = std::get_if<int64_t>(&other.rep_)) {
        return CompareNumeric(*a, *b);
      }
    }
    return OrderCompareSlow(other);
  }

  /// Structural equality (NULL == NULL). Used for grouping/dedup keys and
  /// for test assertions; distinct from SQL `=`.
  bool StructurallyEquals(const Value& other) const {
    return OrderCompare(other) == 0;
  }

  /// Hash consistent with StructurallyEquals.
  size_t Hash() const;

  /// Display form ("NULL", "42", "3.5", "'abc'", "true").
  std::string ToString() const;

 private:
  using Rep =
      std::variant<std::monostate, bool, int64_t, double, std::string>;
  explicit Value(Rep rep) : rep_(std::move(rep)) {}

  static TriBool OrderingToTriBool(CompareOp op, int cmp) {
    bool result = false;
    switch (op) {
      case CompareOp::kEq:
        result = cmp == 0;
        break;
      case CompareOp::kNe:
        result = cmp != 0;
        break;
      case CompareOp::kLt:
        result = cmp < 0;
        break;
      case CompareOp::kLe:
        result = cmp <= 0;
        break;
      case CompareOp::kGt:
        result = cmp > 0;
        break;
      case CompareOp::kGe:
        result = cmp >= 0;
        break;
    }
    return result ? TriBool::kTrue : TriBool::kFalse;
  }

  TriBool CompareSlow(CompareOp op, const Value& other) const;
  int OrderCompareSlow(const Value& other) const;

  Rep rep_;
};

inline std::ostream& operator<<(std::ostream& os, const Value& v) {
  return os << v.ToString();
}

/// gtest-friendly operator: structural equality.
inline bool operator==(const Value& a, const Value& b) {
  return a.StructurallyEquals(b);
}

}  // namespace bypass

#endif  // BYPASSDB_TYPES_VALUE_H_
