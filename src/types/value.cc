#include "types/value.h"

#include <sstream>

#include "common/check.h"

namespace bypass {

const char* DataTypeToString(DataType type) {
  switch (type) {
    case DataType::kBool:
      return "BOOL";
    case DataType::kInt64:
      return "INT64";
    case DataType::kDouble:
      return "DOUBLE";
    case DataType::kString:
      return "STRING";
  }
  return "UNKNOWN";
}

const char* CompareOpToString(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "<>";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

CompareOp FlipCompareOp(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return CompareOp::kEq;
    case CompareOp::kNe:
      return CompareOp::kNe;
    case CompareOp::kLt:
      return CompareOp::kGt;
    case CompareOp::kLe:
      return CompareOp::kGe;
    case CompareOp::kGt:
      return CompareOp::kLt;
    case CompareOp::kGe:
      return CompareOp::kLe;
  }
  BYPASS_UNREACHABLE("bad CompareOp");
}

CompareOp NegateCompareOp(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return CompareOp::kNe;
    case CompareOp::kNe:
      return CompareOp::kEq;
    case CompareOp::kLt:
      return CompareOp::kGe;
    case CompareOp::kLe:
      return CompareOp::kGt;
    case CompareOp::kGt:
      return CompareOp::kLe;
    case CompareOp::kGe:
      return CompareOp::kLt;
  }
  BYPASS_UNREACHABLE("bad CompareOp");
}

double Value::AsDouble() const {
  if (is_int64()) return static_cast<double>(int64_value());
  BYPASS_CHECK(is_double());
  return double_value();
}

DataType Value::type() const {
  BYPASS_CHECK(!is_null());
  if (is_bool()) return DataType::kBool;
  if (is_int64()) return DataType::kInt64;
  if (is_double()) return DataType::kDouble;
  return DataType::kString;
}

namespace {

// The numeric order over two numeric Values.
int CompareNumbers(const Value& a, const Value& b) {
  if (a.is_int64()) {
    return b.is_int64() ? CompareNumeric(a.int64_value(), b.int64_value())
                        : CompareNumeric(a.int64_value(), b.double_value());
  }
  return b.is_int64() ? CompareNumeric(a.double_value(), b.int64_value())
                      : CompareNumeric(a.double_value(), b.double_value());
}

}  // namespace

// Non-int64 tail of Compare(); the all-int64 case is inlined in value.h.
TriBool Value::CompareSlow(CompareOp op, const Value& other) const {
  if (is_null() || other.is_null()) return TriBool::kUnknown;
  if (is_numeric() && other.is_numeric()) {
    return OrderingToTriBool(op, CompareNumbers(*this, other));
  }
  if (is_string() && other.is_string()) {
    return OrderingToTriBool(op, string_value().compare(other.string_value()));
  }
  if (is_bool() && other.is_bool()) {
    const int a = bool_value() ? 1 : 0, b = other.bool_value() ? 1 : 0;
    return OrderingToTriBool(op, a - b);
  }
  // Type mismatch: SQL would reject at bind time; be permissive at runtime.
  return TriBool::kUnknown;
}

// Non-int64 tail of OrderCompare(); the all-int64 case is inlined in
// value.h.
int Value::OrderCompareSlow(const Value& other) const {
  // NULL first, then bool < numeric < string across types.
  auto rank = [](const Value& v) {
    if (v.is_null()) return 0;
    if (v.is_bool()) return 1;
    if (v.is_numeric()) return 2;
    return 3;
  };
  const int ra = rank(*this), rb = rank(other);
  if (ra != rb) return ra < rb ? -1 : 1;
  if (is_null()) return 0;
  if (is_bool()) {
    const int a = bool_value() ? 1 : 0, b = other.bool_value() ? 1 : 0;
    return a - b;
  }
  if (is_numeric()) return CompareNumbers(*this, other);
  const int c = string_value().compare(other.string_value());
  return c < 0 ? -1 : (c > 0 ? 1 : 0);
}

size_t Value::Hash() const {
  if (is_null()) return 0x9e3779b97f4a7c15ULL;
  if (is_bool()) return bool_value() ? 0x1234567 : 0x7654321;
  if (is_int64()) return HashNumeric(int64_value());
  if (is_double()) return HashNumeric(double_value());
  return std::hash<std::string>()(string_value());
}

std::string Value::ToString() const {
  if (is_null()) return "NULL";
  if (is_bool()) return bool_value() ? "true" : "false";
  if (is_int64()) return std::to_string(int64_value());
  if (is_double()) {
    std::ostringstream os;
    os << double_value();
    return os.str();
  }
  return "'" + string_value() + "'";
}

}  // namespace bypass
