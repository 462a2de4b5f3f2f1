#include "storage/zone_map.h"

#include <string>

#include "common/string_util.h"
#include "expr/expr.h"

namespace bypass {

namespace {

bool IsTrue(TriBool b) { return b == TriBool::kTrue; }

/// Smallest string strictly greater than every string with prefix
/// `prefix` (the exclusive upper bound of the prefix range). False when
/// no such bound exists (the prefix is all 0xff bytes): every string
/// >= prefix then necessarily carries the prefix.
bool PrefixUpperBound(std::string_view prefix, std::string* out) {
  std::string bound(prefix);
  while (!bound.empty() &&
         static_cast<unsigned char>(bound.back()) == 0xff) {
    bound.pop_back();
  }
  if (bound.empty()) return false;
  bound.back() =
      static_cast<char>(static_cast<unsigned char>(bound.back()) + 1);
  *out = std::move(bound);
  return true;
}

/// Extracts `slot op literal` from a comparison, flipping the operator
/// when the literal is on the left. False for any other shape.
bool MatchSlotLiteral(const ComparisonExpr& cmp, int* slot, CompareOp* op,
                      const Value** literal) {
  const Expr* l = cmp.left().get();
  const Expr* r = cmp.right().get();
  if (l->kind() == ExprKind::kColumnRef &&
      r->kind() == ExprKind::kLiteral) {
    const auto* col = static_cast<const ColumnRefExpr*>(l);
    if (col->is_outer() || col->slot() < 0) return false;
    *slot = col->slot();
    *op = cmp.op();
    *literal = &static_cast<const LiteralExpr*>(r)->value();
    return true;
  }
  if (l->kind() == ExprKind::kLiteral &&
      r->kind() == ExprKind::kColumnRef) {
    const auto* col = static_cast<const ColumnRefExpr*>(r);
    if (col->is_outer() || col->slot() < 0) return false;
    *slot = col->slot();
    *op = FlipCompareOp(cmp.op());
    *literal = &static_cast<const LiteralExpr*>(l)->value();
    return true;
  }
  return false;
}

const ColumnZone* ZoneForSlot(const SegmentMeta& meta, int slot) {
  if (slot < 0 || static_cast<size_t>(slot) >= meta.zones.size()) {
    return nullptr;
  }
  return &meta.zones[static_cast<size_t>(slot)];
}

ZoneMatch TestIsNull(const IsNullExpr& expr, const SegmentMeta& meta) {
  if (expr.input()->kind() != ExprKind::kColumnRef) return ZoneMatch::kSome;
  const auto* col = static_cast<const ColumnRefExpr*>(expr.input().get());
  if (col->is_outer()) return ZoneMatch::kSome;
  const ColumnZone* zone = ZoneForSlot(meta, col->slot());
  if (zone == nullptr) return ZoneMatch::kSome;
  // null_count is exact even for untracked (mixed-mode) columns;
  // only min/max claims are suspended there.
  const int64_t rows = static_cast<int64_t>(meta.row_count);
  const int64_t nulls =
      expr.negated() ? rows - zone->null_count : zone->null_count;
  if (nulls == 0) return ZoneMatch::kNone;
  if (nulls == rows) return ZoneMatch::kAll;
  return ZoneMatch::kSome;
}

ZoneMatch TestLike(const LikeExpr& expr, const SegmentMeta& meta) {
  if (expr.input()->kind() != ExprKind::kColumnRef) return ZoneMatch::kSome;
  const auto* col = static_cast<const ColumnRefExpr*>(expr.input().get());
  if (col->is_outer()) return ZoneMatch::kSome;
  const ColumnZone* zone = ZoneForSlot(meta, col->slot());
  if (zone == nullptr || zone->untracked) return ZoneMatch::kSome;
  const int64_t non_null =
      static_cast<int64_t>(meta.row_count) - zone->null_count;
  if (non_null <= 0) {
    // Every row is NULL: LIKE yields UNKNOWN everywhere (and cannot hit
    // its non-string execution error), so the segment is skippable.
    return ZoneMatch::kNone;
  }
  // Beyond this point there are non-NULL rows; only reason about them
  // when they are provably strings — LIKE on any other type raises an
  // execution error that a skip would otherwise hide.
  if (!zone->min.is_string() || !zone->max.is_string()) {
    return ZoneMatch::kSome;
  }
  if (expr.negated()) return ZoneMatch::kSome;
  const LikePattern shaped = AnalyzeLikePattern(expr.pattern());
  switch (shaped.shape) {
    case LikeShape::kMatchAll:
      return zone->null_count == 0 ? ZoneMatch::kAll : ZoneMatch::kSome;
    case LikeShape::kExact:
      return ClassifyZone(*zone, meta.row_count, CompareOp::kEq,
                          Value::String(std::string(shaped.body)));
    case LikeShape::kPrefix: {
      // Byte-wise collation: s has prefix p  <=>  p <= s < succ(p).
      const Value lo = Value::String(std::string(shaped.body));
      if (IsTrue(zone->max.Compare(CompareOp::kLt, lo))) {
        return ZoneMatch::kNone;
      }
      std::string upper;
      const bool has_upper = PrefixUpperBound(shaped.body, &upper);
      if (has_upper) {
        const Value hi = Value::String(std::move(upper));
        if (IsTrue(zone->min.Compare(CompareOp::kGe, hi))) {
          return ZoneMatch::kNone;
        }
        if (zone->null_count == 0 &&
            IsTrue(zone->min.Compare(CompareOp::kGe, lo)) &&
            IsTrue(zone->max.Compare(CompareOp::kLt, hi))) {
          return ZoneMatch::kAll;
        }
      } else if (zone->null_count == 0 &&
                 IsTrue(zone->min.Compare(CompareOp::kGe, lo))) {
        return ZoneMatch::kAll;
      }
      return ZoneMatch::kSome;
    }
    case LikeShape::kSuffix:
    case LikeShape::kContains:
    case LikeShape::kGeneric:
      return ZoneMatch::kSome;
  }
  return ZoneMatch::kSome;
}

}  // namespace

ZoneMatch ClassifyZone(const ColumnZone& zone, size_t rows, CompareOp op,
                       const Value& literal) {
  if (zone.untracked) return ZoneMatch::kSome;
  if (rows == 0) return ZoneMatch::kNone;
  const int64_t non_null = static_cast<int64_t>(rows) - zone.null_count;
  // Comparison against NULL, or of an all-NULL segment, is UNKNOWN on
  // every row — never TRUE, so the segment cannot produce a match.
  if (literal.is_null() || non_null <= 0) return ZoneMatch::kNone;
  const bool no_nulls = zone.null_count == 0;
  const Value& lo = zone.min;
  const Value& hi = zone.max;
  switch (op) {
    case CompareOp::kEq:
      // An unrelatable type pair (Compare == Unknown against min) is
      // Unknown against every row of a typed column, hence kNone here
      // via the !IsTrue branches.
      if (!IsTrue(lo.Compare(CompareOp::kLe, literal)) ||
          !IsTrue(hi.Compare(CompareOp::kGe, literal))) {
        return ZoneMatch::kNone;
      }
      if (no_nulls && IsTrue(lo.Compare(CompareOp::kEq, literal)) &&
          IsTrue(hi.Compare(CompareOp::kEq, literal))) {
        return ZoneMatch::kAll;
      }
      return ZoneMatch::kSome;
    case CompareOp::kNe: {
      const TriBool min_eq = lo.Compare(CompareOp::kEq, literal);
      if (min_eq == TriBool::kUnknown) return ZoneMatch::kNone;
      if (IsTrue(min_eq) && IsTrue(hi.Compare(CompareOp::kEq, literal))) {
        return ZoneMatch::kNone;  // every non-NULL row equals the literal
      }
      if (no_nulls && (IsTrue(hi.Compare(CompareOp::kLt, literal)) ||
                       IsTrue(lo.Compare(CompareOp::kGt, literal)))) {
        return ZoneMatch::kAll;
      }
      return ZoneMatch::kSome;
    }
    case CompareOp::kLt:
      if (!IsTrue(lo.Compare(CompareOp::kLt, literal))) {
        return ZoneMatch::kNone;
      }
      if (no_nulls && IsTrue(hi.Compare(CompareOp::kLt, literal))) {
        return ZoneMatch::kAll;
      }
      return ZoneMatch::kSome;
    case CompareOp::kLe:
      if (!IsTrue(lo.Compare(CompareOp::kLe, literal))) {
        return ZoneMatch::kNone;
      }
      if (no_nulls && IsTrue(hi.Compare(CompareOp::kLe, literal))) {
        return ZoneMatch::kAll;
      }
      return ZoneMatch::kSome;
    case CompareOp::kGt:
      if (!IsTrue(hi.Compare(CompareOp::kGt, literal))) {
        return ZoneMatch::kNone;
      }
      if (no_nulls && IsTrue(lo.Compare(CompareOp::kGt, literal))) {
        return ZoneMatch::kAll;
      }
      return ZoneMatch::kSome;
    case CompareOp::kGe:
      if (!IsTrue(hi.Compare(CompareOp::kGe, literal))) {
        return ZoneMatch::kNone;
      }
      if (no_nulls && IsTrue(lo.Compare(CompareOp::kGe, literal))) {
        return ZoneMatch::kAll;
      }
      return ZoneMatch::kSome;
  }
  return ZoneMatch::kSome;
}

ZoneMatch ZoneTest(const Expr& pred, const SegmentMeta& meta) {
  switch (pred.kind()) {
    case ExprKind::kLiteral: {
      const Value& v = static_cast<const LiteralExpr&>(pred).value();
      return ValueToTriBool(v) == TriBool::kTrue ? ZoneMatch::kAll
                                                 : ZoneMatch::kNone;
    }
    case ExprKind::kAnd: {
      // The AND may be TRUE only where every conjunct may be; it is TRUE
      // everywhere only if each conjunct is.
      ZoneMatch acc = ZoneMatch::kAll;
      for (const ExprPtr& term :
           static_cast<const AndExpr&>(pred).terms()) {
        const ZoneMatch m = ZoneTest(*term, meta);
        if (m == ZoneMatch::kNone) return ZoneMatch::kNone;
        if (m == ZoneMatch::kSome) acc = ZoneMatch::kSome;
      }
      return acc;
    }
    case ExprKind::kOr: {
      ZoneMatch acc = ZoneMatch::kNone;
      for (const ExprPtr& term :
           static_cast<const OrExpr&>(pred).terms()) {
        const ZoneMatch m = ZoneTest(*term, meta);
        if (m == ZoneMatch::kAll) return ZoneMatch::kAll;
        if (m == ZoneMatch::kSome) acc = ZoneMatch::kSome;
      }
      return acc;
    }
    case ExprKind::kNot: {
      // Only "input TRUE everywhere -> NOT never TRUE" is derivable from
      // the may/all lattice; everything else stays kSome.
      const Expr& input = *static_cast<const NotExpr&>(pred).input();
      return ZoneTest(input, meta) == ZoneMatch::kAll ? ZoneMatch::kNone
                                                      : ZoneMatch::kSome;
    }
    case ExprKind::kComparison: {
      int slot = -1;
      CompareOp op = CompareOp::kEq;
      const Value* literal = nullptr;
      const auto& cmp = static_cast<const ComparisonExpr&>(pred);
      if (!MatchSlotLiteral(cmp, &slot, &op, &literal)) {
        return ZoneMatch::kSome;
      }
      const ColumnZone* zone = ZoneForSlot(meta, slot);
      if (zone == nullptr) return ZoneMatch::kSome;
      return ClassifyZone(*zone, meta.row_count, op, *literal);
    }
    case ExprKind::kIsNull:
      return TestIsNull(static_cast<const IsNullExpr&>(pred), meta);
    case ExprKind::kLike:
      return TestLike(static_cast<const LikeExpr&>(pred), meta);
    case ExprKind::kColumnRef:
    case ExprKind::kArithmetic:
    case ExprKind::kFunction:
    case ExprKind::kSubquery:
      return ZoneMatch::kSome;
  }
  return ZoneMatch::kSome;
}

bool ZoneMayBeTrue(const Expr& pred, const SegmentMeta& meta) {
  return ZoneTest(pred, meta) != ZoneMatch::kNone;
}

}  // namespace bypass
