#include "sql/ast.h"

#include "common/check.h"
#include "common/string_util.h"

namespace bypass {

namespace {

const char* ArithOpSymbol(AstArithOp op) {
  switch (op) {
    case AstArithOp::kAdd:
      return "+";
    case AstArithOp::kSub:
      return "-";
    case AstArithOp::kMul:
      return "*";
    case AstArithOp::kDiv:
      return "/";
  }
  return "?";
}

}  // namespace

std::string AstExpr::ToString() const {
  switch (kind) {
    case AstExprKind::kLiteral:
      return value.ToString();
    case AstExprKind::kColumnRef:
      return qualifier.empty() ? name : qualifier + "." + name;
    case AstExprKind::kCompare:
      return "(" + children[0]->ToString() + " " +
             CompareOpToString(compare_op) + " " +
             children[1]->ToString() + ")";
    case AstExprKind::kAnd:
    case AstExprKind::kOr: {
      std::vector<std::string> parts;
      parts.reserve(children.size());
      for (const AstExprPtr& c : children) parts.push_back(c->ToString());
      return "(" +
             Join(parts, kind == AstExprKind::kAnd ? " AND " : " OR ") +
             ")";
    }
    case AstExprKind::kNot:
      return "(NOT " + children[0]->ToString() + ")";
    case AstExprKind::kArith:
      return "(" + children[0]->ToString() + " " + ArithOpSymbol(arith_op) +
             " " + children[1]->ToString() + ")";
    case AstExprKind::kNegate:
      return "(-" + children[0]->ToString() + ")";
    case AstExprKind::kLike:
      return "(" + children[0]->ToString() +
             (negated ? " NOT LIKE '" : " LIKE '") + pattern + "')";
    case AstExprKind::kIsNull:
      return "(" + children[0]->ToString() +
             (negated ? " IS NOT NULL)" : " IS NULL)");
    case AstExprKind::kAggCall: {
      std::string arg =
          children.empty() ? "*" : children[0]->ToString();
      return ToUpper(agg_name) + "(" +
             std::string(distinct ? "DISTINCT " : "") + arg + ")";
    }
    case AstExprKind::kSubquery:
      return "(" + subquery->ToString() + ")";
    case AstExprKind::kExists:
      return std::string(negated ? "NOT " : "") + "EXISTS (" +
             subquery->ToString() + ")";
    case AstExprKind::kInSubquery:
      return children[0]->ToString() + (negated ? " NOT IN (" : " IN (") +
             subquery->ToString() + ")";
    case AstExprKind::kQuantified:
      return children[0]->ToString() + " " +
             CompareOpToString(compare_op) +
             (quantifier == AstQuantifier::kAll ? " ALL (" : " SOME (") +
             subquery->ToString() + ")";
    case AstExprKind::kInList: {
      std::vector<std::string> parts;
      for (size_t i = 1; i < children.size(); ++i) {
        parts.push_back(children[i]->ToString());
      }
      return children[0]->ToString() + (negated ? " NOT IN (" : " IN (") +
             Join(parts, ", ") + ")";
    }
    case AstExprKind::kCoalesce: {
      std::vector<std::string> parts;
      for (const AstExprPtr& c : children) parts.push_back(c->ToString());
      return "COALESCE(" + Join(parts, ", ") + ")";
    }
  }
  BYPASS_UNREACHABLE("bad AstExprKind");
}

std::string SelectStmt::ToString() const {
  std::string out = "SELECT ";
  if (distinct) out += "DISTINCT ";
  std::vector<std::string> item_strs;
  item_strs.reserve(items.size());
  for (const SelectItem& it : items) {
    if (it.is_star) {
      item_strs.push_back("*");
    } else {
      std::string s = it.expr->ToString();
      if (!it.alias.empty()) s += " AS " + it.alias;
      item_strs.push_back(std::move(s));
    }
  }
  out += Join(item_strs, ", ");
  out += " FROM ";
  std::vector<std::string> from_strs;
  from_strs.reserve(from.size());
  for (const TableRef& t : from) {
    std::string s = t.subquery != nullptr
                        ? "(" + t.subquery->ToString() + ")"
                        : t.table;
    if (!t.alias.empty() && !EqualsIgnoreCase(t.alias, t.table)) {
      s += " " + t.alias;
    }
    from_strs.push_back(std::move(s));
  }
  out += Join(from_strs, ", ");
  if (where != nullptr) out += " WHERE " + where->ToString();
  if (!group_by.empty()) {
    std::vector<std::string> group_strs;
    group_strs.reserve(group_by.size());
    for (const AstExprPtr& g : group_by) {
      group_strs.push_back(g->ToString());
    }
    out += " GROUP BY " + Join(group_strs, ", ");
  }
  if (having != nullptr) out += " HAVING " + having->ToString();
  if (!order_by.empty()) {
    out += " ORDER BY ";
    std::vector<std::string> order_strs;
    order_strs.reserve(order_by.size());
    for (const OrderItem& o : order_by) {
      order_strs.push_back(o.expr->ToString() +
                           (o.descending ? " DESC" : ""));
    }
    out += Join(order_strs, ", ");
  }
  if (limit >= 0) out += " LIMIT " + std::to_string(limit);
  if (union_next != nullptr) {
    out += union_all ? " UNION ALL " : " UNION ";
    out += union_next->ToString();
  }
  return out;
}

}  // namespace bypass
