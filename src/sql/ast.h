// SQL abstract syntax tree. Deliberately compact: one tagged node type for
// expressions. The binder/translator (src/frontend) turns the AST into
// logical algebra.
#ifndef BYPASSDB_SQL_AST_H_
#define BYPASSDB_SQL_AST_H_

#include <memory>
#include <string>
#include <vector>

#include "types/value.h"

namespace bypass {

struct AstExpr;
struct SelectStmt;
using AstExprPtr = std::shared_ptr<AstExpr>;
using SelectStmtPtr = std::shared_ptr<SelectStmt>;

enum class AstExprKind {
  kLiteral,     ///< value
  kColumnRef,   ///< qualifier.name (qualifier may be empty)
  kCompare,     ///< children[0] op children[1]
  kAnd,         ///< children...
  kOr,          ///< children...
  kNot,         ///< children[0]
  kArith,       ///< children[0] arith_op children[1]
  kNegate,      ///< -children[0]
  kLike,        ///< children[0] [NOT] LIKE pattern
  kIsNull,      ///< children[0] IS [NOT] NULL
  kAggCall,     ///< agg_name([DISTINCT] children[0]? | *)
  kSubquery,    ///< scalar subquery (SELECT ...)
  kExists,      ///< [NOT] EXISTS (SELECT ...)
  kInSubquery,  ///< children[0] [NOT] IN (SELECT ...)
  kInList,      ///< children[0] [NOT] IN (children[1..])
  kQuantified,  ///< children[0] op SOME/ANY/ALL (SELECT ...)
  kCoalesce,    ///< COALESCE(children...)
};

/// Quantifier of a quantified comparison (paper outlook item 3).
enum class AstQuantifier { kSome, kAll };

/// Arithmetic operator shared with the expression IR (+ - * /).
enum class AstArithOp { kAdd, kSub, kMul, kDiv };

struct AstExpr {
  AstExprKind kind;
  // kLiteral
  Value value;
  // kColumnRef
  std::string qualifier;
  std::string name;
  // kCompare
  CompareOp compare_op = CompareOp::kEq;
  // kArith
  AstArithOp arith_op = AstArithOp::kAdd;
  // kLike
  std::string pattern;
  // kLike / kIsNull / kExists / kInSubquery / kInList
  bool negated = false;
  // kAggCall: one of count/sum/avg/min/max; `distinct` for DISTINCT;
  // children empty means '*'
  std::string agg_name;
  bool distinct = false;
  // kQuantified
  AstQuantifier quantifier = AstQuantifier::kSome;
  // kSubquery / kExists / kInSubquery
  SelectStmtPtr subquery;

  std::vector<AstExprPtr> children;

  /// SQL-ish rendering (tests and error messages).
  std::string ToString() const;
};

struct SelectItem {
  bool is_star = false;   ///< SELECT *
  AstExprPtr expr;        ///< null when is_star
  std::string alias;      ///< optional AS alias
};

struct TableRef {
  std::string table;          ///< empty for derived tables
  std::string alias;          ///< defaults to the table name
  SelectStmtPtr subquery;     ///< derived table: FROM (SELECT ...) alias
};

struct OrderItem {
  AstExprPtr expr;
  bool descending = false;
};

/// A (possibly nested) select-from-where block.
struct SelectStmt {
  bool distinct = false;
  std::vector<SelectItem> items;
  std::vector<TableRef> from;
  AstExprPtr where;   ///< may be null
  std::vector<AstExprPtr> group_by;
  AstExprPtr having;  ///< may be null (requires group_by)
  std::vector<OrderItem> order_by;
  int64_t limit = -1;  ///< -1: no LIMIT

  /// Set operation: this block UNION [ALL] `union_next`. Chained blocks
  /// must have select lists of equal arity; `union_all` distinguishes
  /// UNION ALL (bag) from UNION (duplicate-eliminating).
  SelectStmtPtr union_next;
  bool union_all = false;

  std::string ToString() const;
};

}  // namespace bypass

#endif  // BYPASSDB_SQL_AST_H_
