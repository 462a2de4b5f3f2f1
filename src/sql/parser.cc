#include "sql/parser.h"

#include "common/string_util.h"
#include "sql/lexer.h"

namespace bypass {

namespace {

/// Token-stream cursor with keyword helpers.
class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<SelectStmtPtr> ParseStatement();

 private:
  const Token& Peek(int ahead = 0) const {
    const size_t i = pos_ + static_cast<size_t>(ahead);
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& Advance() { return tokens_[pos_++]; }
  bool Check(TokenType type) const { return Peek().type == type; }
  bool Match(TokenType type) {
    if (!Check(type)) return false;
    ++pos_;
    return true;
  }
  bool CheckKeyword(const char* kw) const {
    return Peek().type == TokenType::kIdentifier &&
           EqualsIgnoreCase(Peek().text, kw);
  }
  bool MatchKeyword(const char* kw) {
    if (!CheckKeyword(kw)) return false;
    ++pos_;
    return true;
  }
  Status Expect(TokenType type, const char* what) {
    if (Match(type)) return Status::OK();
    return Status::ParseError(std::string("expected ") + what +
                              " but found '" + DescribeCurrent() +
                              "' at offset " +
                              std::to_string(Peek().position));
  }
  Status ExpectKeyword(const char* kw) {
    if (MatchKeyword(kw)) return Status::OK();
    return Status::ParseError(std::string("expected keyword ") + kw +
                              " but found '" + DescribeCurrent() +
                              "' at offset " +
                              std::to_string(Peek().position));
  }
  std::string DescribeCurrent() const {
    const Token& t = Peek();
    if (t.type == TokenType::kIdentifier) return t.text;
    return TokenTypeToString(t.type);
  }

  Result<SelectStmtPtr> ParseSelectBody();
  Result<AstExprPtr> ParseExpr();
  Result<AstExprPtr> ParseOr();
  Result<AstExprPtr> ParseAnd();
  Result<AstExprPtr> ParseNot();
  Result<AstExprPtr> ParsePredicate();
  Result<AstExprPtr> ParseAdditive();
  Result<AstExprPtr> ParseMultiplicative();
  Result<AstExprPtr> ParseUnary();
  Result<AstExprPtr> ParsePrimary();

  static bool IsAggName(const std::string& s) {
    return EqualsIgnoreCase(s, "count") || EqualsIgnoreCase(s, "sum") ||
           EqualsIgnoreCase(s, "avg") || EqualsIgnoreCase(s, "min") ||
           EqualsIgnoreCase(s, "max");
  }

  /// Keywords that terminate expressions / cannot start identifiers in our
  /// grammar positions.
  static bool IsReserved(const std::string& s) {
    static const char* kReserved[] = {
        "select", "from", "where",  "order",    "by",  "and", "or",
        "not",    "like", "is",     "null",     "in",  "exists",
        "asc",    "desc", "distinct", "as", "true", "false", "between",
        "some",   "any",  "all",      "group", "having", "limit",
        "union"};
    for (const char* kw : kReserved) {
      if (EqualsIgnoreCase(s, kw)) return true;
    }
    return false;
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

Result<SelectStmtPtr> Parser::ParseStatement() {
  BYPASS_ASSIGN_OR_RETURN(SelectStmtPtr stmt, ParseSelectBody());
  SelectStmt* tail = stmt.get();
  while (MatchKeyword("union")) {
    const bool all = MatchKeyword("all");
    BYPASS_ASSIGN_OR_RETURN(SelectStmtPtr next, ParseSelectBody());
    tail->union_all = all;
    tail->union_next = std::move(next);
    tail = tail->union_next.get();
  }
  Match(TokenType::kSemicolon);
  if (!Check(TokenType::kEnd)) {
    return Status::ParseError("unexpected trailing input: '" +
                              DescribeCurrent() + "' at offset " +
                              std::to_string(Peek().position));
  }
  return stmt;
}

Result<SelectStmtPtr> Parser::ParseSelectBody() {
  BYPASS_RETURN_IF_ERROR(ExpectKeyword("select"));
  auto stmt = std::make_shared<SelectStmt>();
  stmt->distinct = MatchKeyword("distinct");

  // Select list.
  do {
    SelectItem item;
    if (Match(TokenType::kStar)) {
      item.is_star = true;
    } else {
      BYPASS_ASSIGN_OR_RETURN(item.expr, ParseExpr());
      if (MatchKeyword("as")) {
        if (!Check(TokenType::kIdentifier)) {
          return Status::ParseError("expected alias after AS");
        }
        item.alias = ToLower(Advance().text);
      } else if (Check(TokenType::kIdentifier) &&
                 !IsReserved(Peek().text)) {
        item.alias = ToLower(Advance().text);
      }
    }
    stmt->items.push_back(std::move(item));
  } while (Match(TokenType::kComma));

  // FROM.
  BYPASS_RETURN_IF_ERROR(ExpectKeyword("from"));
  do {
    TableRef ref;
    if (Check(TokenType::kLParen)) {
      // Derived table: (SELECT ...) alias.
      Advance();
      BYPASS_ASSIGN_OR_RETURN(ref.subquery, ParseSelectBody());
      BYPASS_RETURN_IF_ERROR(Expect(TokenType::kRParen, ")"));
    } else if (!Check(TokenType::kIdentifier) ||
               IsReserved(Peek().text)) {
      return Status::ParseError("expected table name in FROM");
    } else {
      ref.table = ToLower(Advance().text);
      ref.alias = ref.table;
    }
    if (MatchKeyword("as")) {
      if (!Check(TokenType::kIdentifier)) {
        return Status::ParseError("expected alias after AS");
      }
      ref.alias = ToLower(Advance().text);
    } else if (Check(TokenType::kIdentifier) && !IsReserved(Peek().text)) {
      ref.alias = ToLower(Advance().text);
    }
    if (ref.subquery != nullptr && ref.alias.empty()) {
      return Status::ParseError("derived table requires an alias");
    }
    stmt->from.push_back(std::move(ref));
  } while (Match(TokenType::kComma));

  // WHERE.
  if (MatchKeyword("where")) {
    BYPASS_ASSIGN_OR_RETURN(stmt->where, ParseExpr());
  }

  // GROUP BY / HAVING.
  if (MatchKeyword("group")) {
    BYPASS_RETURN_IF_ERROR(ExpectKeyword("by"));
    do {
      AstExprPtr key;
      BYPASS_ASSIGN_OR_RETURN(key, ParseExpr());
      stmt->group_by.push_back(std::move(key));
    } while (Match(TokenType::kComma));
    if (MatchKeyword("having")) {
      BYPASS_ASSIGN_OR_RETURN(stmt->having, ParseExpr());
    }
  }

  // ORDER BY.
  if (MatchKeyword("order")) {
    BYPASS_RETURN_IF_ERROR(ExpectKeyword("by"));
    do {
      OrderItem item;
      BYPASS_ASSIGN_OR_RETURN(item.expr, ParseExpr());
      if (MatchKeyword("desc")) {
        item.descending = true;
      } else {
        MatchKeyword("asc");
      }
      stmt->order_by.push_back(std::move(item));
    } while (Match(TokenType::kComma));
  }

  // LIMIT.
  if (MatchKeyword("limit")) {
    if (!Check(TokenType::kIntLiteral)) {
      return Status::ParseError("expected integer after LIMIT");
    }
    stmt->limit = Advance().int_value;
    if (stmt->limit < 0) {
      return Status::ParseError("LIMIT must be non-negative");
    }
  }
  return stmt;
}

Result<AstExprPtr> Parser::ParseExpr() { return ParseOr(); }

Result<AstExprPtr> Parser::ParseOr() {
  BYPASS_ASSIGN_OR_RETURN(AstExprPtr left, ParseAnd());
  if (!CheckKeyword("or")) return left;
  auto node = std::make_shared<AstExpr>();
  node->kind = AstExprKind::kOr;
  node->children.push_back(std::move(left));
  while (MatchKeyword("or")) {
    BYPASS_ASSIGN_OR_RETURN(AstExprPtr rhs, ParseAnd());
    node->children.push_back(std::move(rhs));
  }
  return AstExprPtr(node);
}

Result<AstExprPtr> Parser::ParseAnd() {
  BYPASS_ASSIGN_OR_RETURN(AstExprPtr left, ParseNot());
  if (!CheckKeyword("and")) return left;
  auto node = std::make_shared<AstExpr>();
  node->kind = AstExprKind::kAnd;
  node->children.push_back(std::move(left));
  while (MatchKeyword("and")) {
    BYPASS_ASSIGN_OR_RETURN(AstExprPtr rhs, ParseNot());
    node->children.push_back(std::move(rhs));
  }
  return AstExprPtr(node);
}

Result<AstExprPtr> Parser::ParseNot() {
  if (MatchKeyword("not")) {
    BYPASS_ASSIGN_OR_RETURN(AstExprPtr inner, ParseNot());
    auto node = std::make_shared<AstExpr>();
    node->kind = AstExprKind::kNot;
    node->children.push_back(std::move(inner));
    return AstExprPtr(node);
  }
  return ParsePredicate();
}

Result<AstExprPtr> Parser::ParsePredicate() {
  if (CheckKeyword("exists")) {
    Advance();
    BYPASS_RETURN_IF_ERROR(Expect(TokenType::kLParen, "("));
    auto node = std::make_shared<AstExpr>();
    node->kind = AstExprKind::kExists;
    BYPASS_ASSIGN_OR_RETURN(node->subquery, ParseSelectBody());
    BYPASS_RETURN_IF_ERROR(Expect(TokenType::kRParen, ")"));
    return AstExprPtr(node);
  }

  BYPASS_ASSIGN_OR_RETURN(AstExprPtr left, ParseAdditive());

  // Comparison operators.
  CompareOp op;
  bool have_op = true;
  switch (Peek().type) {
    case TokenType::kEq:
      op = CompareOp::kEq;
      break;
    case TokenType::kNe:
      op = CompareOp::kNe;
      break;
    case TokenType::kLt:
      op = CompareOp::kLt;
      break;
    case TokenType::kLe:
      op = CompareOp::kLe;
      break;
    case TokenType::kGt:
      op = CompareOp::kGt;
      break;
    case TokenType::kGe:
      op = CompareOp::kGe;
      break;
    default:
      have_op = false;
      break;
  }
  if (have_op) {
    Advance();
    // Quantified comparison: op SOME/ANY/ALL (SELECT ...).
    if ((CheckKeyword("some") || CheckKeyword("any") ||
         CheckKeyword("all")) &&
        Peek(1).type == TokenType::kLParen) {
      const bool all = CheckKeyword("all");
      Advance();  // quantifier
      Advance();  // (
      auto node = std::make_shared<AstExpr>();
      node->kind = AstExprKind::kQuantified;
      node->compare_op = op;
      node->quantifier =
          all ? AstQuantifier::kAll : AstQuantifier::kSome;
      node->children.push_back(std::move(left));
      BYPASS_ASSIGN_OR_RETURN(node->subquery, ParseSelectBody());
      BYPASS_RETURN_IF_ERROR(Expect(TokenType::kRParen, ")"));
      return AstExprPtr(node);
    }
    BYPASS_ASSIGN_OR_RETURN(AstExprPtr right, ParseAdditive());
    auto node = std::make_shared<AstExpr>();
    node->kind = AstExprKind::kCompare;
    node->compare_op = op;
    node->children.push_back(std::move(left));
    node->children.push_back(std::move(right));
    return AstExprPtr(node);
  }

  // IS [NOT] NULL.
  if (MatchKeyword("is")) {
    const bool negated = MatchKeyword("not");
    BYPASS_RETURN_IF_ERROR(ExpectKeyword("null"));
    auto node = std::make_shared<AstExpr>();
    node->kind = AstExprKind::kIsNull;
    node->negated = negated;
    node->children.push_back(std::move(left));
    return AstExprPtr(node);
  }

  // [NOT] LIKE / [NOT] IN / [NOT] BETWEEN.
  bool negated = false;
  if (CheckKeyword("not") &&
      (EqualsIgnoreCase(Peek(1).text, "like") ||
       EqualsIgnoreCase(Peek(1).text, "in") ||
       EqualsIgnoreCase(Peek(1).text, "between"))) {
    Advance();
    negated = true;
  }
  if (MatchKeyword("between")) {
    // a BETWEEN x AND y desugars to (a >= x AND a <= y).
    BYPASS_ASSIGN_OR_RETURN(AstExprPtr lo, ParseAdditive());
    BYPASS_RETURN_IF_ERROR(ExpectKeyword("and"));
    BYPASS_ASSIGN_OR_RETURN(AstExprPtr hi, ParseAdditive());
    auto ge = std::make_shared<AstExpr>();
    ge->kind = AstExprKind::kCompare;
    ge->compare_op = CompareOp::kGe;
    ge->children.push_back(left);
    ge->children.push_back(std::move(lo));
    auto le = std::make_shared<AstExpr>();
    le->kind = AstExprKind::kCompare;
    le->compare_op = CompareOp::kLe;
    le->children.push_back(left);
    le->children.push_back(std::move(hi));
    auto conj = std::make_shared<AstExpr>();
    conj->kind = AstExprKind::kAnd;
    conj->children.push_back(std::move(ge));
    conj->children.push_back(std::move(le));
    if (!negated) return AstExprPtr(conj);
    auto neg = std::make_shared<AstExpr>();
    neg->kind = AstExprKind::kNot;
    neg->children.push_back(std::move(conj));
    return AstExprPtr(neg);
  }
  if (MatchKeyword("like")) {
    if (!Check(TokenType::kStringLiteral)) {
      return Status::ParseError("expected string pattern after LIKE");
    }
    auto node = std::make_shared<AstExpr>();
    node->kind = AstExprKind::kLike;
    node->negated = negated;
    node->pattern = Advance().text;
    node->children.push_back(std::move(left));
    return AstExprPtr(node);
  }
  if (MatchKeyword("in")) {
    BYPASS_RETURN_IF_ERROR(Expect(TokenType::kLParen, "("));
    auto node = std::make_shared<AstExpr>();
    node->negated = negated;
    node->children.push_back(std::move(left));
    if (CheckKeyword("select")) {
      node->kind = AstExprKind::kInSubquery;
      BYPASS_ASSIGN_OR_RETURN(node->subquery, ParseSelectBody());
    } else {
      node->kind = AstExprKind::kInList;
      do {
        BYPASS_ASSIGN_OR_RETURN(AstExprPtr item, ParseExpr());
        node->children.push_back(std::move(item));
      } while (Match(TokenType::kComma));
    }
    BYPASS_RETURN_IF_ERROR(Expect(TokenType::kRParen, ")"));
    return AstExprPtr(node);
  }
  if (negated) {
    return Status::ParseError("expected LIKE or IN after NOT");
  }
  return left;
}

Result<AstExprPtr> Parser::ParseAdditive() {
  BYPASS_ASSIGN_OR_RETURN(AstExprPtr left, ParseMultiplicative());
  while (Check(TokenType::kPlus) || Check(TokenType::kMinus)) {
    const AstArithOp op = Check(TokenType::kPlus) ? AstArithOp::kAdd
                                                  : AstArithOp::kSub;
    Advance();
    BYPASS_ASSIGN_OR_RETURN(AstExprPtr right, ParseMultiplicative());
    auto node = std::make_shared<AstExpr>();
    node->kind = AstExprKind::kArith;
    node->arith_op = op;
    node->children.push_back(std::move(left));
    node->children.push_back(std::move(right));
    left = std::move(node);
  }
  return left;
}

Result<AstExprPtr> Parser::ParseMultiplicative() {
  BYPASS_ASSIGN_OR_RETURN(AstExprPtr left, ParseUnary());
  while (Check(TokenType::kStar) || Check(TokenType::kSlash)) {
    const AstArithOp op = Check(TokenType::kStar) ? AstArithOp::kMul
                                                  : AstArithOp::kDiv;
    Advance();
    BYPASS_ASSIGN_OR_RETURN(AstExprPtr right, ParseUnary());
    auto node = std::make_shared<AstExpr>();
    node->kind = AstExprKind::kArith;
    node->arith_op = op;
    node->children.push_back(std::move(left));
    node->children.push_back(std::move(right));
    left = std::move(node);
  }
  return left;
}

Result<AstExprPtr> Parser::ParseUnary() {
  if (Match(TokenType::kMinus)) {
    BYPASS_ASSIGN_OR_RETURN(AstExprPtr inner, ParseUnary());
    // Fold literal negation immediately.
    if (inner->kind == AstExprKind::kLiteral) {
      if (inner->value.is_int64()) {
        inner->value = Value::Int64(-inner->value.int64_value());
        return inner;
      }
      if (inner->value.is_double()) {
        inner->value = Value::Double(-inner->value.double_value());
        return inner;
      }
    }
    auto node = std::make_shared<AstExpr>();
    node->kind = AstExprKind::kNegate;
    node->children.push_back(std::move(inner));
    return AstExprPtr(node);
  }
  return ParsePrimary();
}

Result<AstExprPtr> Parser::ParsePrimary() {
  const Token& t = Peek();
  switch (t.type) {
    case TokenType::kIntLiteral: {
      Advance();
      auto node = std::make_shared<AstExpr>();
      node->kind = AstExprKind::kLiteral;
      node->value = Value::Int64(t.int_value);
      return AstExprPtr(node);
    }
    case TokenType::kDoubleLiteral: {
      Advance();
      auto node = std::make_shared<AstExpr>();
      node->kind = AstExprKind::kLiteral;
      node->value = Value::Double(t.double_value);
      return AstExprPtr(node);
    }
    case TokenType::kStringLiteral: {
      Advance();
      auto node = std::make_shared<AstExpr>();
      node->kind = AstExprKind::kLiteral;
      node->value = Value::String(t.text);
      return AstExprPtr(node);
    }
    case TokenType::kLParen: {
      Advance();
      if (CheckKeyword("select")) {
        auto node = std::make_shared<AstExpr>();
        node->kind = AstExprKind::kSubquery;
        BYPASS_ASSIGN_OR_RETURN(node->subquery, ParseSelectBody());
        BYPASS_RETURN_IF_ERROR(Expect(TokenType::kRParen, ")"));
        return AstExprPtr(node);
      }
      BYPASS_ASSIGN_OR_RETURN(AstExprPtr inner, ParseExpr());
      BYPASS_RETURN_IF_ERROR(Expect(TokenType::kRParen, ")"));
      return inner;
    }
    case TokenType::kIdentifier: {
      if (EqualsIgnoreCase(t.text, "true") ||
          EqualsIgnoreCase(t.text, "false")) {
        Advance();
        auto node = std::make_shared<AstExpr>();
        node->kind = AstExprKind::kLiteral;
        node->value = Value::Bool(EqualsIgnoreCase(t.text, "true"));
        return AstExprPtr(node);
      }
      if (EqualsIgnoreCase(t.text, "null")) {
        Advance();
        auto node = std::make_shared<AstExpr>();
        node->kind = AstExprKind::kLiteral;
        node->value = Value::Null();
        return AstExprPtr(node);
      }
      if (IsAggName(t.text) && Peek(1).type == TokenType::kLParen) {
        auto node = std::make_shared<AstExpr>();
        node->kind = AstExprKind::kAggCall;
        node->agg_name = ToLower(t.text);
        Advance();  // name
        Advance();  // (
        node->distinct = MatchKeyword("distinct");
        if (Match(TokenType::kStar)) {
          // '*': children stay empty.
        } else {
          BYPASS_ASSIGN_OR_RETURN(AstExprPtr arg, ParseExpr());
          node->children.push_back(std::move(arg));
        }
        BYPASS_RETURN_IF_ERROR(Expect(TokenType::kRParen, ")"));
        return AstExprPtr(node);
      }
      if (EqualsIgnoreCase(t.text, "coalesce") &&
          Peek(1).type == TokenType::kLParen) {
        auto node = std::make_shared<AstExpr>();
        node->kind = AstExprKind::kCoalesce;
        Advance();  // name
        Advance();  // (
        do {
          BYPASS_ASSIGN_OR_RETURN(AstExprPtr arg, ParseExpr());
          node->children.push_back(std::move(arg));
        } while (Match(TokenType::kComma));
        BYPASS_RETURN_IF_ERROR(Expect(TokenType::kRParen, ")"));
        return AstExprPtr(node);
      }
      if (IsReserved(t.text)) {
        return Status::ParseError("unexpected keyword '" + t.text +
                                  "' at offset " +
                                  std::to_string(t.position));
      }
      auto node = std::make_shared<AstExpr>();
      node->kind = AstExprKind::kColumnRef;
      node->name = ToLower(Advance().text);
      if (Match(TokenType::kDot)) {
        if (!Check(TokenType::kIdentifier)) {
          return Status::ParseError("expected column name after '.'");
        }
        node->qualifier = node->name;
        node->name = ToLower(Advance().text);
      }
      return AstExprPtr(node);
    }
    default:
      return Status::ParseError("unexpected token '" + DescribeCurrent() +
                                "' at offset " +
                                std::to_string(t.position));
  }
}

}  // namespace

Result<SelectStmtPtr> ParseSelect(const std::string& sql) {
  BYPASS_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(sql));
  Parser parser(std::move(tokens));
  return parser.ParseStatement();
}

}  // namespace bypass
