#include "frontend/translator.h"

#include <unordered_set>

#include "common/check.h"
#include "common/string_util.h"
#include "expr/expr_util.h"

namespace bypass {

namespace {

/// True if the AST expression contains an aggregate call at any depth
/// outside nested subqueries.
bool ContainsAggCall(const AstExpr& ast) {
  if (ast.kind == AstExprKind::kAggCall) return true;
  if (ast.kind == AstExprKind::kSubquery ||
      ast.kind == AstExprKind::kExists ||
      ast.kind == AstExprKind::kInSubquery) {
    return false;
  }
  for (const AstExprPtr& c : ast.children) {
    if (c && ContainsAggCall(*c)) return true;
  }
  return false;
}

/// Qualifiers referenced by a translated expression (outer refs excluded).
void CollectLocalQualifiers(const ExprPtr& expr,
                            std::unordered_set<std::string>* out) {
  for (ColumnRefExpr* ref : CollectColumnRefs(expr.get())) {
    if (!ref->is_outer()) out->insert(ref->qualifier());
  }
}

bool HasOuterRefOrSubquery(const ExprPtr& expr) {
  return ContainsOuterRef(expr) || ContainsSubquery(expr);
}

}  // namespace

std::string Translator::FreshName(const char* prefix) {
  return std::string("$") + prefix + std::to_string(name_counter_++);
}

Result<LogicalOpPtr> Translator::Translate(const SelectStmt& stmt) {
  BYPASS_ASSIGN_OR_RETURN(
      LogicalOpPtr plan,
      TranslateBlock(stmt, /*outer_schema=*/nullptr,
                     /*for_subquery=*/false));
  // Set operations: UNION ALL concatenates (our disjoint multiset union);
  // plain UNION additionally eliminates duplicates.
  const SelectStmt* block = &stmt;
  while (block->union_next != nullptr) {
    const bool bag = block->union_all;
    const SelectStmt& next = *block->union_next;
    BYPASS_ASSIGN_OR_RETURN(
        LogicalOpPtr rhs,
        TranslateBlock(next, /*outer_schema=*/nullptr,
                       /*for_subquery=*/true));
    if (rhs->schema().num_columns() != plan->schema().num_columns()) {
      return Status::BindError(
          "UNION branches must have the same number of columns");
    }
    plan = std::make_shared<UnionOp>(
        LogicalInput{std::move(plan), StreamPort::kOut},
        LogicalInput{std::move(rhs), StreamPort::kOut});
    if (!bag) {
      plan = std::make_shared<DistinctOp>(
          LogicalInput{std::move(plan), StreamPort::kOut});
    }
    block = &next;
  }
  return plan;
}

Result<ExprPtr> Translator::ResolveColumn(const AstExpr& ast,
                                          const Schema& local,
                                          const Schema* outer) {
  // Local scope first; fall back to the enclosing block (correlation).
  auto local_slot = local.FindColumn(ast.qualifier, ast.name);
  if (local_slot.ok()) {
    const ColumnDef& col = local.column(*local_slot);
    return MakeColumnRef(col.qualifier, col.name, /*is_outer=*/false);
  }
  if (local_slot.status().code() == StatusCode::kInvalidArgument) {
    return Status::BindError(local_slot.status().message());
  }
  if (outer != nullptr) {
    auto outer_slot = outer->FindColumn(ast.qualifier, ast.name);
    if (outer_slot.ok()) {
      const ColumnDef& col = outer->column(*outer_slot);
      return MakeColumnRef(col.qualifier, col.name, /*is_outer=*/true);
    }
    if (outer_slot.status().code() == StatusCode::kInvalidArgument) {
      return Status::BindError(outer_slot.status().message());
    }
  }
  return Status::BindError(
      "column not found in this or the enclosing block: " +
      ast.ToString() +
      " (only direct correlation is supported, as in the paper)");
}

Result<AggregateSpec> Translator::TranslateAggregate(const AstExpr& ast,
                                                     const Schema& local,
                                                     const Schema* outer) {
  AggregateSpec spec;
  if (ast.agg_name == "count") {
    spec.func = AggFunc::kCount;
  } else if (ast.agg_name == "sum") {
    spec.func = AggFunc::kSum;
  } else if (ast.agg_name == "avg") {
    spec.func = AggFunc::kAvg;
  } else if (ast.agg_name == "min") {
    spec.func = AggFunc::kMin;
  } else if (ast.agg_name == "max") {
    spec.func = AggFunc::kMax;
  } else {
    return Status::BindError("unknown aggregate: " + ast.agg_name);
  }
  spec.distinct = ast.distinct;
  if (ast.children.empty()) {
    if (spec.func != AggFunc::kCount) {
      return Status::BindError(ast.agg_name + "(*) is not valid SQL");
    }
    spec.arg = nullptr;  // '*'
  } else {
    BYPASS_ASSIGN_OR_RETURN(spec.arg,
                            TranslateExpr(*ast.children[0], local, outer));
  }
  spec.output_name = FreshName("agg");
  return spec;
}

Result<ExprPtr> Translator::TranslateExprWithAggs(
    const AstExpr& ast, const Schema& local, const Schema* outer,
    std::vector<AggregateSpec>* aggs) {
  if (ast.kind == AstExprKind::kAggCall) {
    BYPASS_ASSIGN_OR_RETURN(AggregateSpec spec,
                            TranslateAggregate(ast, local, outer));
    ExprPtr ref = MakeColumnRef("", spec.output_name);
    aggs->push_back(std::move(spec));
    return ref;
  }
  if (!ContainsAggCall(ast)) return TranslateExpr(ast, local, outer);
  // Rebuild boolean/arithmetic structure around translated children.
  switch (ast.kind) {
    case AstExprKind::kCompare: {
      BYPASS_ASSIGN_OR_RETURN(
          ExprPtr l,
          TranslateExprWithAggs(*ast.children[0], local, outer, aggs));
      BYPASS_ASSIGN_OR_RETURN(
          ExprPtr r,
          TranslateExprWithAggs(*ast.children[1], local, outer, aggs));
      return MakeComparison(ast.compare_op, std::move(l), std::move(r));
    }
    case AstExprKind::kAnd:
    case AstExprKind::kOr: {
      std::vector<ExprPtr> terms;
      for (const AstExprPtr& c : ast.children) {
        BYPASS_ASSIGN_OR_RETURN(
            ExprPtr t, TranslateExprWithAggs(*c, local, outer, aggs));
        terms.push_back(std::move(t));
      }
      return ast.kind == AstExprKind::kAnd ? MakeAnd(std::move(terms))
                                           : MakeOr(std::move(terms));
    }
    case AstExprKind::kNot: {
      BYPASS_ASSIGN_OR_RETURN(
          ExprPtr inner,
          TranslateExprWithAggs(*ast.children[0], local, outer, aggs));
      return MakeNot(std::move(inner));
    }
    case AstExprKind::kArith: {
      BYPASS_ASSIGN_OR_RETURN(
          ExprPtr l,
          TranslateExprWithAggs(*ast.children[0], local, outer, aggs));
      BYPASS_ASSIGN_OR_RETURN(
          ExprPtr r,
          TranslateExprWithAggs(*ast.children[1], local, outer, aggs));
      ArithOp op = ArithOp::kAdd;
      switch (ast.arith_op) {
        case AstArithOp::kAdd:
          op = ArithOp::kAdd;
          break;
        case AstArithOp::kSub:
          op = ArithOp::kSub;
          break;
        case AstArithOp::kMul:
          op = ArithOp::kMul;
          break;
        case AstArithOp::kDiv:
          op = ArithOp::kDiv;
          break;
      }
      return ExprPtr(std::make_shared<ArithmeticExpr>(op, std::move(l),
                                                      std::move(r)));
    }
    default:
      return Status::Unsupported(
          "aggregate call in an unsupported position: " + ast.ToString());
  }
}

Result<LogicalOpPtr> Translator::TranslateGroupBy(
    const SelectStmt& stmt, LogicalOpPtr input, const Schema& local,
    const Schema* outer_schema) {
  // Keys must be plain columns of the block's FROM schema.
  std::vector<GroupKey> keys;
  Schema key_schema;
  for (const AstExprPtr& key_ast : stmt.group_by) {
    BYPASS_ASSIGN_OR_RETURN(ExprPtr key,
                            TranslateExpr(*key_ast, local, outer_schema));
    if (key->kind() != ExprKind::kColumnRef ||
        static_cast<const ColumnRefExpr*>(key.get())->is_outer()) {
      return Status::Unsupported(
          "GROUP BY supports plain local columns only: " +
          key_ast->ToString());
    }
    const auto* ref = static_cast<const ColumnRefExpr*>(key.get());
    keys.push_back(GroupKey{ref->qualifier(), ref->name()});
    BYPASS_ASSIGN_OR_RETURN(
        int slot, local.FindColumn(ref->qualifier(), ref->name()));
    key_schema.AddColumn(local.column(slot));
  }

  // Select items: group columns or aggregate expressions.
  std::vector<AggregateSpec> aggs;
  std::vector<NamedExpr> items;
  for (const SelectItem& item : stmt.items) {
    if (item.is_star) {
      return Status::Unsupported("SELECT * with GROUP BY");
    }
    ExprPtr translated;
    if (ContainsAggCall(*item.expr)) {
      BYPASS_ASSIGN_OR_RETURN(
          translated,
          TranslateExprWithAggs(*item.expr, local, outer_schema, &aggs));
    } else {
      // Must reference group keys only.
      BYPASS_ASSIGN_OR_RETURN(
          translated, TranslateExpr(*item.expr, local, outer_schema));
      for (ColumnRefExpr* ref : CollectColumnRefs(translated.get())) {
        if (ref->is_outer()) continue;
        if (!key_schema.HasColumn(ref->qualifier(), ref->name())) {
          return Status::BindError(
              "column must appear in GROUP BY or an aggregate: " +
              ref->ToString());
        }
      }
    }
    std::string name = item.alias;
    std::string qualifier;
    if (name.empty() && translated->kind() == ExprKind::kColumnRef) {
      const auto* ref =
          static_cast<const ColumnRefExpr*>(translated.get());
      name = ref->name();
      qualifier = ref->qualifier();
    }
    if (name.empty()) name = FreshName("col");
    items.push_back(NamedExpr{std::move(translated), std::move(name),
                              std::move(qualifier)});
  }

  // HAVING folds its aggregates into the same grouping operator.
  ExprPtr having;
  if (stmt.having != nullptr) {
    BYPASS_ASSIGN_OR_RETURN(
        having,
        TranslateExprWithAggs(*stmt.having, local, outer_schema, &aggs));
    for (ColumnRefExpr* ref : CollectColumnRefs(having.get())) {
      if (ref->is_outer() || ref->name().rfind("$agg", 0) == 0) continue;
      if (!key_schema.HasColumn(ref->qualifier(), ref->name())) {
        return Status::BindError(
            "HAVING column must appear in GROUP BY or an aggregate: " +
            ref->ToString());
      }
    }
  }

  LogicalOpPtr plan = std::make_shared<GroupByOp>(
      LogicalInput{std::move(input), StreamPort::kOut}, std::move(keys),
      std::move(aggs), /*scalar=*/false);
  if (having != nullptr) {
    plan = std::make_shared<SelectOp>(
        LogicalInput{plan, StreamPort::kOut}, std::move(having));
  }
  return LogicalOpPtr(std::make_shared<ProjectOp>(
      LogicalInput{plan, StreamPort::kOut}, std::move(items)));
}

Result<ExprPtr> Translator::TranslateExpr(const AstExpr& ast,
                                          const Schema& local,
                                          const Schema* outer) {
  switch (ast.kind) {
    case AstExprKind::kLiteral:
      return MakeLiteral(ast.value);
    case AstExprKind::kColumnRef:
      return ResolveColumn(ast, local, outer);
    case AstExprKind::kCompare: {
      BYPASS_ASSIGN_OR_RETURN(ExprPtr l,
                              TranslateExpr(*ast.children[0], local, outer));
      BYPASS_ASSIGN_OR_RETURN(ExprPtr r,
                              TranslateExpr(*ast.children[1], local, outer));
      return MakeComparison(ast.compare_op, std::move(l), std::move(r));
    }
    case AstExprKind::kAnd:
    case AstExprKind::kOr: {
      std::vector<ExprPtr> terms;
      terms.reserve(ast.children.size());
      for (const AstExprPtr& c : ast.children) {
        BYPASS_ASSIGN_OR_RETURN(ExprPtr t,
                                TranslateExpr(*c, local, outer));
        terms.push_back(std::move(t));
      }
      return ast.kind == AstExprKind::kAnd ? MakeAnd(std::move(terms))
                                           : MakeOr(std::move(terms));
    }
    case AstExprKind::kNot: {
      BYPASS_ASSIGN_OR_RETURN(ExprPtr inner,
                              TranslateExpr(*ast.children[0], local, outer));
      // Fold NOT (EXISTS ...) / NOT (x IN ...) into the subquery node
      // itself so the unnesting rewriter sees the quantifier directly.
      if (inner->kind() == ExprKind::kSubquery) {
        auto* sq = static_cast<SubqueryExpr*>(inner.get());
        if (sq->subquery_kind() != SubqueryKind::kScalar) {
          sq->set_negated(!sq->negated());
          return inner;
        }
      }
      return MakeNot(std::move(inner));
    }
    case AstExprKind::kArith: {
      BYPASS_ASSIGN_OR_RETURN(ExprPtr l,
                              TranslateExpr(*ast.children[0], local, outer));
      BYPASS_ASSIGN_OR_RETURN(ExprPtr r,
                              TranslateExpr(*ast.children[1], local, outer));
      ArithOp op = ArithOp::kAdd;
      switch (ast.arith_op) {
        case AstArithOp::kAdd:
          op = ArithOp::kAdd;
          break;
        case AstArithOp::kSub:
          op = ArithOp::kSub;
          break;
        case AstArithOp::kMul:
          op = ArithOp::kMul;
          break;
        case AstArithOp::kDiv:
          op = ArithOp::kDiv;
          break;
      }
      return ExprPtr(std::make_shared<ArithmeticExpr>(op, std::move(l),
                                                      std::move(r)));
    }
    case AstExprKind::kNegate: {
      BYPASS_ASSIGN_OR_RETURN(ExprPtr inner,
                              TranslateExpr(*ast.children[0], local, outer));
      return ExprPtr(std::make_shared<ArithmeticExpr>(
          ArithOp::kSub, MakeLiteral(Value::Int64(0)),
          std::move(inner)));
    }
    case AstExprKind::kLike: {
      BYPASS_ASSIGN_OR_RETURN(ExprPtr input,
                              TranslateExpr(*ast.children[0], local, outer));
      return ExprPtr(std::make_shared<LikeExpr>(std::move(input),
                                                ast.pattern, ast.negated));
    }
    case AstExprKind::kIsNull: {
      BYPASS_ASSIGN_OR_RETURN(ExprPtr input,
                              TranslateExpr(*ast.children[0], local, outer));
      return ExprPtr(
          std::make_shared<IsNullExpr>(std::move(input), ast.negated));
    }
    case AstExprKind::kAggCall:
      return Status::BindError(
          "aggregate call outside a select list: " + ast.ToString());
    case AstExprKind::kSubquery: {
      BYPASS_ASSIGN_OR_RETURN(
          LogicalOpPtr plan,
          TranslateBlock(*ast.subquery, &local, /*for_subquery=*/true));
      if (plan->schema().num_columns() != 1) {
        return Status::BindError(
            "scalar subquery must produce exactly one column");
      }
      return ExprPtr(std::make_shared<SubqueryExpr>(SubqueryKind::kScalar,
                                                    std::move(plan)));
    }
    case AstExprKind::kExists: {
      BYPASS_ASSIGN_OR_RETURN(
          LogicalOpPtr plan,
          TranslateBlock(*ast.subquery, &local, /*for_subquery=*/true));
      auto sq = std::make_shared<SubqueryExpr>(SubqueryKind::kExists,
                                               std::move(plan));
      sq->set_negated(ast.negated);
      return ExprPtr(sq);
    }
    case AstExprKind::kInSubquery: {
      BYPASS_ASSIGN_OR_RETURN(ExprPtr probe,
                              TranslateExpr(*ast.children[0], local, outer));
      BYPASS_ASSIGN_OR_RETURN(
          LogicalOpPtr plan,
          TranslateBlock(*ast.subquery, &local, /*for_subquery=*/true));
      if (plan->schema().num_columns() != 1) {
        return Status::BindError(
            "IN subquery must produce exactly one column");
      }
      auto sq = std::make_shared<SubqueryExpr>(SubqueryKind::kIn,
                                               std::move(plan));
      sq->set_negated(ast.negated);
      sq->set_probe(std::move(probe));
      return ExprPtr(sq);
    }
    case AstExprKind::kQuantified: {
      // Paper outlook item (3): θ SOME/ANY and θ ALL. Desugared into
      // existential blocks that the bypass semi-/anti-join rewrites then
      // unnest:
      //   x θ SOME (SELECT e FROM F WHERE p)
      //     ≡ EXISTS (SELECT * FROM F WHERE p AND x θ e)
      //   x θ ALL (SELECT e FROM F WHERE p)
      //     ≡ NOT EXISTS (SELECT * FROM F WHERE p AND NOT (x θ e))
      // (The ALL form assumes two-valued comparisons, i.e. NULL-free
      // columns; see DESIGN.md.)
      if (ast.subquery->items.size() != 1 ||
          ast.subquery->items[0].is_star) {
        return Status::BindError(
            "quantified subquery must produce exactly one column");
      }
      if (ContainsAggCall(*ast.subquery->items[0].expr)) {
        return Status::Unsupported(
            "aggregates in quantified subqueries are not supported");
      }
      const bool all = ast.quantifier == AstQuantifier::kAll;
      auto membership = std::make_shared<AstExpr>();
      membership->kind = AstExprKind::kCompare;
      // ALL negates the comparison operator directly (two-valued logic)
      // so the witness predicate stays a plain correlated comparison the
      // rewriter can turn into a join condition.
      membership->compare_op =
          all ? NegateCompareOp(ast.compare_op) : ast.compare_op;
      membership->children.push_back(ast.children[0]);
      membership->children.push_back(ast.subquery->items[0].expr);
      AstExprPtr added = membership;
      auto block = std::make_shared<SelectStmt>();
      block->items.push_back(SelectItem{/*is_star=*/true, nullptr, ""});
      block->from = ast.subquery->from;
      if (ast.subquery->where != nullptr) {
        auto conj = std::make_shared<AstExpr>();
        conj->kind = AstExprKind::kAnd;
        conj->children.push_back(ast.subquery->where);
        conj->children.push_back(std::move(added));
        block->where = std::move(conj);
      } else {
        block->where = std::move(added);
      }
      BYPASS_ASSIGN_OR_RETURN(
          LogicalOpPtr plan,
          TranslateBlock(*block, &local, /*for_subquery=*/true));
      auto sq = std::make_shared<SubqueryExpr>(SubqueryKind::kExists,
                                               std::move(plan));
      sq->set_negated(all);
      return ExprPtr(sq);
    }
    case AstExprKind::kInList: {
      // x IN (v1, ..., vn) desugars into a disjunction of equalities —
      // which also exercises the bypass machinery downstream.
      BYPASS_ASSIGN_OR_RETURN(ExprPtr probe,
                              TranslateExpr(*ast.children[0], local, outer));
      std::vector<ExprPtr> disjuncts;
      for (size_t i = 1; i < ast.children.size(); ++i) {
        BYPASS_ASSIGN_OR_RETURN(
            ExprPtr v, TranslateExpr(*ast.children[i], local, outer));
        disjuncts.push_back(MakeComparison(CompareOp::kEq, probe->Clone(),
                                           std::move(v)));
      }
      ExprPtr in = MakeOr(std::move(disjuncts));
      return ast.negated ? MakeNot(std::move(in)) : in;
    }
  }
  BYPASS_UNREACHABLE("bad AstExprKind");
}

Result<LogicalOpPtr> Translator::TranslateBlock(const SelectStmt& stmt,
                                                const Schema* outer_schema,
                                                bool for_subquery) {
  if (stmt.from.empty()) {
    return Status::Unsupported("FROM clause is required");
  }
  if (for_subquery && !stmt.order_by.empty()) {
    return Status::Unsupported("ORDER BY inside a subquery");
  }
  if (for_subquery && stmt.limit >= 0) {
    return Status::Unsupported("LIMIT inside a subquery");
  }

  // ---- FROM: resolve tables, build per-table Get nodes. ----
  std::vector<LogicalOpPtr> relations;
  std::vector<std::string> aliases;
  Schema local;
  {
    std::unordered_set<std::string> seen_aliases;
    for (const TableRef& ref : stmt.from) {
      const std::string alias = ToLower(ref.alias);
      if (!seen_aliases.insert(alias).second) {
        return Status::BindError("duplicate table alias: " + alias);
      }
      LogicalOpPtr relation;
      Schema qualified;
      if (ref.subquery != nullptr) {
        // Derived table: translate the block (SQL scoping: it cannot see
        // the enclosing FROM), then re-qualify its output columns with
        // the alias. Because its operators become part of this block's
        // plan, disjunctive subqueries inside it are unnested by the
        // same fixpoint pass (paper outlook item 2).
        BYPASS_ASSIGN_OR_RETURN(
            LogicalOpPtr block,
            TranslateBlock(*ref.subquery, outer_schema,
                           /*for_subquery=*/true));
        std::vector<NamedExpr> items;
        std::unordered_set<std::string> seen_names;
        for (const ColumnDef& c : block->schema().columns()) {
          if (!seen_names.insert(c.name).second) {
            return Status::BindError(
                "derived table '" + alias +
                "' has a duplicate output column: " + c.name);
          }
          items.push_back(NamedExpr{MakeColumnRef(c.qualifier, c.name),
                                    c.name, alias});
        }
        relation = std::make_shared<ProjectOp>(
            LogicalInput{std::move(block), StreamPort::kOut},
            std::move(items));
        qualified = relation->schema();
      } else {
        BYPASS_ASSIGN_OR_RETURN(Table * table,
                                catalog_->GetTable(ref.table));
        for (const ColumnDef& c : table->schema().columns()) {
          qualified.AddColumn({c.name, c.type, alias});
        }
        relation = std::make_shared<GetOp>(table->name(), alias,
                                           qualified);
      }
      relations.push_back(std::move(relation));
      aliases.push_back(alias);
      local = Schema::Concat(local, qualified);
    }
  }

  // ---- WHERE: translate, split conjuncts into buckets. ----
  // per-table filters (pushed below the join), equi-join edges, and the
  // residual selection on top (correlated predicates, subqueries,
  // disjunctions spanning tables, ...).
  std::vector<std::vector<ExprPtr>> table_filters(relations.size());
  struct JoinEdge {
    size_t left_rel;
    size_t right_rel;
    ExprPtr pred;
    bool used = false;
  };
  std::vector<JoinEdge> edges;
  std::vector<ExprPtr> residual;

  auto alias_index = [&](const std::string& qualifier) -> int {
    for (size_t i = 0; i < aliases.size(); ++i) {
      if (aliases[i] == qualifier) return static_cast<int>(i);
    }
    return -1;
  };

  if (stmt.where != nullptr) {
    BYPASS_ASSIGN_OR_RETURN(ExprPtr where,
                            TranslateExpr(*stmt.where, local,
                                          outer_schema));
    for (const ExprPtr& conjunct : SplitConjuncts(where)) {
      if (HasOuterRefOrSubquery(conjunct)) {
        residual.push_back(conjunct);
        continue;
      }
      std::unordered_set<std::string> quals;
      CollectLocalQualifiers(conjunct, &quals);
      if (quals.size() == 1) {
        const int idx = alias_index(*quals.begin());
        BYPASS_CHECK(idx >= 0);
        table_filters[static_cast<size_t>(idx)].push_back(conjunct);
        continue;
      }
      if (quals.size() == 2 &&
          conjunct->kind() == ExprKind::kComparison) {
        const auto* cmp =
            static_cast<const ComparisonExpr*>(conjunct.get());
        if (cmp->op() == CompareOp::kEq &&
            cmp->left()->kind() == ExprKind::kColumnRef &&
            cmp->right()->kind() == ExprKind::kColumnRef) {
          const auto* l =
              static_cast<const ColumnRefExpr*>(cmp->left().get());
          const auto* r =
              static_cast<const ColumnRefExpr*>(cmp->right().get());
          const int li = alias_index(l->qualifier());
          const int ri = alias_index(r->qualifier());
          if (li >= 0 && ri >= 0 && li != ri) {
            edges.push_back(JoinEdge{static_cast<size_t>(li),
                                     static_cast<size_t>(ri), conjunct});
            continue;
          }
        }
      }
      residual.push_back(conjunct);
    }
  }

  // ---- Assemble a left-deep join tree, greedily following equi edges.
  for (size_t i = 0; i < relations.size(); ++i) {
    if (!table_filters[i].empty()) {
      relations[i] = std::make_shared<SelectOp>(
          LogicalInput{relations[i], StreamPort::kOut},
          MakeAnd(std::move(table_filters[i])));
    }
  }
  std::vector<bool> joined(relations.size(), false);
  LogicalOpPtr plan = relations[0];
  joined[0] = true;
  size_t num_joined = 1;
  while (num_joined < relations.size()) {
    // Find an unjoined relation connected by some edge; else cross join
    // the first remaining one.
    int next = -1;
    for (const JoinEdge& e : edges) {
      if (e.used) continue;
      if (joined[e.left_rel] != joined[e.right_rel]) {
        next = static_cast<int>(joined[e.left_rel] ? e.right_rel
                                                   : e.left_rel);
        break;
      }
    }
    if (next < 0) {
      for (size_t i = 0; i < relations.size(); ++i) {
        if (!joined[i]) {
          next = static_cast<int>(i);
          break;
        }
      }
    }
    // Gather every edge between the connected set and `next`.
    std::vector<ExprPtr> preds;
    for (JoinEdge& e : edges) {
      if (e.used) continue;
      const bool connects =
          (joined[e.left_rel] && e.right_rel == static_cast<size_t>(next)) ||
          (joined[e.right_rel] && e.left_rel == static_cast<size_t>(next));
      if (connects) {
        e.used = true;
        preds.push_back(e.pred);
      }
    }
    plan = std::make_shared<JoinOp>(
        LogicalInput{plan, StreamPort::kOut},
        LogicalInput{relations[static_cast<size_t>(next)],
                     StreamPort::kOut},
        preds.empty() ? nullptr : MakeAnd(std::move(preds)));
    joined[static_cast<size_t>(next)] = true;
    ++num_joined;
  }
  // Leftover edges (cycles in the join graph) become a post-join filter.
  for (JoinEdge& e : edges) {
    if (!e.used) residual.push_back(e.pred);
  }

  if (!residual.empty()) {
    plan = std::make_shared<SelectOp>(LogicalInput{plan, StreamPort::kOut},
                                      MakeAnd(std::move(residual)));
  }

  // ---- Select list. ----
  bool has_agg = false;
  for (const SelectItem& item : stmt.items) {
    if (!item.is_star && ContainsAggCall(*item.expr)) has_agg = true;
  }

  if (!stmt.group_by.empty()) {
    BYPASS_ASSIGN_OR_RETURN(
        plan, TranslateGroupBy(stmt, plan, local, outer_schema));
  } else if (stmt.having != nullptr) {
    return Status::Unsupported("HAVING requires GROUP BY");
  } else if (has_agg) {
    // Aggregate block (no GROUP BY in the supported subset): every item
    // must be a single aggregate call — the shape the unnesting
    // equivalences expect (f as the top-level member of the predicate).
    std::vector<AggregateSpec> aggs;
    std::vector<NamedExpr> items;
    for (const SelectItem& item : stmt.items) {
      if (item.is_star || item.expr->kind != AstExprKind::kAggCall) {
        return Status::Unsupported(
            "select list mixes aggregates with non-aggregates");
      }
      BYPASS_ASSIGN_OR_RETURN(
          AggregateSpec spec,
          TranslateAggregate(*item.expr, local, outer_schema));
      const std::string out_name =
          item.alias.empty() ? spec.output_name : item.alias;
      items.push_back(NamedExpr{
          MakeColumnRef("", spec.output_name), out_name, ""});
      aggs.push_back(std::move(spec));
    }
    plan = std::make_shared<GroupByOp>(
        LogicalInput{plan, StreamPort::kOut}, std::vector<GroupKey>{},
        std::move(aggs), /*scalar=*/true);
    plan = std::make_shared<ProjectOp>(
        LogicalInput{plan, StreamPort::kOut}, std::move(items));
  } else {
    // Plain select list. SELECT * keeps the input schema unchanged.
    const bool star_only =
        stmt.items.size() == 1 && stmt.items[0].is_star;
    if (!star_only) {
      std::vector<NamedExpr> items;
      for (const SelectItem& item : stmt.items) {
        if (item.is_star) {
          for (const ColumnDef& c : local.columns()) {
            items.push_back(NamedExpr{MakeColumnRef(c.qualifier, c.name),
                                      c.name, c.qualifier});
          }
          continue;
        }
        BYPASS_ASSIGN_OR_RETURN(
            ExprPtr e, TranslateExpr(*item.expr, local, outer_schema));
        std::string name = item.alias;
        std::string qualifier;
        if (name.empty() && e->kind() == ExprKind::kColumnRef) {
          const auto* ref = static_cast<const ColumnRefExpr*>(e.get());
          name = ref->name();
          qualifier = ref->qualifier();
        }
        if (name.empty()) name = FreshName("col");
        items.push_back(NamedExpr{std::move(e), std::move(name),
                                  std::move(qualifier)});
      }
      plan = std::make_shared<ProjectOp>(
          LogicalInput{plan, StreamPort::kOut}, std::move(items));
    }
  }

  if (stmt.distinct) {
    plan = std::make_shared<DistinctOp>(
        LogicalInput{plan, StreamPort::kOut});
  }

  if (!stmt.order_by.empty()) {
    std::vector<SortKey> keys;
    for (const OrderItem& item : stmt.order_by) {
      // ORDER BY resolves against the block's output schema.
      BYPASS_ASSIGN_OR_RETURN(
          ExprPtr e,
          TranslateExpr(*item.expr, plan->schema(), outer_schema));
      keys.push_back(SortKey{std::move(e), item.descending});
    }
    plan = std::make_shared<SortOp>(LogicalInput{plan, StreamPort::kOut},
                                    std::move(keys));
  }

  if (stmt.limit >= 0) {
    plan = std::make_shared<LimitOp>(
        LogicalInput{plan, StreamPort::kOut}, stmt.limit);
  }
  return plan;
}

}  // namespace bypass
