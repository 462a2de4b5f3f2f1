#include "expr/expr.h"

#include <gtest/gtest.h>

#include "expr/expr_util.h"

namespace bypass {
namespace {

/// Evaluates `e` over a one-row batch holding `row`, with `outer` as the
/// correlation row.
Result<Value> EvalRow(const ExprPtr& e, const Row& row = {},
                      const Row* outer = nullptr) {
  std::vector<Value> out;
  BYPASS_RETURN_IF_ERROR(
      e->EvalBatch(RowBatch::FromRows({row}), outer, &out));
  if (out.size() != 1) return Status::Internal("expected one value");
  return out[0];
}

Value Eval(const ExprPtr& e, const Row& row = {},
           const Row* outer = nullptr) {
  auto result = EvalRow(e, row, outer);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? *result : Value::Null();
}

ExprPtr Slot(int slot, bool outer = false) {
  auto ref = std::make_shared<ColumnRefExpr>("t", "c", outer);
  ref->set_slot(slot);
  return ref;
}

ExprPtr Lit(int64_t v) { return MakeLiteral(Value::Int64(v)); }

TEST(ExprTest, LiteralEvaluatesToItself) {
  EXPECT_EQ(Eval(MakeLiteral(Value::String("hi"))).string_value(), "hi");
  EXPECT_TRUE(Eval(MakeLiteral(Value::Null())).is_null());
}

TEST(ExprTest, ColumnRefReadsSlot) {
  Row row{Value::Int64(10), Value::Int64(20)};
  EXPECT_EQ(Eval(Slot(1), row).int64_value(), 20);
}

TEST(ExprTest, OuterColumnRefReadsOuterRow) {
  Row row{Value::Int64(1)};
  Row outer{Value::Int64(7), Value::Int64(8)};
  EXPECT_EQ(Eval(Slot(1, /*outer=*/true), row, &outer).int64_value(), 8);
}

TEST(ExprTest, UnboundColumnRefIsInternalError) {
  auto ref = MakeColumnRef("t", "c");
  EXPECT_EQ(EvalRow(ref).status().code(), StatusCode::kInternal);
}

TEST(ExprTest, ComparisonProducesBoolOrNull) {
  EXPECT_TRUE(
      Eval(MakeComparison(CompareOp::kLt, Lit(1), Lit(2))).bool_value());
  EXPECT_FALSE(
      Eval(MakeComparison(CompareOp::kGt, Lit(1), Lit(2))).bool_value());
  EXPECT_TRUE(Eval(MakeComparison(CompareOp::kEq, Lit(1),
                                  MakeLiteral(Value::Null())))
                  .is_null());
}

TEST(ExprTest, AndShortCircuitsAndHandlesUnknown) {
  auto t = MakeLiteral(Value::Bool(true));
  auto f = MakeLiteral(Value::Bool(false));
  auto u = MakeLiteral(Value::Null());
  EXPECT_FALSE(Eval(MakeAnd({t, f})).bool_value());
  EXPECT_TRUE(Eval(MakeAnd({t->Clone(), t->Clone()})).bool_value());
  EXPECT_TRUE(Eval(MakeAnd({t->Clone(), u})).is_null());
  EXPECT_FALSE(Eval(MakeAnd({u->Clone(), f->Clone()})).bool_value());
}

TEST(ExprTest, OrShortCircuitsAndHandlesUnknown) {
  auto t = MakeLiteral(Value::Bool(true));
  auto f = MakeLiteral(Value::Bool(false));
  auto u = MakeLiteral(Value::Null());
  EXPECT_TRUE(Eval(MakeOr({f, t})).bool_value());
  EXPECT_TRUE(Eval(MakeOr({u, t->Clone()})).bool_value());
  EXPECT_TRUE(Eval(MakeOr({f->Clone(), u->Clone()})).is_null());
}

TEST(ExprTest, NotAppliesThreeValuedLogic) {
  EXPECT_FALSE(Eval(MakeNot(MakeLiteral(Value::Bool(true)))).bool_value());
  EXPECT_TRUE(Eval(MakeNot(MakeLiteral(Value::Null()))).is_null());
}

TEST(ExprTest, ArithmeticIntPreservation) {
  auto add = std::make_shared<ArithmeticExpr>(ArithOp::kAdd, Lit(2),
                                              Lit(3));
  Value v = Eval(add);
  EXPECT_TRUE(v.is_int64());
  EXPECT_EQ(v.int64_value(), 5);
}

TEST(ExprTest, ArithmeticPromotionToDouble) {
  auto mul = std::make_shared<ArithmeticExpr>(
      ArithOp::kMul, Lit(2), MakeLiteral(Value::Double(1.5)));
  Value v = Eval(mul);
  EXPECT_TRUE(v.is_double());
  EXPECT_DOUBLE_EQ(v.double_value(), 3.0);
}

TEST(ExprTest, DivisionAlwaysDouble) {
  auto div = std::make_shared<ArithmeticExpr>(ArithOp::kDiv, Lit(7),
                                              Lit(2));
  Value v = Eval(div);
  EXPECT_TRUE(v.is_double());
  EXPECT_DOUBLE_EQ(v.double_value(), 3.5);
}

TEST(ExprTest, DivisionByZeroIsExecutionError) {
  auto div = std::make_shared<ArithmeticExpr>(ArithOp::kDiv, Lit(7),
                                              Lit(0));
  EXPECT_EQ(EvalRow(div).status().code(), StatusCode::kExecutionError);
}

TEST(ExprTest, ArithmeticNullPropagates) {
  auto add = std::make_shared<ArithmeticExpr>(
      ArithOp::kAdd, Lit(2), MakeLiteral(Value::Null()));
  EXPECT_TRUE(Eval(add).is_null());
}

TEST(ExprTest, LikeAndNotLike) {
  auto like = std::make_shared<LikeExpr>(
      MakeLiteral(Value::String("POLISHED BRASS")), "%BRASS", false);
  EXPECT_TRUE(Eval(like).bool_value());
  auto not_like = std::make_shared<LikeExpr>(
      MakeLiteral(Value::String("POLISHED TIN")), "%BRASS", true);
  EXPECT_TRUE(Eval(not_like).bool_value());
  auto on_null = std::make_shared<LikeExpr>(MakeLiteral(Value::Null()),
                                            "%", false);
  EXPECT_TRUE(Eval(on_null).is_null());
}

TEST(ExprTest, IsNullIsTwoValued) {
  EXPECT_TRUE(Eval(std::make_shared<IsNullExpr>(
                       MakeLiteral(Value::Null()), false))
                  .bool_value());
  EXPECT_TRUE(
      Eval(std::make_shared<IsNullExpr>(Lit(1), true)).bool_value());
}

TEST(ExprTest, CoalesceReturnsFirstNonNull) {
  auto c = std::make_shared<FunctionExpr>(
      BuiltinFunc::kCoalesce,
      std::vector<ExprPtr>{MakeLiteral(Value::Null()), Lit(4), Lit(9)});
  EXPECT_EQ(Eval(c).int64_value(), 4);
}

TEST(ExprTest, AddIgnoreNullSemantics) {
  auto both = std::make_shared<FunctionExpr>(
      BuiltinFunc::kAddIgnoreNull, std::vector<ExprPtr>{Lit(4), Lit(9)});
  EXPECT_EQ(Eval(both).int64_value(), 13);
  auto one_null = std::make_shared<FunctionExpr>(
      BuiltinFunc::kAddIgnoreNull,
      std::vector<ExprPtr>{MakeLiteral(Value::Null()), Lit(9)});
  EXPECT_EQ(Eval(one_null).int64_value(), 9);
  auto all_null = std::make_shared<FunctionExpr>(
      BuiltinFunc::kAddIgnoreNull,
      std::vector<ExprPtr>{MakeLiteral(Value::Null()),
                           MakeLiteral(Value::Null())});
  EXPECT_TRUE(Eval(all_null).is_null());
}

TEST(ExprTest, LeastGreatestIgnoreNull) {
  auto least = std::make_shared<FunctionExpr>(
      BuiltinFunc::kLeastIgnoreNull,
      std::vector<ExprPtr>{MakeLiteral(Value::Null()), Lit(5), Lit(2)});
  EXPECT_EQ(Eval(least).int64_value(), 2);
  auto greatest = std::make_shared<FunctionExpr>(
      BuiltinFunc::kGreatestIgnoreNull,
      std::vector<ExprPtr>{Lit(5), MakeLiteral(Value::Null()), Lit(2)});
  EXPECT_EQ(Eval(greatest).int64_value(), 5);
}

TEST(ExprTest, DivOrNullIfZero) {
  auto ok = std::make_shared<FunctionExpr>(
      BuiltinFunc::kDivOrNullIfZero, std::vector<ExprPtr>{Lit(6), Lit(3)});
  EXPECT_DOUBLE_EQ(Eval(ok).double_value(), 2.0);
  auto by_zero = std::make_shared<FunctionExpr>(
      BuiltinFunc::kDivOrNullIfZero, std::vector<ExprPtr>{Lit(6), Lit(0)});
  EXPECT_TRUE(Eval(by_zero).is_null());
  auto by_null = std::make_shared<FunctionExpr>(
      BuiltinFunc::kDivOrNullIfZero,
      std::vector<ExprPtr>{Lit(6), MakeLiteral(Value::Null())});
  EXPECT_TRUE(Eval(by_null).is_null());
}

TEST(ExprTest, CloneIsDeepForBoundRefs) {
  ExprPtr original = MakeComparison(CompareOp::kEq, Slot(0), Lit(3));
  ExprPtr copy = original->Clone();
  // Mutating the copy's ref must not affect the original.
  static_cast<ColumnRefExpr*>(copy->children()[0].get())->set_slot(5);
  EXPECT_EQ(static_cast<ColumnRefExpr*>(original->children()[0].get())
                ->slot(),
            0);
}

TEST(ExprTest, MakeAndOrFlattenNested) {
  auto inner = MakeAnd({Lit(1), Lit(2)});
  auto outer = MakeAnd({inner, Lit(3)});
  EXPECT_EQ(outer->children().size(), 3u);
  auto inner_or = MakeOr({Lit(1), Lit(2)});
  auto outer_or = MakeOr({Lit(0), inner_or});
  EXPECT_EQ(outer_or->children().size(), 3u);
}

TEST(ExprTest, SingleTermJunctionCollapses) {
  auto one = MakeAnd({Lit(5)});
  EXPECT_EQ(one->kind(), ExprKind::kLiteral);
}

TEST(ExprTest, ToStringRoundTripsStructure) {
  auto pred = MakeOr({MakeComparison(CompareOp::kGt, Slot(0), Lit(3)),
                      MakeComparison(CompareOp::kEq, Slot(1), Lit(7))});
  const std::string s = pred->ToString();
  EXPECT_NE(s.find(" OR "), std::string::npos);
  EXPECT_NE(s.find("t.c"), std::string::npos);
}

// --- expr_util ---

TEST(ExprUtilTest, SplitConjunctsFlattens) {
  auto pred = MakeAnd({Lit(1), MakeAnd({Lit(2), Lit(3)})});
  EXPECT_EQ(SplitConjuncts(pred).size(), 3u);
  EXPECT_EQ(SplitConjuncts(Lit(1)).size(), 1u);
  EXPECT_TRUE(SplitConjuncts(nullptr).empty());
}

TEST(ExprUtilTest, SplitDisjunctsFlattens) {
  auto pred = MakeOr({Lit(1), MakeOr({Lit(2), Lit(3)})});
  EXPECT_EQ(SplitDisjuncts(pred).size(), 3u);
}

TEST(ExprUtilTest, ContainsOuterRefDetectsCorrelation) {
  EXPECT_TRUE(ContainsOuterRef(
      MakeComparison(CompareOp::kEq, Slot(0, true), Slot(1))));
  EXPECT_FALSE(ContainsOuterRef(
      MakeComparison(CompareOp::kEq, Slot(0), Slot(1))));
}

TEST(ExprUtilTest, CollectColumnRefsFindsAll) {
  auto pred = MakeAnd({MakeComparison(CompareOp::kEq, Slot(0), Slot(1)),
                       MakeComparison(CompareOp::kLt, Slot(2), Lit(1))});
  EXPECT_EQ(CollectColumnRefs(pred.get()).size(), 3u);
}

TEST(ExprUtilTest, ContainsSubqueryChecksNestedTree) {
  auto sq = std::make_shared<SubqueryExpr>(SubqueryKind::kScalar, nullptr);
  auto pred = MakeOr({Lit(1), MakeComparison(CompareOp::kEq, Lit(2),
                                             ExprPtr(sq))});
  EXPECT_TRUE(ContainsSubquery(pred));
  EXPECT_EQ(FindSubqueries(pred.get()).size(), 1u);
  EXPECT_FALSE(ContainsSubquery(Lit(1)));
}

}  // namespace
}  // namespace bypass
