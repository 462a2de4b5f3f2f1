#include "expr/column_kernels.h"

#include <string_view>

#include "common/check.h"
#include "common/string_util.h"

namespace bypass {

namespace {

// The element sources and emit functors below are each called from every
// (left-source × right-source × loop-shape) instantiation of CompareLoop,
// so the inliner's unit-growth heuristics see dozens of call sites and
// outline them — turning the per-element path into real function calls
// (measured ~3x slower than the row loop). They are a handful of
// instructions each; force the issue.
#if defined(__GNUC__) || defined(__clang__)
#define BYPASS_KERNEL_INLINE __attribute__((always_inline))
#else
#define BYPASS_KERNEL_INLINE
#endif

Value TriBoolToValueLocal(TriBool t) {
  switch (t) {
    case TriBool::kTrue:
      return Value::Bool(true);
    case TriBool::kFalse:
      return Value::Bool(false);
    case TriBool::kUnknown:
      return Value::Null();
  }
  return Value::Null();
}

// ------------------------------------------------------------ sources
// Element sources: a typed column (raw data + null bitmap) or a
// broadcast constant. Templating the loops on the source pair hoists
// every type test out of the per-element path.

struct I64Col {
  static constexpr bool kIsInt = true;
  const int64_t* data;
  const uint64_t* nulls;
  bool has_nulls;
  BYPASS_KERNEL_INLINE bool IsNull(uint32_t i) const {
    return has_nulls && ((nulls[i >> 6] >> (i & 63)) & uint64_t{1}) != 0;
  }
  BYPASS_KERNEL_INLINE int64_t Get(uint32_t i) const { return data[i]; }
};

struct F64Col {
  static constexpr bool kIsInt = false;
  const double* data;
  const uint64_t* nulls;
  bool has_nulls;
  BYPASS_KERNEL_INLINE bool IsNull(uint32_t i) const {
    return has_nulls && ((nulls[i >> 6] >> (i & 63)) & uint64_t{1}) != 0;
  }
  BYPASS_KERNEL_INLINE double Get(uint32_t i) const { return data[i]; }
};

struct I64Const {
  static constexpr bool kIsInt = true;
  int64_t v;
  BYPASS_KERNEL_INLINE bool IsNull(uint32_t) const { return false; }
  BYPASS_KERNEL_INLINE int64_t Get(uint32_t) const { return v; }
};

struct F64Const {
  static constexpr bool kIsInt = false;
  double v;
  BYPASS_KERNEL_INLINE bool IsNull(uint32_t) const { return false; }
  BYPASS_KERNEL_INLINE double Get(uint32_t) const { return v; }
};

// Bools compare as 0/1 ints, exactly like Value::CompareSlow.
struct BoolCol {
  const uint8_t* data;
  const uint64_t* nulls;
  bool has_nulls;
  BYPASS_KERNEL_INLINE bool IsNull(uint32_t i) const {
    return has_nulls && ((nulls[i >> 6] >> (i & 63)) & uint64_t{1}) != 0;
  }
  BYPASS_KERNEL_INLINE int64_t Get(uint32_t i) const {
    return data[i] != 0 ? 1 : 0;
  }
};

struct StrCol {
  const ColumnVector* col;
  BYPASS_KERNEL_INLINE bool IsNull(uint32_t i) const {
    return col->IsNull(i);
  }
  BYPASS_KERNEL_INLINE std::string_view Get(uint32_t i) const {
    return col->string_at(i);
  }
};

struct StrConst {
  std::string_view v;
  BYPASS_KERNEL_INLINE bool IsNull(uint32_t) const { return false; }
  BYPASS_KERNEL_INLINE std::string_view Get(uint32_t) const { return v; }
};

// ----------------------------------------------------------- compare
// Normalized three-way comparison (-1/0/1) matching Value semantics:
// numbers in the numeric order (CompareNumeric), strings lexicographic.

template <typename A, typename B>
inline int CmpElem(A a, B b) {
  return CompareNumeric(a, b);
}
inline int CmpElem(std::string_view a, std::string_view b) {
  const int c = a.compare(b);
  return c < 0 ? -1 : (c > 0 ? 1 : 0);
}

// res[cmp+1] = two-valued result of `op` for cmp in {-1, 0, 1}; computed
// once per batch so the element loop is a table lookup instead of a
// per-element switch.
void FillResTable(CompareOp op, bool res[3]) {
  for (int c = -1; c <= 1; ++c) {
    bool v = false;
    switch (op) {
      case CompareOp::kEq:
        v = c == 0;
        break;
      case CompareOp::kNe:
        v = c != 0;
        break;
      case CompareOp::kLt:
        v = c < 0;
        break;
      case CompareOp::kLe:
        v = c <= 0;
        break;
      case CompareOp::kGt:
        v = c > 0;
        break;
      case CompareOp::kGe:
        v = c >= 0;
        break;
    }
    res[c + 1] = v;
  }
}

// Selection span the typed loops iterate (the batch's own selection).
// `dense` asserts sel[i] == sel[0] + i so hot loops can index storage
// directly.
struct SelSpan {
  const uint32_t* sel;
  size_t n;
  bool dense;
};

SelSpan BatchSpan(const RowBatch& batch) {
  return SelSpan{batch.selection().data(), batch.size(), batch.dense()};
}

template <typename LS, typename RS, typename EmitFn>
void CompareLoop(SelSpan span, const bool res[3], LS l, RS r,
                 EmitFn&& emit) {
  auto body = [&](uint32_t idx) BYPASS_KERNEL_INLINE {
    if (l.IsNull(idx) || r.IsNull(idx)) {
      emit(idx, TriBool::kUnknown);
      return;
    }
    emit(idx, res[CmpElem(l.Get(idx), r.Get(idx)) + 1] ? TriBool::kTrue
                                                       : TriBool::kFalse);
  };
  if (span.dense && span.n > 0) {
    const uint32_t base = span.sel[0];
    for (size_t i = 0; i < span.n; ++i) {
      body(base + static_cast<uint32_t>(i));
    }
  } else {
    for (size_t i = 0; i < span.n; ++i) body(span.sel[i]);
  }
}

// SQL LIKE under 3VL: NULL input → Unknown, otherwise the match result
// (inverted for NOT LIKE). Same loop shape as CompareLoop, monomorphized
// per matcher so each shape's loop carries no per-row dispatch.
template <typename S, typename MatchFn, typename EmitFn>
void LikeLoopWith(SelSpan span, S s, bool negated, MatchFn&& match,
                  EmitFn&& emit) {
  auto body = [&](uint32_t idx) BYPASS_KERNEL_INLINE {
    if (s.IsNull(idx)) {
      emit(idx, TriBool::kUnknown);
      return;
    }
    emit(idx, match(s.Get(idx)) != negated ? TriBool::kTrue
                                           : TriBool::kFalse);
  };
  if (span.dense && span.n > 0) {
    const uint32_t base = span.sel[0];
    for (size_t i = 0; i < span.n; ++i) {
      body(base + static_cast<uint32_t>(i));
    }
  } else {
    for (size_t i = 0; i < span.n; ++i) body(span.sel[i]);
  }
}

// Analyzes the pattern once per batch and picks the matcher: anchored
// shapes ('abc%', '%abc', '%abc%', exact, match-all) run a substring
// primitive per row; only kGeneric pays the backtracking matcher — which
// is why EstimateCost prices LIKE an order of magnitude above a
// comparison even though the common shapes run far cheaper.
template <typename S, typename EmitFn>
void LikeLoop(SelSpan span, S s, std::string_view pattern, bool negated,
              EmitFn&& emit) {
  const LikePattern shaped = AnalyzeLikePattern(pattern);
  const std::string_view body = shaped.body;
  switch (shaped.shape) {
    case LikeShape::kMatchAll:
      return LikeLoopWith(
          span, s, negated, [](std::string_view) { return true; }, emit);
    case LikeShape::kExact:
      return LikeLoopWith(
          span, s, negated,
          [body](std::string_view t) { return t == body; }, emit);
    case LikeShape::kPrefix:
      return LikeLoopWith(
          span, s, negated,
          [body](std::string_view t) { return t.starts_with(body); },
          emit);
    case LikeShape::kSuffix:
      return LikeLoopWith(
          span, s, negated,
          [body](std::string_view t) { return t.ends_with(body); }, emit);
    case LikeShape::kContains:
      return LikeLoopWith(
          span, s, negated,
          [body](std::string_view t) {
            return t.find(body) != std::string_view::npos;
          },
          emit);
    case LikeShape::kGeneric:
      break;
  }
  LikeLoopWith(
      span, s, negated,
      [pattern](std::string_view t) { return LikeMatch(t, pattern); },
      emit);
}

// Predicates that are Unknown for every row: a NULL constant operand, or
// operand types SQL comparison cannot relate (both cases collapse to
// Unknown whether or not the column value is NULL).
template <typename EmitFn>
void AllUnknownLoop(SelSpan span, EmitFn&& emit) {
  for (size_t i = 0; i < span.n; ++i) emit(span.sel[i], TriBool::kUnknown);
}

// -------------------------------------------------------- classification

enum class SrcTag {
  kI64Col,
  kF64Col,
  kBoolCol,
  kStrCol,
  kI64Const,
  kF64Const,
  kBoolConst,
  kStrConst,
  kNullConst,
};

SrcTag Classify(const ColumnOperand& o) {
  if (o.column != nullptr) {
    switch (o.column->type()) {
      case DataType::kInt64:
        return SrcTag::kI64Col;
      case DataType::kDouble:
        return SrcTag::kF64Col;
      case DataType::kBool:
        return SrcTag::kBoolCol;
      case DataType::kString:
        return SrcTag::kStrCol;
    }
  }
  const Value& v = *o.constant;
  if (v.is_null()) return SrcTag::kNullConst;
  if (v.is_int64()) return SrcTag::kI64Const;
  if (v.is_double()) return SrcTag::kF64Const;
  if (v.is_bool()) return SrcTag::kBoolConst;
  return SrcTag::kStrConst;
}

bool IsNumTag(SrcTag t) {
  return t == SrcTag::kI64Col || t == SrcTag::kF64Col ||
         t == SrcTag::kI64Const || t == SrcTag::kF64Const;
}
bool IsBoolTag(SrcTag t) {
  return t == SrcTag::kBoolCol || t == SrcTag::kBoolConst;
}
bool IsStrTag(SrcTag t) {
  return t == SrcTag::kStrCol || t == SrcTag::kStrConst;
}

// Continuation-passing source builders: instantiate `fn` with the right
// source type for the tag.
template <typename Fn>
void WithNumSrc(SrcTag t, const ColumnOperand& o, Fn&& fn) {
  switch (t) {
    case SrcTag::kI64Col:
      fn(I64Col{o.column->i64_data(), o.column->null_words(),
                o.column->has_nulls()});
      return;
    case SrcTag::kF64Col:
      fn(F64Col{o.column->f64_data(), o.column->null_words(),
                o.column->has_nulls()});
      return;
    case SrcTag::kI64Const:
      fn(I64Const{o.constant->int64_value()});
      return;
    case SrcTag::kF64Const:
      fn(F64Const{o.constant->double_value()});
      return;
    default:
      return;
  }
}

template <typename Fn>
void WithBoolSrc(SrcTag t, const ColumnOperand& o, Fn&& fn) {
  if (t == SrcTag::kBoolCol) {
    fn(BoolCol{o.column->bool_data(), o.column->null_words(),
               o.column->has_nulls()});
  } else {
    fn(I64Const{o.constant->bool_value() ? 1 : 0});
  }
}

template <typename Fn>
void WithStrSrc(SrcTag t, const ColumnOperand& o, Fn&& fn) {
  if (t == SrcTag::kStrCol) {
    fn(StrCol{o.column});
  } else {
    fn(StrConst{std::string_view(o.constant->string_value())});
  }
}

/// Shared comparison dispatch: classifies the operand pair, then runs
/// the matching typed loop with `emit(storage_idx, TriBool)`. Returns
/// false when no kernel applies.
template <typename EmitFn>
bool DispatchCompare(CompareOp op, const ColumnOperand& l,
                     const ColumnOperand& r, SelSpan span, EmitFn&& emit) {
  if (l.column == nullptr && r.column == nullptr) return false;
  const SrcTag lt = Classify(l);
  const SrcTag rt = Classify(r);
  if (lt == SrcTag::kNullConst || rt == SrcTag::kNullConst) {
    AllUnknownLoop(span, emit);
    return true;
  }
  bool res[3];
  FillResTable(op, res);
  if (IsNumTag(lt) && IsNumTag(rt)) {
    WithNumSrc(lt, l, [&](auto ls) {
      WithNumSrc(rt, r, [&](auto rs) { CompareLoop(span, res, ls, rs, emit); });
    });
    return true;
  }
  if (IsBoolTag(lt) && IsBoolTag(rt)) {
    WithBoolSrc(lt, l, [&](auto ls) {
      WithBoolSrc(rt, r,
                  [&](auto rs) { CompareLoop(span, res, ls, rs, emit); });
    });
    return true;
  }
  if (IsStrTag(lt) && IsStrTag(rt)) {
    WithStrSrc(lt, l, [&](auto ls) {
      WithStrSrc(rt, r,
                 [&](auto rs) { CompareLoop(span, res, ls, rs, emit); });
    });
    return true;
  }
  // Type-mismatched operands: SQL comparison yields Unknown everywhere.
  AllUnknownLoop(span, emit);
  return true;
}

/// LIKE dispatch: string column / string constant run the typed matcher,
/// a NULL constant is Unknown everywhere, anything else (the Value path
/// raises an execution error for non-string inputs) gets no kernel.
template <typename EmitFn>
bool DispatchLike(const ColumnOperand& input, std::string_view pattern,
                  bool negated, SelSpan span, EmitFn&& emit) {
  const SrcTag t = Classify(input);
  if (t == SrcTag::kNullConst) {
    AllUnknownLoop(span, emit);
    return true;
  }
  if (!IsStrTag(t)) return false;
  WithStrSrc(t, input,
             [&](auto s) { LikeLoop(span, s, pattern, negated, emit); });
  return true;
}

/// True when DispatchLike runs a typed loop for `input`: a string column
/// or a string/NULL constant. Non-string inputs raise an execution error
/// on the Value path; the kernel must not swallow it.
bool LikeApplies(const ColumnOperand& input) {
  const SrcTag t = Classify(input);
  return t == SrcTag::kNullConst || IsStrTag(t);
}

/// Shared branchless partition driver: every output vector is pre-sized
/// to worst case, each element is stored unconditionally at its stream's
/// cursor, and only the cursor advance is predicated — no per-element
/// branch mispredicts, no push_back capacity checks. Batch order is
/// preserved per stream. A disabled stream (nullptr) writes into a dummy
/// slot with a cursor that never advances. `dispatch(emit)` must run a
/// typed loop (the caller checks applicability first).
template <typename DispatchFn>
void PartitionStreams(const RowBatch& batch, std::vector<uint32_t>* sel_true,
                      std::vector<uint32_t>* sel_false,
                      std::vector<uint32_t>* sel_null,
                      DispatchFn&& dispatch) {
  const size_t n = batch.size();
  uint32_t dummy;
  const size_t t0 = sel_true->size();
  sel_true->resize(t0 + n);
  uint32_t* tp = sel_true->data() + t0;
  size_t tn = 0;
  if (sel_false != nullptr && sel_false == sel_null) {
    // σ± split: FALSE and UNKNOWN merge into one complement-of-TRUE
    // stream, so the outcome is binary.
    const size_t f0 = sel_false->size();
    sel_false->resize(f0 + n);
    uint32_t* fp = sel_false->data() + f0;
    size_t fn = 0;
    const bool ok =
        dispatch([&](uint32_t idx, TriBool t) BYPASS_KERNEL_INLINE {
          const size_t is_true = t == TriBool::kTrue ? 1 : 0;
          tp[tn] = idx;
          tn += is_true;
          fp[fn] = idx;
          fn += 1 - is_true;
        });
    BYPASS_CHECK(ok);
    sel_true->resize(t0 + tn);
    sel_false->resize(f0 + fn);
    return;
  }
  const size_t f0 = sel_false != nullptr ? sel_false->size() : 0;
  if (sel_false != nullptr) sel_false->resize(f0 + n);
  uint32_t* fp = sel_false != nullptr ? sel_false->data() + f0 : &dummy;
  const size_t f_live = sel_false != nullptr ? 1 : 0;
  size_t fn = 0;
  const size_t u0 = sel_null != nullptr ? sel_null->size() : 0;
  if (sel_null != nullptr) sel_null->resize(u0 + n);
  uint32_t* up = sel_null != nullptr ? sel_null->data() + u0 : &dummy;
  const size_t u_live = sel_null != nullptr ? 1 : 0;
  size_t un = 0;
  const bool ok =
      dispatch([&](uint32_t idx, TriBool t) BYPASS_KERNEL_INLINE {
        tp[tn] = idx;
        tn += t == TriBool::kTrue ? 1 : 0;
        fp[fn] = idx;
        fn += t == TriBool::kFalse ? f_live : 0;
        up[un] = idx;
        un += t == TriBool::kUnknown ? u_live : 0;
      });
  BYPASS_CHECK(ok);
  sel_true->resize(t0 + tn);
  if (sel_false != nullptr) sel_false->resize(f0 + fn);
  if (sel_null != nullptr) sel_null->resize(u0 + un);
}

// ---------------------------------------------------------- arithmetic

template <ArithOp OP, typename LS, typename RS>
Status ArithLoop(const RowBatch& batch, LS l, RS r,
                 const std::string& expr_str, std::vector<Value>* out) {
  const std::vector<uint32_t>& sel = batch.selection();
  const size_t n = sel.size();
  Status status = Status::OK();
  auto body = [&](uint32_t idx) -> bool {
    if (l.IsNull(idx) || r.IsNull(idx)) {
      out->push_back(Value::Null());
      return true;
    }
    if constexpr (OP == ArithOp::kDiv) {
      const double denom = static_cast<double>(r.Get(idx));
      if (denom == 0.0) {
        status = Status::ExecutionError("division by zero: " + expr_str);
        return false;
      }
      out->push_back(
          Value::Double(static_cast<double>(l.Get(idx)) / denom));
    } else if constexpr (LS::kIsInt && RS::kIsInt) {
      const int64_t a = l.Get(idx), b = r.Get(idx);
      if constexpr (OP == ArithOp::kAdd) {
        out->push_back(Value::Int64(a + b));
      } else if constexpr (OP == ArithOp::kSub) {
        out->push_back(Value::Int64(a - b));
      } else {
        out->push_back(Value::Int64(a * b));
      }
    } else {
      const double a = static_cast<double>(l.Get(idx));
      const double b = static_cast<double>(r.Get(idx));
      if constexpr (OP == ArithOp::kAdd) {
        out->push_back(Value::Double(a + b));
      } else if constexpr (OP == ArithOp::kSub) {
        out->push_back(Value::Double(a - b));
      } else {
        out->push_back(Value::Double(a * b));
      }
    }
    return true;
  };
  if (batch.dense() && n > 0) {
    const uint32_t base = sel[0];
    for (size_t i = 0; i < n; ++i) {
      if (!body(base + static_cast<uint32_t>(i))) return status;
    }
  } else {
    for (size_t i = 0; i < n; ++i) {
      if (!body(sel[i])) return status;
    }
  }
  return status;
}

template <ArithOp OP>
Status DispatchArith(SrcTag lt, const ColumnOperand& l, SrcTag rt,
                     const ColumnOperand& r, const RowBatch& batch,
                     const std::string& expr_str, std::vector<Value>* out) {
  Status status = Status::OK();
  WithNumSrc(lt, l, [&](auto ls) {
    WithNumSrc(rt, r, [&](auto rs) {
      status = ArithLoop<OP>(batch, ls, rs, expr_str, out);
    });
  });
  return status;
}

}  // namespace

bool ResolveColumnOperand(const Expr& e, const RowBatch& batch,
                          const Row* outer_row, ColumnOperand* out) {
  const ColumnStore* store = batch.columns();
  if (e.kind() == ExprKind::kLiteral) {
    out->column = nullptr;
    out->constant = &static_cast<const LiteralExpr&>(e).value();
    return true;
  }
  if (e.kind() != ExprKind::kColumnRef) return false;
  const auto& ref = static_cast<const ColumnRefExpr&>(e);
  if (ref.slot() < 0) return false;
  const size_t slot = static_cast<size_t>(ref.slot());
  if (ref.is_outer()) {
    if (outer_row == nullptr || slot >= outer_row->size()) return false;
    out->column = nullptr;
    out->constant = &(*outer_row)[slot];
    return true;
  }
  if (slot >= store->columns.size()) return false;
  const ColumnVector& col = store->columns[slot];
  if (!col.typed()) return false;
  out->column = &col;
  out->constant = nullptr;
  return true;
}

bool ColumnarComparePartition(CompareOp op, const ColumnOperand& l,
                              const ColumnOperand& r, const RowBatch& batch,
                              std::vector<uint32_t>* sel_true,
                              std::vector<uint32_t>* sel_false,
                              std::vector<uint32_t>* sel_null) {
  // Both-constant operands take the Value path (mirrors DispatchCompare's
  // bail-out); checked up front so the output resizes in PartitionStreams
  // are only done when a kernel will definitely run.
  if (l.column == nullptr && r.column == nullptr) return false;
  PartitionStreams(batch, sel_true, sel_false, sel_null, [&](auto&& emit) {
    return DispatchCompare(op, l, r, BatchSpan(batch), emit);
  });
  return true;
}

bool ColumnarCompareEval(CompareOp op, const ColumnOperand& l,
                         const ColumnOperand& r, const RowBatch& batch,
                         std::vector<Value>* out) {
  out->reserve(out->size() + batch.size());
  return DispatchCompare(op, l, r, BatchSpan(batch),
                         [&](uint32_t, TriBool t) {
                           out->push_back(TriBoolToValueLocal(t));
                         });
}

bool ColumnarLikePartition(const ColumnOperand& input,
                           std::string_view pattern, bool negated,
                           const RowBatch& batch,
                           std::vector<uint32_t>* sel_true,
                           std::vector<uint32_t>* sel_false,
                           std::vector<uint32_t>* sel_null) {
  if (!LikeApplies(input)) return false;
  PartitionStreams(batch, sel_true, sel_false, sel_null, [&](auto&& emit) {
    return DispatchLike(input, pattern, negated, BatchSpan(batch), emit);
  });
  return true;
}

bool ColumnarLikeEval(const ColumnOperand& input, std::string_view pattern,
                      bool negated, const RowBatch& batch,
                      std::vector<Value>* out) {
  if (!LikeApplies(input)) return false;
  out->reserve(out->size() + batch.size());
  return DispatchLike(input, pattern, negated, BatchSpan(batch),
                      [&](uint32_t, TriBool t) {
                        out->push_back(TriBoolToValueLocal(t));
                      });
}

std::optional<Status> ColumnarArithmeticEval(
    ArithOp op, const ColumnOperand& l, const ColumnOperand& r,
    const RowBatch& batch, const std::string& expr_str,
    std::vector<Value>* out) {
  if (l.column == nullptr && r.column == nullptr) return std::nullopt;
  const SrcTag lt = Classify(l);
  const SrcTag rt = Classify(r);
  out->reserve(out->size() + batch.size());
  if (lt == SrcTag::kNullConst || rt == SrcTag::kNullConst) {
    // NULL propagates before the numeric check in Combine, regardless of
    // the other operand's type.
    out->insert(out->end(), batch.size(), Value::Null());
    return Status::OK();
  }
  if (!IsNumTag(lt) || !IsNumTag(rt)) return std::nullopt;
  switch (op) {
    case ArithOp::kAdd:
      return DispatchArith<ArithOp::kAdd>(lt, l, rt, r, batch, expr_str,
                                          out);
    case ArithOp::kSub:
      return DispatchArith<ArithOp::kSub>(lt, l, rt, r, batch, expr_str,
                                          out);
    case ArithOp::kMul:
      return DispatchArith<ArithOp::kMul>(lt, l, rt, r, batch, expr_str,
                                          out);
    case ArithOp::kDiv:
      return DispatchArith<ArithOp::kDiv>(lt, l, rt, r, batch, expr_str,
                                          out);
  }
  return std::nullopt;
}

}  // namespace bypass
