#include "codegen/lower_chain.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <sstream>

#include "types/value.h"

namespace bypass {
namespace {

// Nesting guard: predicate trees are planner-built and shallow, but the
// emitter recurses, so cap depth instead of trusting that.
constexpr int kMaxDepth = 64;

/// A lowered scalar operand: C expressions (not values) for the datum,
/// its NULL-ness, and — for strings — pointer + length into the arena.
/// Expressions are pure loads, safe to substitute more than once; string
/// expressions must only be evaluated under a !null guard (NULL rows
/// carry no arena placeholder guarantee worth relying on).
struct Operand {
  enum Kind { kI64, kF64, kStr, kBool, kNull } kind = kNull;
  std::string val;   // kI64/kF64: numeric expr; kBool: 0/1 int expr
  std::string ptr;   // kStr: const char* expr
  std::string len;   // kStr: u64 length expr
  std::string null;  // int/bool expr, nonzero when the datum is NULL
};

const char* CompareOpToC(CompareOp op) {
  switch (op) {
    case CompareOp::kEq: return "==";
    case CompareOp::kNe: return "!=";
    case CompareOp::kLt: return "<";
    case CompareOp::kLe: return "<=";
    case CompareOp::kGt: return ">";
    case CompareOp::kGe: return ">=";
  }
  return "==";
}

class Emitter {
 public:
  explicit Emitter(const Schema& schema) : schema_(schema) {}

  /// Emits statements computing the predicate's TriBool into a fresh
  /// int variable (0/1/2); returns its name, or empty on unsupported.
  std::string EmitPredicate(const Expr& e, int depth);

  const std::vector<CgSlotUse>& slots() const { return slots_; }

  /// Registers a raw column load outside predicate lowering (probe keys,
  /// group keys, aggregate arguments); returns the CgBatch column index.
  size_t RegisterSlot(int slot, DataType type) {
    auto it = slot_index_.find(slot);
    if (it != slot_index_.end()) return it->second;
    const size_t idx = slots_.size();
    slots_.push_back({slot, type});
    slot_index_[slot] = idx;
    return idx;
  }
  std::string TakeBody() {
    std::string s = body_.str();
    body_.str(std::string());
    return s;
  }
  std::string HelperSection() const;
  bool uses_strings() const { return !string_pool_.empty() || has_str_col_; }

 private:
  bool EmitOperand(const Expr& e, int depth, Operand* out);
  bool ColumnOperand(const ColumnRefExpr& col, Operand* out);
  bool LiteralOperand(const LiteralExpr& lit, Operand* out);
  /// Emits the three-valued comparison of two lowered operands.
  std::string EmitCompare(CompareOp op, const Operand& l, const Operand& r);
  std::string Fresh(const char* prefix) {
    return std::string(prefix) + std::to_string(next_++);
  }
  /// Interns a string literal into the emitted pool; returns its index.
  size_t PoolString(const std::string& s);

  const Schema& schema_;
  std::ostringstream body_;
  int next_ = 0;
  std::vector<CgSlotUse> slots_;
  std::map<int, size_t> slot_index_;
  std::vector<std::string> string_pool_;
  bool need_strcmp_ = false;
  bool need_like_ = false;
  bool has_str_col_ = false;
};

size_t Emitter::PoolString(const std::string& s) {
  for (size_t i = 0; i < string_pool_.size(); ++i) {
    if (string_pool_[i] == s) return i;
  }
  string_pool_.push_back(s);
  return string_pool_.size() - 1;
}

bool Emitter::ColumnOperand(const ColumnRefExpr& col, Operand* out) {
  if (col.is_outer()) return false;  // correlated — needs the outer row
  const int slot = col.slot();
  if (slot < 0 || slot >= static_cast<int>(schema_.num_columns())) {
    return false;
  }
  auto it = slot_index_.find(slot);
  size_t idx;
  if (it != slot_index_.end()) {
    idx = it->second;
  } else {
    idx = slots_.size();
    slots_.push_back({slot, schema_.column(slot).type});
    slot_index_[slot] = idx;
  }
  const std::string c = "c" + std::to_string(idx);
  out->null = "(" + c + "n && ((" + c + "n[r >> 6] >> (r & 63)) & 1ull))";
  switch (slots_[idx].type) {
    case DataType::kInt64:
      out->kind = Operand::kI64;
      out->val = c + "[r]";
      return true;
    case DataType::kDouble:
      out->kind = Operand::kF64;
      out->val = c + "[r]";
      return true;
    case DataType::kBool:
      out->kind = Operand::kBool;
      out->val = "((int)" + c + "[r])";
      return true;
    case DataType::kString:
      out->kind = Operand::kStr;
      out->ptr = "(" + c + "s + " + c + "o[r])";
      out->len = "(" + c + "o[r + 1] - " + c + "o[r])";
      has_str_col_ = true;
      return true;
    default:
      return false;
  }
}

bool Emitter::LiteralOperand(const LiteralExpr& lit, Operand* out) {
  const Value& v = lit.value();
  out->null = "0";
  if (v.is_null()) {
    out->kind = Operand::kNull;
    out->null = "1";
    return true;
  }
  if (v.is_int64()) {
    out->kind = Operand::kI64;
    const int64_t i = v.int64_value();
    // INT64_MIN has no literal spelling; -(9223372036854775808) overflows.
    out->val = (i == std::numeric_limits<int64_t>::min())
                   ? "(-9223372036854775807ll - 1)"
                   : "(" + std::to_string(i) + "ll)";
    return true;
  }
  if (v.is_double()) {
    const double d = v.double_value();
    if (std::isnan(d) || std::isinf(d)) return false;  // no SQL spelling
    char buf[64];
    std::snprintf(buf, sizeof buf, "%a", d);  // hexfloat: exact round-trip
    out->kind = Operand::kF64;
    out->val = "(" + std::string(buf) + ")";
    return true;
  }
  if (v.is_bool()) {
    out->kind = Operand::kBool;
    out->val = v.bool_value() ? "1" : "0";
    return true;
  }
  if (v.is_string()) {
    const size_t idx = PoolString(v.string_value());
    out->kind = Operand::kStr;
    out->ptr = "S" + std::to_string(idx);
    out->len = std::to_string(v.string_value().size()) + "ull";
    return true;
  }
  return false;
}

bool Emitter::EmitOperand(const Expr& e, int depth, Operand* out) {
  if (depth > kMaxDepth) return false;
  switch (e.kind()) {
    case ExprKind::kColumnRef:
      return ColumnOperand(static_cast<const ColumnRefExpr&>(e), out);
    case ExprKind::kLiteral:
      return LiteralOperand(static_cast<const LiteralExpr&>(e), out);
    case ExprKind::kArithmetic: {
      const auto& a = static_cast<const ArithmeticExpr&>(e);
      // Division is not lowered: its divide-by-zero ExecutionError has no
      // channel out of emitted code (see the header's fallback matrix).
      if (a.op() == ArithOp::kDiv) return false;
      Operand l, r;
      if (!EmitOperand(*a.left(), depth + 1, &l) ||
          !EmitOperand(*a.right(), depth + 1, &r)) {
        return false;
      }
      // ArithmeticExpr::Combine: NULL in → NULL out, before type checks.
      if (l.kind == Operand::kNull || r.kind == Operand::kNull) {
        out->kind = Operand::kNull;
        out->null = "1";
        return true;
      }
      // Non-numeric operands raise ExecutionError in the interpreter on
      // any non-NULL row; emitted code cannot raise, so stay interpreted.
      const bool l_num = l.kind == Operand::kI64 || l.kind == Operand::kF64;
      const bool r_num = r.kind == Operand::kI64 || r.kind == Operand::kF64;
      if (!l_num || !r_num) return false;
      const char* cop = a.op() == ArithOp::kAdd   ? "+"
                        : a.op() == ArithOp::kSub ? "-"
                                                  : "*";
      const std::string v = Fresh("v");
      // Values are computed unconditionally: NULL entries hold zero
      // placeholders, so the dead arithmetic is well-defined.
      if (l.kind == Operand::kI64 && r.kind == Operand::kI64) {
        body_ << "      const long long " << v << " = (" << l.val << ") "
              << cop << " (" << r.val << ");\n";
        out->kind = Operand::kI64;
      } else {
        body_ << "      const double " << v << " = (double)(" << l.val
              << ") " << cop << " (double)(" << r.val << ");\n";
        out->kind = Operand::kF64;
      }
      body_ << "      const int " << v << "_null = (" << l.null << ") || ("
            << r.null << ");\n";
      out->val = v;
      out->null = v + "_null";
      return true;
    }
    default:
      return false;
  }
}

std::string Emitter::EmitCompare(CompareOp op, const Operand& l,
                                 const Operand& r) {
  const std::string t = Fresh("t");
  const char* cop = CompareOpToC(op);
  // NULL operand or untyped pairing: Value::CompareSlow yields Unknown.
  const bool l_num = l.kind == Operand::kI64 || l.kind == Operand::kF64;
  const bool r_num = r.kind == Operand::kI64 || r.kind == Operand::kF64;
  if (l.kind == Operand::kNull || r.kind == Operand::kNull ||
      !((l_num && r_num) ||
        (l.kind == Operand::kStr && r.kind == Operand::kStr) ||
        (l.kind == Operand::kBool && r.kind == Operand::kBool))) {
    body_ << "      const int " << t << " = 2;\n";
    return t;
  }
  body_ << "      int " << t << " = 2;\n"
        << "      if (!((" << l.null << ") || (" << r.null << "))) {\n";
  if (l_num) {
    if (l.kind == Operand::kI64 && r.kind == Operand::kI64) {
      // Exact int64 ordering (Value::Compare fast path).
      body_ << "        const long long a = (" << l.val << ");\n"
            << "        const long long bv = (" << r.val << ");\n";
    } else {
      // Mixed numerics widen to double; the explicit three-way ordering
      // reproduces CompareDoubles, where NaN compares equal to anything.
      body_ << "        const double a = (double)(" << l.val << ");\n"
            << "        const double bv = (double)(" << r.val << ");\n";
    }
    body_ << "        const int c = (a < bv) ? -1 : ((a > bv) ? 1 : 0);\n";
  } else if (l.kind == Operand::kStr) {
    need_strcmp_ = true;
    body_ << "        const int c = cg_strcmp(" << l.ptr << ", " << l.len
          << ", " << r.ptr << ", " << r.len << ");\n";
  } else {  // bool × bool: ordered as 0/1 ints (Value::CompareSlow)
    body_ << "        const int c = (int)(" << l.val << ") - (int)("
          << r.val << ");\n";
  }
  body_ << "        " << t << " = (c " << cop << " 0) ? 1 : 0;\n"
        << "      }\n";
  return t;
}

std::string Emitter::EmitPredicate(const Expr& e, int depth) {
  if (depth > kMaxDepth) return std::string();
  switch (e.kind()) {
    case ExprKind::kComparison: {
      const auto& c = static_cast<const ComparisonExpr&>(e);
      Operand l, r;
      if (!EmitOperand(*c.left(), depth + 1, &l) ||
          !EmitOperand(*c.right(), depth + 1, &r)) {
        return std::string();
      }
      return EmitCompare(c.op(), l, r);
    }
    case ExprKind::kAnd:
    case ExprKind::kOr: {
      const bool is_and = e.kind() == ExprKind::kAnd;
      const auto& terms = is_and ? static_cast<const AndExpr&>(e).terms()
                                 : static_cast<const OrExpr&>(e).terms();
      if (terms.empty()) return std::string();
      const std::string t = Fresh("t");
      // TriAnd/TriOr fold with short-circuit on the dominating value —
      // FALSE for AND, TRUE for OR.
      body_ << "      int " << t << " = " << (is_and ? 1 : 0) << ";\n"
            << "      do {\n";
      for (const auto& term : terms) {
        const std::string u = EmitPredicate(*term, depth + 1);
        if (u.empty()) return std::string();
        if (is_and) {
          body_ << "      if (" << u << " == 0) { " << t
                << " = 0; break; }\n"
                << "      if (" << u << " == 2) " << t << " = 2;\n";
        } else {
          body_ << "      if (" << u << " == 1) { " << t
                << " = 1; break; }\n"
                << "      if (" << u << " == 2) " << t << " = 2;\n";
        }
      }
      body_ << "      } while (0);\n";
      return t;
    }
    case ExprKind::kNot: {
      const auto& n = static_cast<const NotExpr&>(e);
      const std::string u = EmitPredicate(*n.input(), depth + 1);
      if (u.empty()) return std::string();
      const std::string t = Fresh("t");
      // TriNot: Unknown stays Unknown, 0/1 flip.
      body_ << "      const int " << t << " = (" << u << " == 2) ? 2 : ("
            << u << " ^ 1);\n";
      return t;
    }
    case ExprKind::kIsNull: {
      const auto& isn = static_cast<const IsNullExpr&>(e);
      Operand in;
      if (!EmitOperand(*isn.input(), depth + 1, &in)) return std::string();
      const std::string t = Fresh("t");
      // Two-valued: Bool(negated ? !is_null : is_null).
      if (isn.negated()) {
        body_ << "      const int " << t << " = (" << in.null
              << ") ? 0 : 1;\n";
      } else {
        body_ << "      const int " << t << " = (" << in.null
              << ") ? 1 : 0;\n";
      }
      return t;
    }
    case ExprKind::kLike: {
      const auto& like = static_cast<const LikeExpr&>(e);
      Operand in;
      if (!EmitOperand(*like.input(), depth + 1, &in)) return std::string();
      const std::string t = Fresh("t");
      if (in.kind == Operand::kNull) {  // NULL LIKE p → Unknown
        body_ << "      const int " << t << " = 2;\n";
        return t;
      }
      // Non-string input raises ExecutionError interpreted — stay there.
      if (in.kind != Operand::kStr) return std::string();
      need_like_ = true;
      const size_t pat = PoolString(like.pattern());
      body_ << "      int " << t << " = 2;\n"
            << "      if (!(" << in.null << ")) {\n"
            << "        const int m = cg_like(" << in.ptr << ", " << in.len
            << ", S" << pat << ", " << like.pattern().size() << "ull);\n"
            << "        " << t << " = "
            << (like.negated() ? "m ? 0 : 1" : "m ? 1 : 0") << ";\n"
            << "      }\n";
      return t;
    }
    case ExprKind::kColumnRef:
    case ExprKind::kLiteral:
    case ExprKind::kArithmetic: {
      // Bare value as predicate: ValueToTriBool — NULL or non-bool is
      // Unknown, bools map to their truth value.
      Operand in;
      if (!EmitOperand(e, depth + 1, &in)) return std::string();
      const std::string t = Fresh("t");
      if (in.kind == Operand::kBool) {
        body_ << "      const int " << t << " = (" << in.null
              << ") ? 2 : ((" << in.val << ") ? 1 : 0);\n";
      } else {
        body_ << "      const int " << t << " = 2;\n";
      }
      return t;
    }
    default:
      // Subqueries, functions, anything new: interpreted only.
      return std::string();
  }
}

std::string Emitter::HelperSection() const {
  std::ostringstream out;
  if (need_strcmp_) {
    // std::string::compare semantics: memcmp over the common prefix,
    // then the length difference decides.
    out << "static int cg_strcmp(const char* a, u64 an, const char* b, "
           "u64 bn) {\n"
        << "  const u64 m = an < bn ? an : bn;\n"
        << "  const int c = m ? __builtin_memcmp(a, b, m) : 0;\n"
        << "  if (c != 0) return c;\n"
        << "  return an < bn ? -1 : (an > bn ? 1 : 0);\n"
        << "}\n";
  }
  if (need_like_) {
    // LikeMatch (common/string_util.cc) verbatim: iterative matcher,
    // backtracking to the most recent '%'.
    out << "static int cg_like(const char* text, u64 tn, const char* pat, "
           "u64 pn) {\n"
        << "  u64 t = 0, p = 0;\n"
        << "  u64 star_p = (u64)-1, star_t = 0;\n"
        << "  while (t < tn) {\n"
        << "    if (p < pn && (pat[p] == '_' || pat[p] == text[t])) { ++t; "
           "++p; }\n"
        << "    else if (p < pn && pat[p] == '%') { star_p = p++; star_t = "
           "t; }\n"
        << "    else if (star_p != (u64)-1) { p = star_p + 1; t = "
           "++star_t; }\n"
        << "    else { return 0; }\n"
        << "  }\n"
        << "  while (p < pn && pat[p] == '%') ++p;\n"
        << "  return p == pn ? 1 : 0;\n"
        << "}\n";
  }
  for (size_t i = 0; i < string_pool_.size(); ++i) {
    const std::string& s = string_pool_[i];
    // Bytes as integers: sidesteps every escaping concern, and the
    // trailing 0 keeps empty pools legal ([] arrays are not).
    out << "static const char S" << i << "[] = {";
    for (char ch : s) {
      out << static_cast<int>(static_cast<unsigned char>(ch)) << ",";
    }
    out << "0};\n";
  }
  return out.str();
}

const char* TypeCName(DataType t) {
  switch (t) {
    case DataType::kInt64: return "const long long*";
    case DataType::kDouble: return "const double*";
    case DataType::kBool: return "const unsigned char*";
    default: return "const void*";
  }
}

/// Column pointer declarations shared by both generations' preludes.
void EmitColumnDecls(std::ostringstream& src, const Emitter& em) {
  for (size_t i = 0; i < em.slots().size(); ++i) {
    const std::string c = "c" + std::to_string(i);
    const CgSlotUse& use = em.slots()[i];
    if (use.type == DataType::kString) {
      src << "  const u64* " << c << "o = b->cols[" << i << "].offsets;\n"
          << "  const char* " << c << "s = b->cols[" << i << "].chars;\n";
    } else {
      src << "  " << TypeCName(use.type) << " " << c << " = ("
          << TypeCName(use.type) << ")b->cols[" << i << "].data;\n";
    }
    src << "  const u64* " << c << "n = b->cols[" << i << "].nulls;\n";
  }
}

/// 0/1 expression for "row r's value in registered column `idx` is NULL".
std::string NullBitExpr(size_t idx) {
  const std::string c = "c" + std::to_string(idx);
  return "((" + c + "n && ((" + c + "n[r >> 6] >> (r & 63)) & 1ull)) ? 1 "
         ": 0)";
}

}  // namespace

bool LowerChain(const std::vector<ChainStage>& stages, const Schema& schema,
                LoweredChain* out) {
  if (stages.empty()) return false;
  Emitter em(schema);
  // Lower every stage's predicate in chain order into one straight-line
  // row body. A row exits the do-while early when a σ drops it.
  std::ostringstream row;
  int num_ports = 1;
  for (size_t si = 0; si < stages.size(); ++si) {
    const ChainStage& st = stages[si];
    const bool terminal = si + 1 == stages.size();
    if (st.predicate == nullptr) return false;
    const std::string t = em.EmitPredicate(*st.predicate, 0);
    if (t.empty()) return false;
    row << em.TakeBody();
    if (st.kind == ChainStageKind::kFilter) {
      row << "      if (" << t << " != 1) break;\n";
      if (terminal) row << "      o0[n0++] = r;\n";
    } else {
      if (!terminal) return false;
      row << "      if (" << t << " == 1) o0[n0++] = r;\n"
          << "      else o1[n1++] = r;\n";
      num_ports = 2;
    }
  }

  // Assemble the translation unit. It is deliberately freestanding: the
  // only coupling to the engine is the CgCol/CgBatch layout and the two
  // exported symbols, re-checked through bypass_cg_abi after dlopen.
  std::ostringstream src;
  src << "// bypassdb emitted pipeline (codegen tier, abi 1)\n"
      << "typedef unsigned long long u64;\n"
      << "typedef unsigned int u32;\n"
      << "struct CgCol { const void* data; const u64* offsets; const char* "
         "chars; const u64* nulls; };\n"
      << "struct CgBatch { const CgCol* cols; const u32* sel; u64 n; };\n"
      << em.HelperSection()
      << "extern \"C\" long long bypass_cg_abi() { return 1; }\n"
      << "extern \"C\" void bypass_cg_run(const CgBatch* b, u32* const* "
         "outs, u64* counts) {\n";
  EmitColumnDecls(src, em);
  for (int p = 0; p < num_ports; ++p) {
    src << "  u32* o" << p << " = outs[" << p << "]; u64 n" << p
        << " = 0;\n";
  }
  src << "  const u32* sel = b->sel;\n"
      << "  const u64 n = b->n;\n"
      << "  for (u64 i = 0; i < n; ++i) {\n"
      << "    const u32 r = sel[i];\n"
      << "    (void)r;\n"
      << "    do {\n"
      << row.str()
      << "    } while (0);\n"
      << "  }\n";
  for (int p = 0; p < num_ports; ++p) {
    src << "  counts[" << p << "] = n" << p << ";\n";
  }
  src << "}\n";

  out->source = src.str();
  out->slots = em.slots();
  out->num_out_ports = num_ports;
  std::ostringstream summary;
  summary << stages.size() << (stages.size() == 1 ? " stage" : " stages");
  summary << ", " << em.slots().size()
          << (em.slots().size() == 1 ? " col" : " cols");
  out->summary = summary.str();
  return true;
}

bool LowerChainWidened(const std::vector<ChainStage>& stages,
                       const ChainTerminal& terminal, const Schema& schema,
                       LoweredChain* out) {
  if (terminal.kind == ChainTerminalKind::kNone) return false;
  const bool join = terminal.kind == ChainTerminalKind::kJoinProbe ||
                    terminal.kind == ChainTerminalKind::kJoinGroupBy;
  const bool group = terminal.kind == ChainTerminalKind::kGroupBy ||
                     terminal.kind == ChainTerminalKind::kJoinGroupBy;
  auto slot_ok = [&](int s, DataType want) {
    return s >= 0 && s < static_cast<int>(schema.num_columns()) &&
           schema.column(static_cast<size_t>(s)).type == want;
  };
  if (join && !slot_ok(terminal.probe_slot, DataType::kInt64)) return false;
  if (group && !slot_ok(terminal.group_slot, DataType::kInt64)) {
    return false;
  }
  if (group) {
    for (const CgAggFold& a : terminal.aggs) {
      if (a.star) {
        if (a.func != AggFunc::kCount) return false;
        continue;
      }
      // Argument columns are monomorphized on int64/double; COUNT over
      // other types (and every DISTINCT) stays interpreted.
      if (a.type != DataType::kInt64 && a.type != DataType::kDouble) {
        return false;
      }
      if (!slot_ok(a.slot, a.type)) return false;
    }
  }

  Emitter em(schema);
  // Filters lower exactly like generation 1: straight-line row body, a
  // failing σ exits the do-while early. σ± stages cannot feed
  // a fused breaker (they fan out) — the install pass never offers them.
  std::ostringstream filters;
  for (const ChainStage& st : stages) {
    if (st.kind != ChainStageKind::kFilter || st.predicate == nullptr) {
      return false;
    }
    const std::string t = em.EmitPredicate(*st.predicate, 0);
    if (t.empty()) return false;
    filters << em.TakeBody();
    filters << "      if (" << t << " != 1) break;\n";
  }
  const size_t jk =
      join ? em.RegisterSlot(terminal.probe_slot, DataType::kInt64) : 0;
  const size_t gk =
      group ? em.RegisterSlot(terminal.group_slot, DataType::kInt64) : 0;
  std::vector<size_t> argc(terminal.aggs.size(), 0);
  for (size_t j = 0; j < terminal.aggs.size(); ++j) {
    if (!terminal.aggs[j].star) {
      argc[j] = em.RegisterSlot(terminal.aggs[j].slot,
                                terminal.aggs[j].type);
    }
  }

  // --- Reusable snippets over the registered columns.

  // Group-key hash + slot probe; leaves the dense entry index in `g`
  // (4294967295u = missed the snapshot). Mirrors FindOrEmplaceInt64's
  // probe loop: cached-hash compare, then key/null equality.
  auto group_key_and_probe = [&](std::ostringstream& os) {
    const std::string c = "c" + std::to_string(gk);
    os << "      const long long gkv = " << c << "[r];\n"
       << "      const int gnl = " << NullBitExpr(gk) << ";\n"
       << "      const u64 gh = gnl ? 0x7b4a5c8d9e2f1a6bull : "
          "cg_mix((u64)gkv);\n"
       << "      u32 g = 4294967295u;\n"
       << "      if (gs) {\n"
       << "        u64 gp = gh & gm;\n"
       << "        for (;;) {\n"
       << "          const CgGSlot s = gs[gp];\n"
       << "          if (s.idx == 4294967295u) break;\n"
       << "          if (s.hash == gh) {\n"
       << "            const CgGKey e = gke[s.idx];\n"
       << "            if ((int)e.null == gnl && (gnl || e.key == gkv)) { "
          "g = s.idx; break; }\n"
       << "          }\n"
       << "          gp = (gp + 1) & gm;\n"
       << "        }\n"
       << "      }\n";
  };
  // Aggregate argument loads for row r (shared across a row's fold
  // repetitions — the value does not change with the match multiplicity).
  auto arg_loads = [&](std::ostringstream& os) {
    for (size_t j = 0; j < terminal.aggs.size(); ++j) {
      const CgAggFold& a = terminal.aggs[j];
      if (a.star) continue;
      const std::string c = "c" + std::to_string(argc[j]);
      const char* ty =
          a.type == DataType::kDouble ? "double" : "long long";
      os << "      const " << ty << " x" << j << " = " << c << "[r];\n"
         << "      const int x" << j << "n = " << NullBitExpr(argc[j])
         << ";\n";
    }
  };
  // One fold repetition into the SoA accumulators at entry `g`. The
  // bodies replicate Aggregator::AccumulateValue exactly: COUNT counts
  // non-null inputs (every row for '*'), SUM/AVG accumulate count +
  // int-sum + double-sum (int64) or count + double-sum (double), MIN/MAX
  // adopt-then-raw-compare (NaN never replaces, matching OrderCompare).
  auto folds = [&](std::ostringstream& os, const std::string& ind) {
    for (size_t j = 0; j < terminal.aggs.size(); ++j) {
      const CgAggFold& a = terminal.aggs[j];
      const std::string J = std::to_string(j);
      const std::string x = "x" + J;
      const std::string xn = "x" + J + "n";
      switch (a.func) {
        case AggFunc::kCount:
          if (a.star) {
            os << ind << "a" << J << "c[g] += 1;\n";
          } else {
            os << ind << "if (!" << xn << ") a" << J << "c[g] += 1;\n";
          }
          break;
        case AggFunc::kSum:
        case AggFunc::kAvg:
          if (a.type == DataType::kInt64) {
            os << ind << "if (!" << xn << ") { a" << J << "c[g] += 1; a"
               << J << "i[g] += " << x << "; a" << J
               << "d[g] += (double)" << x << "; }\n";
          } else {
            os << ind << "if (!" << xn << ") { a" << J << "c[g] += 1; a"
               << J << "d[g] += " << x << "; }\n";
          }
          break;
        case AggFunc::kMin:
        case AggFunc::kMax: {
          const char* cmp = a.func == AggFunc::kMin ? "<" : ">";
          os << ind << "if (!" << xn << ") { if (!a" << J
             << "h[g]) { a" << J << "b[g] = " << x << "; a" << J
             << "h[g] = 1; } else if (" << x << " " << cmp << " a" << J
             << "b[g]) a" << J << "b[g] = " << x << "; }\n";
          break;
        }
      }
    }
  };
  // Join pass 1: filters + probe-key hashing into the caller's scratch
  // (run once per batch; capacity resumes re-enter at pass 2 only).
  auto join_pass1 = [&](std::ostringstream& os) {
    const std::string c = "c" + std::to_string(jk);
    os << "  if (start_row == 0) {\n"
       << "    for (u64 i = 0; i < n; ++i) {\n"
       << "      const u32 r = sel[i];\n"
       << "      (void)r;\n"
       << "      vs[i] = 0;\n"
       << "      do {\n"
       << filters.str()
       << "      const int knl = " << NullBitExpr(jk) << ";\n"
       << "      if (knl) break;\n"  // NULL key never matches (inner join)
       << "      const long long kv = " << c << "[r];\n"
       << "      ks[i] = kv;\n"
       << "      hs[i] = cg_mix((u64)kv);\n"
       << "      vs[i] = 1;\n"
       << "      } while (0);\n"
       << "    }\n"
       << "  }\n";
  };
  // Join slot probe for the row at loop index i (hash/key from scratch);
  // leaves the key id in `kid`. Mirrors JoinHashTable::FindKey.
  auto join_probe = [&](std::ostringstream& os) {
    os << "      const u64 h = hs[i];\n"
       << "      const long long kv = ks[i];\n"
       << "      u32 kid = 4294967295u;\n"
       << "      u64 p = h & jm;\n"
       << "      for (;;) {\n"
       << "        const CgJSlot s = js[p];\n"
       << "        if (s.key_id == 4294967295u) break;\n"
       << "        if (s.hash == h && jke[s.key_id] == kv) { kid = "
          "s.key_id; break; }\n"
       << "        p = (p + 1) & jm;\n"
       << "      }\n";
  };
  const char* prefetch =
      "      if (i + 8 < n && vs[i + 8]) "
      "__builtin_prefetch(&js[hs[i + 8] & jm]);\n";

  // --- Assemble the translation unit (freestanding, like generation 1;
  //     the view structs re-declare the engine layouts pinned by the
  //     static_asserts at the export sites).
  std::ostringstream src;
  src << "// bypassdb emitted pipeline (codegen tier, abi 2)\n"
      << "typedef unsigned long long u64;\n"
      << "typedef unsigned int u32;\n"
      << "struct CgCol { const void* data; const u64* offsets; const char* "
         "chars; const u64* nulls; };\n"
      << "struct CgBatch { const CgCol* cols; const u32* sel; u64 n; };\n"
      << "struct CgJoinView { const void* slots; u64 mask; const long "
         "long* keys; const u32* offsets; const u32* payload; u64* "
         "hash_scratch; long long* key_scratch; unsigned char* "
         "valid_scratch; };\n"
      << "struct CgGroupView { const void* slots; u64 mask; const void* "
         "keys; u64 num_entries; };\n"
      << "struct CgJSlot { u64 hash; u32 key_id; };\n"
      << "struct CgGSlot { u64 hash; u32 idx; };\n"
      << "struct CgGKey { long long key; unsigned char null; };\n"
      << "static u64 cg_mix(u64 h) {\n"  // splitmix64 == HashInt64Key
      << "  h += 0x9e3779b97f4a7c15ull;\n"
      << "  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;\n"
      << "  h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;\n"
      << "  return h ^ (h >> 31);\n"
      << "}\n"
      << em.HelperSection()
      << "extern \"C\" long long bypass_cg_abi() { return 2; }\n"
      << "extern \"C\" void bypass_cg_run2(const CgBatch* b, const "
         "CgJoinView* jv, const CgGroupView* gv, void* const* accs, u32* "
         "out_a, u32* out_b, u64 out_cap, u64 start_row, u64* counts) {\n";
  EmitColumnDecls(src, em);
  if (join) {
    src << "  const CgJSlot* js = (const CgJSlot*)jv->slots;\n"
        << "  const u64 jm = jv->mask;\n"
        << "  const long long* jke = jv->keys;\n"
        << "  const u32* jof = jv->offsets;\n"
        << "  const u32* jpl = jv->payload;\n"
        << "  u64* hs = jv->hash_scratch;\n"
        << "  long long* ks = jv->key_scratch;\n"
        << "  unsigned char* vs = jv->valid_scratch;\n";
  }
  if (group) {
    src << "  const CgGSlot* gs = (const CgGSlot*)gv->slots;\n"
        << "  const u64 gm = gv->mask;\n"
        << "  const CgGKey* gke = (const CgGKey*)gv->keys;\n";
    for (size_t j = 0; j < terminal.aggs.size(); ++j) {
      const CgAggFold& a = terminal.aggs[j];
      const std::string J = std::to_string(j);
      src << "  long long* a" << J << "c = (long long*)accs[" << j * 5
          << "];\n";
      if (a.func == AggFunc::kSum || a.func == AggFunc::kAvg) {
        if (a.type == DataType::kInt64) {
          src << "  long long* a" << J << "i = (long long*)accs["
              << j * 5 + 1 << "];\n";
        }
        src << "  double* a" << J << "d = (double*)accs[" << j * 5 + 2
            << "];\n";
      }
      if (a.func == AggFunc::kMin || a.func == AggFunc::kMax) {
        const char* ty =
            a.type == DataType::kDouble ? "double" : "long long";
        src << "  " << ty << "* a" << J << "b = (" << ty << "*)accs["
            << j * 5 + 3 << "];\n"
            << "  unsigned char* a" << J << "h = (unsigned char*)accs["
            << j * 5 + 4 << "];\n";
      }
    }
  }
  src << "  const u32* sel = b->sel;\n"
      << "  const u64 n = b->n;\n";

  if (terminal.kind == ChainTerminalKind::kGroupBy) {
    // Single pass: filter, probe the group snapshot, fold hits into the
    // SoA; misses go to the pair cursor (multiplicity 1) for phase B.
    src << "  u64 na = 0;\n"
        << "  for (u64 i = 0; i < n; ++i) {\n"
        << "    const u32 r = sel[i];\n"
        << "    (void)r;\n"
        << "    do {\n"
        << filters.str();
    group_key_and_probe(src);
    src << "      if (g == 4294967295u) { out_a[na] = (u32)i; out_b[na] "
           "= 1u; ++na; break; }\n";
    arg_loads(src);
    folds(src, "      ");
    src << "    } while (0);\n"
        << "  }\n"
        << "  counts[0] = na;\n"
        << "  counts[1] = n;\n";
  } else if (terminal.kind == ChainTerminalKind::kJoinProbe) {
    join_pass1(src);
    // Pass 2: resolve with prefetch-at-distance, append (position,
    // build row) pairs; a full cursor stops at a row boundary so the
    // caller can drain and resume at counts[1].
    src << "  u64 na = 0;\n"
        << "  u64 i = start_row;\n"
        << "  if (js) {\n"
        << "    for (; i < n; ++i) {\n"
        << prefetch
        << "      if (!vs[i]) continue;\n";
    join_probe(src);
    src << "      if (kid == 4294967295u) continue;\n"
        << "      const u32 mb = jof[kid];\n"
        << "      const u32 me = jof[kid + 1];\n"
        << "      if (na + (u64)(me - mb) > out_cap) break;\n"
        << "      for (u32 t = mb; t < me; ++t) { out_a[na] = (u32)i; "
           "out_b[na] = jpl[t]; ++na; }\n"
        << "    }\n"
        << "  } else {\n"
        << "    i = n;\n"  // empty build side: every probe misses
        << "  }\n"
        << "  counts[0] = na;\n"
        << "  counts[1] = i;\n";
  } else {  // kJoinGroupBy
    join_pass1(src);
    // Pass 2: each matching probe row folds its aggregates once per
    // build match (multiplicity loop — repeated adds keep double sums
    // bit-identical to the interpreter's per-output-row folds); rows
    // whose group missed the snapshot emit one (position, multiplicity)
    // pair for phase B. At most one pair per row, so the cursor (sized
    // to the batch) never overflows and no resume is needed.
    src << "  u64 na = 0;\n"
        << "  if (js) {\n"
        << "    for (u64 i = 0; i < n; ++i) {\n"
        << prefetch
        << "      if (!vs[i]) continue;\n";
    join_probe(src);
    src << "      if (kid == 4294967295u) continue;\n"
        << "      const u32 m = jof[kid + 1] - jof[kid];\n"
        << "      const u32 r = sel[i];\n"
        << "      (void)r;\n";
    group_key_and_probe(src);
    src << "      if (g == 4294967295u) { out_a[na] = (u32)i; out_b[na] "
           "= m; ++na; continue; }\n";
    arg_loads(src);
    src << "      for (u32 mt = 0; mt < m; ++mt) {\n";
    folds(src, "        ");
    src << "      }\n"
        << "    }\n"
        << "  }\n"
        << "  counts[0] = na;\n"
        << "  counts[1] = n;\n";
  }
  src << "}\n";

  out->source = src.str();
  out->slots = em.slots();
  out->num_out_ports = 1;
  out->generation = 2;
  out->terminal = terminal;
  std::ostringstream summary;
  summary << stages.size() << (stages.size() == 1 ? " stage" : " stages");
  if (join) summary << " + probe";
  if (group) summary << " + agg(" << terminal.aggs.size() << ")";
  summary << ", " << em.slots().size()
          << (em.slots().size() == 1 ? " col" : " cols");
  out->summary = summary.str();
  return true;
}

bool StageSupported(const ChainStage& stage, const Schema& schema) {
  // Non-terminal σ stages and terminal stages lower through the same
  // predicate matrix, so a single-stage dry run answers both.
  LoweredChain scratch;
  return LowerChain({stage}, schema, &scratch);
}

}  // namespace bypass
