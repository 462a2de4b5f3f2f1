#include "planner/uniqueness.h"

#include <algorithm>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "algebra/plan_util.h"
#include "common/string_util.h"
#include "expr/expr_util.h"

namespace bypass {

namespace {

/// A split of one stream into two disjoint ones: the two streams of a
/// σ±, or a semi and an anti join of one left stream against one right
/// stream on one predicate (each left row has a match or has none).
struct Split {
  const LogicalOp* left;  // a σ±: the σ± itself
  StreamPort left_port;
  const LogicalOp* right;  // a semi/anti join's right stream, else null
  StreamPort right_port;
  std::string predicate;  // a semi/anti join's, as text

  bool operator==(const Split& o) const {
    return left == o.left && left_port == o.left_port &&
           right == o.right && right_port == o.right_port &&
           predicate == o.predicate;
  }
};

/// Rows of alternative `alt` of a stream came through one side of
/// `split` (`positive`: the σ±'s TRUE stream, or the semi join), with the
/// split input's key columns, in key order, at positions `cols`.
struct Lineage {
  Split split;
  bool positive;
  int alt;
  std::vector<int> cols;
};

/// What the pass knows about one stream. Streams are shared between the
/// nodes that pass them on unchanged.
struct Stream {
  bool keyed = false;
  std::vector<int> key;  // ascending column positions
  std::vector<const Table*> tables;  // unique, sorted by name
  std::vector<std::string> steps;   // ⊎ disjointness facts used
  const char* source = "";  // the key's source when no table is involved
  /// A union's rows come from one of its branches, so its lineage keeps
  /// each branch's alternatives apart; any other stream has one.
  int alts = 1;
  std::vector<Lineage> lineage;
  const char* why_not = "";  // when !keyed
};
using StreamPtr = std::shared_ptr<const Stream>;

StreamPtr Unknown(const char* why) {
  auto s = std::make_shared<Stream>();
  s->why_not = why;
  return s;
}

StreamPtr Keyed(std::vector<int> key, const char* source) {
  auto s = std::make_shared<Stream>();
  s->keyed = true;
  s->key = std::move(key);
  s->source = source;
  return s;
}

void AddSorted(std::vector<int>* into, const std::vector<int>& more,
               int offset = 0) {
  for (int c : more) into->push_back(c + offset);
  std::sort(into->begin(), into->end());
  into->erase(std::unique(into->begin(), into->end()), into->end());
}

void AddUnique(std::vector<std::string>* into, std::string step) {
  if (std::find(into->begin(), into->end(), step) == into->end()) {
    into->push_back(std::move(step));
  }
}

/// `a`'s tables, steps and source merged with `b`'s.
void MergeProof(Stream* a, const Stream& b) {
  for (const Table* t : b.tables) {
    if (std::find(a->tables.begin(), a->tables.end(), t) == a->tables.end()) {
      a->tables.push_back(t);
    }
  }
  std::sort(a->tables.begin(), a->tables.end(),
            [](const Table* x, const Table* y) {
              return x->name() < y->name();
            });
  for (const std::string& step : b.steps) AddUnique(&a->steps, step);
  if (*a->source == '\0') a->source = b.source;
}

bool IsSubset(const std::vector<int>& sub, const std::vector<int>& set) {
  return std::all_of(sub.begin(), sub.end(), [&](int c) {
    return std::find(set.begin(), set.end(), c) != set.end();
  });
}

std::vector<int> AllColumns(int width) {
  std::vector<int> cols(static_cast<size_t>(width));
  std::iota(cols.begin(), cols.end(), 0);
  return cols;
}

class Pass {
 public:
  Pass(const LogicalOp& root, const Catalog& catalog)
      : root_(root), catalog_(catalog) {}

  std::unordered_map<const LogicalOp*, DistinctGate> Run(
      const std::vector<const LogicalOp*>& nodes) {
    std::unordered_map<const LogicalOp*, DistinctGate> proofs;
    streams_.reserve(nodes.size());
    for (const LogicalOp* node : nodes) {
      if (node->kind() == LogicalOpKind::kDistinct) {
        proofs.emplace(node, Proof(*In(node->inputs()[0])));
      }
      streams_.emplace(node, Derive(*node));
    }
    return proofs;
  }

 private:
  /// The stream an edge reads: a σ± stream adds its side to the lineage.
  StreamPtr In(const LogicalInput& in) const {
    StreamPtr s = streams_.at(in.op.get());
    if (!s->keyed || in.op->kind() != LogicalOpKind::kBypassSelect) {
      return s;
    }
    return Extend(*s,
                  Split{in.op.get(), StreamPort::kOut, nullptr,
                        StreamPort::kOut, ""},
                  in.port == StreamPort::kOut);
  }

  /// `s` with one more split in every alternative, its key as the cols.
  static StreamPtr Extend(const Stream& s, const Split& split,
                          bool positive) {
    auto out = std::make_shared<Stream>(s);
    for (int alt = 0; alt < s.alts; ++alt) {
      out->lineage.push_back(Lineage{split, positive, alt, s.key});
    }
    return out;
  }

  /// A semi or anti join's left stream, with the join as its split.
  StreamPtr Existence(const LogicalOp& node) const {
    const auto& in = node.inputs();
    StreamPtr s = In(in[0]);
    const bool semi = node.kind() == LogicalOpKind::kSemiJoin;
    const ExprPtr& pred =
        semi ? static_cast<const SemiJoinOp&>(node).predicate()
             : static_cast<const AntiJoinOp&>(node).predicate();
    // A nested block prints abbreviated, so its text names no predicate.
    if (!s->keyed || pred == nullptr || ContainsSubquery(pred)) return s;
    return Extend(*s,
                  Split{in[0].op.get(), in[0].port, in[1].op.get(),
                        in[1].port, pred->ToString()},
                  semi);
  }

  static DistinctGate Proof(const Stream& in) {
    DistinctGate proof;
    proof.proven = in.keyed;
    if (!in.keyed) {
      proof.text = in.why_not;
      return proof;
    }
    proof.tables = in.tables;
    proof.text = Join(in.steps, "; ");
    if (proof.tables.empty() && proof.text.empty()) proof.text = in.source;
    return proof;
  }

  StreamPtr Derive(const LogicalOp& node) {
    const auto& inputs = node.inputs();
    const int width = node.schema().num_columns();
    switch (node.kind()) {
      case LogicalOpKind::kGet: {
        Result<Table*> table = catalog_.GetTable(
            static_cast<const GetOp&>(node).table_name());
        if (!table.ok()) return Unknown("a base table is missing");
        auto s = std::make_shared<Stream>();
        s->keyed = true;
        s->key = AllColumns(width);
        s->tables = {*table};
        return s;
      }
      case LogicalOpKind::kSelect:
      case LogicalOpKind::kBypassSelect:  // In() adds each stream's side
      case LogicalOpKind::kMap:           // appends columns
      case LogicalOpKind::kSort:
      case LogicalOpKind::kLimit:
      case LogicalOpKind::kBinaryGroupBy:  // one row per left row
        return In(inputs[0]);
      case LogicalOpKind::kSemiJoin:
      case LogicalOpKind::kAntiJoin:
        return Existence(node);
      case LogicalOpKind::kDistinct: {
        // Its rows are some of its input's, so the lineage holds.
        const StreamPtr in = In(inputs[0]);
        auto s = std::make_shared<Stream>();
        s->keyed = true;
        s->key = AllColumns(width);
        s->source = "δ";
        if (in->keyed) {
          s->alts = in->alts;
          s->lineage = in->lineage;
        }
        return s;
      }
      case LogicalOpKind::kNumbering: {
        StreamPtr in = In(inputs[0]);
        if (in->keyed) return in;
        return Keyed({width - 1}, "ν ids");
      }
      case LogicalOpKind::kGroupBy: {
        const auto& gb = static_cast<const GroupByOp&>(node);
        std::vector<int> key(gb.keys().size());
        std::iota(key.begin(), key.end(), 0);  // keys lead the output
        return Keyed(std::move(key), "Γ keys");
      }
      case LogicalOpKind::kProject:
        return ProjectStream(static_cast<const ProjectOp&>(node));
      case LogicalOpKind::kJoin:
      case LogicalOpKind::kLeftOuterJoin:
        return JoinStream(node);
      case LogicalOpKind::kUnion:
        return UnionStream(node);
    }
    return Unknown("unknown operator");
  }

  StreamPtr ProjectStream(const ProjectOp& proj) const {
    const StreamPtr in = In(proj.inputs()[0]);
    if (!in->keyed) return in;
    // Output position of each input column the Π copies, or -1.
    const Schema& input = proj.inputs()[0].op->schema();
    std::vector<int> out_of(static_cast<size_t>(input.num_columns()), -1);
    for (size_t i = 0; i < proj.items().size(); ++i) {
      const Expr& e = *proj.items()[i].expr;
      if (e.kind() != ExprKind::kColumnRef) continue;
      const auto& ref = static_cast<const ColumnRefExpr&>(e);
      if (ref.is_outer()) continue;
      Result<int> col = InputColumnOf(ref, input);
      if (col.ok()) out_of[static_cast<size_t>(*col)] = static_cast<int>(i);
    }
    auto map = [&](std::vector<int>* cols) {
      for (int& c : *cols) {
        c = out_of[static_cast<size_t>(c)];
        if (c < 0) return false;
      }
      return true;
    };
    auto s = std::make_shared<Stream>(*in);
    if (!map(&s->key)) return Unknown("Π drops a key column");
    std::sort(s->key.begin(), s->key.end());
    // Lineage columns keep their order: column j holds the split input's
    // j-th key column.
    s->lineage.erase(
        std::remove_if(s->lineage.begin(), s->lineage.end(),
                       [&](Lineage& l) { return !map(&l.cols); }),
        s->lineage.end());
    return s;
  }

  StreamPtr JoinStream(const LogicalOp& node) const {
    const StreamPtr left = In(node.inputs()[0]);
    if (!left->keyed) return left;
    const StreamPtr right = In(node.inputs()[1]);
    if (!right->keyed) return right;
    const bool inner = node.kind() == LogicalOpKind::kJoin;
    const ExprPtr& pred =
        inner ? static_cast<const JoinOp&>(node).predicate()
              : static_cast<const LeftOuterJoinOp&>(node).predicate();
    // Columns the predicate equates across the inputs, per side.
    const Schema& ls = node.inputs()[0].op->schema();
    const Schema& rs = node.inputs()[1].op->schema();
    std::vector<int> left_eq, right_eq;
    for (const ExprPtr& c : SplitConjuncts(pred)) {
      if (!IsHashKeyConjunct(*c)) continue;
      const auto& cmp = static_cast<const ComparisonExpr&>(*c);
      const auto& a = static_cast<const ColumnRefExpr&>(*cmp.left());
      const auto& b = static_cast<const ColumnRefExpr&>(*cmp.right());
      for (const auto& [l, r] : {std::pair{&a, &b}, std::pair{&b, &a}}) {
        Result<int> lc = InputColumnOf(*l, ls);
        Result<int> rc = InputColumnOf(*r, rs);
        if (lc.ok() && rc.ok()) {
          left_eq.push_back(*lc);
          right_eq.push_back(*rc);
          break;
        }
      }
    }
    const int lw = ls.num_columns();
    auto s = std::make_shared<Stream>(*left);
    MergeProof(s.get(), *right);
    if (IsSubset(right->key, right_eq)) {
      // Each left row meets at most one right row: the left key holds.
    } else if (inner && IsSubset(s->key, left_eq)) {
      s->key.clear();
      AddSorted(&s->key, right->key, lw);
    } else {
      AddSorted(&s->key, right->key, lw);
    }
    // A ⟕'s padded rows carry no right row, so only its left lineage
    // holds; an inner join's rows carry one row of each side (kept when
    // the right side has one alternative).
    if (inner && right->alts == 1) {
      for (const Lineage& l : right->lineage) {
        for (int alt = 0; alt < s->alts; ++alt) {
          Lineage shifted = l;
          shifted.alt = alt;
          for (int& c : shifted.cols) c += lw;
          s->lineage.push_back(std::move(shifted));
        }
      }
    }
    return s;
  }

  StreamPtr UnionStream(const LogicalOp& node) {
    std::vector<StreamPtr> branches;
    for (const LogicalInput& in : node.inputs()) {
      branches.push_back(In(in));
      if (!branches.back()->keyed) return branches.back();
    }
    // Every alternative of one branch must be disjoint from every
    // alternative of each other branch.
    auto s = std::make_shared<Stream>(*branches[0]);
    for (size_t i = 0; i < branches.size(); ++i) {
      for (size_t j = i + 1; j < branches.size(); ++j) {
        for (int a = 0; a < branches[i]->alts; ++a) {
          for (int b = 0; b < branches[j]->alts; ++b) {
            const Lineage* w = Witness(*branches[i], a, *branches[j], b);
            if (w == nullptr) {
              return Unknown("⊎ branches not provably disjoint");
            }
            AddSorted(&s->key, w->cols);
            AddUnique(&s->steps, "⊎ of " + Shown(w->split) + " ±");
          }
        }
      }
      if (i > 0) {
        AddSorted(&s->key, branches[i]->key);
        MergeProof(s.get(), *branches[i]);
        for (Lineage l : branches[i]->lineage) {
          l.alt += s->alts;
          s->lineage.push_back(std::move(l));
        }
        s->alts += branches[i]->alts;
      }
    }
    return s;
  }

  /// An entry of alternative `a` of `x` whose split alternative `b` of
  /// `y` came through on the other side, with the same key columns;
  /// nullptr when there is none.
  static const Lineage* Witness(const Stream& x, int a, const Stream& y,
                                int b) {
    for (const Lineage& l : x.lineage) {
      if (l.alt != a) continue;
      for (const Lineage& m : y.lineage) {
        if (m.alt == b && l.split == m.split && l.positive != m.positive &&
            l.cols == m.cols) {
          return &l;
        }
      }
    }
    return nullptr;
  }

  /// The split as EXPLAIN names it: "σ± #1" (PlanToString's id) or
  /// "⋉/▷ <predicate>".
  std::string Shown(const Split& split) {
    if (split.right != nullptr) return "⋉/▷ " + split.predicate;
    if (ids_.empty()) ids_ = SharedNodeIds(root_);
    const auto id = ids_.find(split.left);
    return "σ± #" + std::to_string(id == ids_.end() ? 0 : id->second);
  }

  const LogicalOp& root_;
  const Catalog& catalog_;
  std::unordered_map<const LogicalOp*, StreamPtr> streams_;
  std::unordered_map<const LogicalOp*, int> ids_;  // filled on first use
};

}  // namespace

std::unordered_map<const LogicalOp*, DistinctGate> ProveDistinctInputs(
    const LogicalOp& root, const Catalog& catalog) {
  const std::vector<const LogicalOp*> nodes = TopologicalNodes(root);
  const bool any = std::any_of(nodes.begin(), nodes.end(), [](auto* n) {
    return n->kind() == LogicalOpKind::kDistinct;
  });
  if (!any) return {};
  return Pass(root, catalog).Run(nodes);
}

}  // namespace bypass
