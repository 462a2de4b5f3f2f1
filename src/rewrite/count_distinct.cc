#include "rewrite/count_distinct.h"

#include <map>
#include <unordered_map>
#include <utility>

#include "common/string_util.h"

namespace bypass {

namespace {

bool AllCountDistinctStar(const std::vector<AggregateSpec>& aggs) {
  if (aggs.empty()) return false;
  for (const AggregateSpec& a : aggs) {
    if (a.func != AggFunc::kCount || !a.distinct || a.arg != nullptr) {
      return false;
    }
  }
  return true;
}

std::vector<AggregateSpec> AsCountStar(
    const std::vector<AggregateSpec>& aggs) {
  std::vector<AggregateSpec> out;
  out.reserve(aggs.size());
  for (const AggregateSpec& a : aggs) {
    AggregateSpec count = a.Clone();
    count.distinct = false;
    out.push_back(std::move(count));
  }
  return out;
}

std::string KeyString(const GroupKey& k) {
  std::string s = k.qualifier.empty() ? k.name : k.qualifier + "." + k.name;
  return k.output_alias.empty() ? s : k.output_alias + " := " + s;
}

class Pass {
 public:
  explicit Pass(std::vector<std::string>* notes) : notes_(notes) {}

  LogicalOpPtr Visit(const LogicalOpPtr& node) {
    if (auto it = memo_.find(node.get()); it != memo_.end()) {
      return it->second;
    }
    std::vector<LogicalInput> inputs = node->inputs();
    bool changed = false;
    for (LogicalInput& in : inputs) {
      LogicalOpPtr rewritten = Visit(in.op);
      changed = changed || rewritten != in.op;
      in.op = std::move(rewritten);
    }
    LogicalOpPtr out = Rewrite(*node, inputs);
    if (out == nullptr) {
      out = changed ? node->WithNewInputs(std::move(inputs)) : node;
    }
    memo_.emplace(node.get(), out);
    return out;
  }

 private:
  /// The grouping rebuilt over δ, or nullptr when `node` does not
  /// qualify.
  LogicalOpPtr Rewrite(const LogicalOp& node,
                       const std::vector<LogicalInput>& inputs) {
    if (node.kind() == LogicalOpKind::kGroupBy) {
      const auto& gb = static_cast<const GroupByOp&>(node);
      if (!AllCountDistinctStar(gb.aggregates())) return nullptr;
      std::vector<std::string> keys;
      for (const GroupKey& k : gb.keys()) keys.push_back(KeyString(k));
      Note("Γ[" + Join(keys, ", ") + "]");
      return std::make_shared<GroupByOp>(Delta(inputs[0]), gb.keys(),
                                         AsCountStar(gb.aggregates()),
                                         gb.scalar());
    }
    if (node.kind() == LogicalOpKind::kBinaryGroupBy) {
      const auto& bg = static_cast<const BinaryGroupByOp&>(node);
      if (!AllCountDistinctStar(bg.aggregates())) return nullptr;
      Note("Γ[" + KeyString(bg.left_key()) + " " +
           CompareOpToString(bg.compare_op()) + " " +
           KeyString(bg.right_key()) + "]");
      return std::make_shared<BinaryGroupByOp>(
          inputs[0], Delta(inputs[1]), bg.left_key(), bg.compare_op(),
          bg.right_key(), AsCountStar(bg.aggregates()));
    }
    return nullptr;
  }

  /// δ over `in`, shared by every grouping over the same stream; a
  /// stream that already is a δ's output is used as is.
  LogicalInput Delta(const LogicalInput& in) {
    if (in.op->kind() == LogicalOpKind::kDistinct) return in;
    LogicalOpPtr& delta = deltas_[{in.op.get(), in.port}];
    if (delta == nullptr) delta = std::make_shared<DistinctOp>(in);
    return LogicalInput{delta, StreamPort::kOut};
  }

  void Note(const std::string& grouping) {
    notes_->push_back("COUNT(DISTINCT *) as COUNT(*) over δ: " + grouping);
  }

  std::vector<std::string>* notes_;
  std::unordered_map<const LogicalOp*, LogicalOpPtr> memo_;
  std::map<std::pair<const LogicalOp*, StreamPort>, LogicalOpPtr> deltas_;
};

}  // namespace

LogicalOpPtr CountDistinctOverDelta(const LogicalOpPtr& plan,
                                    std::vector<std::string>* notes) {
  return Pass(notes).Visit(plan);
}

}  // namespace bypass
