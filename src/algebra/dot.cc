#include "algebra/dot.h"

#include <sstream>
#include <unordered_map>

namespace bypass {

namespace {

std::string EscapeLabel(const std::string& label) {
  std::string out;
  out.reserve(label.size());
  for (char c : label) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

const char* NodeShape(LogicalOpKind kind) {
  switch (kind) {
    case LogicalOpKind::kGet:
      return "cylinder";
    case LogicalOpKind::kBypassSelect:
      return "diamond";
    case LogicalOpKind::kUnion:
      return "invtriangle";
    default:
      return "box";
  }
}

}  // namespace

std::string PlanToDot(const LogicalOp& root,
                      const std::string& graph_name) {
  std::ostringstream os;
  os << "digraph \"" << EscapeLabel(graph_name) << "\" {\n";
  os << "  rankdir=BT;\n";  // data flows bottom-up, like plan figures
  os << "  node [fontname=\"Helvetica\", fontsize=10];\n";

  const std::vector<const LogicalOp*> nodes = TopologicalNodes(root);
  std::unordered_map<const LogicalOp*, int> ids;
  for (const LogicalOp* node : nodes) {
    const int id = static_cast<int>(ids.size());
    ids.emplace(node, id);
    os << "  n" << id << " [label=\"" << EscapeLabel(node->Label())
       << "\", shape=" << NodeShape(node->kind()) << "];\n";
  }
  os << "  result [label=\"result\", shape=plaintext];\n";
  for (const LogicalOp* node : nodes) {
    for (const LogicalInput& in : node->inputs()) {
      os << "  n" << ids[in.op.get()] << " -> n" << ids[node];
      if (in.op->kind() == LogicalOpKind::kBypassSelect) {
        const bool negative = in.port == StreamPort::kNegative;
        os << " [label=\"" << (negative ? "-" : "+") << "\""
           << (negative ? ", style=dashed" : "") << "]";
      }
      os << ";\n";
    }
  }
  os << "  n" << ids[&root] << " -> result;\n";
  os << "}\n";
  return os.str();
}

}  // namespace bypass
