#include "codegen/install.h"

#include <memory>
#include <utility>
#include <vector>

#include "codegen/codegen_engine.h"
#include "codegen/compiled_pipeline.h"
#include "codegen/lower_chain.h"
#include "engine/query_options.h"
#include "exec/filter.h"
#include "exec/group_by.h"
#include "exec/join.h"
#include "exec/project.h"
#include "exec/scan.h"

namespace bypass {
namespace {

/// A scan-rooted chain of supported stages. `ops` parallels `stages`;
/// ops.front() is the fallback entry, ops.back() the terminal whose
/// output ports the compiled operator mirrors. `next` is the first
/// operator past the filter prefix when the chain did not close on a
/// σ± terminal — the generation-2 pass probes it for a fusable
/// pipeline breaker (it is null after an unsupported filter or fan-out,
/// where the breaker would not be contiguous with the compiled prefix).
struct DiscoveredChain {
  std::vector<ChainStage> stages;
  std::vector<PhysOp*> ops;
  PhysOp* next = nullptr;
};

/// Walks downstream from the scan's single consumer, accepting filters
/// while each has exactly one port-0 consumer fed on in-port 0, and
/// closing the chain on a bypass split. Stops at the first unsupported
/// stage — the compiled prefix must start at the scan, so an unsupported
/// head yields an empty chain.
DiscoveredChain DiscoverChain(PhysOp* first, const Schema& schema) {
  DiscoveredChain chain;
  PhysOp* cur = first;
  while (cur != nullptr) {
    if (auto* filter = dynamic_cast<FilterOp*>(cur)) {
      ChainStage stage{ChainStageKind::kFilter, &filter->predicate()};
      if (!StageSupported(stage, schema)) break;
      chain.stages.push_back(std::move(stage));
      chain.ops.push_back(filter);
      // Extend only through an unshared port-0 link; a fan-out or
      // off-port consumer makes this filter the terminal.
      if (filter->num_consumers(kPortOut) == 1) {
        const auto edges = filter->consumers(kPortOut);
        if (edges[0].in_port == 0) {
          cur = edges[0].consumer;
          continue;
        }
      }
      break;
    }
    if (auto* bypass = dynamic_cast<BypassFilterOp*>(cur)) {
      ChainStage stage{ChainStageKind::kBypass, &bypass->predicate()};
      if (StageSupported(stage, schema)) {
        chain.stages.push_back(std::move(stage));
        chain.ops.push_back(bypass);
      }
      break;
    }
    // Not a routing stage: a generation-2 terminal candidate (hash-join
    // probe, group-by accumulate) or plain interpreted territory.
    chain.next = cur;
    break;
  }
  return chain;
}

// --- Generation-2 terminal recognition (DESIGN.md §12).

/// A recognized fusable breaker: the lowering descriptor plus the
/// operators whose hash structures the compiled loop probes.
struct WidenedTerminal {
  ChainTerminal desc;
  HashJoinOp* join = nullptr;
  HashGroupByOp* group = nullptr;
  /// Fallback entry when the chain has no filters (the breaker itself —
  /// its chain input is in-port 0 for both the join's probe side and the
  /// group-by).
  PhysOp* entry = nullptr;
};

/// Maps a slot through the accumulated projection remap (null = identity);
/// -1 when out of range.
int ResolveSlot(int slot, const std::vector<int>* remap) {
  if (slot < 0) return -1;
  if (remap == nullptr) return slot;
  if (static_cast<size_t>(slot) >= remap->size()) return -1;
  return (*remap)[static_cast<size_t>(slot)];
}

/// Checks a group-by against the single-int64-key fast path and fills the
/// terminal's key/fold descriptors. `remap` maps the group-by's input
/// slots back to join-output slots (null when the group-by reads the scan
/// directly); slots must land inside the scan schema — in the fused-join
/// shape that is exactly the probe side, so build-side keys or arguments
/// decline here. DISTINCT, non-column arguments, and non-numeric argument
/// types stay interpreted (the lowering re-checks types).
bool RecognizeGroupBy(HashGroupByOp* group, const std::vector<int>* remap,
                      const Schema& schema, ChainTerminal* t) {
  if (group->scalar()) return false;
  if (group->key_slots().size() != 1) return false;
  const int width = static_cast<int>(schema.num_columns());
  const int key = ResolveSlot(group->key_slots()[0], remap);
  if (key < 0 || key >= width ||
      schema.column(static_cast<size_t>(key)).type != DataType::kInt64) {
    return false;
  }
  t->group_slot = key;
  for (const AggregateSpec& spec : *group->aggregates()) {
    if (spec.distinct) return false;
    CgAggFold fold;
    fold.func = spec.func;
    if (spec.arg == nullptr) {
      if (spec.func != AggFunc::kCount) return false;
      fold.star = true;
    } else {
      if (spec.arg->kind() != ExprKind::kColumnRef) return false;
      const auto* ref = static_cast<const ColumnRefExpr*>(spec.arg.get());
      if (ref->is_outer()) return false;
      const int slot = ResolveSlot(ref->slot(), remap);
      if (slot < 0 || slot >= width) return false;
      const DataType type = schema.column(static_cast<size_t>(slot)).type;
      if (type != DataType::kInt64 && type != DataType::kDouble) {
        return false;
      }
      fold.slot = slot;
      fold.type = type;
    }
    t->aggs.push_back(fold);
  }
  return true;
}

/// Probes `op` for a fusable generation-2 terminal. An inner hash join
/// must be fed on its probe (left) port with a single non-residual int64
/// key; a group-by downstream of the join — through identity or pure
/// column-copy Π layers — upgrades the shape to the fully fused
/// probe+accumulate loop. Map χ layers decline: physical operators carry
/// no schemas, so the pass-through width of an append is unknowable
/// here, and a wrong remap would silently fold the wrong column.
bool RecognizeWidenedTerminal(PhysOp* op, int in_port, const Schema& schema,
                              WidenedTerminal* out) {
  if (auto* group = dynamic_cast<HashGroupByOp*>(op)) {
    if (in_port != 0) return false;
    ChainTerminal t;
    t.kind = ChainTerminalKind::kGroupBy;
    if (!RecognizeGroupBy(group, nullptr, schema, &t)) return false;
    out->desc = std::move(t);
    out->group = group;
    out->entry = group;
    return true;
  }
  auto* join = dynamic_cast<HashJoinOp*>(op);
  if (join == nullptr) return false;
  if (in_port != BinaryPhysOp::kLeft) return false;  // build side: never
  // The compiled probe emits pairs: an inner join's output only.
  if (join->kind() != JoinKind::kInner) return false;
  if (join->has_residual()) return false;
  if (join->probe_key_slots().size() != 1) return false;
  const int probe_slot = join->probe_key_slots()[0];
  if (probe_slot < 0 ||
      probe_slot >= static_cast<int>(schema.num_columns()) ||
      schema.column(static_cast<size_t>(probe_slot)).type !=
          DataType::kInt64) {
    return false;
  }
  out->join = join;
  out->entry = join;

  // Walk the join's output toward a group-by, composing the slot remap
  // of any projection copy layers. Every link must be unshared and feed
  // in-port 0 (the group-by's only input) — a fan-out keeps the plain
  // probe shape, whose pairs the compiled operator materializes for the
  // join's own consumers. The remap starts at the join's gather spec:
  // output column j is probe (scan) slot gather[j], and build-side
  // columns map to -1 so a group-by reading them declines.
  std::vector<int> remap;
  bool have_remap = false;
  if (!join->gather().is_concat()) {
    for (const GatherCol& c : join->gather().cols()) {
      remap.push_back(c.side == JoinSide::kProbe ? c.slot : -1);
    }
    have_remap = true;
  }
  PhysOp* cur = join;
  while (cur->num_consumers(kPortOut) == 1) {
    const auto edges = cur->consumers(kPortOut);
    if (edges[0].in_port != 0) break;
    PhysOp* next = edges[0].consumer;
    if (auto* proj = dynamic_cast<ProjectPhysOp*>(next)) {
      if (proj->identity()) {
        cur = proj;
        continue;
      }
      std::vector<int> composed(proj->exprs().size(), -1);
      bool copies = true;
      for (size_t i = 0; i < proj->exprs().size(); ++i) {
        const Expr* e = proj->exprs()[i].get();
        if (e->kind() != ExprKind::kColumnRef) {
          copies = false;
          break;
        }
        const auto* ref = static_cast<const ColumnRefExpr*>(e);
        if (ref->is_outer()) {
          copies = false;
          break;
        }
        composed[i] =
            ResolveSlot(ref->slot(), have_remap ? &remap : nullptr);
        if (composed[i] < 0) {
          copies = false;
          break;
        }
      }
      if (!copies) break;
      remap = std::move(composed);
      have_remap = true;
      cur = proj;
      continue;
    }
    if (auto* group = dynamic_cast<HashGroupByOp*>(next)) {
      ChainTerminal t;
      t.kind = ChainTerminalKind::kJoinGroupBy;
      t.probe_slot = probe_slot;
      if (RecognizeGroupBy(group, have_remap ? &remap : nullptr, schema,
                           &t)) {
        out->desc = std::move(t);
        out->group = group;
        return true;
      }
      break;
    }
    break;
  }

  out->desc.kind = ChainTerminalKind::kJoinProbe;
  out->desc.probe_slot = probe_slot;
  return true;
}

/// Generation 2: a fused probe/accumulate terminal subsumes the whole
/// filter prefix (and may exist with no filters at all). The scan may
/// feed the breaker directly on a non-zero port (its build side) —
/// recognition rejects that before anything else. Returns whether a
/// compiled operator was installed.
bool InstallWidened(TableScanOp* scan, PhysicalPlan* plan,
                    CodegenEngine* engine, const QueryOptions& options,
                    uint64_t stats_epoch, uint64_t plan_tag) {
  const auto scan_edges = scan->consumers(kPortOut);
  const Schema& schema = scan->table_schema();
  DiscoveredChain chain =
      scan_edges[0].in_port == 0
          ? DiscoverChain(scan_edges[0].consumer, schema)
          : DiscoveredChain{{}, {}, scan_edges[0].consumer};
  WidenedTerminal terminal;
  LoweredChain lowered;
  const int terminal_in_port = chain.ops.empty() ? scan_edges[0].in_port : 0;
  if (chain.next == nullptr ||
      !RecognizeWidenedTerminal(chain.next, terminal_in_port, schema,
                                &terminal) ||
      !LowerChainWidened(chain.stages, terminal.desc, schema, &lowered)) {
    return false;
  }
  CompiledFnSlotPtr slot = engine->Submit(
      lowered.source, stats_epoch, options.codegen_synchronous, plan_tag);
  if (slot == nullptr) return false;
  PhysOp* head = chain.ops.empty() ? terminal.entry : chain.ops.front();
  auto compiled = std::make_unique<CompiledPipelineOp>(
      std::move(slot), std::move(lowered), head, terminal.join,
      terminal.group);
  if (terminal.desc.kind == ChainTerminalKind::kJoinProbe) {
    // The compiled probe emits joined rows straight to the join's
    // consumers; the join keeps its edges for fallback batches and
    // end-of-stream.
    for (const PhysOp::ConsumerEdge& e : terminal.join->consumers(kPortOut)) {
      compiled->AddConsumer(kPortOut, e.consumer, e.in_port);
    }
    compiled->set_estimated_rows(kPortOut,
                                 terminal.join->estimated_rows(kPortOut));
  }
  // Accumulate shapes emit nothing: results leave through the group-by's
  // own finish. The operator still owns one out port (the lowered
  // chain's), just with no edges.
  scan->ReplaceConsumers(kPortOut, compiled.get(), 0);
  plan->ops.push_back(std::move(compiled));
  return true;
}

}  // namespace

int InstallCompiledPipelines(PhysicalPlan* plan, CodegenEngine* engine,
                             const QueryOptions& options,
                             uint64_t stats_epoch, uint64_t plan_tag) {
  if (plan == nullptr || engine == nullptr || !engine->Available()) {
    return 0;
  }
  int installed = 0;
  for (TableScanOp* scan : plan->sources) {
    if (scan->num_consumers(kPortOut) != 1) continue;
    if (InstallWidened(scan, plan, engine, options, stats_epoch,
                       plan_tag)) {
      ++installed;
      continue;
    }

    // Generation 1: the routing-chain shapes of PR 9.
    const auto scan_edges = scan->consumers(kPortOut);
    if (scan_edges[0].in_port != 0) continue;
    const Schema& schema = scan->table_schema();
    DiscoveredChain chain = DiscoverChain(scan_edges[0].consumer, schema);
    if (chain.stages.empty()) continue;

    LoweredChain lowered;
    if (!LowerChain(chain.stages, schema, &lowered)) continue;
    PhysOp* head = chain.ops.front();
    PhysOp* terminal = chain.ops.back();
    if (lowered.num_out_ports != terminal->num_out_ports()) continue;

    CompiledFnSlotPtr slot = engine->Submit(
        lowered.source, stats_epoch, options.codegen_synchronous, plan_tag);
    if (slot == nullptr) continue;

    auto compiled = std::make_unique<CompiledPipelineOp>(
        std::move(slot), std::move(lowered), head);
    // Mirror the terminal's wiring: the compiled operator emits to the
    // same consumers the interpreted chain feeds. The terminal keeps its
    // edges — fallback batches and the single end-of-stream per port
    // still flow through it.
    for (int p = 0; p < terminal->num_out_ports(); ++p) {
      for (const PhysOp::ConsumerEdge& e : terminal->consumers(p)) {
        compiled->AddConsumer(p, e.consumer, e.in_port);
      }
      compiled->set_estimated_rows(p, terminal->estimated_rows(p));
    }
    scan->ReplaceConsumers(kPortOut, compiled.get(), 0);
    plan->ops.push_back(std::move(compiled));
    ++installed;
  }
  return installed;
}

}  // namespace bypass
