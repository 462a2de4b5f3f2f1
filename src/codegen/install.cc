#include "codegen/install.h"

#include <memory>
#include <utility>
#include <vector>

#include "codegen/codegen_engine.h"
#include "codegen/compiled_pipeline.h"
#include "codegen/lower_chain.h"
#include "engine/query_options.h"
#include "exec/filter.h"
#include "exec/scan.h"

namespace bypass {
namespace {

/// A scan-rooted chain of supported stages. `ops` parallels `stages`;
/// ops.front() is the fallback entry, ops.back() the terminal whose
/// output ports the compiled operator mirrors.
struct DiscoveredChain {
  std::vector<ChainStage> stages;
  std::vector<PhysOp*> ops;
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
    }
    break;
  }
  return chain;
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
