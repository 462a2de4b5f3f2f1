// CompiledPipelineOp: the phys-op face of the codegen tier (DESIGN.md
// §12). It is spliced between a table scan and the consumers of a
// lowered filter/σ± chain, and routes each batch either
// through the compiled function (one native pass producing every output
// port's selection) or — while the async compile is still pending, when
// the batch carries no typed columns, or when a per-batch guard fails —
// through the original interpreted chain, which remains wired to the
// same consumers. Both paths are batch-exact: same routing, same
// ordering, same dense-flag discipline, so mixed compiled/interpreted
// executions are indistinguishable downstream.
#ifndef BYPASSDB_CODEGEN_COMPILED_PIPELINE_H_
#define BYPASSDB_CODEGEN_COMPILED_PIPELINE_H_

#include <string>
#include <vector>

#include "codegen/codegen_engine.h"
#include "codegen/lower_chain.h"
#include "exec/phys_op.h"

namespace bypass {

class CompiledPipelineOp : public UnaryPhysOp {
 public:
  /// `slot` is the async compile handle (from CodegenEngine::Submit),
  /// `chain` the lowered shape the artifact implements, `head` the first
  /// operator of the interpreted chain — the fallback entry point; the
  /// chain's terminal keeps its consumer edges, so fallback batches and
  /// end-of-stream reach the same consumers this operator emits to.
  CompiledPipelineOp(CompiledFnSlotPtr slot, LoweredChain chain,
                     PhysOp* head);

  Status Prepare(ExecContext* ctx) override;
  Status Consume(int in_port, RowBatch batch) override;
  Status FinishPort(int in_port) override;
  std::string Label() const override;

 private:
  /// Per-worker run state, padded against false sharing. Stream vectors
  /// are grow-only across batches.
  struct alignas(64) Scratch {
    std::vector<std::vector<uint32_t>> streams;
    std::vector<uint32_t*> outs;
    std::vector<uint64_t> counts;
    std::vector<CgCol> cols;
  };

  /// Builds the ABI view of `batch`; false when any per-batch guard
  /// fails (no columns attached, slot out of range, column demoted to
  /// mixed mode or type-mismatched) — the caller then falls back.
  bool FillBatch(const RowBatch& batch, Scratch* s, CgBatch* cg);

  CompiledFnSlotPtr slot_;
  LoweredChain chain_;
  PhysOp* head_;
  std::vector<Scratch> scratch_;
};

}  // namespace bypass

#endif  // BYPASSDB_CODEGEN_COMPILED_PIPELINE_H_
