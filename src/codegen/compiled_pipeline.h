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
//
// Generation-2 chains (widened region) additionally fuse the chain's
// terminal pipeline breaker into the emitted function:
//   * hash-join probe: the compiled loop probes the interpreted
//     HashJoinOp's published slot view and returns (position, build row)
//     pairs; this operator materializes the rows through the join's
//     gather spec and emits them to the join's consumers. A full pair
//     cursor resumes at a row boundary with a doubled buffer.
//   * group-by accumulate: hits against the owning worker's group-map
//     snapshot fold into per-worker SoA accumulators inside the emitted
//     loop; missed rows come back as (position, multiplicity) pairs and
//     are folded here after inserting their groups (phase B) — fold
//     order per group equals the interpreter's row order, so results
//     are bit-identical. FinishPort absorbs the SoA partials into the
//     worker AggregatorSets before end-of-stream reaches the group-by.
#ifndef BYPASSDB_CODEGEN_COMPILED_PIPELINE_H_
#define BYPASSDB_CODEGEN_COMPILED_PIPELINE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "codegen/codegen_engine.h"
#include "codegen/lower_chain.h"
#include "exec/phys_op.h"

namespace bypass {

class HashJoinOp;
class HashGroupByOp;

class CompiledPipelineOp : public UnaryPhysOp {
 public:
  /// `slot` is the async compile handle (from CodegenEngine::Submit),
  /// `chain` the lowered shape the artifact implements, `head` the first
  /// operator of the interpreted chain — the fallback entry point; the
  /// chain's terminal keeps its consumer edges, so fallback batches and
  /// end-of-stream reach the same consumers this operator emits to.
  /// Generation-2 chains pass the fused breakers: `join` for probe
  /// terminals, `group` for accumulate terminals (both for the fully
  /// fused shape); generation-1 chains pass nullptr for both.
  CompiledPipelineOp(CompiledFnSlotPtr slot, LoweredChain chain,
                     PhysOp* head, HashJoinOp* join = nullptr,
                     HashGroupByOp* group = nullptr);

  Status Prepare(ExecContext* ctx) override;
  Status Consume(int in_port, RowBatch batch) override;
  Status FinishPort(int in_port) override;
  std::string Label() const override;

 private:
  /// Per-aggregate SoA accumulator arrays, indexed by dense group entry.
  /// `best` is monomorphized on the argument type (ibest/dbest).
  struct AggSoA {
    std::vector<int64_t> count;
    std::vector<int64_t> isum;
    std::vector<double> dsum;
    std::vector<int64_t> ibest;
    std::vector<double> dbest;
    std::vector<uint8_t> has;
  };

  /// Per-worker run state, padded against false sharing. Stream vectors
  /// are grow-only across batches.
  struct alignas(64) Scratch {
    std::vector<std::vector<uint32_t>> streams;
    std::vector<uint32_t*> outs;
    std::vector<uint64_t> counts;
    std::vector<CgCol> cols;
    // Generation-2 state: probe scratch (pass 1 → pass 2), the pair
    // cursor, and this worker's SoA aggregate partials.
    std::vector<uint64_t> jhash;
    std::vector<int64_t> jkey;
    std::vector<uint8_t> jvalid;
    std::vector<uint32_t> pair_a;
    std::vector<uint32_t> pair_b;
    std::vector<AggSoA> soa;
    std::vector<void*> acc_ptrs;
  };

  /// Builds the ABI view of `batch`; false when any per-batch guard
  /// fails (no columns attached, slot out of range, column demoted to
  /// mixed mode or type-mismatched) — the caller then falls back.
  bool FillBatch(const RowBatch& batch, Scratch* s, CgBatch* cg);

  /// Generation-2 per-batch guards: join view published, this worker's
  /// group map still exportable. Fills the ABI views, sizes the probe
  /// scratch/pair cursor/SoA, and rebuilds acc_ptrs.
  bool PrepareViews(Scratch* s, size_t n, CgJoinView* jv, CgGroupView* gv);

  /// Runs the generation-2 entry point and handles its output protocol
  /// (join pair emission with resume, phase-B group inserts + folds).
  Status RunWidened(RowBatch batch, Scratch& s,
                    const CompiledArtifact* artifact, const CgBatch& cg,
                    CgJoinView* jv, CgGroupView* gv);

  /// Ensures every SoA array covers `entries` dense group entries
  /// (zero-filled growth; existing partials are preserved).
  void EnsureSoA(Scratch* s, size_t entries);

  /// Folds `mult` repetitions of the batch value at storage index `rr`
  /// into aggregate `j`'s SoA at entry `idx` — the phase-B mirror of the
  /// emitted fold bodies.
  void FoldInto(Scratch* s, size_t j, uint32_t idx, const CgCol& col,
                uint32_t rr, uint32_t mult);

  /// Absorbs every worker's SoA partials into the group-by's worker
  /// AggregatorSets (MergeCompiledPartial) and clears them; runs once,
  /// from FinishPort, before end-of-stream reaches the group-by's merge.
  void AbsorbSoA();

  CompiledFnSlotPtr slot_;
  LoweredChain chain_;
  PhysOp* head_;
  HashJoinOp* join_;
  HashGroupByOp* group_;
  /// chain_.slots indices of the terminal's key/argument columns
  /// (resolved once in the constructor; -1 = absent/star).
  int jk_col_ = -1;
  int gk_col_ = -1;
  std::vector<int> agg_cols_;
  std::vector<Scratch> scratch_;
};

}  // namespace bypass

#endif  // BYPASSDB_CODEGEN_COMPILED_PIPELINE_H_
