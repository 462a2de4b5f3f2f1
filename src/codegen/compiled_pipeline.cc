#include "codegen/compiled_pipeline.h"

#include <utility>

#include "exec/worker_pool.h"
#include "types/column_vector.h"

namespace bypass {

CompiledPipelineOp::CompiledPipelineOp(CompiledFnSlotPtr slot,
                                       LoweredChain chain, PhysOp* head)
    : UnaryPhysOp(chain.num_out_ports),
      slot_(std::move(slot)),
      chain_(std::move(chain)),
      head_(head) {}

Status CompiledPipelineOp::Prepare(ExecContext* ctx) {
  BYPASS_RETURN_IF_ERROR(UnaryPhysOp::Prepare(ctx));
  scratch_.resize(static_cast<size_t>(ctx->run().num_worker_slots()));
  const size_t ports = static_cast<size_t>(chain_.num_out_ports);
  for (Scratch& s : scratch_) {
    s.streams.resize(ports);
    s.outs.resize(ports);
    s.counts.resize(ports);
    s.cols.resize(chain_.slots.size());
  }
  // Per-execution signal that this plan's artifact was served from the
  // codegen cache rather than compiled fresh.
  if (slot_ != nullptr && slot_->ready() != nullptr && slot_->from_cache()) {
    ctx->run().stats().codegen_cache_hits += 1;
  }
  return Status::OK();
}

bool CompiledPipelineOp::FillBatch(const RowBatch& batch, Scratch* s,
                                   CgBatch* cg) {
  const ColumnStore* store = batch.columns();
  for (size_t i = 0; i < chain_.slots.size(); ++i) {
    const CgSlotUse& use = chain_.slots[i];
    if (use.slot < 0 ||
        static_cast<size_t>(use.slot) >= store->columns.size()) {
      return false;
    }
    const ColumnVector& col = store->columns[static_cast<size_t>(use.slot)];
    // The emitted code was monomorphized on the declared type; a demoted
    // (mixed-mode) or re-typed column invalidates its raw pointers.
    if (!col.typed() || col.type() != use.type) return false;
    CgCol& out = s->cols[i];
    out = CgCol{};
    switch (use.type) {
      case DataType::kInt64:
        out.data = col.i64_data();
        break;
      case DataType::kDouble:
        out.data = col.f64_data();
        break;
      case DataType::kBool:
        out.data = col.bool_data();
        break;
      case DataType::kString:
        out.offsets = col.string_offsets();
        out.chars = col.string_chars();
        break;
      default:
        return false;
    }
    out.nulls = col.has_nulls() ? col.null_words() : nullptr;
  }
  cg->cols = s->cols.data();
  cg->sel = batch.selection().data();
  cg->n = batch.size();
  return true;
}

Status CompiledPipelineOp::Consume(int, RowBatch batch) {
  const CompiledArtifact* artifact =
      slot_ != nullptr ? slot_->ready() : nullptr;
  Scratch& s = scratch_[static_cast<size_t>(CurrentWorkerId())];
  CgBatch cg;

  if (artifact == nullptr || !FillBatch(batch, &s, &cg)) {
    // Still compiling, compile failed, or guards said no: the original
    // interpreted chain handles this batch and emits to the same
    // consumers.
    ctx_->run().stats().compiled_fallback_batches += 1;
    return head_->Consume(0, std::move(batch));
  }

  const size_t ports = static_cast<size_t>(chain_.num_out_ports);
  const size_t n = batch.size();
  for (size_t p = 0; p < ports; ++p) {
    if (s.streams[p].size() < n) s.streams[p].resize(n);
    s.outs[p] = s.streams[p].data();
  }
  artifact->run()(&cg, s.outs.data(), s.counts.data());
  ExecStats& stats = ctx_->run().stats();
  stats.compiled_batches += 1;

  const bool was_dense = batch.dense();
  if (ports == 2) {
    // σ± split: negative view is built before the positive selection
    // mutates the batch (BypassFilterOp's order).
    RowBatch negative = batch.ShareWithSelection(std::vector<uint32_t>(
        s.streams[1].begin(),
        s.streams[1].begin() + static_cast<ptrdiff_t>(s.counts[1])));
    if (s.counts[0] != n) {
      batch.selection().assign(
          s.streams[0].begin(),
          s.streams[0].begin() + static_cast<ptrdiff_t>(s.counts[0]));
      if (was_dense && !batch.empty() &&
          batch.selection().back() - batch.selection().front() + 1 ==
              batch.size()) {
        batch.MarkDense();
      }
    }
    if (was_dense && !negative.empty() &&
        negative.selection().back() - negative.selection().front() + 1 ==
            negative.size()) {
      negative.MarkDense();
    }
    BYPASS_RETURN_IF_ERROR(Emit(kPortOut, std::move(batch)));
    return Emit(kPortNegative, std::move(negative));
  }

  // Pure σ chain: one surviving selection.
  if (s.counts[0] == n) {
    // Nothing dropped — keep the batch (and its dense flag) untouched.
    return Emit(kPortOut, std::move(batch));
  }
  batch.selection().assign(
      s.streams[0].begin(),
      s.streams[0].begin() + static_cast<ptrdiff_t>(s.counts[0]));
  if (was_dense && !batch.empty() &&
      batch.selection().back() - batch.selection().front() + 1 ==
          batch.size()) {
    batch.MarkDense();
  }
  return Emit(kPortOut, std::move(batch));
}

Status CompiledPipelineOp::FinishPort(int) {
  // End-of-stream always flows through the interpreted chain: its
  // terminal still owns the consumer edges and sends the single finish
  // per port. Emitting a second finish here would double-close the
  // consumers.
  return head_->FinishPort(0);
}

std::string CompiledPipelineOp::Label() const {
  return "CompiledPipeline[" + chain_.summary + "] → " + head_->Label();
}

}  // namespace bypass
