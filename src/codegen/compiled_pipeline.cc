#include "codegen/compiled_pipeline.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "exec/group_by.h"
#include "exec/join.h"
#include "exec/worker_pool.h"
#include "expr/agg.h"
#include "types/column_vector.h"
#include "types/row.h"

namespace bypass {

namespace {

/// Index of the registered column carrying (slot, type), -1 when absent.
/// The lowering registered every terminal key/argument column, so -1 only
/// happens on a malformed chain — the caller then falls back per batch.
int FindSlotIndex(const std::vector<CgSlotUse>& slots, int slot,
                  DataType type) {
  for (size_t i = 0; i < slots.size(); ++i) {
    if (slots[i].slot == slot && slots[i].type == type) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

bool NullAt(const CgCol& col, uint32_t storage_idx) {
  return col.nulls != nullptr &&
         ((col.nulls[storage_idx >> 6] >> (storage_idx & 63)) & 1ull) != 0;
}

}  // namespace

CompiledPipelineOp::CompiledPipelineOp(CompiledFnSlotPtr slot,
                                       LoweredChain chain, PhysOp* head,
                                       HashJoinOp* join,
                                       HashGroupByOp* group)
    : UnaryPhysOp(chain.num_out_ports),
      slot_(std::move(slot)),
      chain_(std::move(chain)),
      head_(head),
      join_(join),
      group_(group) {
  if (chain_.generation == 2) {
    const ChainTerminal& t = chain_.terminal;
    if (join_ != nullptr) {
      jk_col_ = FindSlotIndex(chain_.slots, t.probe_slot, DataType::kInt64);
    }
    if (group_ != nullptr) {
      gk_col_ = FindSlotIndex(chain_.slots, t.group_slot, DataType::kInt64);
      agg_cols_.reserve(t.aggs.size());
      for (const CgAggFold& a : t.aggs) {
        agg_cols_.push_back(a.star ? -1
                                   : FindSlotIndex(chain_.slots, a.slot,
                                                   a.type));
      }
    }
  }
}

Status CompiledPipelineOp::Prepare(ExecContext* ctx) {
  BYPASS_RETURN_IF_ERROR(UnaryPhysOp::Prepare(ctx));
  scratch_.resize(static_cast<size_t>(ctx->run().num_worker_slots()));
  const size_t ports = static_cast<size_t>(chain_.num_out_ports);
  for (Scratch& s : scratch_) {
    s.streams.resize(ports);
    s.outs.resize(ports);
    s.counts.resize(ports);
    s.cols.resize(chain_.slots.size());
    // Aggregate partials never survive an execution: the group-by's maps
    // were Reset, so stale SoA entries would merge into the wrong groups.
    s.soa.clear();
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

bool CompiledPipelineOp::PrepareViews(Scratch* s, size_t n, CgJoinView* jv,
                                      CgGroupView* gv) {
  if (join_ != nullptr) {
    if (jk_col_ < 0) return false;
    // Unpublished (still building, failed budget charge, Grace mode) or
    // non-int64 tables keep the batch on the interpreted path.
    const JoinHashTable* table = join_->codegen_table();
    if (table == nullptr) return false;
    const KeyIndex::Int64View v = table->index().ExportInt64View();
    if (!v.valid) return false;
    if (s->jhash.size() < n) {
      s->jhash.resize(n);
      s->jkey.resize(n);
      s->jvalid.resize(n);
    }
    jv->slots = v.slots;
    jv->mask = v.mask;
    jv->keys = v.keys;
    jv->offsets = table->offsets();
    jv->payload = table->payload();
    jv->hash_scratch = s->jhash.data();
    jv->key_scratch = s->jkey.data();
    jv->valid_scratch = s->jvalid.data();
  }
  if (group_ != nullptr) {
    if (gk_col_ < 0) return false;
    const HashGroupByOp::GroupMap& groups =
        *group_->worker_groups(static_cast<size_t>(CurrentWorkerId()));
    const KeyIndex::Int64View v = groups.index().ExportInt64View();
    // A map downgraded to generic keys (an interpreted fallback batch saw
    // a non-int64 key) can no longer be probed by the emitted loop.
    if (!v.valid) return false;
    gv->slots = v.slots;
    gv->mask = v.mask;
    gv->keys = v.keys;
    gv->num_entries = groups.size();
    EnsureSoA(s, groups.size());
    const std::vector<CgAggFold>& aggs = chain_.terminal.aggs;
    s->acc_ptrs.resize(aggs.size() * 5);
    for (size_t j = 0; j < aggs.size(); ++j) {
      AggSoA& a = s->soa[j];
      s->acc_ptrs[j * 5 + 0] = a.count.data();
      s->acc_ptrs[j * 5 + 1] = a.isum.data();
      s->acc_ptrs[j * 5 + 2] = a.dsum.data();
      s->acc_ptrs[j * 5 + 3] = aggs[j].type == DataType::kDouble
                                   ? static_cast<void*>(a.dbest.data())
                                   : static_cast<void*>(a.ibest.data());
      s->acc_ptrs[j * 5 + 4] = a.has.data();
    }
  }
  return true;
}

void CompiledPipelineOp::EnsureSoA(Scratch* s, size_t entries) {
  const std::vector<CgAggFold>& aggs = chain_.terminal.aggs;
  if (s->soa.size() != aggs.size()) {
    s->soa.assign(aggs.size(), AggSoA{});
  }
  if (aggs.empty()) return;
  const size_t cur = s->soa[0].count.size();
  if (cur >= entries) return;
  // Grow geometrically: phase-B inserts extend one entry at a time and a
  // per-insert exact resize would be quadratic.
  size_t cap = cur == 0 ? 16 : cur;
  while (cap < entries) cap *= 2;
  for (AggSoA& a : s->soa) {
    a.count.resize(cap, 0);
    a.isum.resize(cap, 0);
    a.dsum.resize(cap, 0.0);
    a.ibest.resize(cap, 0);
    a.dbest.resize(cap, 0.0);
    a.has.resize(cap, 0);
  }
}

void CompiledPipelineOp::FoldInto(Scratch* s, size_t j, uint32_t idx,
                                  const CgCol& col, uint32_t rr,
                                  uint32_t mult) {
  const CgAggFold& a = chain_.terminal.aggs[j];
  AggSoA& soa = s->soa[j];
  if (a.star) {
    // COUNT(*): one per join match.
    soa.count[idx] += static_cast<int64_t>(mult);
    return;
  }
  if (NullAt(col, rr)) return;
  switch (a.func) {
    case AggFunc::kCount:
      soa.count[idx] += static_cast<int64_t>(mult);
      break;
    case AggFunc::kSum:
    case AggFunc::kAvg:
      // Repeated adds, not multiplication: the double component must see
      // the same sequence of roundings as the emitted loop and the
      // interpreter's per-output-row folds.
      if (a.type == DataType::kInt64) {
        const int64_t v = static_cast<const int64_t*>(col.data)[rr];
        for (uint32_t t = 0; t < mult; ++t) {
          soa.count[idx] += 1;
          soa.isum[idx] += v;
          soa.dsum[idx] += static_cast<double>(v);
        }
      } else {
        const double v = static_cast<const double*>(col.data)[rr];
        for (uint32_t t = 0; t < mult; ++t) {
          soa.count[idx] += 1;
          soa.dsum[idx] += v;
        }
      }
      break;
    case AggFunc::kMin:
    case AggFunc::kMax:
      // Idempotent under multiplicity; adopt-then-compare in the numeric
      // order, as OrderCompare (a NaN is the largest).
      if (a.type == DataType::kInt64) {
        const int64_t v = static_cast<const int64_t*>(col.data)[rr];
        const int c = CompareNumeric(v, soa.ibest[idx]);
        if (soa.has[idx] == 0 || (a.func == AggFunc::kMin ? c < 0 : c > 0)) {
          soa.ibest[idx] = v;
          soa.has[idx] = 1;
        }
      } else {
        const double v = static_cast<const double*>(col.data)[rr];
        const int c = CompareNumeric(v, soa.dbest[idx]);
        if (soa.has[idx] == 0 || (a.func == AggFunc::kMin ? c < 0 : c > 0)) {
          soa.dbest[idx] = v;
          soa.has[idx] = 1;
        }
      }
      break;
  }
}

Status CompiledPipelineOp::RunWidened(RowBatch batch, Scratch& s,
                                      const CompiledArtifact* artifact,
                                      const CgBatch& cg, CgJoinView* jv,
                                      CgGroupView* gv) {
  ExecStats& stats = ctx_->run().stats();
  const uint64_t n = cg.n;
  if (s.pair_a.size() < n) {
    s.pair_a.resize(n);
    s.pair_b.resize(n);
  }

  if (chain_.terminal.kind == ChainTerminalKind::kJoinProbe) {
    // Resume protocol: the emitted loop stops at a row boundary when the
    // next row's matches would overflow the pair cursor; drain what it
    // wrote and re-enter at counts[1]. Zero progress means a single row
    // outgrew the cursor — double and retry (pass 1 only re-runs in the
    // start_row == 0 retry, where it is idempotent). The pairs go through
    // the interpreted join's gather, so the output is the column-only
    // batch the interpreter emits (a compiled join has no residual, hence
    // no predicate-only tail to drop).
    const uint32_t* sel = cg.sel;
    uint64_t start = 0;
    for (;;) {
      uint64_t counts[2] = {0, 0};
      artifact->run2()(&cg, jv, gv, nullptr, s.pair_a.data(),
                       s.pair_b.data(), s.pair_a.size(), start, counts);
      if (counts[0] > 0) {
        for (uint64_t k = 0; k < counts[0]; ++k) {
          s.pair_a[k] = sel[s.pair_a[k]];  // position → storage index
        }
        BYPASS_RETURN_IF_ERROR(Emit(
            kPortOut, RowBatch::FromColumns(join_->GatherPairs(
                          batch, join_->build_columns(), s.pair_a.data(),
                          s.pair_b.data(), counts[0]))));
      }
      if (counts[1] >= n) break;
      if (counts[1] == start) {
        s.pair_a.resize(s.pair_a.size() * 2);
        s.pair_b.resize(s.pair_b.size() * 2);
        continue;
      }
      start = counts[1];
    }
    stats.compiled_batches += 1;
    stats.compiled_join_batches += 1;
    return Status::OK();
  }

  // Group shapes emit at most one miss pair per row, so the batch-sized
  // cursor never overflows and a single call consumes every row.
  uint64_t counts[2] = {0, 0};
  artifact->run2()(&cg, jv, gv, s.acc_ptrs.data(), s.pair_a.data(),
                   s.pair_b.data(), n, 0, counts);

  if (counts[0] > 0) {
    // Phase B: rows whose group missed the per-worker snapshot. Insert
    // the group (dense entry index addresses the SoA) and fold with the
    // row's match multiplicity — pairs arrive in row order, and a key
    // can only miss once per batch, so per-group fold order equals the
    // interpreter's row order.
    HashGroupByOp::GroupMap* gm =
        group_->worker_groups(static_cast<size_t>(CurrentWorkerId()));
    const std::vector<AggregateSpec>* specs = group_->aggregates();
    const std::vector<CgAggFold>& aggs = chain_.terminal.aggs;
    const uint32_t* sel = cg.sel;
    const CgCol& kc = s.cols[static_cast<size_t>(gk_col_)];
    for (uint64_t k = 0; k < counts[0]; ++k) {
      const uint32_t rr = sel[s.pair_a[k]];
      const uint32_t mult = s.pair_b[k];
      const bool knull = NullAt(kc, rr);
      const int64_t kv =
          knull ? 0 : static_cast<const int64_t*>(kc.data)[rr];
      const uint32_t idx = gm->FindOrEmplaceId(
          knull ? Value::Null() : Value::Int64(kv),
          [&] { return std::make_unique<AggregatorSet>(specs); });
      if (!aggs.empty() &&
          static_cast<size_t>(idx) >= s.soa[0].count.size()) {
        EnsureSoA(&s, static_cast<size_t>(idx) + 1);
      }
      for (size_t j = 0; j < aggs.size(); ++j) {
        FoldInto(&s, j, idx,
                 aggs[j].star ? CgCol{}
                              : s.cols[static_cast<size_t>(agg_cols_[j])],
                 rr, mult);
      }
    }
  }

  stats.compiled_batches += 1;
  stats.compiled_agg_batches += 1;
  if (chain_.terminal.kind == ChainTerminalKind::kJoinGroupBy) {
    stats.compiled_join_batches += 1;
  }
  return Status::OK();
}

void CompiledPipelineOp::AbsorbSoA() {
  const std::vector<CgAggFold>& aggs = chain_.terminal.aggs;
  const size_t workers = std::min(scratch_.size(), group_->num_partials());
  for (size_t w = 0; w < workers; ++w) {
    Scratch& s = scratch_[w];
    if (s.soa.empty()) continue;
    std::vector<std::unique_ptr<AggregatorSet>>& sets =
        group_->worker_groups(w)->values();
    for (size_t j = 0; j < aggs.size(); ++j) {
      const AggSoA& a = s.soa[j];
      const size_t m = std::min(a.count.size(), sets.size());
      for (size_t idx = 0; idx < m; ++idx) {
        const int64_t cnt = a.count[idx];
        const bool has = a.has[idx] != 0;
        if (cnt == 0 && !has) continue;  // nothing folded for this group
        Value extreme = Value::Null();
        if (has) {
          extreme = aggs[j].type == DataType::kDouble
                        ? Value::Double(a.dbest[idx])
                        : Value::Int64(a.ibest[idx]);
        }
        // The interpreter only flags a double sum per non-null input, so
        // an untouched group must not adopt the double representation.
        const bool sum_is_double =
            aggs[j].type == DataType::kDouble &&
            (aggs[j].func == AggFunc::kSum ||
             aggs[j].func == AggFunc::kAvg) &&
            cnt > 0;
        sets[idx]->mutable_agg(j).MergeCompiledPartial(
            cnt, a.isum[idx], a.dsum[idx], sum_is_double, extreme);
      }
    }
    s.soa.clear();
  }
}

Status CompiledPipelineOp::Consume(int, RowBatch batch) {
  const CompiledArtifact* artifact =
      slot_ != nullptr ? slot_->ready() : nullptr;
  Scratch& s = scratch_[static_cast<size_t>(CurrentWorkerId())];
  CgBatch cg;

  if (chain_.generation == 2) {
    CgJoinView jv{};
    CgGroupView gv{};
    if (artifact == nullptr || artifact->abi() != kCgAbiVersion2 ||
        !FillBatch(batch, &s, &cg) ||
        !PrepareViews(&s, batch.size(), &jv, &gv)) {
      // Still compiling, a per-batch guard failed, or the fused breaker's
      // hash structure is not probe-able (unpublished join view, demoted
      // group map): the interpreted chain — whose terminal is that same
      // breaker — handles this batch.
      ctx_->run().stats().compiled_fallback_batches += 1;
      return head_->Consume(0, std::move(batch));
    }
    return RunWidened(std::move(batch), s, artifact, cg, &jv, &gv);
  }

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
  // A fused accumulate loop's partials must land in the group-by's
  // worker AggregatorSets before end-of-stream reaches its merge (which
  // runs through the interpreted chain below).
  if (chain_.generation == 2 && group_ != nullptr) AbsorbSoA();
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
