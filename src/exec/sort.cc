#include "exec/sort.h"

#include <algorithm>
#include <utility>

namespace bypass {

Status SortPhysOp::Prepare(ExecContext* ctx) {
  BYPASS_RETURN_IF_ERROR(UnaryPhysOp::Prepare(ctx));
  partials_.resize(static_cast<size_t>(ctx->run().num_worker_slots()));
  return Status::OK();
}

void SortPhysOp::Reset() {
  for (Partial& p : partials_) {
    p.rows.clear();
    p.charged = 0;
    p.runs.clear();
  }
  remainder_charge_ = 0;
  remainder_in_chunk_ = 0;
}

int SortPhysOp::CompareKeys(const Row& a, const Row& b) const {
  for (const PhysSortKey& k : keys_) {
    const size_t slot = static_cast<size_t>(k.slot);
    const int c = a[slot].OrderCompare(b[slot]);
    if (c != 0) return k.descending ? -c : c;
  }
  return 0;
}

void SortPhysOp::SortRows(std::vector<Row>* rows) const {
  std::stable_sort(rows->begin(), rows->end(),
                   [this](const Row& a, const Row& b) {
                     return CompareKeys(a, b) < 0;
                   });
}

Status SortPhysOp::SpillRun(Partial* partial) {
  if (partial->rows.empty()) return Status::OK();
  SortRows(&partial->rows);
  BYPASS_ASSIGN_OR_RETURN(std::unique_ptr<SpillFile> run,
                          ctx_->run().spill->NewFile("sortrun"));
  for (const Row& row : partial->rows) {
    BYPASS_RETURN_IF_ERROR(run->AppendRow(row));
  }
  BYPASS_RETURN_IF_ERROR(run->FinishWrite());
  ExecStats& stats = ctx_->run().stats();
  ++stats.sort_spill_runs;
  ++stats.spill_files;
  stats.spilled_bytes += run->bytes_written();
  partial->runs.push_back(std::move(run));
  partial->rows.clear();
  ctx_->run().ReleaseMemory(partial->charged);
  partial->charged = 0;
  return Status::OK();
}

Status SortPhysOp::Consume(int, RowBatch batch) {
  Partial& partial = partials_[static_cast<size_t>(CurrentWorkerId())];
  // The buffered input is the sort's whole footprint; it pays into the
  // budget like the join build side does.
  const int64_t bytes = ApproxRowsBytes(
      batch.size(), batch.width());
  if (ctx_->run().spill != nullptr) {
    if (ctx_->run().TryChargeMemory(bytes)) {
      partial.charged += bytes;
      batch.ConsumeRowsInto(&partial.rows);
      return Status::OK();
    }
    // Over budget: take the batch uncharged, then turn the worker's
    // whole buffer into a sorted run to release its charges.
    batch.ConsumeRowsInto(&partial.rows);
    return SpillRun(&partial);
  }
  BYPASS_RETURN_IF_ERROR(ctx_->run().ChargeMemory(bytes));
  partial.charged += bytes;
  batch.ConsumeRowsInto(&partial.rows);
  return Status::OK();
}

Status SortPhysOp::EmitSorted(Row row, bool from_remainder,
                              std::vector<Row>* chunk) {
  if (chunk->empty()) chunk->reserve(batch_size());
  chunk->push_back(std::move(row));
  if (from_remainder) ++remainder_in_chunk_;
  if (chunk->size() < batch_size()) return Status::OK();
  // The chunk's remainder rows give back their charge (ApproxRowsBytes at
  // the input's width) before the chunk leaves.
  const int64_t bytes =
      std::min(remainder_charge_,
               ApproxRowsBytes(remainder_in_chunk_, chunk->front().size()));
  ctx_->run().ReleaseMemory(bytes);
  remainder_charge_ -= bytes;
  remainder_in_chunk_ = 0;
  return Emit(kPortOut, RowBatch::FromRows(std::exchange(*chunk, {})));
}

Status SortPhysOp::MergeRuns(std::vector<std::unique_ptr<SpillFile>> runs,
                             std::vector<Row>* sorted,
                             std::vector<Row>* chunk) {
  // One cursor per run holding its current row; the sorted in-memory
  // remainder joins the merge as the last stream, so cross-stream key
  // ties resolve run-first in spill order.
  struct Cursor {
    SpillFile* file;
    Row current;
    bool done = false;
  };
  std::vector<Cursor> cursors;
  cursors.reserve(runs.size());
  for (const std::unique_ptr<SpillFile>& run : runs) {
    Cursor c{run.get(), Row{}, false};
    BYPASS_RETURN_IF_ERROR(c.file->OpenRead());
    BYPASS_ASSIGN_OR_RETURN(bool more, c.file->ReadRow(&c.current));
    c.done = !more;
    cursors.push_back(std::move(c));
  }
  size_t rest = 0;  // next unconsumed row of the sorted remainder
  while (true) {
    // Linear min-scan (run counts are small: one per budget-full of
    // input per worker); ties keep the earliest stream.
    Cursor* best = nullptr;
    for (Cursor& c : cursors) {
      if (!c.done && (best == nullptr ||
                      CompareKeys(c.current, best->current) < 0)) {
        best = &c;
      }
    }
    const bool rest_left = rest < sorted->size();
    if (best == nullptr && !rest_left) break;
    if (best != nullptr &&
        (!rest_left || CompareKeys(best->current, (*sorted)[rest]) <= 0)) {
      BYPASS_RETURN_IF_ERROR(
          EmitSorted(std::move(best->current), /*from_remainder=*/false,
                     chunk));
      BYPASS_ASSIGN_OR_RETURN(bool more, best->file->ReadRow(&best->current));
      best->done = !more;
    } else {
      BYPASS_RETURN_IF_ERROR(EmitSorted(std::move((*sorted)[rest]),
                                        /*from_remainder=*/true, chunk));
      ++rest;
    }
  }
  return Status::OK();
}

Status SortPhysOp::FinishPort(int) {
  // Collect the workers' run files (worker order = spill order within a
  // worker), then merge the per-worker in-memory buffers (worker order;
  // serial runs keep their arrival order exactly) and sort the union.
  // The single-partial case (serial runs) stays a wholesale move; with
  // several non-empty partials one up-front reservation covers the
  // whole union.
  std::vector<std::unique_ptr<SpillFile>> runs;
  int64_t charged = 0;
  size_t total = 0;
  for (Partial& p : partials_) {
    for (std::unique_ptr<SpillFile>& run : p.runs) {
      runs.push_back(std::move(run));
    }
    p.runs.clear();
    charged += p.charged;
    p.charged = 0;
    total += p.rows.size();
  }
  std::vector<Row> buffer;
  for (Partial& p : partials_) {
    if (buffer.empty()) {
      buffer = std::move(p.rows);
      if (buffer.size() < total) buffer.reserve(total);
    } else {
      buffer.insert(buffer.end(),
                    std::make_move_iterator(p.rows.begin()),
                    std::make_move_iterator(p.rows.end()));
    }
    p.rows.clear();
  }
  SortRows(&buffer);
  // Without runs the merge streams the sorted remainder alone. The
  // buffer's charge leaves with its rows, a chunk at a time; what is left
  // once the merge returns (the last chunk's share, or everything after
  // an error) goes before the last chunk.
  remainder_charge_ = charged;
  remainder_in_chunk_ = 0;
  std::vector<Row> chunk;
  const Status merged = MergeRuns(std::move(runs), &buffer, &chunk);
  ctx_->run().ReleaseMemory(std::exchange(remainder_charge_, 0));
  BYPASS_RETURN_IF_ERROR(merged);
  BYPASS_RETURN_IF_ERROR(Emit(kPortOut, RowBatch::FromRows(std::move(chunk))));
  return EmitFinish(kPortOut);
}

}  // namespace bypass
