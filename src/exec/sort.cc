#include "exec/sort.h"

#include <algorithm>
#include <utility>

namespace bypass {

namespace {
/// (key row, arrival index) pairs — aliased so the comma survives the
/// ASSIGN_OR_RETURN macro.
using KeyedRows = std::vector<std::pair<Row, size_t>>;
}  // namespace

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
}

int SortPhysOp::CompareKeys(const Row& a, const Row& b) const {
  for (size_t i = 0; i < keys_.size(); ++i) {
    const int c = a[i].OrderCompare(b[i]);
    if (c != 0) return keys_[i].descending ? -c : c;
  }
  return 0;
}

Result<std::vector<std::pair<Row, size_t>>> SortPhysOp::SortKeyed(
    const std::vector<Row>& rows) const {
  // Precompute key rows so the comparator never fails mid-sort.
  std::vector<std::pair<Row, size_t>> keyed;
  keyed.reserve(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    EvalContext ectx{&rows[i], ctx_->outer_row()};
    Row key;
    key.reserve(keys_.size());
    for (const PhysSortKey& k : keys_) {
      BYPASS_ASSIGN_OR_RETURN(Value v, k.expr->Eval(ectx));
      key.push_back(std::move(v));
    }
    keyed.emplace_back(std::move(key), i);
  }
  std::stable_sort(keyed.begin(), keyed.end(),
                   [this](const auto& a, const auto& b) {
                     const int c = CompareKeys(a.first, b.first);
                     if (c != 0) return c < 0;
                     return a.second < b.second;
                   });
  return keyed;
}

Status SortPhysOp::SpillRun(Partial* partial) {
  if (partial->rows.empty()) return Status::OK();
  BYPASS_ASSIGN_OR_RETURN(KeyedRows keyed, SortKeyed(partial->rows));
  BYPASS_ASSIGN_OR_RETURN(std::unique_ptr<SpillFile> run,
                          ctx_->run().spill->NewFile("sortrun"));
  for (const auto& [key, idx] : keyed) {
    BYPASS_RETURN_IF_ERROR(
        run->AppendRow(ConcatRows(key, partial->rows[idx])));
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

Status SortPhysOp::EmitSorted(Row row, std::vector<Row>* chunk) {
  if (chunk->empty()) chunk->reserve(batch_size());
  chunk->push_back(std::move(row));
  if (chunk->size() < batch_size()) return Status::OK();
  return Emit(kPortOut, RowBatch::FromRows(std::exchange(*chunk, {})));
}

Status SortPhysOp::MergeRuns(
    std::vector<std::unique_ptr<SpillFile>> runs,
    std::vector<Row>* buffer,
    std::vector<std::pair<Row, size_t>>* keyed,
    std::vector<Row>* chunk) {
  // One cursor per run holding its current key ++ payload record; the
  // sorted in-memory remainder joins the merge as the last stream, so
  // cross-stream key ties resolve run-first in spill order.
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
  const size_t key_width = keys_.size();
  size_t rest = 0;  // next unconsumed entry of the sorted remainder
  while (true) {
    // Linear min-scan (run counts are small: one per budget-full of
    // input per worker); ties keep the earliest stream.
    int best = -1;
    for (size_t s = 0; s < cursors.size(); ++s) {
      if (cursors[s].done) continue;
      if (best < 0 || CompareKeys(cursors[s].current,
                                  cursors[static_cast<size_t>(best)]
                                      .current) < 0) {
        best = static_cast<int>(s);
      }
    }
    const bool rest_left = rest < keyed->size();
    if (best < 0 && !rest_left) break;
    if (best >= 0 &&
        (!rest_left ||
         CompareKeys(cursors[static_cast<size_t>(best)].current,
                     (*keyed)[rest].first) <= 0)) {
      Cursor& c = cursors[static_cast<size_t>(best)];
      Row out;
      out.reserve(c.current.size() - key_width);
      for (size_t i = key_width; i < c.current.size(); ++i) {
        out.push_back(std::move(c.current[i]));
      }
      BYPASS_RETURN_IF_ERROR(EmitSorted(std::move(out), chunk));
      BYPASS_ASSIGN_OR_RETURN(bool more, c.file->ReadRow(&c.current));
      c.done = !more;
    } else {
      BYPASS_RETURN_IF_ERROR(
          EmitSorted(std::move((*buffer)[(*keyed)[rest].second]), chunk));
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
  BYPASS_ASSIGN_OR_RETURN(KeyedRows keyed, SortKeyed(buffer));
  // Without runs the merge streams the sorted remainder alone. Every
  // buffered row has left once it returns, so the buffer's charge goes.
  std::vector<Row> chunk;
  BYPASS_RETURN_IF_ERROR(MergeRuns(std::move(runs), &buffer, &keyed, &chunk));
  ctx_->run().ReleaseMemory(charged);
  BYPASS_RETURN_IF_ERROR(Emit(kPortOut, RowBatch::FromRows(std::move(chunk))));
  return EmitFinish(kPortOut);
}

}  // namespace bypass
