#include "exec/executor.h"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "stats/feedback.h"

namespace bypass {

namespace {

/// Drives one source: serially when no (multi-worker) pool is attached,
/// otherwise by splitting the table into fixed-size morsels claimed
/// dynamically by the pool's workers. The finish is always propagated by
/// the driver thread after the workers joined, so pipeline breakers merge
/// their thread-local partials single-threaded.
Status DriveSource(TableScanOp* source, ExecContext* ctx) {
  WorkerPool* pool = ctx->pool();
  if (pool == nullptr || pool->num_workers() <= 1) {
    return source->Run();
  }
  const size_t num_rows = source->num_rows();
  const size_t morsel = ctx->run().morsel_size;
  const size_t num_morsels = (num_rows + morsel - 1) / morsel;
  BYPASS_RETURN_IF_ERROR(pool->ParallelFor(
      num_morsels,
      [&](size_t m) {
        const size_t begin = m * morsel;
        return source->RunMorsel(begin,
                                 std::min(begin + morsel, num_rows));
      },
      ctx->task_group_options()));
  return source->FinishSource();
}

}  // namespace

Status RunPlan(PhysicalPlan* plan, ExecContext* ctx) {
  for (const PhysOpPtr& op : plan->ops) {
    op->Reset();
  }
  for (const PhysOpPtr& op : plan->ops) {
    BYPASS_RETURN_IF_ERROR(op->Prepare(ctx));
  }
  for (TableScanOp* source : plan->sources) {
    BYPASS_RETURN_IF_ERROR(DriveSource(source, ctx));
  }
  return Status::OK();
}

std::string PhysicalPlan::StatsString() const {
  std::ostringstream os;
  os << "operator rows (last execution):\n";
  for (const PhysOpPtr& op : ops) {
    os << "  " << op->Label() << ": " << op->rows_emitted(0);
    int64_t batches = op->batches_emitted(0);
    if (op->num_out_ports() > 1) {
      os << " [+], " << op->rows_emitted(1) << " [-]";
      batches += op->batches_emitted(1);
    }
    os << " rows (" << batches << " batches)";
    if (op->estimated_rows(0) >= 0) {
      os << " | est " << std::fixed << std::setprecision(0)
         << op->estimated_rows(0);
      if (op->num_out_ports() > 1 && op->estimated_rows(1) >= 0) {
        os << " [+], " << op->estimated_rows(1) << " [-]";
      }
      os << ", q-error " << std::setprecision(2)
         << QError(op->estimated_rows(0),
                   static_cast<double>(op->rows_emitted(0)))
         << std::defaultfloat;
    }
    os << "\n";
  }
  return os.str();
}

std::string PhysicalPlan::ToString() const {
  std::ostringstream os;
  os << "physical plan (" << ops.size() << " operators):\n";
  for (const PhysOpPtr& op : ops) {
    os << "  " << op->Label() << "\n";
  }
  os << "source order:";
  for (const TableScanOp* s : sources) {
    os << " " << s->Label();
  }
  os << "\n";
  return os.str();
}

}  // namespace bypass
