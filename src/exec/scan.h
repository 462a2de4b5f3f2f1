// Table scan: the plan's source operator. The executor drives execution
// either serially (Run) or by dispatching fixed-size morsels of the table
// to the worker pool (RunMorsel per morsel, then FinishSource once all
// workers joined).
#ifndef BYPASSDB_EXEC_SCAN_H_
#define BYPASSDB_EXEC_SCAN_H_

#include <string>

#include "catalog/table.h"
#include "exec/phys_op.h"
#include "expr/expr.h"

namespace bypass {

class TableScanOp : public UnaryPhysOp {
 public:
  explicit TableScanOp(const Table* table) : table_(table) {}

  /// Serial drive: pushes the whole table and finishes the output.
  Status Run();

  /// Pushes rows [begin, end) of the table to the consumers in batches
  /// (zero-copy windows of its columns, or rows built from them when
  /// columnar execution is off), polling cancellation and the time
  /// budget between batches. Safe to call concurrently for disjoint
  /// morsels.
  Status RunMorsel(size_t begin, size_t end);

  /// Propagates end-of-stream after every morsel completed. Driver-only.
  Status FinishSource() { return EmitFinish(kPortOut); }

  /// Table cardinality, for the executor's morsel splitter.
  size_t num_rows() const {
    return static_cast<size_t>(table_->num_rows());
  }

  /// The scanned table's name, for runtime cardinality feedback.
  const std::string& table_name() const { return table_->name(); }

  /// The scanned table's schema: the slot/type universe any predicate
  /// directly above this scan is bound against (codegen monomorphizes
  /// emitted comparisons on these declared types).
  const Schema& table_schema() const { return table_->schema(); }

  Status Consume(int, RowBatch) override {
    return Status::Internal("TableScan has no input");
  }

  std::string Label() const override {
    return "Scan(" + table_->name() + ")";
  }

  /// Installs the zone-map pruning predicate: a filter predicate bound
  /// against this table's schema whose TRUE rows are the only ones any
  /// consumer keeps. Segments whose zone maps prove it can never be TRUE
  /// are skipped when the context enables zone maps. The planner only
  /// attaches one when this scan feeds exactly one consumer and that
  /// consumer is the filter applying the predicate, so dropping
  /// never-matching rows cannot change the plan's result. ZoneTest is
  /// conservative (kSome) on every construct it cannot reason about —
  /// subqueries, arithmetic, outer references — so the full bound
  /// predicate is usable as-is.
  void set_zone_filter(ExprPtr filter) {
    zone_filter_ = std::move(filter);
  }
  const ExprPtr& zone_filter() const { return zone_filter_; }

 private:
  /// The batches of rows [begin, end), zone maps not consulted.
  Status EmitFlatRange(size_t begin, size_t end);

  const Table* table_;
  ExprPtr zone_filter_;
};

}  // namespace bypass

#endif  // BYPASSDB_EXEC_SCAN_H_
