// ORDER BY: buffers its input and emits sorted on finish. NULLs sort
// first ascending (Value::OrderCompare's total order). Buffers are
// per-worker and merged at finish, so the sort itself sees all rows;
// stability ties are broken by post-merge arrival order, which is
// scheduling-dependent under parallelism (equal keys only).
//
// Keys are slots of the input row: the translator computes any other
// ORDER BY expression into a column (χ) below the sort and drops it (Π)
// above, so the sort compares the buffered rows where they stand.
//
// Out-of-core: with a memory budget and a spill manager on the context,
// a worker whose buffer cannot be charged sorts it into a run file
// (records are the payload rows, already in key order) and keeps going;
// the finish phase then streams a k-way merge of all runs plus the
// sorted in-memory remainder. Ties across streams break by run ordinal
// (worker, then spill order) before the remainder, so serial spilled
// runs reproduce arrival-order stability exactly.
// The buffer holds rows (charged by ApproxRowsBytes); the output leaves
// in FromRows chunks of at most batch_size rows, and each chunk's
// remainder rows give back their charge before the chunk is emitted, so a
// consumer that charges the rows it keeps (the collector) never holds a
// charge for them at the same time as the sort.
#ifndef BYPASSDB_EXEC_SORT_H_
#define BYPASSDB_EXEC_SORT_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "exec/phys_op.h"
#include "storage/spill.h"

namespace bypass {

/// A bound sort key: a slot of the sort's input row.
struct PhysSortKey {
  int slot = 0;
  bool descending = false;
};

class SortPhysOp : public UnaryPhysOp {
 public:
  explicit SortPhysOp(std::vector<PhysSortKey> keys)
      : keys_(std::move(keys)) {}

  Status Prepare(ExecContext* ctx) override;
  void Reset() override;
  Status Consume(int in_port, RowBatch batch) override;
  Status FinishPort(int in_port) override;
  std::string Label() const override { return "Sort"; }

 private:
  struct alignas(64) Partial {
    std::vector<Row> rows;
    int64_t charged = 0;  ///< bytes charged for `rows`
    std::vector<std::unique_ptr<SpillFile>> runs;
  };

  /// -1 / 0 / +1 of two input rows at the key slots under the sort
  /// direction flags.
  int CompareKeys(const Row& a, const Row& b) const;

  /// Stable sort by the keys: ties keep arrival order within `rows`.
  void SortRows(std::vector<Row>* rows) const;

  /// Sorts the worker's buffered rows into a new run file and releases
  /// their budget charges.
  Status SpillRun(Partial* partial);

  /// Streams the merge of the sorted run files (if any) and the sorted
  /// in-memory remainder `sorted` through EmitSorted.
  Status MergeRuns(std::vector<std::unique_ptr<SpillFile>> runs,
                   std::vector<Row>* sorted, std::vector<Row>* chunk);

  /// Appends the next output row to `chunk` (`from_remainder`: taken
  /// from the sorted in-memory remainder), emitting the chunk once it
  /// holds batch_size rows.
  Status EmitSorted(Row row, bool from_remainder, std::vector<Row>* chunk);

  std::vector<PhysSortKey> keys_;
  std::vector<Partial> partials_;  // per-worker input buffers
  /// The remainder's charge still held during the merge, and how many
  /// rows of the current chunk came from the remainder.
  int64_t remainder_charge_ = 0;
  size_t remainder_in_chunk_ = 0;
};

}  // namespace bypass

#endif  // BYPASSDB_EXEC_SORT_H_
