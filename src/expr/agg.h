// Aggregate function descriptors and the runtime accumulator shared by the
// grouping operators and scalar-subquery evaluation.
#ifndef BYPASSDB_EXPR_AGG_H_
#define BYPASSDB_EXPR_AGG_H_

#include <memory>
#include <string>
#include <vector>

#include "common/key_index.h"
#include "expr/expr.h"
#include "types/row.h"
#include "types/row_batch.h"
#include "types/value.h"

namespace bypass {

enum class AggFunc { kCount, kSum, kAvg, kMin, kMax };

const char* AggFuncToString(AggFunc func);

/// One aggregate call, e.g. COUNT(DISTINCT *) or SUM(b3).
struct AggregateSpec {
  AggFunc func = AggFunc::kCount;
  bool distinct = false;
  /// Argument expression; nullptr means '*' (the whole input row).
  ExprPtr arg;
  /// Name of the produced column in the output schema.
  std::string output_name;

  AggregateSpec Clone() const {
    AggregateSpec copy = *this;
    if (arg) copy.arg = arg->Clone();
    return copy;
  }
  std::string ToString() const;
};

/// The paper's decomposability criterion (Sec. 3.3): count/sum/avg/min/max
/// decompose; their DISTINCT variants do not (footnote 1), forcing Eqv. 5.
bool IsAggDecomposable(const AggregateSpec& spec);

/// f(∅): the left outer join's default value — 0 for count (the "count
/// bug" fix), NULL for sum/avg/min/max.
Value AggEmptyValue(AggFunc func);

class AggregatorSet;

/// Streaming accumulator for one aggregate over one group.
class Aggregator {
 public:
  explicit Aggregator(const AggregateSpec* spec) : spec_(spec) {}

  void Reset();

  /// Grouped columnar fold of aggregate `index`: selected row i of
  /// `batch` folds into `sets[i]`'s aggregator `index`, straight from the
  /// batch's typed column when the aggregate is a non-DISTINCT COUNT(*),
  /// COUNT over any typed column, or SUM/AVG/MIN/MAX over an int64 or
  /// double column. Returns false when none applies, and the caller folds
  /// this aggregate from its evaluated argument. Each group sees its rows
  /// in batch order, so float sums are bit-identical to the Value fold.
  static bool AccumulateColumnarGrouped(size_t index, const RowBatch& batch,
                                        AggregatorSet* const* sets);

  /// Folds another accumulator for the same spec into this one. Used to
  /// combine per-worker partial aggregates; for DISTINCT aggregates only
  /// entries not yet in this accumulator's dedup set are re-applied.
  Status Merge(const Aggregator& other);

  /// Current aggregate value (f(∅) when nothing was accumulated).
  Result<Value> Finalize() const;

 private:
  friend class AggregatorSet;  // the grouped fallback folds

  /// Folds one evaluated argument: skips NULL, deduplicates DISTINCT.
  /// The Value fold: untyped columns and DISTINCT aggregates fold through
  /// it, and the typed column folds match it bit for bit.
  Status AccumulateArg(const Value& v);
  /// Folds one non-NULL, already deduplicated input.
  Status AccumulateValue(const Value& v);
  /// COUNT(DISTINCT *) of aggregate `index`: each run of rows that fold
  /// into one set inserts their whole rows as keys in one batch call.
  static void CountDistinctRows(size_t index, const RowBatch& batch,
                                AggregatorSet* const* sets);
  /// AccumulateValue of one non-NULL typed SUM/AVG/MIN/MAX input.
  void FoldInt64(int64_t v);
  void FoldDouble(double v);

  const AggregateSpec* spec_;
  int64_t count_ = 0;        // non-null inputs folded (rows for COUNT(*))
  bool sum_is_double_ = false;
  int64_t int_sum_ = 0;
  double double_sum_ = 0;
  Value extreme_;            // running MIN/MAX
  KeyIndex distinct_;        // DISTINCT dedup
};

/// A bundle of aggregators evaluated over the same group.
class AggregatorSet {
 public:
  explicit AggregatorSet(const std::vector<AggregateSpec>* specs);
  void Reset();
  /// Folds every selected row of `batch` into this set.
  Status AccumulateBatch(const RowBatch& batch, const Row* outer_row);
  /// Grouped batch fold over sets built from one spec list: selected row
  /// i of `batch` folds into `sets[i]`. Aggregates with a columnar fast
  /// path fold straight from their columns; the rest evaluate their
  /// argument once over the batch (EvalBatch) and fold the values.
  static Status AccumulateGrouped(const RowBatch& batch,
                                  AggregatorSet* const* sets,
                                  const Row* outer_row);
  /// Merges a partial AggregatorSet built from the same spec list.
  Status Merge(const AggregatorSet& other);
  /// Appends spec i's finalized value to `columns[i]`, for every spec.
  Status FinalizeInto(ColumnVector* columns) const;

 private:
  friend class Aggregator;  // the grouped column folds

  std::vector<Aggregator> aggs_;
};

}  // namespace bypass

#endif  // BYPASSDB_EXPR_AGG_H_
