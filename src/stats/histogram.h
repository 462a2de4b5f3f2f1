// Equi-depth histogram over one numeric column, built from a single
// collected pass over the column's non-NULL values. Bucket boundaries
// are snapped to value-run ends, so every distinct value lives entirely
// inside one bucket: `v <= bucket_upper` estimates are exact, equality
// against a bucket's upper bound is exact, and interior points
// interpolate under a continuous-uniform assumption.
#ifndef BYPASSDB_STATS_HISTOGRAM_H_
#define BYPASSDB_STATS_HISTOGRAM_H_

#include <cstdint>
#include <string>
#include <vector>

namespace bypass {

class EquiDepthHistogram {
 public:
  /// Empty histogram: non-numeric or all-NULL columns.
  EquiDepthHistogram() = default;

  /// Builds from the column's non-NULL numeric values (consumed; order
  /// irrelevant). At most `max_buckets` buckets; fewer when the column
  /// has fewer distinct values. NaNs are counted apart (nan_count) and
  /// take no part in the buckets, total_count or the fractions.
  static EquiDepthHistogram Build(std::vector<double> values,
                                  int max_buckets = 64);

  bool empty() const { return buckets_.empty(); }
  int num_buckets() const { return static_cast<int>(buckets_.size()); }
  int64_t total_count() const { return total_count_; }
  int64_t nan_count() const { return nan_count_; }
  double min_value() const { return min_; }
  double max_value() const { return buckets_.empty() ? min_ : buckets_.back().upper; }

  /// Fraction of (non-NULL) values `v` with v <= x / v < x / v == x.
  /// All return values lie in [0, 1]; an empty histogram returns 0.
  double FractionLE(double x) const;
  double FractionLT(double x) const;
  double FractionEq(double x) const;

  /// One-line debug form: bucket uppers with counts.
  std::string ToString() const;

 private:
  struct Bucket {
    double upper = 0;            ///< inclusive upper bound (a data value)
    int64_t count = 0;           ///< values in (prev_upper, upper]
    int64_t upper_count = 0;     ///< values exactly equal to `upper`
    int64_t distinct = 0;        ///< distinct values in the bucket
    int64_t cumulative = 0;      ///< values in buckets up to this one
  };

  /// Index of the first bucket whose upper bound is >= x.
  size_t BucketFor(double x) const;
  /// Values strictly below x, interpolating inside x's bucket.
  double CountBelow(double x) const;

  double min_ = 0;          ///< global minimum (lower bound of bucket 0)
  int64_t min_count_ = 0;   ///< values exactly equal to `min_`
  int64_t total_count_ = 0;
  int64_t nan_count_ = 0;
  std::vector<Bucket> buckets_;
};

}  // namespace bypass

#endif  // BYPASSDB_STATS_HISTOGRAM_H_
