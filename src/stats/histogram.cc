#include "stats/histogram.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace bypass {

EquiDepthHistogram EquiDepthHistogram::Build(std::vector<double> values,
                                             int max_buckets) {
  EquiDepthHistogram h;
  // NaN, the largest number, would leave the last bucket with no finite
  // bound to interpolate on: count it apart and bucket the rest. Without
  // NaN, `<` and `==` are the numeric order (-0.0 ties 0.0).
  const auto nans = std::remove_if(values.begin(), values.end(),
                                   [](double v) { return std::isnan(v); });
  h.nan_count_ = values.end() - nans;
  values.erase(nans, values.end());
  if (values.empty() || max_buckets < 1) return h;
  std::sort(values.begin(), values.end());
  const int64_t n = static_cast<int64_t>(values.size());
  h.total_count_ = n;
  h.min_ = values.front();
  const int64_t depth = (n + max_buckets - 1) / max_buckets;

  Bucket current;
  int64_t cumulative = 0;
  size_t i = 0;
  while (i < values.size()) {
    // One run of equal values; a run never straddles a bucket boundary,
    // which is what makes boundary estimates exact.
    size_t j = i;
    while (j < values.size() && values[j] == values[i]) ++j;
    const int64_t run = static_cast<int64_t>(j - i);
    current.count += run;
    current.distinct += 1;
    current.upper = values[i];
    current.upper_count = run;
    if (values[i] == h.min_) h.min_count_ = run;
    if (current.count >= depth || j >= values.size()) {
      cumulative += current.count;
      current.cumulative = cumulative;
      h.buckets_.push_back(current);
      current = Bucket{};
    }
    i = j;
  }
  return h;
}

size_t EquiDepthHistogram::BucketFor(double x) const {
  const auto it = std::lower_bound(
      buckets_.begin(), buckets_.end(), x,
      [](const Bucket& b, double v) { return b.upper < v; });
  return static_cast<size_t>(it - buckets_.begin());
}

double EquiDepthHistogram::CountBelow(double x) const {
  if (buckets_.empty() || x <= min_) return 0;
  if (x > buckets_.back().upper) {
    return static_cast<double>(total_count_);
  }
  const size_t i = BucketFor(x);
  const Bucket& b = buckets_[i];
  const double cum_before = static_cast<double>(b.cumulative - b.count);
  if (x >= b.upper) {  // x == upper: everything in the bucket except the
                       // boundary run lies strictly below it
    return cum_before + static_cast<double>(b.count - b.upper_count);
  }
  // Interior point: the masses pinned at the bucket edges (the global
  // minimum in bucket 0, the upper-bound run) are placed exactly; the
  // rest interpolates continuous-uniformly over (lower, upper).
  const double lower = i == 0 ? min_ : buckets_[i - 1].upper;
  const int64_t left_edge = i == 0 ? min_count_ : 0;
  const double interior = static_cast<double>(
      std::max<int64_t>(b.count - b.upper_count - left_edge, 0));
  const double frac = (x - lower) / (b.upper - lower);
  return cum_before + static_cast<double>(left_edge) + interior * frac;
}

double EquiDepthHistogram::FractionLT(double x) const {
  if (total_count_ == 0) return 0;
  return std::clamp(CountBelow(x) / static_cast<double>(total_count_),
                    0.0, 1.0);
}

double EquiDepthHistogram::FractionLE(double x) const {
  if (total_count_ == 0) return 0;
  return std::clamp(
      (CountBelow(x) + FractionEq(x) * static_cast<double>(total_count_)) /
          static_cast<double>(total_count_),
      0.0, 1.0);
}

double EquiDepthHistogram::FractionEq(double x) const {
  if (buckets_.empty() || x < min_ || x > buckets_.back().upper) return 0;
  const size_t i = BucketFor(x);
  const Bucket& b = buckets_[i];
  const double total = static_cast<double>(total_count_);
  if (x == b.upper) return static_cast<double>(b.upper_count) / total;
  if (i == 0 && x == min_) {
    return static_cast<double>(min_count_) / total;
  }
  // Unseen interior point: average frequency of the bucket's interior
  // distinct values.
  const int64_t left_edge = i == 0 ? min_count_ : 0;
  const int64_t interior_count =
      std::max<int64_t>(b.count - b.upper_count - left_edge, 0);
  const int64_t interior_distinct =
      b.distinct - 1 - (i == 0 && min_ != b.upper ? 1 : 0);
  if (interior_count <= 0 || interior_distinct <= 0) return 0;
  return static_cast<double>(interior_count) /
         static_cast<double>(interior_distinct) / total;
}

std::string EquiDepthHistogram::ToString() const {
  std::ostringstream os;
  os << "histogram[" << buckets_.size() << " buckets, " << total_count_
     << " values, min " << min_ << "]";
  for (const Bucket& b : buckets_) {
    os << " (<=" << b.upper << ": " << b.count << ")";
  }
  return os.str();
}

}  // namespace bypass
