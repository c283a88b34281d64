// Metric arithmetic shared by the benchmark and its tests: nearest-
// rank percentiles with a tail-size guard, medians, per-connection ratios,
// and span self time (a span's duration minus its direct children's).
#ifndef OKBENCH_OKBENCH_STATS_H_
#define OKBENCH_OKBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace okbench {

// A p99 read from fewer samples is mostly one outlier; the benchmark refuses
// to report a percentile unless at least this many samples lie beyond it.
constexpr size_t kMinTailSamples = 10;

// Nearest-rank index of quantile q (0 < q <= 1) in a sorted sample of n:
// the smallest index i with (i + 1) >= q * n.
inline size_t PercentileIndex(size_t n, double q) {
  if (n == 0) {
    return 0;
  }
  const double rank = std::ceil(q * static_cast<double>(n) - 1e-9);
  const size_t r = rank < 1 ? 1 : static_cast<size_t>(rank);
  return std::min(r, n) - 1;
}

// Samples strictly beyond the quantile's index.
inline size_t TailSamples(size_t n, double q) {
  return n == 0 ? 0 : n - 1 - PercentileIndex(n, q);
}

// False when the sample is too small to carry the quantile's tail.
inline bool PercentileSupported(size_t n, double q) {
  return n > 0 && TailSamples(n, q) >= kMinTailSamples;
}

// Quantile of a sorted sample (nearest rank). Callers check
// PercentileSupported first.
template <typename T>
T Percentile(const std::vector<T>& sorted, double q) {
  return sorted.empty() ? T{} : sorted[PercentileIndex(sorted.size(), q)];
}

// Median of an unsorted sample (mean of the two middle values when even).
inline double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2.0;
}

// `amount` per unit of `base` (connections, lookups, batches); 0 when the
// base is empty rather than a NaN the JSON cannot carry.
inline double Ratio(double amount, double base) { return base > 0 ? amount / base : 0.0; }

// One timed call into a layer's entry point. `parent` indexes the enclosing
// span in the same vector (-1 for a root: a pump, a client step, a link
// step). Times are host steady-clock nanoseconds.
struct Span {
  uint32_t name = 0;
  int32_t parent = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t trace_id = 0;
};

// Self time of every span: its duration minus the durations of its direct
// children. Children are recorded after their parent, so one pass suffices.
inline std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end_ns - spans[i].start_ns;
  }
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      self[static_cast<size_t>(s.parent)] -= s.end_ns - s.start_ns;
    }
  }
  return self;
}

}  // namespace okbench

#endif  // OKBENCH_OKBENCH_STATS_H_
