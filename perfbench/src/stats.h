// Order statistics for the benchmark's reports. Header-only so the unit test
// links nothing else.
//
// Two rules the reports rely on:
//  - A failed request is a sample of +infinity: it sorts above every
//    measured latency, so failures push every percentile up instead of
//    silently dropping out of the distribution.
//  - A named percentile q is "supported" only when at least
//    kMinSamplesBeyond samples lie strictly above its rank, so a p99 needs
//    ~1000 samples. Reports print an unsupported percentile as absent.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

namespace perfbench {

inline constexpr size_t kMinSamplesBeyond = 10;

/// Latency samples of one kind of request: measured values plus failures.
struct Samples {
  std::vector<double> values;
  size_t failed = 0;

  void Add(double value) { values.push_back(value); }
  void AddFailure() { ++failed; }
  size_t count() const { return values.size() + failed; }
  void Merge(const Samples& other) {
    values.insert(values.end(), other.values.begin(), other.values.end());
    failed += other.failed;
  }
};

/// 1-based nearest rank of the q-quantile among n samples: ceil(q * n),
/// clamped to [1, n]. The small epsilon keeps q * n = 50.000000001 from
/// rounding a whole rank up.
inline size_t NearestRank(double q, size_t n) {
  const double raw = std::ceil(q * static_cast<double>(n) - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(std::max(raw, 1.0)), 1, n);
}

/// True when at least kMinSamplesBeyond samples rank above the q-quantile.
inline bool PercentileSupported(double q, size_t n) {
  if (n == 0) return false;
  return n - NearestRank(q, n) >= kMinSamplesBeyond;
}

/// The q-quantile by nearest rank, with failures as +infinity. NaN when
/// there are no samples at all.
inline double Percentile(const Samples& samples, double q) {
  const size_t n = samples.count();
  if (n == 0) return std::numeric_limits<double>::quiet_NaN();
  const size_t rank = NearestRank(q, n);
  if (rank > samples.values.size()) {
    return std::numeric_limits<double>::infinity();
  }
  std::vector<double> sorted = samples.values;
  std::nth_element(sorted.begin(), sorted.begin() + (rank - 1), sorted.end());
  return sorted[rank - 1];
}

/// The highest of the percentiles a report names (p50, p90, p99, p99.9)
/// that n samples support; 0 when not even the median is supported.
inline double HighestSupportedPercentile(size_t n) {
  double best = 0.0;
  for (double q : {0.5, 0.9, 0.99, 0.999}) {
    if (PercentileSupported(q, n)) best = q;
  }
  return best;
}

/// Median of plain values (mean of the two middle ones for even counts).
inline double Median(std::vector<double> values) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};

/// Quartiles by the "exclusive" method of Python's
/// statistics.quantiles(values, n=4), which is how run-to-run spread is
/// judged: cut point i sits at position i * (n + 1) / 4 (1-based) with
/// linear interpolation. Needs at least two values.
inline Quartiles ExclusiveQuartiles(std::vector<double> values) {
  Quartiles out;
  if (values.size() < 2) {
    out.q1 = out.median = out.q3 =
        values.empty() ? std::numeric_limits<double>::quiet_NaN() : values[0];
    return out;
  }
  std::sort(values.begin(), values.end());
  const double m = static_cast<double>(values.size() + 1);
  const auto cut = [&](int i) {
    const double position = i * m / 4.0;  // 1-based
    const size_t j = std::clamp<size_t>(static_cast<size_t>(position), 1,
                                        values.size() - 1);
    const double delta = position - static_cast<double>(j);
    return values[j - 1] + (values[j] - values[j - 1]) * delta;
  };
  out.q1 = cut(1);
  out.median = cut(2);
  out.q3 = cut(3);
  return out;
}

/// Arithmetic mean; 0 for no values.
inline double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
