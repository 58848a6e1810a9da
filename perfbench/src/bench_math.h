// The benchmark's own arithmetic: latency percentiles with their sample
// support, q-error summaries and medians of repeated measurements. Pure
// functions, unit-tested by tests/arith_test.cc.

#ifndef PERFBENCH_BENCH_MATH_H_
#define PERFBENCH_BENCH_MATH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// A reported percentile needs this many samples strictly above it.
inline constexpr size_t kMinSamplesBeyond = 10;

/// Samples strictly greater than `threshold`.
size_t SamplesAbove(const std::vector<double>& values, double threshold);

/// Latency samples (microseconds) of one timed phase, bucketed by the
/// one-second window in which each request completed. Samples past the
/// last full window (the drain after the deadline) join the last one.
class LatencyWindows {
 public:
  explicit LatencyWindows(int64_t start_ns = 0, double seconds = 1.0);

  void Add(int64_t completed_ns, double latency_us);
  void Merge(const LatencyWindows& other);

  const std::vector<std::vector<double>>& windows() const { return windows_; }
  size_t count() const;
  std::vector<double> All() const;

 private:
  int64_t start_ns_;
  std::vector<std::vector<double>> windows_;
};

/// Median and p99 of a latency sample, and whether the sample supports the
/// p99 (at least kMinSamplesBeyond samples strictly above it).
struct LatencySummary {
  size_t count = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  size_t beyond_p99 = 0;
  bool p99_supported = false;
};
LatencySummary SummarizeLatency(const std::vector<double>& values);

/// The median across windows of each window's p50 and p99, so that one
/// disturbed second moves the run's figure no more than any other second.
/// `count` is the total; `beyond_p99` the fewest samples any window has
/// beyond its own p99, and the p99 is supported only if every window's is.
LatencySummary SummarizeLatency(const LatencyWindows& latencies);

/// The paper's accuracy metric over an evaluation set: q-error of each
/// estimate against its true cardinality, summarized as median, 95th
/// percentile and maximum.
struct QErrorSummary {
  double median = 0.0;
  double p95 = 0.0;
  double max = 0.0;
};
QErrorSummary SummarizeQErrors(const std::vector<double>& estimates,
                               const std::vector<int64_t>& truths);

/// Median of repeated measurements (linear interpolation for even counts).
double Median(const std::vector<double>& values);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_MATH_H_
