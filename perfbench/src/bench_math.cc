#include "bench_math.h"

#include <algorithm>

#include "util/check.h"
#include "util/stats.h"

namespace perfbench {

size_t SamplesAbove(const std::vector<double>& values, double threshold) {
  return static_cast<size_t>(
      std::count_if(values.begin(), values.end(),
                    [threshold](double value) { return value > threshold; }));
}

LatencyWindows::LatencyWindows(int64_t start_ns, double seconds)
    : start_ns_(start_ns),
      windows_(std::max<size_t>(1, static_cast<size_t>(seconds))) {}

void LatencyWindows::Add(int64_t completed_ns, double latency_us) {
  const int64_t elapsed = std::max<int64_t>(0, completed_ns - start_ns_);
  const size_t index = std::min(windows_.size() - 1,
                                static_cast<size_t>(elapsed / 1000000000));
  windows_[index].push_back(latency_us);
}

void LatencyWindows::Merge(const LatencyWindows& other) {
  LC_CHECK_EQ(windows_.size(), other.windows_.size());
  for (size_t i = 0; i < windows_.size(); ++i) {
    windows_[i].insert(windows_[i].end(), other.windows_[i].begin(),
                       other.windows_[i].end());
  }
}

size_t LatencyWindows::count() const {
  size_t total = 0;
  for (const std::vector<double>& window : windows_) total += window.size();
  return total;
}

std::vector<double> LatencyWindows::All() const {
  std::vector<double> all;
  all.reserve(count());
  for (const std::vector<double>& window : windows_) {
    all.insert(all.end(), window.begin(), window.end());
  }
  return all;
}

LatencySummary SummarizeLatency(const LatencyWindows& latencies) {
  LatencySummary summary;
  summary.count = latencies.count();
  std::vector<double> p50s;
  std::vector<double> p99s;
  summary.p99_supported = true;
  summary.beyond_p99 = summary.count;
  for (const std::vector<double>& window : latencies.windows()) {
    const LatencySummary one = SummarizeLatency(window);
    summary.p99_supported = summary.p99_supported && one.p99_supported;
    summary.beyond_p99 = std::min(summary.beyond_p99, one.beyond_p99);
    if (one.count == 0) continue;
    p50s.push_back(one.p50);
    p99s.push_back(one.p99);
  }
  if (!p50s.empty()) {
    summary.p50 = Median(p50s);
    summary.p99 = Median(p99s);
  }
  return summary;
}

LatencySummary SummarizeLatency(const std::vector<double>& values) {
  LatencySummary summary;
  summary.count = values.size();
  if (values.empty()) return summary;
  summary.p50 = lc::Quantile(values, 0.50);
  summary.p99 = lc::Quantile(values, 0.99);
  summary.beyond_p99 = SamplesAbove(values, summary.p99);
  summary.p99_supported = summary.beyond_p99 >= kMinSamplesBeyond;
  return summary;
}

QErrorSummary SummarizeQErrors(const std::vector<double>& estimates,
                               const std::vector<int64_t>& truths) {
  LC_CHECK_EQ(estimates.size(), truths.size());
  LC_CHECK(!estimates.empty());
  std::vector<double> qerrors;
  qerrors.reserve(estimates.size());
  for (size_t i = 0; i < estimates.size(); ++i) {
    qerrors.push_back(
        lc::QError(estimates[i], static_cast<double>(truths[i])));
  }
  QErrorSummary summary;
  summary.median = lc::Quantile(qerrors, 0.50);
  summary.p95 = lc::Quantile(qerrors, 0.95);
  summary.max = *std::max_element(qerrors.begin(), qerrors.end());
  return summary;
}

double Median(const std::vector<double>& values) {
  LC_CHECK(!values.empty());
  return lc::Quantile(values, 0.5);
}

}  // namespace perfbench
