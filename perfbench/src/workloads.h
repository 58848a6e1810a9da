// The three benchmark workloads. Each one runs its timed phase against the
// shared set-up, checks every output against its gate, scores the
// evaluation set through its own path, and reports what it measured.
//
// With a Tracer, a workload splits its time between an untraced and a
// traced phase (the gap between their latencies is the tracing overhead)
// and fills the per-layer metrics from spans and layer counters.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <sys/resource.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_math.h"
#include "setup.h"
#include "trace.h"

namespace perfbench {

struct RunOptions {
  uint64_t seed = 0;
  double seconds = 10.0;
  std::string work_dir;  // Scratch space inside the checkout.
};

struct WorkloadResult {
  uint64_t attempted = 0;  // Operations sent, timed or not.
  uint64_t failed = 0;     // ERR lines, rejections, gate mismatches.
  std::vector<std::string> gate_failures;

  // The untraced timed phase.
  LatencyWindows latency;
  uint64_t requests = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;

  QErrorSummary qerror;

  // Traced runs only: per-layer metrics by name, and the traced phase's
  // median latency for the overhead estimate.
  std::map<std::string, double> layers;
  double traced_p50_us = 0.0;
};

WorkloadResult RunOptimizerSubplans(const Setup& setup,
                                    const RunOptions& options,
                                    Tracer* tracer);
WorkloadResult RunServeHotSocket(const Setup& setup, const RunOptions& options,
                                 Tracer* tracer);
WorkloadResult RunRetrainSwapSocket(const Setup& setup,
                                    const RunOptions& options,
                                    Tracer* tracer);

/// Notes a step of the run on standard error, with the time since start.
inline void Progress(const char* step) {
  static const int64_t start = NowNs();
  std::fprintf(stderr, "perfbench: %s at %.1f s\n", step,
               static_cast<double>(NowNs() - start) * 1e-9);
}

/// User + system CPU seconds of the whole process so far.
inline double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
