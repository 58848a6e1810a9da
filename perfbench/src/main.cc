// The benchmark driver: builds the shared set-up, runs one workload from a
// seed, checks its outputs and prints its metrics. The last line of
// standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1). Exits 1 when any output gate fails, 2 on bad arguments.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s>
//                    --trace <0|1> [--work-dir <dir>]

#include <sys/resource.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/str.h"
#include "workloads.h"

namespace perfbench {
namespace {

// Set-up runs this many times per run; setup_s is the median.
constexpr int kSetupRepeats = 3;

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"throughput_qps", "1/s"},
    {"latency_p50_us", "us"},
    {"latency_p99_us", "us"},
    {"cpu_us_per_req", "us"},
    {"qerror_median", "ratio"},
    {"qerror_p95", "ratio"},
    {"qerror_max", "ratio"},
};

constexpr MetricDef kPerLayer[] = {
    {"imdb.generate_s", "s"},
    {"sample.build_s", "s"},
    {"workload.label_s", "s"},
    {"core.train_s", "s"},
    {"workload.subplans_per_query", "count"},
    {"workload.annotate_us_per_plan", "us"},
    {"core.estimate_batch_us", "us"},
    {"core.featurize_us_per_plan", "us"},
    {"nn.forward_us_per_batch", "us"},
    {"core.cache_hit_ratio", "ratio"},
    {"core.probe_us", "us"},
    {"core.cache_invalidations", "count"},
    {"serve.parse_us", "us"},
    {"serve.format_us", "us"},
    {"serve.admission_hit_ratio", "ratio"},
    {"serve.queue_wait_us_mean", "us"},
    {"serve.batch_size_mean", "count"},
    {"serve.model_batches", "count"},
    {"serve.rejected_overload", "count"},
    {"serve.net.lines_in", "count"},
    {"serve.net.write_syscalls_per_response", "ratio"},
    {"serve.net.read_pauses", "count"},
    {"core.train_clone_s", "s"},
    {"core.swap_us", "us"},
    {"serve.model_swaps", "count"},
    {"driver.gen_lag_p99_us", "us"},
    {"share.cache_hit", "ratio"},
    {"share.forward", "ratio"},
    {"share.outside_stages", "ratio"},
    {"trace.overhead_pct", "%"},
    {"trace.spans", "count"},
};

using RunFn = WorkloadResult (*)(const Setup&, const RunOptions&, Tracer*);

struct WorkloadDef {
  const char* name;
  RunFn run;
};

constexpr WorkloadDef kWorkloads[] = {
    {"optimizer_subplans", RunOptimizerSubplans},
    {"serve_hot_socket", RunServeHotSocket},
    {"retrain_swap_socket", RunRetrainSwapSocket},
};

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string work_dir = ".bench_build/perfbench/run";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      const char* end = value.data() + value.size();
      const auto parsed = std::from_chars(value.data(), end, args->seed);
      if (value.empty() || parsed.ec != std::errc() || parsed.ptr != end) {
        return false;
      }
    } else if (flag == "--seconds" &&
               lc::ParseDouble(value, &args->seconds).ok() &&
               args->seconds > 0.0 && args->seconds <= 600.0) {
    } else if (flag == "--trace" && (value == "0" || value == "1")) {
      args->trace = value == "1" ? 1 : 0;
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0.0 &&
         args->trace >= 0;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

void PrintSelfTimes(const std::vector<Span>& spans) {
  const auto totals = SelfTimes(spans);
  int64_t all_self = 0;
  for (const auto& [name, entry] : totals) all_self += entry.self_ns;
  std::printf("%-28s %10s %12s %12s %8s\n", "span", "count", "total_ms",
              "self_ms", "self_%");
  for (const auto& [name, entry] : totals) {
    std::printf("%-28s %10llu %12.3f %12.3f %8.2f\n", name.c_str(),
                static_cast<unsigned long long>(entry.count),
                static_cast<double>(entry.total_ns) * 1e-6,
                static_cast<double>(entry.self_ns) * 1e-6,
                all_self == 0 ? 0.0
                              : 100.0 * static_cast<double>(entry.self_ns) /
                                    static_cast<double>(all_self));
  }
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: perfbench_driver --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--work-dir <dir>]\n";
    return 2;
  }
  const WorkloadDef* workload = nullptr;
  for (const WorkloadDef& def : kWorkloads) {
    if (args.workload == def.name) workload = &def;
  }
  if (workload == nullptr) {
    std::cerr << "unknown workload: " << args.workload << "\n";
    return 2;
  }

  std::unique_ptr<Tracer> tracer;
  if (args.trace == 1) tracer = std::make_unique<Tracer>();

  Progress("start");
  // Set-up, several times; the last one serves the workload.
  std::unique_ptr<Setup> setup;
  std::vector<double> total_s, imdb_s, sample_s, label_s, train_s;
  {
    ThreadTrace trace(tracer.get());
    for (int i = 0; i < kSetupRepeats; ++i) {
      setup.reset();
      SetupTimes times;
      setup = BuildSetup(&times, &trace);
      total_s.push_back(times.total_s);
      imdb_s.push_back(times.imdb_s);
      sample_s.push_back(times.sample_s);
      label_s.push_back(times.label_s);
      train_s.push_back(times.train_s);
    }
  }

  Progress("set-up done");
  RunOptions options;
  options.seed = args.seed;
  options.seconds = args.seconds;
  options.work_dir = args.work_dir;
  WorkloadResult result = workload->run(*setup, options, tracer.get());

  Progress("workload done");
  const LatencySummary latency = SummarizeLatency(result.latency);
  if (!latency.p99_supported) {
    result.gate_failures.push_back(lc::Format(
        "a one-second window has only %zu latency samples beyond its p99 "
        "(need %zu)",
        latency.beyond_p99, kMinSamplesBeyond));
  }

  std::vector<std::pair<MetricDef, double>> metrics;
  if (tracer == nullptr) {
    const double values[] = {
        Median(total_s),
        PeakRssMb(),
        static_cast<double>(result.requests) / result.wall_s,
        latency.p50,
        latency.p99,
        result.cpu_s * 1e6 / static_cast<double>(result.requests),
        result.qerror.median,
        result.qerror.p95,
        result.qerror.max,
    };
    for (size_t i = 0; i < std::size(kEndToEnd); ++i) {
      metrics.emplace_back(kEndToEnd[i], values[i]);
    }
  } else {
    auto& layers = result.layers;
    layers["imdb.generate_s"] = Median(imdb_s);
    layers["sample.build_s"] = Median(sample_s);
    layers["workload.label_s"] = Median(label_s);
    layers["core.train_s"] = Median(train_s);
    layers["trace.overhead_pct"] =
        latency.p50 > 0.0
            ? 100.0 * (result.traced_p50_us - latency.p50) / latency.p50
            : 0.0;
    const std::vector<Span> spans = tracer->spans();
    layers["trace.spans"] = static_cast<double>(spans.size());
    for (const MetricDef& def : kPerLayer) {
      metrics.emplace_back(def, layers.count(def.name) ? layers[def.name]
                                                       : 0.0);
    }
    PrintSelfTimes(spans);
    const std::string path = lc::Format(
        "%s/trace-%s-%llu.tsv", args.work_dir.c_str(), args.workload.c_str(),
        static_cast<unsigned long long>(args.seed));
    if (tracer->WriteTsv(path)) {
      std::printf("spans written to %s\n", path.c_str());
    } else {
      result.gate_failures.push_back("could not write " + path);
    }
  }

  for (const auto& [def, value] : metrics) {
    if (!std::isfinite(value)) {
      result.gate_failures.push_back(std::string("non-finite metric ") +
                                     def.name);
    }
  }
  for (const std::string& failure : result.gate_failures) {
    std::printf("GATE FAILED: %s\n", failure.c_str());
  }
  const bool correct = result.gate_failures.empty() && result.failed == 0;

  std::string json = lc::Format(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {",
      correct ? "true" : "false",
      static_cast<unsigned long long>(std::max<uint64_t>(1, result.attempted)),
      static_cast<unsigned long long>(result.failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    const auto& [def, value] = metrics[i];
    json += lc::Format("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                       i == 0 ? "" : ", ", def.name,
                       std::isfinite(value) ? value : 0.0, def.unit);
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
