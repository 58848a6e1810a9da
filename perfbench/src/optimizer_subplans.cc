// optimizer_subplans: the in-optimizer case of paper section 4.7. For each
// query of a seeded stream of distinct 2-4-join queries the driver
// enumerates its connected sub-plans, annotates each with LabelQuery (the
// runtime-sampling step) and scores them all with one
// MscnEstimator::EstimateBatch call on a driver-owned tape, cache on.
// Single-threaded, closed loop, no server and no socket: annotation,
// featurization and the forward pass do nearly all the work.

#include <algorithm>
#include <cmath>

#include "core/mscn_estimator.h"
#include "subplans.h"
#include "util/parallel.h"
#include "workloads.h"

namespace perfbench {

namespace {

// Upper bound on queries per second the stream is sized for; a run that
// outruns it fails rather than repeating queries.
constexpr double kMaxQueriesPerSecond = 12000.0;
constexpr size_t kWarmupQueries = 200;
// Requests whose featurization and forward pass the traced run replays.
constexpr size_t kReplayQueries = 500;

struct Annotated {
  std::vector<lc::LabeledQuery> labeled;
  std::vector<const lc::LabeledQuery*> pointers;
};

Annotated Annotate(const std::vector<lc::Query>& plans,
                   const lc::SampleSet& samples, ThreadTrace* trace) {
  Annotated out;
  out.labeled.reserve(plans.size());
  for (const lc::Query& plan : plans) {
    ScopedSpan span(trace, "workload.annotate");
    out.labeled.push_back(lc::LabelQuery(plan, nullptr, samples));
  }
  for (const lc::LabeledQuery& labeled : out.labeled) {
    out.pointers.push_back(&labeled);
  }
  return out;
}

}  // namespace

WorkloadResult RunOptimizerSubplans(const Setup& setup,
                                    const RunOptions& options,
                                    Tracer* tracer) {
  const lc::Schema& schema = setup.db->schema();
  const lc::SampleSet& samples = *setup.samples;
  const std::vector<lc::Query> stream = DistinctQueries(
      *setup.db, options.seed, /*min_joins=*/2, /*max_joins=*/4,
      kWarmupQueries + static_cast<size_t>(
                           std::ceil(options.seconds * kMaxQueriesPerSecond)));

  lc::MscnEstimator estimator(setup.featurizer.get(), setup.model, "MSCN",
                              kEstimatorCacheEntries);
  lc::Tape tape;
  WorkloadResult result;

  // Request i serves stream[i]; its estimates are kept, flattened, for the
  // gate: served_estimates[offsets[i], offsets[i + 1]).
  size_t next = 0;
  std::vector<size_t> offsets{0};
  std::vector<double> served_estimates;

  const auto serve = [&](ThreadTrace* trace) {
    ScopedSpan span(trace, "request", next + 1);
    const Annotated annotated =
        Annotate(ConnectedSubplans(stream[next], schema), samples, trace);
    std::vector<double> estimates;
    std::vector<uint8_t> hits;
    {
      ScopedSpan estimate_span(trace, "core.estimate_batch");
      estimator.EstimateBatch(annotated.pointers, &tape, &estimates, &hits);
    }
    ++next;
    served_estimates.insert(served_estimates.end(), estimates.begin(),
                            estimates.end());
    offsets.push_back(served_estimates.size());
  };

  // Runs until `seconds` pass; returns the latencies.
  const auto phase = [&](double seconds, ThreadTrace* trace) {
    const int64_t start = NowNs();
    LatencyWindows latency(start, seconds);
    const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
    for (int64_t now = start; now < deadline && next < stream.size();) {
      serve(trace);
      const int64_t done = NowNs();
      latency.Add(done, static_cast<double>(done - now) * 1e-3);
      now = done;
    }
    return latency;
  };

  for (size_t i = 0; i < kWarmupQueries; ++i) serve(nullptr);
  const lc::CacheCounters cache_before = estimator.cache_counters();

  const double untraced_seconds =
      tracer != nullptr ? options.seconds / 2 : options.seconds;
  const double cpu0 = ProcessCpuSeconds();
  const int64_t wall0 = NowNs();
  result.latency = phase(untraced_seconds, nullptr);
  result.wall_s = static_cast<double>(NowNs() - wall0) * 1e-9;
  result.cpu_s = ProcessCpuSeconds() - cpu0;
  result.requests = result.latency.count();

  const size_t traced_begin = next;
  if (tracer != nullptr) {
    ThreadTrace trace(tracer);
    result.traced_p50_us =
        SummarizeLatency(phase(options.seconds / 2, &trace)).p50;
  }
  const lc::CacheCounters cache_after = estimator.cache_counters();
  if (next >= stream.size()) {
    result.gate_failures.push_back(
        "query stream exhausted: raise kMaxQueriesPerSecond");
  }
  result.attempted = next;

  // Gate: every EstimateBatch result is bit-identical to a cache-free
  // EstimateAll over the same sub-plans. Verified after the timed phase,
  // in chunks, across the process pool.
  lc::MscnEstimator direct(setup.featurizer.get(), setup.model, "direct", 0);
  constexpr size_t kChunk = 1024;
  uint64_t mismatched_requests = 0;
  for (size_t begin = 0; begin < next; begin += kChunk) {
    const size_t end = std::min(next, begin + kChunk);
    std::vector<Annotated> chunk(end - begin);
    lc::ParallelFor(lc::ThreadPool::Global(), begin, end, 16, [&](size_t i) {
      chunk[i - begin] = Annotate(
          ConnectedSubplans(stream[i], schema), samples,
          nullptr);
    });
    std::vector<const lc::LabeledQuery*> all;
    for (const Annotated& annotated : chunk) {
      all.insert(all.end(), annotated.pointers.begin(),
                 annotated.pointers.end());
    }
    const std::vector<double> expected = direct.EstimateAll(all, 64);
    size_t cursor = 0;
    for (size_t i = begin; i < end; ++i) {
      bool same = offsets[i + 1] - offsets[i] == chunk[i - begin].labeled.size();
      for (size_t k = offsets[i]; same && k < offsets[i + 1]; ++k) {
        same = served_estimates[k] == expected[cursor + k - offsets[i]];
      }
      cursor += chunk[i - begin].labeled.size();
      if (!same) ++mismatched_requests;
    }
  }
  if (mismatched_requests > 0) {
    result.failed += mismatched_requests;
    result.gate_failures.push_back(
        std::to_string(mismatched_requests) +
        " requests' EstimateBatch results differ from EstimateAll");
  }

  // Accuracy through this workload's own path: EstimateBatch with the
  // cache on, over the evaluation set.
  {
    std::vector<const lc::LabeledQuery*> eval;
    for (const lc::LabeledQuery& labeled : setup.eval.queries) {
      eval.push_back(&labeled);
    }
    std::vector<double> estimates;
    std::vector<uint8_t> hits;
    estimator.EstimateBatch(eval, &tape, &estimates, &hits);
    result.qerror = SummarizeQErrors(estimates, Cardinalities(setup.eval));
  }

  if (tracer != nullptr) {
    // Replay featurization and the forward pass (both inside
    // EstimateBatch, out of reach of the driver's spans) on the first
    // traced requests' sub-plan sets.
    std::vector<double> unused;
    size_t replay_plans = 0;
    {
      ThreadTrace trace(tracer);
      lc::Tape replay_tape;
      const size_t end =
          std::min(next, traced_begin + kReplayQueries);
      for (size_t i = traced_begin; i < end; ++i) {
        const Annotated annotated = Annotate(
            ConnectedSubplans(stream[i], schema), samples,
            nullptr);
        replay_plans += annotated.labeled.size();
        ScopedSpan span(&trace, "replay", i + 1);
        lc::MscnBatch batch;
        {
          ScopedSpan featurize(&trace, "core.featurize");
          batch = setup.featurizer->MakeBatch(annotated.pointers, nullptr);
        }
        ScopedSpan forward(&trace, "nn.forward");
        unused.clear();
        setup.model->Predict(batch, &replay_tape, &unused);
      }
    }
    const auto totals = SelfTimes(tracer->spans());
    const auto total = [&](const char* name) {
      auto it = totals.find(name);
      return it == totals.end() ? SpanTotals{} : it->second;
    };
    const size_t traced_requests = next - traced_begin;
    const size_t traced_plans =
        offsets[next] - offsets[traced_begin];
    const uint64_t lookups = cache_after.lookups() - cache_before.lookups();
    const uint64_t hits = cache_after.hits - cache_before.hits;
    auto& layers = result.layers;
    layers["workload.subplans_per_query"] =
        static_cast<double>(traced_plans) /
        static_cast<double>(std::max<size_t>(1, traced_requests));
    layers["workload.annotate_us_per_plan"] =
        total("workload.annotate").MeanUs();
    layers["core.estimate_batch_us"] = total("core.estimate_batch").MeanUs();
    layers["core.featurize_us_per_plan"] =
        static_cast<double>(total("core.featurize").total_ns) * 1e-3 /
        static_cast<double>(std::max<size_t>(1, replay_plans));
    layers["nn.forward_us_per_batch"] = total("nn.forward").MeanUs();
    layers["core.cache_hit_ratio"] =
        lookups == 0 ? 0.0
                     : static_cast<double>(hits) / static_cast<double>(lookups);
    layers["core.cache_invalidations"] = static_cast<double>(
        cache_after.invalidations - cache_before.invalidations);
    layers["share.cache_hit"] = layers["core.cache_hit_ratio"];
    layers["share.forward"] = 1.0 - layers["core.cache_hit_ratio"];
    const SpanTotals request = total("request");
    layers["share.outside_stages"] =
        request.total_ns == 0 ? 0.0
                              : static_cast<double>(request.self_ns) /
                                    static_cast<double>(request.total_ns);
  }
  return result;
}

}  // namespace perfbench
