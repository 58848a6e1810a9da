// Tests of the benchmark's own arithmetic: the percentile sample rule,
// q-error summaries, span self time and the sub-plan count. Plain checks
// (no test framework), so the benchmark builds wherever the repo's
// libraries do:
//   ctest --test-dir .bench_build/perfbench

#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_math.h"
#include "imdb/imdb.h"
#include "subplans.h"
#include "trace.h"

namespace {

int failures = 0;

void Expect(bool condition, const char* what, int line) {
  if (!condition) {
    std::printf("FAILED line %d: %s\n", line, what);
    ++failures;
  }
}
#define EXPECT(condition) Expect((condition), #condition, __LINE__)

bool Near(double a, double b) { return std::fabs(a - b) <= 1e-9; }

void TestPercentileRule() {
  // 1..999: p99 interpolates to 989.02, so 10 samples (990..999) lie
  // strictly above it and the p99 is supported.
  std::vector<double> values;
  for (int i = 1; i <= 999; ++i) values.push_back(i);
  perfbench::LatencySummary summary = perfbench::SummarizeLatency(values);
  EXPECT(Near(summary.p50, 500.0));
  EXPECT(Near(summary.p99, 989.02));
  EXPECT(summary.beyond_p99 == 10);
  EXPECT(summary.p99_supported);

  // 1..900: p99 interpolates to 891.01, and only 9 samples lie above it.
  values.assign({});
  for (int i = 1; i <= 900; ++i) values.push_back(i);
  summary = perfbench::SummarizeLatency(values);
  EXPECT(summary.beyond_p99 == 9);
  EXPECT(!summary.p99_supported);

  // Ties at the top are not "beyond": 2000 equal samples support nothing.
  values.assign(2000, 7.0);
  summary = perfbench::SummarizeLatency(values);
  EXPECT(summary.beyond_p99 == 0);
  EXPECT(!summary.p99_supported);

  EXPECT(perfbench::SamplesAbove({1, 2, 3, 4}, 2.5) == 2);
  EXPECT(!perfbench::SummarizeLatency(std::vector<double>{}).p99_supported);

  // Windowed: three one-second windows of 1..1000 scaled by 1x, 2x and
  // 10x; the run reports the middle window's p50 and p99. Samples after
  // the last full window (the drain) land in the last one.
  constexpr int64_t kSecond = 1000000000;
  perfbench::LatencyWindows windows(/*start_ns=*/5, /*seconds=*/3.0);
  for (int scale : {1, 2, 10}) {
    for (int i = 1; i <= 1000; ++i) {
      windows.Add(5 + (scale == 1 ? 0 : scale == 2 ? 1 : 2) * kSecond + i,
                  scale * i);
    }
  }
  windows.Add(5 + 7 * kSecond, 1.0);
  EXPECT(windows.windows().size() == 3);
  EXPECT(windows.windows()[2].size() == 1001);
  EXPECT(windows.count() == 3001);
  summary = perfbench::SummarizeLatency(windows);
  EXPECT(Near(summary.p50, 2 * 500.5));
  EXPECT(Near(summary.p99, 2 * 990.01));
  EXPECT(summary.p99_supported);
  EXPECT(summary.count == 3001);

  // One window too thin to support its p99 fails the whole run's p99.
  perfbench::LatencyWindows thin(0, 2.0);
  for (int i = 1; i <= 1000; ++i) thin.Add(i, i);
  for (int i = 1; i <= 500; ++i) thin.Add(kSecond + i, i);
  summary = perfbench::SummarizeLatency(thin);
  EXPECT(!summary.p99_supported);
  EXPECT(summary.beyond_p99 == 5);
}

void TestQError() {
  // q-errors: 2 (over), 4 (under), 1 (exact), 10 (truth 0 clamps to 1).
  const perfbench::QErrorSummary summary = perfbench::SummarizeQErrors(
      {20.0, 25.0, 7.0, 10.0}, {10, 100, 7, 0});
  EXPECT(Near(summary.median, 3.0));
  EXPECT(Near(summary.max, 10.0));
  // p95 interpolates between 4 and 10 at 0.85 of the way.
  EXPECT(Near(summary.p95, 4.0 + 0.85 * 6.0));
  EXPECT(Near(perfbench::Median({3.0, 1.0, 2.0, 10.0}), 2.5));
}

void TestSelfTime() {
  using perfbench::Span;
  // parent [0,100] with children [10,30], [20,50] (overlapping) and
  // [90,120] (clipped to 100): covered 40 + 10, self 50. The grandchild
  // [12,18] counts against its own parent only.
  const std::vector<Span> spans = {
      {1, 0, 7, "parent", 0, 100},  {2, 1, 7, "child", 10, 30},
      {3, 1, 7, "child", 20, 50},   {4, 1, 7, "child", 90, 120},
      {5, 2, 7, "grandchild", 12, 18},
  };
  const auto totals = perfbench::SelfTimes(spans);
  EXPECT(totals.at("parent").count == 1);
  EXPECT(totals.at("parent").total_ns == 100);
  EXPECT(totals.at("parent").self_ns == 50);
  EXPECT(totals.at("child").count == 3);
  EXPECT(totals.at("child").total_ns == 20 + 30 + 30);
  EXPECT(totals.at("child").self_ns == 14 + 30 + 30);
  EXPECT(totals.at("grandchild").self_ns == 6);

  // Recorded spans nest and inherit the request id.
  perfbench::Tracer tracer;
  {
    perfbench::ThreadTrace trace(&tracer);
    perfbench::ScopedSpan outer(&trace, "outer", 42);
    perfbench::ScopedSpan inner(&trace, "inner");
  }
  const std::vector<Span> recorded = tracer.spans();
  EXPECT(recorded.size() == 2);
  EXPECT(recorded[1].parent == recorded[0].id);
  EXPECT(recorded[1].request == 42);
  EXPECT(recorded[0].start_ns <= recorded[1].start_ns &&
         recorded[1].end_ns <= recorded[0].end_ns);

  // A disabled trace records nothing.
  perfbench::ThreadTrace off(nullptr);
  { perfbench::ScopedSpan span(&off, "ignored", 1); }
  EXPECT(!off.enabled());
}

void TestSubplanCount() {
  const lc::Schema schema = lc::MakeImdbSchema();
  const lc::ImdbColumns columns = lc::ResolveImdbColumns(schema);
  const lc::TableId spokes[] = {columns.movie_companies, columns.cast_info,
                                columns.movie_info, columns.movie_keyword};
  for (int joins = 1; joins <= 4; ++joins) {
    lc::Query query;
    query.tables.push_back(columns.title);
    for (int s = 0; s < joins; ++s) {
      query.tables.push_back(spokes[s]);
      for (int e = 0; e < schema.num_join_edges(); ++e) {
        if (schema.join_edge(e).Touches(columns.title) &&
            schema.join_edge(e).Touches(spokes[s])) {
          query.joins.push_back(e);
        }
      }
    }
    lc::Predicate predicate;
    predicate.table = columns.title;
    predicate.column = columns.title_production_year;
    predicate.op = lc::CompareOp::kGt;
    predicate.literal = 2000;
    query.predicates.push_back(predicate);
    query.Canonicalize();

    const std::vector<lc::Query> plans =
        perfbench::ConnectedSubplans(query, schema);
    const size_t expected = (size_t{1} << joins) + static_cast<size_t>(joins);
    EXPECT(plans.size() == expected);
    size_t with_predicate = 0;
    for (const lc::Query& plan : plans) {
      EXPECT(plan.num_joins() == plan.num_tables() - 1);
      EXPECT(plan.Validate(schema).ok());
      with_predicate += plan.predicates.size();
    }
    // The title predicate rides along on exactly the plans with title.
    EXPECT(with_predicate == (size_t{1} << joins));
  }
  EXPECT(perfbench::ConnectedSubplans(
             [] {
               lc::Query single;
               single.tables.push_back(0);
               return single;
             }(),
             schema)
             .size() == 1);
}

}  // namespace

int main() {
  TestPercentileRule();
  TestQError();
  TestSelfTime();
  TestSubplanCount();
  if (failures == 0) std::printf("perfbench arithmetic: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
