// Microbenchmarks of the database substrate: predicate scans, exact join
// cardinality computation (the HyPer stand-in that labels training data),
// labelling a whole training corpus, sample bitmap evaluation and IBJS
// probing.

#include <benchmark/benchmark.h>

#include "est/ibjs.h"
#include "exec/executor.h"
#include "imdb/imdb.h"
#include "sample/sample.h"
#include "workload/generator.h"

namespace lc {
namespace {

struct ExecFixture {
  Database db;
  Executor executor;
  SampleSet samples;
  ImdbColumns cols;

  static ImdbConfig Config() {
    ImdbConfig config;
    config.seed = 88;
    config.num_titles = 20000;
    config.num_companies = 1200;
    config.num_persons = 14000;
    config.num_keywords = 2600;
    return config;
  }

  ExecFixture()
      : db(GenerateImdb(Config())),
        executor(&db),
        samples(&db, 128, 3),
        cols(ResolveImdbColumns(db.schema())) {}

  static ExecFixture& Get() {
    static ExecFixture* fixture = new ExecFixture();
    return *fixture;
  }

  Query StarQuery(int joins) const {
    Query query;
    query.tables = {cols.title};
    for (int j = 0; j < joins; ++j) {
      query.joins.push_back(j);
      query.tables.push_back(db.schema().join_edge(j).Other(cols.title));
    }
    query.predicates = {
        {cols.title, cols.title_production_year, CompareOp::kGt, 2000}};
    query.Canonicalize();
    return query;
  }
};

void BM_ExactCardinality(benchmark::State& state) {
  ExecFixture& fixture = ExecFixture::Get();
  const Query query = fixture.StarQuery(static_cast<int>(state.range(0)));
  int64_t cardinality = 0;
  for (auto _ : state) {
    cardinality = fixture.executor.Cardinality(query);
    benchmark::DoNotOptimize(cardinality);
  }
  state.counters["cardinality"] = static_cast<double>(cardinality);
}
BENCHMARK(BM_ExactCardinality)->Arg(0)->Arg(1)->Arg(2)->Arg(4);

void BM_PredicateScan(benchmark::State& state) {
  ExecFixture& fixture = ExecFixture::Get();
  const std::vector<Predicate> predicates = {
      {fixture.cols.cast_info, fixture.cols.ci_role_id, CompareOp::kEq, 1},
      {fixture.cols.cast_info, fixture.cols.ci_person_id, CompareOp::kGt,
       100}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fixture.executor.CountSelected(fixture.cols.cast_info, predicates));
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<int64_t>(fixture.db.table(fixture.cols.cast_info)
                               .num_rows()));
}
BENCHMARK(BM_PredicateScan);

// Labels a fresh corpus the way training data is made: GenerateLabeled of
// N queries across the process pool (query drawing, exact cardinalities
// and sample bitmaps). Wall time, reported as queries/s.
void BM_LabelWorkload(benchmark::State& state) {
  ExecFixture& fixture = ExecFixture::Get();
  const size_t count = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    GeneratorConfig config;
    config.seed = 11;
    QueryGenerator generator(&fixture.db, config);
    benchmark::DoNotOptimize(
        generator
            .GenerateLabeled(fixture.executor, fixture.samples, count, "bench")
            .size());
  }
  state.counters["queries_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(count),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_LabelWorkload)
    ->Arg(512)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_SampleBitmap(benchmark::State& state) {
  ExecFixture& fixture = ExecFixture::Get();
  const std::vector<Predicate> predicates = {
      {fixture.cols.title, fixture.cols.title_production_year, CompareOp::kGt,
       2000},
      {fixture.cols.title, fixture.cols.title_kind_id, CompareOp::kEq, 1}};
  const TableSample& sample = fixture.samples.sample(fixture.cols.title);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sample.QualifyingBitmap(predicates).Count());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(sample.size()));
}
BENCHMARK(BM_SampleBitmap);

void BM_IbjsEstimate(benchmark::State& state) {
  ExecFixture& fixture = ExecFixture::Get();
  IbjsEstimator ibjs(&fixture.db, &fixture.samples);
  const Query query = fixture.StarQuery(static_cast<int>(state.range(0)));
  const LabeledQuery labeled =
      LabelQuery(query, nullptr, fixture.samples);
  // Warm the lazily-built indexes outside the timed region.
  ibjs.Estimate(labeled);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ibjs.Estimate(labeled));
  }
}
BENCHMARK(BM_IbjsEstimate)->Arg(1)->Arg(2)->Arg(4);

void BM_GenerateQuery(benchmark::State& state) {
  ExecFixture& fixture = ExecFixture::Get();
  GeneratorConfig config;
  config.seed = 9;
  QueryGenerator generator(&fixture.db, config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(generator.Generate().tables.size());
  }
}
BENCHMARK(BM_GenerateQuery);

}  // namespace
}  // namespace lc

BENCHMARK_MAIN();
