// Microbenchmarks of the database substrate: the row selection kernels,
// predicate scans, exact join cardinality computation (the HyPer stand-in
// that labels training data), labelling a whole training corpus, sample
// bitmap evaluation and IBJS probing.

#include <benchmark/benchmark.h>

#include <numeric>
#include <vector>

#include "est/ibjs.h"
#include "exec/executor.h"
#include "exec/select.h"
#include "imdb/imdb.h"
#include "sample/sample.h"
#include "util/rng.h"
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

// One selection kernel alone over 1M values drawn uniformly from [0, 1000),
// block by block as the executor runs it, with `v < literal` keeping about
// 1%, 50% or 99% of the rows. Args: backend (0 scalar, 1 AVX-512), percent
// kept, and kernel (0 SelectRange over the block's row range, 1 FilterRows
// over the block's full id list).
void BM_SelectRows(benchmark::State& state) {
  const internal::SelectKernels* kernels =
      state.range(0) == 0 ? &internal::ScalarSelectKernels()
                          : internal::Avx512SelectKernels();
  if (kernels == nullptr) {
    state.SkipWithError("no AVX-512F on this CPU or build");
    return;
  }
  static const std::vector<int32_t>* values = [] {
    Rng rng(3);
    auto* column = new std::vector<int32_t>(1 << 20);
    for (int32_t& value : *column) {
      value = static_cast<int32_t>(rng.UniformInt(0, 999));
    }
    return column;
  }();
  const int32_t literal = static_cast<int32_t>(state.range(1) * 10);
  const bool filter = state.range(2) == 1;
  const uint32_t rows = static_cast<uint32_t>(values->size());
  std::vector<uint32_t> selected(internal::kBlockRows);
  int64_t kept = 0;
  for (auto _ : state) {
    kept = 0;
    for (uint32_t begin = 0; begin < rows; begin += internal::kBlockRows) {
      const uint32_t end = std::min(rows, begin + internal::kBlockRows);
      if (filter) {
        std::iota(selected.begin(), selected.begin() + (end - begin), begin);
        kept += kernels->filter_rows(CompareOp::kLt, values->data(), literal,
                                     selected.data(), end - begin);
      } else {
        kept += kernels->select_range(CompareOp::kLt, values->data(), literal,
                                      begin, end, selected.data());
      }
    }
    benchmark::DoNotOptimize(kept);
  }
  state.counters["kept_pct"] = 100.0 * static_cast<double>(kept) / rows;
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(rows));
}
BENCHMARK(BM_SelectRows)
    ->ArgNames({"avx512", "pct", "filter"})
    ->ArgsProduct({{0, 1}, {1, 50, 99}, {0, 1}});

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
