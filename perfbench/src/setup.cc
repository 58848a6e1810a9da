#include "setup.h"

#include <unordered_set>

#include "imdb/imdb.h"
#include "workload/generator.h"

namespace perfbench {

namespace {

// Fixed sizes and seeds. The corpus is small (the paper trains on 100k
// queries for 100 epochs) because set-up runs several times per run; the
// benchmark measures serving and estimation, not model quality.
constexpr size_t kSampleSize = 128;
constexpr uint64_t kSampleSeed = 2023;
constexpr size_t kTrainingQueries = 2000;
constexpr uint64_t kTrainingSeed = 101;
constexpr size_t kEvalQueries = 500;
constexpr uint64_t kEvalSeed = 202;
constexpr int kTrainEpochs = 6;

double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

lc::Workload Label(const Setup& setup, uint64_t seed, size_t count,
                   const char* name) {
  lc::GeneratorConfig config;
  config.seed = seed;
  lc::QueryGenerator generator(setup.db.get(), config);
  return generator.GenerateLabeled(*setup.executor, *setup.samples, count,
                                   name);
}

}  // namespace

std::unique_ptr<Setup> BuildSetup(SetupTimes* times, ThreadTrace* trace) {
  const int64_t start = NowNs();
  auto setup = std::make_unique<Setup>();
  {
    ScopedSpan span(trace, "imdb.generate");
    const int64_t t0 = NowNs();
    setup->db = std::make_unique<lc::Database>(lc::GenerateImdb({}));
    times->imdb_s = SecondsSince(t0);
  }
  setup->executor = std::make_unique<lc::Executor>(setup->db.get());
  {
    ScopedSpan span(trace, "sample.build");
    const int64_t t0 = NowNs();
    setup->samples = std::make_unique<lc::SampleSet>(setup->db.get(),
                                                     kSampleSize, kSampleSeed);
    times->sample_s = SecondsSince(t0);
  }
  {
    ScopedSpan span(trace, "workload.label");
    const int64_t t0 = NowNs();
    setup->training =
        Label(*setup, kTrainingSeed, kTrainingQueries, "training");
    setup->eval = Label(*setup, kEvalSeed, kEvalQueries, "eval");
    times->label_s = SecondsSince(t0);
  }
  setup->featurizer = std::make_unique<lc::Featurizer>(
      setup->db.get(), lc::FeatureVariant::kBitmaps, kSampleSize);
  setup->config.epochs = kTrainEpochs;
  setup->split = lc::SplitWorkload(setup->training,
                                   setup->config.validation_fraction,
                                   setup->config.seed);
  {
    ScopedSpan span(trace, "core.train");
    const int64_t t0 = NowNs();
    lc::Trainer trainer(setup->featurizer.get(), setup->config);
    setup->model = std::make_shared<lc::MscnModel>(
        trainer.Train(setup->split.train, setup->split.validation, nullptr));
    times->train_s = SecondsSince(t0);
  }
  times->total_s = SecondsSince(start);
  return setup;
}

std::vector<int64_t> Cardinalities(const lc::Workload& workload) {
  std::vector<int64_t> truths;
  truths.reserve(workload.size());
  for (const lc::LabeledQuery& labeled : workload.queries) {
    truths.push_back(labeled.cardinality);
  }
  return truths;
}

std::shared_ptr<lc::MscnModel> Retrain(const Setup& setup) {
  lc::Trainer trainer(setup.featurizer.get(), setup.config);
  return trainer.TrainClone(*setup.model, setup.split.train, {},
                            kRetrainEpochs, nullptr);
}

std::vector<lc::Query> DistinctQueries(const lc::Database& db, uint64_t seed,
                                       int min_joins, int max_joins,
                                       size_t count) {
  lc::GeneratorConfig config;
  config.seed = seed;
  config.min_joins = min_joins;
  config.max_joins = max_joins;
  config.skip_empty = false;
  lc::QueryGenerator generator(&db, config);
  std::unordered_set<std::string> seen;
  std::vector<lc::Query> queries;
  queries.reserve(count);
  while (queries.size() < count) {
    lc::Query query = generator.Generate();
    if (seen.insert(query.CanonicalKey()).second) {
      queries.push_back(std::move(query));
    }
  }
  return queries;
}

}  // namespace perfbench
