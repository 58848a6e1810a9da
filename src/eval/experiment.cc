#include "eval/experiment.h"

#include "util/env.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/str.h"
#include "util/timer.h"
#include "workload/job_light.h"

namespace lc {

ExperimentConfig ExperimentConfig::FromEnv() {
  ExperimentConfig config;
  config.imdb = ImdbConfig::FromEnv();
  config.sample_size = static_cast<size_t>(
      GetEnvInt("LC_SAMPLE_SIZE", static_cast<int64_t>(config.sample_size)));
  config.train_queries = static_cast<size_t>(GetEnvInt(
      "LC_TRAIN_QUERIES", static_cast<int64_t>(config.train_queries)));
  config.synthetic_queries = static_cast<size_t>(
      GetEnvInt("LC_SYNTHETIC_QUERIES",
                static_cast<int64_t>(config.synthetic_queries)));
  config.scale_queries_per_join = static_cast<size_t>(
      GetEnvInt("LC_SCALE_QUERIES",
                static_cast<int64_t>(config.scale_queries_per_join)));
  config.mscn = MscnConfig::FromEnv();
  return config;
}

Experiment::Experiment(ExperimentConfig config)
    : config_(config),
      db_(GenerateImdb(config.imdb)),
      executor_(&db_),
      samples_(&db_, config.sample_size, config.sample_seed) {}

Workload Experiment::BuildTraining() {
  LC_LOG(INFO) << "labelling training corpus (" << config_.train_queries
               << " queries)...";
  WallTimer timer;
  GeneratorConfig generator_config;
  generator_config.seed = config_.train_seed;
  QueryGenerator generator(&db_, generator_config);
  Workload workload = generator.GenerateLabeled(
      executor_, samples_, config_.train_queries, "training");
  LC_LOG(INFO) << "labelled training corpus in " << HumanSeconds(timer.Seconds());
  return workload;
}

Workload Experiment::BuildSynthetic() {
  LC_LOG(INFO) << "labelling synthetic workload ("
               << config_.synthetic_queries << " queries)...";
  GeneratorConfig generator_config;
  generator_config.seed = config_.synthetic_seed;
  QueryGenerator generator(&db_, generator_config);
  return generator.GenerateLabeled(executor_, samples_,
                                   config_.synthetic_queries, "synthetic");
}

Workload Experiment::BuildScale() {
  LC_LOG(INFO) << "labelling scale workload...";
  Workload workload;
  workload.name = "scale";
  workload.sample_size = samples_.sample_size();
  // The five per-join-count slices use independent generators (distinct
  // seeds), so they label concurrently; concatenation order stays 0..4.
  std::vector<Workload> slices(5);
  ParallelFor(ThreadPool::Global(), 0, slices.size(), 1, [&](size_t index) {
    const int joins = static_cast<int>(index);
    GeneratorConfig generator_config;
    generator_config.seed =
        config_.scale_seed + static_cast<uint64_t>(joins) * 13;
    generator_config.min_joins = joins;
    generator_config.max_joins = joins;
    QueryGenerator generator(&db_, generator_config);
    slices[index] = generator.GenerateLabeled(
        executor_, samples_, config_.scale_queries_per_join,
        Format("scale-%d", joins));
  });
  for (const Workload& slice : slices) {
    for (const LabeledQuery& labeled : slice.queries) {
      workload.queries.push_back(labeled);
    }
  }
  return workload;
}

Workload Experiment::BuildJobLight() {
  LC_LOG(INFO) << "labelling JOB-light...";
  Workload workload;
  workload.name = "JOB-light";
  workload.sample_size = samples_.sample_size();
  const std::vector<Query> queries = BuildJobLightQueries(db_);
  workload.queries.resize(queries.size());
  // The query list is fixed; labelling is pure, so slots fill in parallel.
  ParallelFor(ThreadPool::Global(), 0, queries.size(), 1, [&](size_t i) {
    workload.queries[i] = LabelQuery(queries[i], &executor_, samples_);
  });
  return workload;
}

void Experiment::PrefetchWorkloads() {
  // Each task touches only its own optional<Workload> member;
  // db_/executor_/samples_ are read-only after construction.
  ParallelInvoke(ThreadPool::Global(),
                 {[this] { TrainingWorkload(); },
                  [this] { SyntheticWorkload(); },
                  [this] { ScaleWorkload(); },
                  [this] { JobLightWorkload(); }});
}

const Workload& Experiment::TrainingWorkload() {
  if (!training_.has_value()) training_ = BuildTraining();
  return *training_;
}

const Workload& Experiment::SyntheticWorkload() {
  if (!synthetic_.has_value()) synthetic_ = BuildSynthetic();
  return *synthetic_;
}

const Workload& Experiment::ScaleWorkload() {
  if (!scale_.has_value()) scale_ = BuildScale();
  return *scale_;
}

const Workload& Experiment::JobLightWorkload() {
  if (!job_light_.has_value()) job_light_ = BuildJobLight();
  return *job_light_;
}

const Featurizer& Experiment::FeaturizerFor(FeatureVariant variant) {
  auto it = featurizers_.find(variant);
  if (it == featurizers_.end()) {
    it = featurizers_
             .emplace(variant, std::make_unique<Featurizer>(
                                   &db_, variant, config_.sample_size))
             .first;
  }
  return *it->second;
}

MscnModel Experiment::TrainWithConfig(const MscnConfig& config,
                                      TrainingHistory* history) {
  const Workload& corpus = TrainingWorkload();
  const Featurizer& featurizer = FeaturizerFor(config.variant);
  Trainer trainer(&featurizer, config);
  const TrainValSplit split =
      SplitWorkload(corpus, config.validation_fraction, config.seed);
  LC_LOG(INFO) << "training MSCN (" << FeatureVariantName(config.variant)
               << ", " << LossKindName(config.loss) << ", d="
               << config.hidden_units << ", epochs=" << config.epochs
               << ")...";
  WallTimer timer;
  MscnModel model = trainer.Train(split.train, split.validation, history);
  LC_LOG(INFO) << "trained in " << HumanSeconds(timer.Seconds());
  return model;
}

MscnModel& Experiment::Model(FeatureVariant variant,
                             TrainingHistory* history) {
  auto it = models_.find(variant);
  if (it == models_.end()) {
    MscnConfig config = config_.mscn;
    config.variant = variant;
    TrainingHistory fresh_history;
    MscnModel model = TrainWithConfig(config, &fresh_history);
    histories_[variant] = fresh_history;
    it = models_
             .emplace(variant,
                      std::make_unique<MscnModel>(std::move(model)))
             .first;
  }
  if (history != nullptr) *history = histories_[variant];
  return *it->second;
}

PostgresEstimator& Experiment::Postgres() {
  if (!postgres_) postgres_ = std::make_unique<PostgresEstimator>(&db_);
  return *postgres_;
}

RandomSamplingEstimator& Experiment::RandomSampling() {
  if (!random_sampling_) {
    random_sampling_ =
        std::make_unique<RandomSamplingEstimator>(&db_, &samples_);
  }
  return *random_sampling_;
}

IbjsEstimator& Experiment::Ibjs() {
  if (!ibjs_) ibjs_ = std::make_unique<IbjsEstimator>(&db_, &samples_);
  return *ibjs_;
}

MscnEstimator& Experiment::Mscn(FeatureVariant variant) {
  auto it = mscn_estimators_.find(variant);
  if (it == mscn_estimators_.end()) {
    MscnModel& model = Model(variant);
    const Featurizer& featurizer = FeaturizerFor(variant);
    std::string name = "MSCN";
    if (variant != FeatureVariant::kBitmaps) {
      name = Format("MSCN (%s)", FeatureVariantName(variant));
    }
    it = mscn_estimators_
             .emplace(variant, std::make_unique<MscnEstimator>(
                                   &featurizer, &model, name))
             .first;
  }
  return *it->second;
}

void Experiment::PrintSetup(std::ostream& os) {
  os << "setup: " << db_.TotalRows() << " rows over "
     << db_.schema().num_tables() << " tables ("
     << config_.imdb.num_titles << " titles), sample size "
     << config_.sample_size << ", " << config_.train_queries
     << " training queries, MSCN d=" << config_.mscn.hidden_units
     << " epochs=" << config_.mscn.epochs << " batch="
     << config_.mscn.batch_size << "\n"
     << "(paper scale: 2.5M titles IMDb, 1000 samples, 100k training "
        "queries, d=256, 100 epochs; override with LC_TITLES, "
        "LC_SAMPLE_SIZE, LC_TRAIN_QUERIES, LC_HIDDEN_UNITS, LC_EPOCHS)\n";
}

}  // namespace lc
