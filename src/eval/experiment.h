// The shared experiment context behind every bench binary: one synthetic
// IMDb database, one shared sample set, the four workloads of the paper's
// section 4 (training corpus, synthetic, scale, JOB-light) and the trained
// MSCN variants. Everything is built from scratch by the code that links
// this harness, once per process: nothing is read back from disk, so every
// number a bench prints comes from the code under test. All sizes are
// environment-tunable; the defaults are scaled for a single CPU core (see
// docs/ARCHITECTURE.md, "Design deviations from the paper", for the mapping
// to the paper's sizes).

#ifndef LC_EVAL_EXPERIMENT_H_
#define LC_EVAL_EXPERIMENT_H_

#include <map>
#include <memory>
#include <optional>
#include <ostream>

#include "core/mscn_estimator.h"
#include "core/trainer.h"
#include "est/ibjs.h"
#include "est/postgres.h"
#include "est/random_sampling.h"
#include "imdb/imdb.h"
#include "workload/generator.h"

namespace lc {

struct ExperimentConfig {
  ImdbConfig imdb;
  size_t sample_size = 128;       // Paper: 1000 materialized samples.
  uint64_t sample_seed = 2023;
  size_t train_queries = 16000;   // Paper: 100,000.
  size_t synthetic_queries = 5000;
  size_t scale_queries_per_join = 100;  // Paper: 100 x (0..4 joins).
  uint64_t train_seed = 101;
  uint64_t synthetic_seed = 202;  // "a different random seed" (section 4).
  uint64_t scale_seed = 303;
  MscnConfig mscn;

  /// Defaults overridden by LC_* environment knobs (LC_TITLES,
  /// LC_TRAIN_QUERIES, LC_SYNTHETIC_QUERIES, LC_SAMPLE_SIZE, LC_EPOCHS,
  /// LC_HIDDEN_UNITS, ...).
  static ExperimentConfig FromEnv();
};

/// Lazily materializes every experiment ingredient at most once per
/// instance, so one binary can print several tables from one training.
class Experiment {
 public:
  explicit Experiment(ExperimentConfig config = ExperimentConfig::FromEnv());

  const ExperimentConfig& config() const { return config_; }
  const Database& db() const { return db_; }
  const Executor& executor() const { return executor_; }
  const SampleSet& samples() const { return samples_; }

  /// Materializes all four workloads, building the missing ones
  /// concurrently across the process pool (each build is independent:
  /// distinct generator seeds, a read-only database and executor). Idempotent; the individual accessors below return the
  /// same objects afterwards.
  void PrefetchWorkloads();

  /// The labelled training corpus (0-2 joins, section 3.3).
  const Workload& TrainingWorkload();
  /// The synthetic evaluation workload (same generator, different seed).
  const Workload& SyntheticWorkload();
  /// The scale workload: scale_queries_per_join queries per join count 0-4.
  const Workload& ScaleWorkload();
  /// The JOB-light analogue (70 fixed queries).
  const Workload& JobLightWorkload();

  /// The trained model for a feature variant (trained on first use);
  /// `history` optionally receives its training curve.
  MscnModel& Model(FeatureVariant variant,
                   TrainingHistory* history = nullptr);

  /// Trains a fresh model with explicit config overrides (hyperparameter
  /// grid, loss ablations); not memoized.
  MscnModel TrainWithConfig(const MscnConfig& config,
                            TrainingHistory* history = nullptr);

  /// Featurizer for a variant (shared, lazily built).
  const Featurizer& FeaturizerFor(FeatureVariant variant);

  /// Estimators (owned by the experiment).
  PostgresEstimator& Postgres();
  RandomSamplingEstimator& RandomSampling();
  IbjsEstimator& Ibjs();
  /// MSCN estimator over the trained model of a variant.
  MscnEstimator& Mscn(FeatureVariant variant = FeatureVariant::kBitmaps);

  /// Prints the run configuration header every bench emits.
  void PrintSetup(std::ostream& os);

 private:
  Workload BuildTraining();
  Workload BuildSynthetic();
  Workload BuildScale();
  Workload BuildJobLight();

  ExperimentConfig config_;
  Database db_;
  Executor executor_;
  SampleSet samples_;

  std::optional<Workload> training_;
  std::optional<Workload> synthetic_;
  std::optional<Workload> scale_;
  std::optional<Workload> job_light_;

  std::map<FeatureVariant, std::unique_ptr<Featurizer>> featurizers_;
  std::map<FeatureVariant, std::unique_ptr<MscnModel>> models_;
  std::map<FeatureVariant, TrainingHistory> histories_;
  std::map<FeatureVariant, std::unique_ptr<MscnEstimator>> mscn_estimators_;

  std::unique_ptr<PostgresEstimator> postgres_;
  std::unique_ptr<RandomSamplingEstimator> random_sampling_;
  std::unique_ptr<IbjsEstimator> ibjs_;
};

}  // namespace lc

#endif  // LC_EVAL_EXPERIMENT_H_
