// The benchmark's set-up, shared by every workload: a synthetic IMDb, its
// materialized samples, a labelled training corpus and evaluation set, and
// a trained MSCN model. Built from the layers' public functions with fixed
// seeds, so the model and its q-errors repeat exactly from run to run and
// nothing is read from (or written to) an on-disk artifact cache.

#ifndef PERFBENCH_SETUP_H_
#define PERFBENCH_SETUP_H_

#include <memory>

#include "core/featurizer.h"
#include "core/model.h"
#include "core/trainer.h"
#include "db/database.h"
#include "exec/executor.h"
#include "sample/sample.h"
#include "trace.h"
#include "workload/workload.h"

namespace perfbench {

/// Entries of the estimator result cache (the LC_EST_CACHE default, fixed
/// here so the environment cannot change what is measured).
inline constexpr int64_t kEstimatorCacheEntries = 4096;
/// Epochs of one copy-train-swap retrain over the training split.
inline constexpr int kRetrainEpochs = 12;

struct SetupTimes {
  double imdb_s = 0.0;    // GenerateImdb.
  double sample_s = 0.0;  // SampleSet.
  double label_s = 0.0;   // QueryGenerator::GenerateLabeled, both sets.
  double train_s = 0.0;   // Trainer::Train.
  double total_s = 0.0;
};

struct Setup {
  std::unique_ptr<lc::Database> db;
  std::unique_ptr<lc::Executor> executor;
  std::unique_ptr<lc::SampleSet> samples;
  std::unique_ptr<lc::Featurizer> featurizer;
  lc::Workload training;
  lc::Workload eval;
  lc::TrainValSplit split;  // Points into `training`.
  lc::MscnConfig config;
  std::shared_ptr<lc::MscnModel> model;
};

/// Builds the set-up from scratch, timing each layer's call.
std::unique_ptr<Setup> BuildSetup(SetupTimes* times, ThreadTrace* trace);

/// True cardinalities of a workload, in order.
std::vector<int64_t> Cardinalities(const lc::Workload& workload);

/// One copy-train retrain of the set-up model: kRetrainEpochs over the
/// training split, always from the set-up model, so every retrain does the
/// same work and yields the same weights.
std::shared_ptr<lc::MscnModel> Retrain(const Setup& setup);

/// Distinct random queries (unique canonical keys) from one seeded
/// generator; the same arguments give the same queries.
std::vector<lc::Query> DistinctQueries(const lc::Database& db, uint64_t seed,
                                       int min_joins, int max_joins,
                                       size_t count);

}  // namespace perfbench

#endif  // PERFBENCH_SETUP_H_
