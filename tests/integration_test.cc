// Cross-module integration tests: the full Experiment harness at miniature
// scale (database -> workloads -> training -> estimators), the harness's
// determinism (a rebuild reproduces every workload and model byte for
// byte), and the headline comparative claim at small scale (MSCN's tail
// behaviour vs the sampling baselines on 0-tuple queries).

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "eval/experiment.h"
#include "eval/report.h"

namespace lc {
namespace {

ExperimentConfig MiniConfig() {
  ExperimentConfig config;
  config.imdb.seed = 7;
  config.imdb.num_titles = 3000;
  config.imdb.num_companies = 400;
  config.imdb.num_persons = 2200;
  config.imdb.num_keywords = 500;
  config.sample_size = 64;
  config.train_queries = 1200;
  config.synthetic_queries = 400;
  config.scale_queries_per_join = 20;
  config.mscn.hidden_units = 32;
  config.mscn.epochs = 12;
  config.mscn.batch_size = 64;
  return config;
}

TEST(IntegrationTest, HarnessMaterializesAllWorkloads) {
  Experiment experiment(MiniConfig());
  const Workload& training = experiment.TrainingWorkload();
  const Workload& synthetic = experiment.SyntheticWorkload();
  const Workload& scale = experiment.ScaleWorkload();
  const Workload& job_light = experiment.JobLightWorkload();

  EXPECT_EQ(training.size(), 1200u);
  EXPECT_EQ(synthetic.size(), 400u);
  EXPECT_EQ(scale.size(), 100u);  // 20 per join count 0..4.
  EXPECT_EQ(job_light.size(), 70u);

  // Scale covers exactly 0..4 joins, 20 each.
  EXPECT_EQ(scale.JoinHistogram(4), (std::vector<int>{20, 20, 20, 20, 20}));
  // Labels are populated with positive cardinalities.
  for (const LabeledQuery& labeled : training.queries) {
    EXPECT_GT(labeled.cardinality, 0);
    EXPECT_EQ(labeled.sample_counts.size(), labeled.query.tables.size());
  }
}

TEST(IntegrationTest, TrainingAndSyntheticWorkloadsAreDisjointSeeds) {
  Experiment experiment(MiniConfig());
  std::set<std::string> training_keys;
  for (const LabeledQuery& labeled : experiment.TrainingWorkload().queries) {
    training_keys.insert(labeled.query.CanonicalKey());
  }
  size_t overlap = 0;
  for (const LabeledQuery& labeled : experiment.SyntheticWorkload().queries) {
    overlap += training_keys.count(labeled.query.CanonicalKey());
  }
  // Different generator seeds; a little incidental overlap is expected but
  // the workloads must be substantially distinct.
  EXPECT_LT(overlap, experiment.SyntheticWorkload().size() / 2);
}

// Every bench result is computed fresh from the code, so two harnesses
// built from one config must agree exactly: the labelled workloads and the
// trained model byte for byte, and the training curve epoch for epoch
// (wall-clock seconds excepted).
TEST(IntegrationTest, RebuiltHarnessReproducesWorkloadsAndModel) {
  Experiment first(MiniConfig());
  Experiment second(MiniConfig());
  first.PrefetchWorkloads();
  second.PrefetchWorkloads();
  EXPECT_EQ(first.TrainingWorkload().Serialize(),
            second.TrainingWorkload().Serialize());
  EXPECT_EQ(first.SyntheticWorkload().Serialize(),
            second.SyntheticWorkload().Serialize());
  EXPECT_EQ(first.ScaleWorkload().Serialize(),
            second.ScaleWorkload().Serialize());
  EXPECT_EQ(first.JobLightWorkload().Serialize(),
            second.JobLightWorkload().Serialize());

  TrainingHistory first_history;
  TrainingHistory second_history;
  const std::string first_bytes =
      first.Model(FeatureVariant::kBitmaps, &first_history).ToBytes();
  const std::string second_bytes =
      second.Model(FeatureVariant::kBitmaps, &second_history).ToBytes();
  EXPECT_EQ(first_bytes, second_bytes);
  ASSERT_EQ(first_history.epochs.size(),
            static_cast<size_t>(MiniConfig().mscn.epochs));
  ASSERT_EQ(second_history.epochs.size(), first_history.epochs.size());
  EXPECT_GT(first_history.total_seconds, 0.0);
  for (size_t i = 0; i < first_history.epochs.size(); ++i) {
    EXPECT_EQ(second_history.epochs[i].train_loss,
              first_history.epochs[i].train_loss)
        << "epoch " << i + 1;
    EXPECT_EQ(second_history.epochs[i].validation_mean_qerror,
              first_history.epochs[i].validation_mean_qerror)
        << "epoch " << i + 1;
  }
}

TEST(IntegrationTest, AllEstimatorsProducePositiveFiniteEstimates) {
  Experiment experiment(MiniConfig());
  const Workload& synthetic = experiment.SyntheticWorkload();
  CardinalityEstimator* estimators[] = {
      &experiment.Postgres(), &experiment.RandomSampling(),
      &experiment.Ibjs(), &experiment.Mscn()};
  for (CardinalityEstimator* estimator : estimators) {
    const std::vector<double> estimates =
        EstimateWorkload(estimator, synthetic);
    for (double estimate : estimates) {
      EXPECT_TRUE(std::isfinite(estimate)) << estimator->name();
      EXPECT_GE(estimate, 0.0) << estimator->name();
    }
  }
}

TEST(IntegrationTest, MscnIsCompetitiveAtTheTail) {
  // The paper's central quantitative claim, checked directionally: with an
  // adequately trained model, MSCN's 95th-percentile and mean q-errors on
  // the synthetic workload are in the ballpark of the best baseline or
  // better (at bench scale MSCN clearly wins; see EXPERIMENTS.md). The mini
  // config is too small for a stable win, so this test uses a larger
  // training budget than the other integration tests.
  ExperimentConfig config = MiniConfig();
  config.train_queries = 4000;
  config.mscn.epochs = 24;
  config.mscn.hidden_units = 48;
  Experiment experiment(config);
  const Workload& synthetic = experiment.SyntheticWorkload();

  const ErrorSummary mscn = Summarize(
      QErrors(EstimateWorkload(&experiment.Mscn(), synthetic), synthetic));
  const ErrorSummary pg = Summarize(
      QErrors(EstimateWorkload(&experiment.Postgres(), synthetic),
              synthetic));
  const ErrorSummary rs = Summarize(QErrors(
      EstimateWorkload(&experiment.RandomSampling(), synthetic), synthetic));

  const double best_baseline_p95 = std::min(pg.p95, rs.p95);
  EXPECT_LT(mscn.p95, best_baseline_p95 * 2.0)
      << "MSCN p95 " << mscn.p95 << " vs best baseline "
      << best_baseline_p95;
  EXPECT_LT(mscn.mean, std::min(pg.mean, rs.mean) * 2.0);
  // And the absolute quality bar: a usable estimator at this scale.
  EXPECT_LT(mscn.median, 3.0);
  EXPECT_LT(mscn.p95, 30.0);
}

TEST(IntegrationTest, VariantModelsHaveDistinctFootprints) {
  Experiment experiment(MiniConfig());
  const size_t none =
      experiment.Model(FeatureVariant::kNoSamples).ByteSize();
  const size_t counts =
      experiment.Model(FeatureVariant::kSampleCounts).ByteSize();
  const size_t bitmaps =
      experiment.Model(FeatureVariant::kBitmaps).ByteSize();
  // Section 4.7: bitmaps variant is the largest; counts adds one feature.
  EXPECT_LT(none, counts);
  EXPECT_LT(counts, bitmaps);
}

TEST(IntegrationTest, SetupHeaderMentionsScaleKnobs) {
  Experiment experiment(MiniConfig());
  std::ostringstream os;
  experiment.PrintSetup(os);
  EXPECT_NE(os.str().find("LC_TITLES"), std::string::npos);
  EXPECT_NE(os.str().find("training queries"), std::string::npos);
}

}  // namespace
}  // namespace lc
