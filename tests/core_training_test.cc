// End-to-end MSCN tests: the model trains to useful accuracy on a small
// labelled workload, the trained estimator beats untrained predictions,
// serialization preserves behaviour, and the train/validation split is
// sound.

#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "core/mscn_estimator.h"
#include "core/trainer.h"
#include "imdb/imdb.h"
#include "nn/layers.h"
#include "util/file.h"
#include "util/serialize.h"
#include "util/stats.h"
#include "workload/generator.h"

namespace lc {
namespace {

ImdbConfig TestConfig() {
  ImdbConfig config;
  config.seed = 66;
  config.num_titles = 2500;
  config.num_companies = 400;
  config.num_persons = 1800;
  config.num_keywords = 500;
  return config;
}

// Shared expensive fixture: one database + one labelled workload.
class TrainingTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new Database(GenerateImdb(TestConfig()));
    executor_ = new Executor(db_);
    samples_ = new SampleSet(db_, 48, 11);
    GeneratorConfig gen_config;
    gen_config.seed = 3;
    QueryGenerator generator(db_, gen_config);
    workload_ = new Workload(
        generator.GenerateLabeled(*executor_, *samples_, 900, "train-test"));
  }

  static void TearDownTestSuite() {
    delete workload_;
    delete samples_;
    delete executor_;
    delete db_;
    workload_ = nullptr;
    samples_ = nullptr;
    executor_ = nullptr;
    db_ = nullptr;
  }

  static MscnConfig SmallConfig() {
    MscnConfig config;
    config.hidden_units = 32;
    config.epochs = 24;
    config.batch_size = 64;
    config.seed = 17;
    return config;
  }

  static Database* db_;
  static Executor* executor_;
  static SampleSet* samples_;
  static Workload* workload_;
};

Database* TrainingTest::db_ = nullptr;
Executor* TrainingTest::executor_ = nullptr;
SampleSet* TrainingTest::samples_ = nullptr;
Workload* TrainingTest::workload_ = nullptr;

TEST_F(TrainingTest, SplitRespectsFractionAndPartitions) {
  const TrainValSplit split = SplitWorkload(*workload_, 0.1, 5);
  EXPECT_EQ(split.validation.size(), 90u);
  EXPECT_EQ(split.train.size(), 810u);
  std::set<const LabeledQuery*> unique(split.train.begin(),
                                       split.train.end());
  unique.insert(split.validation.begin(), split.validation.end());
  EXPECT_EQ(unique.size(), workload_->size());
}

TEST_F(TrainingTest, SplitIsDeterministicInSeed) {
  const TrainValSplit a = SplitWorkload(*workload_, 0.2, 9);
  const TrainValSplit b = SplitWorkload(*workload_, 0.2, 9);
  const TrainValSplit c = SplitWorkload(*workload_, 0.2, 10);
  EXPECT_EQ(a.train, b.train);
  EXPECT_NE(a.train, c.train);
}

TEST_F(TrainingTest, TrainingReducesValidationQError) {
  const MscnConfig config = SmallConfig();
  const Featurizer featurizer(db_, config.variant, samples_->sample_size());
  Trainer trainer(&featurizer, config);
  const TrainValSplit split =
      SplitWorkload(*workload_, config.validation_fraction, config.seed);

  TrainingHistory history;
  MscnModel model = trainer.Train(split.train, split.validation, &history);

  ASSERT_EQ(history.epochs.size(), static_cast<size_t>(config.epochs));
  const double first = history.epochs.front().validation_mean_qerror;
  const double last = history.epochs.back().validation_mean_qerror;
  // Training must cut the validation mean q-error dramatically and reach a
  // usable estimator (paper's Figure 6 converges to ~3 at full scale).
  EXPECT_LT(last, first);
  EXPECT_LT(last, 20.0);
  EXPECT_GT(history.total_seconds, 0.0);
}

TEST_F(TrainingTest, TrainedModelBeatsUntrainedModel) {
  const MscnConfig config = SmallConfig();
  const Featurizer featurizer(db_, config.variant, samples_->sample_size());
  Trainer trainer(&featurizer, config);
  const TrainValSplit split = SplitWorkload(*workload_, 0.1, config.seed);

  MscnModel trained = trainer.Train(split.train, split.validation, nullptr);

  Rng rng(config.seed);
  MscnModel untrained(featurizer.dims(), config, &rng);
  untrained.set_normalizer(trained.normalizer());

  const double trained_error =
      trainer.EvaluateMeanQError(&trained, split.validation);
  const double untrained_error =
      trainer.EvaluateMeanQError(&untrained, split.validation);
  EXPECT_LT(trained_error, untrained_error / 2.0);
}

TEST_F(TrainingTest, LossObjectivesAllTrain) {
  // Section 4.8: all three objectives must optimize without blowing up.
  for (LossKind loss :
       {LossKind::kMeanQError, LossKind::kGeoQError, LossKind::kMse}) {
    MscnConfig config = SmallConfig();
    config.epochs = 10;
    config.loss = loss;
    const Featurizer featurizer(db_, config.variant,
                                samples_->sample_size());
    Trainer trainer(&featurizer, config);
    const TrainValSplit split = SplitWorkload(*workload_, 0.1, 3);
    TrainingHistory history;
    MscnModel model = trainer.Train(split.train, split.validation, &history);
    const double final_error = history.epochs.back().validation_mean_qerror;
    EXPECT_TRUE(std::isfinite(final_error)) << LossKindName(loss);
    EXPECT_LT(final_error, 200.0) << LossKindName(loss);
  }
}

TEST_F(TrainingTest, EstimatorMatchesBatchedPrediction) {
  MscnConfig config = SmallConfig();
  config.epochs = 6;
  const Featurizer featurizer(db_, config.variant, samples_->sample_size());
  Trainer trainer(&featurizer, config);
  const TrainValSplit split = SplitWorkload(*workload_, 0.1, 13);
  MscnModel model = trainer.Train(split.train, split.validation, nullptr);

  MscnEstimator estimator(&featurizer, &model);
  EXPECT_EQ(estimator.name(), "MSCN");
  const std::vector<double> batched =
      estimator.EstimateAll(split.validation, 32);
  for (size_t i = 0; i < std::min<size_t>(split.validation.size(), 20);
       ++i) {
    EXPECT_NEAR(estimator.Estimate(*split.validation[i]), batched[i],
                std::max(1.0, batched[i]) * 1e-4);
  }
}

TEST_F(TrainingTest, ModelSerializationPreservesPredictions) {
  MscnConfig config = SmallConfig();
  config.epochs = 6;
  const Featurizer featurizer(db_, config.variant, samples_->sample_size());
  Trainer trainer(&featurizer, config);
  const TrainValSplit split = SplitWorkload(*workload_, 0.1, 29);
  MscnModel model = trainer.Train(split.train, split.validation, nullptr);

  const std::string path = testing::TempDir() + "/lc_mscn_model.bin";
  ASSERT_TRUE(model.SaveToFile(path).ok());
  auto loaded = MscnModel::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_TRUE(RemoveFile(path).ok());

  EXPECT_TRUE(loaded->dims() == model.dims());
  EXPECT_EQ(loaded->ByteSize(), model.ByteSize());
  EXPECT_DOUBLE_EQ(loaded->normalizer().min_log(),
                   model.normalizer().min_log());

  const MscnBatch batch =
      featurizer.MakeBatch(split.validation, nullptr);
  const std::vector<double> expected = model.Predict(batch);
  const std::vector<double> actual = loaded->Predict(batch);
  ASSERT_EQ(expected.size(), actual.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_DOUBLE_EQ(expected[i], actual[i]);
  }
}

// Serialized length of an output MLP of the given hidden width: the tail
// of a model buffer, since the output MLP is written last.
size_t OutputMlpBytes(int64_t hidden) {
  Rng rng(3);
  const TwoLayerMlp mlp(3 * hidden, hidden, 1, OutputActivation::kSigmoid,
                        &rng);
  BinaryWriter writer;
  mlp.Save(&writer);
  return writer.buffer().size();
}

TEST_F(TrainingTest, ModelRejectsCorruptFiles) {
  MscnConfig config = SmallConfig();
  const Featurizer featurizer(db_, config.variant, samples_->sample_size());
  Rng rng(1);
  MscnModel model(featurizer.dims(), config, &rng);
  model.set_normalizer(TargetNormalizer(0.0, 5.0));
  std::string bytes = model.ToBytes();
  bytes[0] = 'X';
  EXPECT_FALSE(MscnModel::FromBytes(bytes).ok());
  bytes = model.ToBytes();
  bytes.resize(bytes.size() / 2);
  EXPECT_FALSE(MscnModel::FromBytes(bytes).ok());

  // Crafted buffers whose every layer is self-consistent but which do not
  // form an MSCN: each must be rejected as Corruption, not load and then
  // abort in the first forward pass or estimate NaN.
  std::vector<std::string> crafted;
  // A hidden-8 model with a hidden-16 model's output MLP spliced in: the
  // output MLP expects 48 pooled inputs where the set modules produce 24.
  config.hidden_units = 8;
  const std::string narrow =
      MscnModel(featurizer.dims(), config, &rng).ToBytes();
  config.hidden_units = 16;
  const std::string wide =
      MscnModel(featurizer.dims(), config, &rng).ToBytes();
  ASSERT_TRUE(MscnModel::FromBytes(narrow).ok());
  crafted.push_back(narrow.substr(0, narrow.size() - OutputMlpBytes(8)) +
                    wide.substr(wide.size() - OutputMlpBytes(16)));
  // Normalizer bounds of -inf/+inf: ordered, yet Denormalize(0.5) would be
  // exp(inf - inf) = NaN. The two doubles follow magic, version, variant,
  // hidden units, the three feature dims and the sample bit count.
  constexpr size_t kNormalizerOffset = 4 + 4 + 1 + 8 + 3 * 8 + 8;
  bytes = model.ToBytes();
  double stored[2] = {0.0, 0.0};
  std::memcpy(stored, bytes.data() + kNormalizerOffset, sizeof(stored));
  ASSERT_EQ(stored[0], 0.0);
  ASSERT_EQ(stored[1], 5.0);
  const double infinite[2] = {-INFINITY, INFINITY};
  std::memcpy(bytes.data() + kNormalizerOffset, infinite, sizeof(infinite));
  crafted.push_back(bytes);
  for (size_t i = 0; i < crafted.size(); ++i) {
    const auto loaded = MscnModel::FromBytes(crafted[i]);
    EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption)
        << "crafted buffer " << i;
  }
}

TEST_F(TrainingTest, ModelRejectsHiddenUnitsOutsideInt32) {
  MscnConfig config = SmallConfig();
  config.hidden_units = 64;
  const Featurizer featurizer(db_, config.variant, samples_->sample_size());
  Rng rng(1);
  MscnModel model(featurizer.dims(), config, &rng);
  model.set_normalizer(TargetNormalizer(0.0, 5.0));
  const std::string bytes = model.ToBytes();
  ASSERT_TRUE(MscnModel::FromBytes(bytes).ok());
  // hidden_units is the int64 after magic, version and the variant byte.
  constexpr size_t kHiddenOffset = 4 + 4 + 1;
  int64_t stored = 0;
  std::memcpy(&stored, bytes.data() + kHiddenOffset, sizeof(stored));
  ASSERT_EQ(stored, config.hidden_units);
  // 2^32 + 64 narrows to the real 64 under a plain int cast, so without
  // the range check this model would load.
  for (const int64_t hidden :
       {(int64_t{1} << 32) + 64, int64_t{0}, int64_t{-64}}) {
    std::string patched = bytes;
    std::memcpy(patched.data() + kHiddenOffset, &hidden, sizeof(hidden));
    const auto loaded = MscnModel::FromBytes(patched);
    ASSERT_FALSE(loaded.ok()) << hidden;
    EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption) << hidden;
  }
}

TEST_F(TrainingTest, ByteSizeMatchesParameterCount) {
  MscnConfig config = SmallConfig();
  const Featurizer featurizer(db_, config.variant, samples_->sample_size());
  Rng rng(2);
  MscnModel model(featurizer.dims(), config, &rng);
  size_t parameter_floats = 0;
  for (Parameter* parameter : model.parameters()) {
    parameter_floats += static_cast<size_t>(parameter->value.size());
  }
  EXPECT_EQ(model.ByteSize(), parameter_floats * sizeof(float));
}

TEST_F(TrainingTest, GeneralizesToUnseenQueriesOfSameDistribution) {
  // Train on the first 700 queries, evaluate on the remaining 200 (never
  // seen): median q-error should be far better than the untrained model and
  // in a usable range.
  MscnConfig config = SmallConfig();
  const Featurizer featurizer(db_, config.variant, samples_->sample_size());
  Trainer trainer(&featurizer, config);

  std::vector<const LabeledQuery*> train;
  std::vector<const LabeledQuery*> held_out;
  for (size_t i = 0; i < workload_->size(); ++i) {
    (i < 700 ? train : held_out).push_back(&workload_->queries[i]);
  }
  MscnModel model = trainer.Train(train, {}, nullptr);
  MscnEstimator estimator(&featurizer, &model);
  const std::vector<double> estimates = estimator.EstimateAll(held_out, 64);
  std::vector<double> qerrors;
  for (size_t i = 0; i < held_out.size(); ++i) {
    qerrors.push_back(
        QError(estimates[i], static_cast<double>(held_out[i]->cardinality)));
  }
  EXPECT_LT(Quantile(qerrors, 0.5), 5.0);
}

}  // namespace
}  // namespace lc
