// Report helpers and the artifact cache.

#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "eval/artifacts.h"
#include "eval/report.h"
#include "util/env.h"
#include "util/file.h"

namespace lc {
namespace {

// A stub estimator returning a constant factor of the truth.
class FactorEstimator : public CardinalityEstimator {
 public:
  explicit FactorEstimator(double factor) : factor_(factor) {}
  std::string name() const override { return "factor"; }
  double Estimate(const LabeledQuery& query) override {
    return factor_ * static_cast<double>(query.cardinality);
  }

 private:
  double factor_;
};

Workload MakeWorkload() {
  Workload workload;
  workload.name = "stub";
  for (int joins : {0, 0, 1, 1, 2}) {
    LabeledQuery labeled;
    labeled.query.tables = {0};
    for (int j = 0; j < joins; ++j) {
      labeled.query.joins.push_back(j);
      labeled.query.tables.push_back(static_cast<TableId>(j + 1));
    }
    labeled.cardinality = 100 * (joins + 1);
    workload.queries.push_back(labeled);
  }
  return workload;
}

TEST(ReportTest, EstimateWorkloadAndQErrors) {
  Workload workload = MakeWorkload();
  FactorEstimator doubled(2.0);
  const std::vector<double> estimates =
      EstimateWorkload(&doubled, workload);
  ASSERT_EQ(estimates.size(), 5u);
  EXPECT_DOUBLE_EQ(estimates[0], 200.0);

  const std::vector<double> qerrors = QErrors(estimates, workload);
  for (double q : qerrors) EXPECT_DOUBLE_EQ(q, 2.0);

  const std::vector<double> signed_qerrors =
      SignedQErrors(estimates, workload);
  for (double q : signed_qerrors) EXPECT_DOUBLE_EQ(q, 2.0);

  FactorEstimator halved(0.5);
  const std::vector<double> under =
      SignedQErrors(EstimateWorkload(&halved, workload), workload);
  for (double q : under) EXPECT_DOUBLE_EQ(q, -2.0);
}

TEST(ReportTest, SubsetSelection) {
  Workload workload = MakeWorkload();
  FactorEstimator exact(1.0);
  const std::vector<double> estimates = EstimateWorkload(&exact, workload);
  const std::vector<double> subset =
      QErrors(estimates, workload, workload.QueriesWithJoins(1));
  EXPECT_EQ(subset.size(), 2u);
}

TEST(ReportTest, BoxSeriesGroupsByJoins) {
  Workload workload = MakeWorkload();
  FactorEstimator doubled(2.0);
  const NamedBoxSeries series = BoxSeriesByJoins(
      "x", EstimateWorkload(&doubled, workload), workload, 4);
  EXPECT_EQ(series.join_counts, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(series.boxes[0].count, 2u);
  EXPECT_DOUBLE_EQ(series.boxes[0].median, 2.0);
}

TEST(ReportTest, PrintersProduceTables) {
  Workload workload = MakeWorkload();
  FactorEstimator doubled(2.0);
  const std::vector<double> estimates = EstimateWorkload(&doubled, workload);

  std::ostringstream table;
  PrintErrorTable(table, "Errors",
                  {{"stub", Summarize(QErrors(estimates, workload))}});
  EXPECT_NE(table.str().find("median"), std::string::npos);
  EXPECT_NE(table.str().find("stub"), std::string::npos);

  std::ostringstream figure;
  PrintBoxplotFigure(figure, "Figure",
                     {BoxSeriesByJoins("stub", estimates, workload, 2)});
  EXPECT_NE(figure.str().find("underestimation"), std::string::npos);

  std::ostringstream distribution;
  PrintJoinDistribution(distribution, {&workload}, 4);
  EXPECT_NE(distribution.str().find("stub"), std::string::npos);
  EXPECT_NE(distribution.str().find("overall"), std::string::npos);
}

TEST(ArtifactCacheTest, WorkloadRoundTripThroughCache) {
  const std::string root = testing::TempDir() + "/lc_cache_test";
  ArtifactCache cache(root);
  ASSERT_TRUE(cache.enabled());
  // Clear leftovers from previous test runs in the shared temp dir.
  ASSERT_TRUE(RemoveFile(cache.PathFor("key-1", "workload")).ok());
  ASSERT_TRUE(RemoveFile(cache.PathFor("key-2", "workload")).ok());

  int builds = 0;
  const auto build = [&builds] {
    ++builds;
    Workload workload = MakeWorkload();
    workload.name = "cached";
    return workload;
  };
  const Workload first = cache.GetWorkload("key-1", build);
  EXPECT_EQ(builds, 1);
  const Workload second = cache.GetWorkload("key-1", build);
  EXPECT_EQ(builds, 1) << "second call must hit the cache";
  EXPECT_EQ(second.name, "cached");
  EXPECT_EQ(second.size(), first.size());
  const Workload third = cache.GetWorkload("key-2", build);
  EXPECT_EQ(builds, 2) << "different key must rebuild";
}

TEST(ArtifactCacheTest, DistinctKeysGetDistinctPaths) {
  ArtifactCache cache(testing::TempDir() + "/lc_cache_test2");
  EXPECT_NE(cache.PathFor("a", "workload"), cache.PathFor("b", "workload"));
  EXPECT_NE(cache.PathFor("a", "workload"), cache.PathFor("a", "model"));
}

TEST(HistorySerializationTest, RoundTrip) {
  TrainingHistory history;
  history.total_seconds = 12.5;
  for (int epoch = 1; epoch <= 3; ++epoch) {
    EpochStats stats;
    stats.epoch = epoch;
    stats.train_loss = 10.0 / epoch;
    stats.validation_mean_qerror = 20.0 / epoch;
    stats.seconds = 0.5;
    history.epochs.push_back(stats);
  }
  const auto loaded = DeserializeHistory(SerializeHistory(history));
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->epochs.size(), 3u);
  EXPECT_DOUBLE_EQ(loaded->total_seconds, 12.5);
  EXPECT_EQ(loaded->epochs[2].epoch, 3);
  EXPECT_DOUBLE_EQ(loaded->epochs[1].validation_mean_qerror, 10.0);
}

TEST(HistorySerializationTest, RejectsGarbage) {
  EXPECT_FALSE(DeserializeHistory("garbage").ok());
}

// A crafted epoch count must be Corruption, not a std::length_error out of
// resize(). An empty history's bytes end with its 8-byte count.
TEST(HistorySerializationTest, RejectsHugeEpochCount) {
  for (const uint64_t count : {uint64_t{1} << 62, ~uint64_t{0}}) {
    std::string bytes = SerializeHistory(TrainingHistory{});
    std::memcpy(&bytes[bytes.size() - sizeof(count)], &count, sizeof(count));
    const auto loaded = DeserializeHistory(bytes);
    ASSERT_FALSE(loaded.ok()) << count;
    EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption) << count;
  }
}

}  // namespace
}  // namespace lc
