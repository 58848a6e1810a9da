// Report helpers.

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "eval/report.h"

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

}  // namespace
}  // namespace lc
