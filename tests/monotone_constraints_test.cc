#include <gtest/gtest.h>

#include <cmath>

#include "gbt/gbt_model.h"
#include "util/rng.h"

namespace mysawh::gbt {
namespace {

/// Noisy mostly-monotone relation in x0 plus a free second feature.
Dataset MakeData(int64_t n, uint64_t seed) {
  Rng rng(seed);
  Dataset ds = Dataset::Create({"x0", "x1"});
  for (int64_t i = 0; i < n; ++i) {
    const double x0 = rng.Uniform(0, 1);
    const double x1 = rng.Uniform(-1, 1);
    // Monotone trend + a local non-monotone wiggle + noise: without a
    // constraint the model happily fits the wiggle.
    const double y = 2.0 * x0 + 0.5 * std::sin(12.0 * x0) + 0.7 * x1 +
                     rng.Normal(0, 0.05);
    EXPECT_TRUE(ds.AddRow({x0, x1}, y).ok());
  }
  return ds;
}

/// Max violation of non-decreasing-ness of the model in feature 0 along a
/// grid, with feature 1 fixed.
double MaxDecrease(const GbtModel& model, double x1) {
  double worst = 0.0;
  double previous = -1e300;
  for (double x0 = 0.0; x0 <= 1.0; x0 += 0.01) {
    const double row[] = {x0, x1};
    const double pred = model.PredictRow(row);
    worst = std::max(worst, previous - pred);
    previous = pred;
  }
  return worst;
}

TEST(MonotoneConstraintsTest, IncreasingConstraintHolds) {
  const Dataset train = MakeData(3000, 1);
  GbtParams params;
  params.num_trees = 80;
  params.monotone_constraints = {+1, 0};
  const GbtModel model = GbtModel::Train(train, params).value();
  for (double x1 : {-0.8, 0.0, 0.8}) {
    EXPECT_LE(MaxDecrease(model, x1), 1e-9) << "x1=" << x1;
  }
}

TEST(MonotoneConstraintsTest, DecreasingConstraintHolds) {
  // Flip the target so the true trend is decreasing.
  Dataset train = MakeData(3000, 2);
  for (int64_t i = 0; i < train.num_rows(); ++i) {
    train.set_label(i, -train.label(i));
  }
  GbtParams params;
  params.num_trees = 80;
  params.monotone_constraints = {-1, 0};
  const GbtModel model = GbtModel::Train(train, params).value();
  // Non-increasing: the negated-decrease check.
  for (double x1 : {-0.5, 0.5}) {
    double previous = 1e300;
    for (double x0 = 0.0; x0 <= 1.0; x0 += 0.01) {
      const double row[] = {x0, x1};
      const double pred = model.PredictRow(row);
      EXPECT_LE(pred, previous + 1e-9);
      previous = pred;
    }
  }
}

TEST(MonotoneConstraintsTest, UnconstrainedModelViolates) {
  // Sanity check that the test data actually tempts the model to be
  // non-monotone, so the constrained tests are meaningful.
  const Dataset train = MakeData(3000, 3);
  GbtParams params;
  params.num_trees = 80;
  const GbtModel model = GbtModel::Train(train, params).value();
  EXPECT_GT(MaxDecrease(model, 0.0), 0.01);
}

TEST(MonotoneConstraintsTest, ConstrainedFitStillTracksTrend) {
  const Dataset train = MakeData(3000, 4);
  GbtParams params;
  params.num_trees = 80;
  params.monotone_constraints = {+1, 0};
  const GbtModel model = GbtModel::Train(train, params).value();
  const double low[] = {0.05, 0.0};
  const double high[] = {0.95, 0.0};
  EXPECT_GT(model.PredictRow(high) - model.PredictRow(low), 1.0);
}

TEST(MonotoneConstraintsTest, ValidatesLengthAndValues) {
  const Dataset train = MakeData(50, 5);
  GbtParams params;
  params.monotone_constraints = {+1};  // wrong length (2 features)
  EXPECT_FALSE(GbtModel::Train(train, params).ok());
  params.monotone_constraints = {+2, 0};
  EXPECT_FALSE(params.Validate().ok());
}

TEST(MonotoneConstraintsTest, ValidatesMaxBinsRange) {
  // Bins are byte cells: 254 is the widest trainable resolution, and
  // anything outside [2, 254] is rejected before training starts.
  GbtParams params;
  params.max_bins = 254;
  EXPECT_TRUE(params.Validate().ok());
  for (int max_bins : {1, 255, 65535}) {
    params.max_bins = max_bins;
    EXPECT_EQ(params.Validate().code(), StatusCode::kInvalidArgument)
        << "max_bins=" << max_bins;
  }
}

TEST(MonotoneConstraintsTest, LogisticObjectiveRespectsConstraint) {
  Rng rng(6);
  Dataset train = Dataset::Create({"risk"});
  for (int i = 0; i < 2000; ++i) {
    const double risk = rng.Uniform(0, 1);
    const double p = 0.1 + 0.75 * risk;
    ASSERT_TRUE(train.AddRow({risk}, rng.Bernoulli(p) ? 1.0 : 0.0).ok());
  }
  GbtParams params;
  params.objective = ObjectiveType::kLogistic;
  params.num_trees = 60;
  params.monotone_constraints = {+1};
  const GbtModel model = GbtModel::Train(train, params).value();
  double previous = -1.0;
  for (double risk = 0.0; risk <= 1.0; risk += 0.02) {
    const double row[] = {risk};
    const double pred = model.PredictRow(row);
    EXPECT_GE(pred, previous - 1e-9);
    previous = pred;
  }
}

}  // namespace
}  // namespace mysawh::gbt
