#include "gbt/objective.h"

#include <gtest/gtest.h>

#include <cmath>

namespace mysawh::gbt {
namespace {

/// Numeric first derivative of the analytic loss to check gradients.
double NumericGrad(double label, double raw, double (*loss)(double, double)) {
  const double h = 1e-6;
  return (loss(label, raw + h) - loss(label, raw - h)) / (2 * h);
}

double SquaredLoss(double y, double f) { return 0.5 * (y - f) * (y - f); }

double LogisticLoss(double y, double f) {
  // log(1 + exp(-yf)) with y in {0,1} written via cross-entropy.
  const double p = 1.0 / (1.0 + std::exp(-f));
  return -(y * std::log(p) + (1 - y) * std::log(1 - p));
}

double PseudoHuberLoss(double y, double f) {
  const double r = f - y;
  return std::sqrt(1.0 + r * r) - 1.0;
}

/// The objective's derivatives at one sample.
GradientPair GradientAt(const Objective& objective, double label,
                        double raw) {
  GradientPair gp;
  objective.ComputeGradients(&label, &raw, 1, &gp);
  return gp;
}

class GradientCheckTest : public ::testing::TestWithParam<double> {};

TEST_P(GradientCheckTest, SquaredErrorMatchesNumeric) {
  const auto objective = MakeObjective(ObjectiveType::kSquaredError);
  const double raw = GetParam();
  for (double label : {-2.0, 0.0, 0.7, 3.0}) {
    const GradientPair gp = GradientAt(*objective, label, raw);
    EXPECT_NEAR(gp.grad, NumericGrad(label, raw, SquaredLoss),
                1e-4);
    EXPECT_DOUBLE_EQ(gp.hess, 1.0);
  }
}

TEST_P(GradientCheckTest, LogisticMatchesNumeric) {
  const auto objective = MakeObjective(ObjectiveType::kLogistic);
  const double raw = GetParam();
  for (double label : {0.0, 1.0}) {
    const GradientPair gp = GradientAt(*objective, label, raw);
    EXPECT_NEAR(gp.grad, NumericGrad(label, raw, LogisticLoss),
                1e-4);
    EXPECT_GT(gp.hess, 0.0);
  }
}

TEST_P(GradientCheckTest, PseudoHuberMatchesNumeric) {
  const auto objective = MakeObjective(ObjectiveType::kPseudoHuber);
  const double raw = GetParam();
  for (double label : {-1.0, 0.0, 2.5}) {
    const GradientPair gp = GradientAt(*objective, label, raw);
    EXPECT_NEAR(gp.grad, NumericGrad(label, raw, PseudoHuberLoss),
                1e-4);
    EXPECT_GT(gp.hess, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(RawScores, GradientCheckTest,
                         ::testing::Values(-3.0, -0.5, 0.0, 0.5, 3.0));

TEST(ObjectiveTest, LogisticTransformIsSigmoid) {
  const auto objective = MakeObjective(ObjectiveType::kLogistic);
  EXPECT_NEAR(objective->Transform(0.0), 0.5, 1e-12);
  EXPECT_NEAR(objective->Transform(100.0), 1.0, 1e-9);
  EXPECT_NEAR(objective->InverseTransform(0.5), 0.0, 1e-12);
  EXPECT_NEAR(objective->InverseTransform(objective->Transform(1.7)), 1.7,
              1e-9);
}

TEST(ObjectiveTest, InitialPredictionMatchesLabelMean) {
  const auto squared = MakeObjective(ObjectiveType::kSquaredError);
  EXPECT_DOUBLE_EQ(squared->InitialRawPrediction({1.0, 2.0, 3.0}), 2.0);
  EXPECT_DOUBLE_EQ(squared->InitialRawPrediction({}), 0.0);
  const auto logistic = MakeObjective(ObjectiveType::kLogistic);
  // Base rate 0.25 -> logit(0.25).
  EXPECT_NEAR(logistic->InitialRawPrediction({0, 0, 0, 1}),
              std::log(0.25 / 0.75), 1e-9);
}

TEST(ObjectiveTest, LabelValidation) {
  const auto logistic = MakeObjective(ObjectiveType::kLogistic);
  EXPECT_TRUE(logistic->ValidateLabels({0, 1, 1, 0}).ok());
  EXPECT_FALSE(logistic->ValidateLabels({0, 0.5}).ok());
  const auto squared = MakeObjective(ObjectiveType::kSquaredError);
  EXPECT_TRUE(squared->ValidateLabels({-5, 100}).ok());
  EXPECT_FALSE(squared->ValidateLabels({std::nan("")}).ok());
}

TEST(ObjectiveTest, DefaultMetrics) {
  const auto squared = MakeObjective(ObjectiveType::kSquaredError);
  EXPECT_STREQ(squared->DefaultMetricName(), "rmse");
  EXPECT_NEAR(squared->EvalDefaultMetric({1, 2}, {2, 2}),
              std::sqrt(0.5), 1e-12);
  const auto logistic = MakeObjective(ObjectiveType::kLogistic);
  EXPECT_STREQ(logistic->DefaultMetricName(), "logloss");
  EXPECT_NEAR(logistic->EvalDefaultMetric({1.0}, {0.5}), std::log(2.0),
              1e-9);
}

double PoissonLoss(double y, double f) {
  // Negative log-likelihood up to constants: exp(f) - y * f.
  return std::exp(f) - y * f;
}

TEST(ObjectiveTest, PoissonGradientsMatchNumeric) {
  const auto objective = MakeObjective(ObjectiveType::kPoisson);
  for (double raw : {-1.0, 0.0, 1.5}) {
    for (double label : {0.0, 1.0, 7.0}) {
      const GradientPair gp = GradientAt(*objective, label, raw);
      EXPECT_NEAR(gp.grad, NumericGrad(label, raw, PoissonLoss), 1e-4);
      EXPECT_GT(gp.hess, 0.0);
    }
  }
}

TEST(ObjectiveTest, BatchGradientsMatchPerSample) {
  const double labels[] = {0.0, 1.0, 1.0, 0.0, 3.0, 0.0, 1.0};
  const double raw[] = {-40.0, -1.5, 0.0, 0.25, 2.0, 35.0, 800.0};
  constexpr int64_t kRows = 7;
  for (const ObjectiveType type :
       {ObjectiveType::kSquaredError, ObjectiveType::kLogistic,
        ObjectiveType::kPseudoHuber, ObjectiveType::kPoisson}) {
    SCOPED_TRACE(ObjectiveTypeName(type));
    const auto objective = MakeObjective(type);
    GradientPair batch[kRows];
    objective->ComputeGradients(labels, raw, kRows, batch);
    for (int64_t i = 0; i < kRows; ++i) {
      const GradientPair one = GradientAt(*objective, labels[i], raw[i]);
      EXPECT_EQ(batch[i].grad, one.grad) << "row " << i;
      EXPECT_EQ(batch[i].hess, one.hess) << "row " << i;
    }
  }
}

TEST(ObjectiveTest, PoissonTransformAndLabels) {
  const auto objective = MakeObjective(ObjectiveType::kPoisson);
  EXPECT_NEAR(objective->Transform(0.0), 1.0, 1e-12);
  EXPECT_NEAR(objective->InverseTransform(objective->Transform(1.3)), 1.3,
              1e-9);
  EXPECT_TRUE(objective->ValidateLabels({0, 3, 12}).ok());
  EXPECT_FALSE(objective->ValidateLabels({-1}).ok());
  // Base score for counts is log of the mean.
  EXPECT_NEAR(objective->InitialRawPrediction({2, 4}), std::log(3.0), 1e-9);
  EXPECT_STREQ(objective->DefaultMetricName(), "poisson-dev");
  // Deviance is zero at a perfect fit.
  EXPECT_NEAR(objective->EvalDefaultMetric({3.0}, {3.0}), 0.0, 1e-9);
  EXPECT_GT(objective->EvalDefaultMetric({3.0}, {1.0}), 0.0);
}

TEST(ObjectiveTest, ParseNames) {
  EXPECT_EQ(ParseObjectiveType("reg:squarederror").value(),
            ObjectiveType::kSquaredError);
  EXPECT_EQ(ParseObjectiveType("binary:logistic").value(),
            ObjectiveType::kLogistic);
  EXPECT_EQ(ParseObjectiveType("reg:pseudohuber").value(),
            ObjectiveType::kPseudoHuber);
  EXPECT_FALSE(ParseObjectiveType("bogus").ok());
  EXPECT_STREQ(ObjectiveTypeName(ObjectiveType::kLogistic),
               "binary:logistic");
}

}  // namespace
}  // namespace mysawh::gbt
