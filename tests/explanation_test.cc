#include "explain/explanation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "gbt/tree.h"
#include "util/rng.h"
#include "util/serialization.h"
#include "util/trace.h"

namespace mysawh::explain {
namespace {

using gbt::GbtModel;
using gbt::GbtParams;
using gbt::ObjectiveType;
using gbt::RegressionTree;

/// Strong effect on "big", weak on "small", none on "none"; "step" has a
/// sharp threshold at 3 on a 1..10 ordinal scale (Fig 7-style).
Dataset MakeData(int64_t n, uint64_t seed) {
  Rng rng(seed);
  Dataset ds = Dataset::Create({"big", "small", "none", "step"});
  for (int64_t i = 0; i < n; ++i) {
    const double big = rng.Uniform(-1, 1);
    const double small = rng.Uniform(-1, 1);
    const double none = rng.Uniform(-1, 1);
    const double step = static_cast<double>(rng.UniformInt(1, 10));
    const double y = 4.0 * big + 0.4 * small + (step < 3.0 ? 1.0 : -1.0) +
                     rng.Normal(0, 0.02);
    EXPECT_TRUE(ds.AddRow({big, small, none, step}, y).ok());
  }
  return ds;
}

GbtModel TrainModel(const Dataset& train) {
  GbtParams params;
  params.num_trees = 80;
  params.learning_rate = 0.1;
  return GbtModel::Train(train, params).value();
}

/// A model over `names` made of the given trees, through the model file
/// format (so it is validated and compiled like a loaded model).
GbtModel ModelFromTrees(const std::vector<std::string>& names,
                        const std::vector<RegressionTree>& trees,
                        ObjectiveType objective, double base_score) {
  std::string text = "mysawh-gbt v1\nobjective ";
  text += gbt::ObjectiveTypeName(objective);
  text += "\nbase_score " + EncodeDouble(base_score) + "\nbest_iteration 0\n";
  text += "num_features " + std::to_string(names.size()) + "\n";
  for (const std::string& name : names) text += "feature " + name + "\n";
  text += "num_trees " + std::to_string(trees.size()) + "\n";
  for (const RegressionTree& tree : trees) {
    text += "tree " + std::to_string(tree.num_nodes()) + "\n";
    for (int i = 0; i < tree.num_nodes(); ++i) {
      text += gbt::TreeNodeToText(tree.node(i)) + "\n";
    }
  }
  GbtModel model = GbtModel::Deserialize(text).value();
  EXPECT_NE(model.flat_forest(), nullptr);
  return model;
}

/// One split on `feature` at 0 (missing goes left) with equal covers, so
/// the tree's expectation is the mean of its two leaves.
RegressionTree Stump(int feature, double left_value, double right_value) {
  RegressionTree tree;
  tree.mutable_node(0)->cover = 100.0;
  const auto [left, right] = tree.Split(0, feature, 0.0,
                                        /*default_left=*/true, /*gain=*/1.0);
  tree.mutable_node(left)->cover = 50.0;
  tree.mutable_node(left)->value = left_value;
  tree.mutable_node(right)->cover = 50.0;
  tree.mutable_node(right)->value = right_value;
  return tree;
}

/// The ranking ExplainRow has always promised: |shap| descending, then
/// feature name ascending.
bool OldRankOrder(const FeatureContribution& a, const FeatureContribution& b) {
  if (std::abs(a.shap) != std::abs(b.shap)) {
    return std::abs(a.shap) > std::abs(b.shap);
  }
  return a.feature < b.feature;
}

/// Checks one explanation of `data` row `r` against the model's own per-row
/// walk and transform (bit for bit), against Shap(row), and its ranking
/// against the string comparator.
void ExpectExplanationOfRow(const TreeShap& shap, const Dataset& data,
                            int64_t r, const LocalExplanation& e) {
  const GbtModel& model = shap.model();
  const double* x = data.row(r);
  EXPECT_EQ(e.raw_prediction, model.PredictRowRaw(x)) << "row " << r;
  EXPECT_EQ(e.prediction, model.PredictRow(x)) << "row " << r;
  EXPECT_EQ(e.expected_value, shap.expected_value());
  const std::vector<double> phi = shap.Shap(x);
  ASSERT_EQ(e.contributions.size(), phi.size());
  for (const FeatureContribution& c : e.contributions) {
    const auto f = static_cast<size_t>(data.FeatureIndex(c.feature).value());
    EXPECT_EQ(c.shap, phi[f]) << c.feature;
    EXPECT_EQ(std::isnan(c.value), std::isnan(x[f])) << c.feature;
    if (!std::isnan(x[f])) {
      EXPECT_EQ(c.value, x[f]) << c.feature;
    }
  }
  std::vector<FeatureContribution> ranked = e.contributions;
  std::sort(ranked.begin(), ranked.end(), OldRankOrder);
  for (size_t i = 0; i < ranked.size(); ++i) {
    EXPECT_EQ(e.contributions[i].feature, ranked[i].feature)
        << "row " << r << " rank " << i;
  }
}

size_t TableBuilds() {
  size_t builds = 0;
  for (const TraceEvent& event : Tracer::Global().Snapshot()) {
    builds += event.name == "shap.tables" ? 1 : 0;
  }
  return builds;
}

/// ExplainRow on both TreeSHAP paths: a fresh TreeShap serves its first row
/// on the reference recursion (no table build is traced), and after a
/// warming ShapBatch (which builds the tables) every row replays them.
void ExpectExplainRowOnBothPaths(const GbtModel& model, const Dataset& data) {
  const TreeShap shap(&model);
  Tracer::Global().Enable();
  const LocalExplanation first = ExplainRow(shap, data, 0).value();
  EXPECT_EQ(TableBuilds(), 0u);
  ASSERT_TRUE(shap.ShapBatch(data).ok());
  EXPECT_EQ(TableBuilds(), 1u);
  Tracer::Global().Disable();
  ExpectExplanationOfRow(shap, data, 0, first);
  for (int64_t r = 0; r < data.num_rows(); ++r) {
    ExpectExplanationOfRow(shap, data, r, ExplainRow(shap, data, r).value());
  }
}

void ExpectSameExplanation(const LocalExplanation& a,
                           const LocalExplanation& b) {
  EXPECT_EQ(a.prediction, b.prediction);
  EXPECT_EQ(a.raw_prediction, b.raw_prediction);
  EXPECT_EQ(a.expected_value, b.expected_value);
  ASSERT_EQ(a.contributions.size(), b.contributions.size());
  for (size_t i = 0; i < a.contributions.size(); ++i) {
    EXPECT_EQ(a.contributions[i].feature, b.contributions[i].feature) << i;
    EXPECT_EQ(a.contributions[i].shap, b.contributions[i].shap) << i;
  }
}

TEST(ExplanationTest, LocalExplanationRanksByMagnitude) {
  const Dataset data = MakeData(1500, 1);
  const GbtModel model = TrainModel(data);
  const TreeShap shap(&model);
  const auto explanation = ExplainRow(shap, data, 0).value();
  ASSERT_EQ(explanation.contributions.size(), 4u);
  for (size_t i = 1; i < explanation.contributions.size(); ++i) {
    EXPECT_GE(std::abs(explanation.contributions[i - 1].shap),
              std::abs(explanation.contributions[i].shap));
  }
  // Local accuracy carried through the report.
  double total = explanation.expected_value;
  for (const auto& c : explanation.contributions) total += c.shap;
  EXPECT_NEAR(total, explanation.raw_prediction, 1e-6);
}

TEST(ExplanationTest, TopKTruncates) {
  const Dataset data = MakeData(500, 2);
  const GbtModel model = TrainModel(data);
  const TreeShap shap(&model);
  const auto explanation = ExplainRow(shap, data, 3).value();
  EXPECT_EQ(explanation.Top(2).size(), 2u);
  EXPECT_EQ(explanation.Top(100).size(), 4u);
  EXPECT_TRUE(explanation.Top(0).empty());
  const std::string rendered = explanation.ToString(3);
  EXPECT_NE(rendered.find("prediction="), std::string::npos);
}

TEST(ExplanationTest, ExplainRowValidatesArguments) {
  const Dataset data = MakeData(100, 3);
  const GbtModel model = TrainModel(data);
  const TreeShap shap(&model);
  EXPECT_FALSE(ExplainRow(shap, data, -1).ok());
  EXPECT_FALSE(ExplainRow(shap, data, data.num_rows()).ok());
  Dataset narrow = Dataset::Create({"x"});
  ASSERT_TRUE(narrow.AddRow({0.0}, 0.0).ok());
  EXPECT_FALSE(ExplainRow(shap, narrow, 0).ok());
}

TEST(ExplanationTest, GlobalImportanceOrdersFeatures) {
  const Dataset data = MakeData(1200, 4);
  const GbtModel model = TrainModel(data);
  const TreeShap shap(&model);
  const Dataset probe = MakeData(200, 5);
  const auto importance = ComputeGlobalImportance(shap, probe).value();
  ASSERT_EQ(importance.features.size(), 4u);
  EXPECT_EQ(importance.features.front(), "big");
  // Mean |SHAP| sorted descending.
  for (size_t i = 1; i < importance.mean_abs_shap.size(); ++i) {
    EXPECT_GE(importance.mean_abs_shap[i - 1], importance.mean_abs_shap[i]);
  }
  // The pure-noise feature ranks last (or ties at ~0).
  EXPECT_LT(importance.mean_abs_shap.back(), 0.1);
}

TEST(ExplanationTest, DependenceCurveRecoversStepThreshold) {
  const Dataset data = MakeData(2500, 6);
  const GbtModel model = TrainModel(data);
  const TreeShap shap(&model);
  const auto curve = ComputeDependenceCurve(shap, data, "step").value();
  EXPECT_EQ(curve.feature, "step");
  EXPECT_EQ(curve.values.size(), curve.shap_values.size());
  ASSERT_EQ(curve.distinct_values.size(), 10u);  // ordinal 1..10
  ASSERT_TRUE(curve.has_threshold);
  // The generating step is at 3 (answers < 3 get the bonus); the recovered
  // boundary must fall between 2 and 3.
  EXPECT_NEAR(curve.recovered_threshold, 2.5, 0.51);
  // Mean SHAP positive below the cutoff, negative above.
  EXPECT_GT(curve.mean_shap.front(), 0.0);
  EXPECT_LT(curve.mean_shap.back(), 0.0);
}

TEST(ExplanationTest, DependenceCurveUnknownFeatureFails) {
  const Dataset data = MakeData(100, 7);
  const GbtModel model = TrainModel(data);
  const TreeShap shap(&model);
  EXPECT_FALSE(ComputeDependenceCurve(shap, data, "nope").ok());
}

TEST(ExplanationTest, ShapSummaryDirectionsAndOrdering) {
  const Dataset data = MakeData(1200, 9);
  const GbtModel model = TrainModel(data);
  const TreeShap shap(&model);
  const auto summary = ComputeShapSummary(shap, data).value();
  ASSERT_EQ(summary.features.size(), 4u);
  EXPECT_EQ(summary.features.front(), "big");
  // "big" has a positive effect: larger value -> larger prediction.
  EXPECT_GT(summary.direction.front(), 0.6);
  // Importances are sorted descending.
  for (size_t i = 1; i < summary.mean_abs_shap.size(); ++i) {
    EXPECT_GE(summary.mean_abs_shap[i - 1], summary.mean_abs_shap[i]);
  }
  const std::string rendered = RenderShapSummary(summary, 3);
  EXPECT_NE(rendered.find("big"), std::string::npos);
  EXPECT_NE(rendered.find('#'), std::string::npos);
  // Top-3 rendering omits the 4th feature.
  EXPECT_EQ(rendered.find(summary.features[3]), std::string::npos);
}

TEST(ExplanationTest, DependenceCurveWithoutSignChangeHasNoThreshold) {
  // Monotone positive contribution that never crosses zero by construction:
  // model of a feature with strictly positive association and centered data
  // will cross; instead build a constant-label model with no splits.
  Rng rng(8);
  Dataset flat = Dataset::Create({"x"});
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(flat.AddRow({rng.Uniform(0, 1)}, 1.0).ok());
  }
  GbtParams params;
  params.num_trees = 5;
  const GbtModel model = GbtModel::Train(flat, params).value();
  const TreeShap shap(&model);
  const auto curve = ComputeDependenceCurve(shap, flat, "x").value();
  EXPECT_FALSE(curve.has_threshold);
  EXPECT_TRUE(std::isnan(curve.recovered_threshold));
}

TEST(ExplanationTest, ExplainRowMatchesModelOnBothPathsSquaredError) {
  const Dataset data = MakeData(400, 12);
  ExpectExplainRowOnBothPaths(TrainModel(data), data);
}

TEST(ExplanationTest, ExplainRowMatchesModelOnBothPathsLogistic) {
  Rng rng(13);
  Dataset data = Dataset::Create({"big", "small", "none", "step"});
  for (int64_t i = 0; i < 400; ++i) {
    const double big = rng.Uniform(-1, 1);
    const double small = i % 7 == 0 ? std::nan("") : rng.Uniform(-1, 1);
    const double none = rng.Uniform(-1, 1);
    const double step = static_cast<double>(rng.UniformInt(1, 10));
    const double margin = 3.0 * big + small * 0.5 + (step < 3.0 ? 1.0 : -1.0);
    const double y =
        rng.Uniform(0, 1) < 1.0 / (1.0 + std::exp(-margin)) ? 1.0 : 0.0;
    ASSERT_TRUE(data.AddRow({big, small, none, step}, y).ok());
  }
  GbtParams params;
  params.objective = ObjectiveType::kLogistic;
  params.num_trees = 60;
  const GbtModel model = GbtModel::Train(data, params).value();
  ExpectExplainRowOnBothPaths(model, data);
}

TEST(ExplanationTest, ExplainRowMatchesModelWithSingleLeafTree) {
  // The middle tree is a lone leaf: its value still enters the margin
  // (the replay pops it as the tree's first and only leaf) but no feature.
  RegressionTree leaf;
  leaf.mutable_node(0)->cover = 100.0;
  leaf.mutable_node(0)->value = 0.375;
  RegressionTree deep = Stump(1, -0.5, 0.25);
  const auto [ll, lr] = deep.Split(1, 0, -0.5, /*default_left=*/false, 1.0);
  deep.mutable_node(ll)->cover = 20.0;
  deep.mutable_node(ll)->value = -0.75;
  deep.mutable_node(lr)->cover = 30.0;
  deep.mutable_node(lr)->value = -0.125;
  const GbtModel model =
      ModelFromTrees({"a", "b"}, {Stump(0, -1.0, 1.5), leaf, deep},
                     ObjectiveType::kSquaredError, 0.3);
  Rng rng(14);
  Dataset data = Dataset::Create({"a", "b"});
  for (int i = 0; i < 40; ++i) {
    const double a = i % 9 == 0 ? std::nan("") : rng.Uniform(-1, 1);
    const double b = i % 11 == 0 ? std::nan("") : rng.Uniform(-1, 1);
    ASSERT_TRUE(data.AddRow({a, b}, 0.0).ok());
  }
  ExpectExplainRowOnBothPaths(model, data);
}

TEST(ExplanationTest, RankingBreaksTiesByNameNotColumn) {
  // Names out of column order; "zeta" and "alpha" get SHAP values of
  // equal magnitude and "mid"/"omega" none at all.
  const std::vector<std::string> names = {"zeta", "mid", "alpha", "beta",
                                          "omega"};
  const GbtModel model = ModelFromTrees(
      names, {Stump(0, -1.0, 1.0), Stump(2, -1.0, 1.0), Stump(3, -0.25, 0.25)},
      ObjectiveType::kSquaredError, 0.0);
  Dataset data = Dataset::Create(names);
  ASSERT_TRUE(data.AddRow({0.5, 0.0, -0.5, 0.5, 0.0}, 0.0).ok());
  ASSERT_TRUE(data.AddRow({-0.5, 1.0, 0.5, -0.5, 1.0}, 0.0).ok());
  Rng rng(17);
  for (int i = 0; i < 30; ++i) {
    // Values on the split points' sides only, so every |shap| is a tie
    // class of the stumps' leaf values.
    std::vector<double> row;
    for (size_t f = 0; f < names.size(); ++f) {
      row.push_back(rng.Bernoulli(0.5) ? 0.5 : -0.5);
    }
    ASSERT_TRUE(data.AddRow(row, 0.0).ok());
  }
  const TreeShap shap(&model);
  for (int64_t r = 0; r < 2; ++r) {
    const LocalExplanation e = ExplainRow(shap, data, r).value();
    std::vector<std::string> order;
    for (const FeatureContribution& c : e.contributions) {
      order.push_back(c.feature);
    }
    EXPECT_EQ(order, (std::vector<std::string>{"alpha", "zeta", "beta", "mid",
                                               "omega"}));
    EXPECT_EQ(std::abs(e.contributions[0].shap), 1.0);
    EXPECT_EQ(std::abs(e.contributions[1].shap), 1.0);
    EXPECT_EQ(e.contributions[3].shap, 0.0);
    ExpectExplanationOfRow(shap, data, r, e);
  }
  ExpectExplainRowOnBothPaths(model, data);
}

TEST(ExplanationTest, RankingMatchesStringComparatorOnTrainedModel) {
  // Reversed names put name order against column order on every tie.
  const Dataset base = MakeData(300, 15);
  Dataset data = Dataset::Create({"z_big", "y_small", "x_none", "w_step"});
  for (int64_t r = 0; r < base.num_rows(); ++r) {
    const double* x = base.row(r);
    ASSERT_TRUE(data.AddRow({x[0], x[1], x[2], x[3]}, base.label(r)).ok());
  }
  ExpectExplainRowOnBothPaths(TrainModel(data), data);
}

TEST(ExplanationTest, ConcurrentExplainRowMatchesSequential) {
  // Four threads explain rows on one fresh TreeShap, so the call that
  // makes the tables pay (and builds them) races with reference-path and
  // replay calls. Every explanation equals a sequential one.
  const Dataset data = MakeData(600, 16);
  GbtParams params;
  params.num_trees = 40;
  params.max_depth = 4;
  const GbtModel model = GbtModel::Train(data, params).value();
  constexpr int64_t kRows = 48;  // 4 x 48 rows pass the <= 32-row threshold
  std::vector<LocalExplanation> sequential;
  {
    const TreeShap shap(&model);
    for (int64_t r = 0; r < kRows; ++r) {
      sequential.push_back(ExplainRow(shap, data, r).value());
    }
  }
  const TreeShap shared(&model);
  std::vector<std::vector<LocalExplanation>> got(4);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < got.size(); ++t) {
    threads.emplace_back([&, t] {
      for (int64_t i = 0; i < kRows; ++i) {
        const int64_t r = (i + static_cast<int64_t>(t) * 12) % kRows;
        got[t].push_back(ExplainRow(shared, data, r).value());
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t t = 0; t < got.size(); ++t) {
    for (int64_t i = 0; i < kRows; ++i) {
      const int64_t r = (i + static_cast<int64_t>(t) * 12) % kRows;
      ExpectSameExplanation(got[t][static_cast<size_t>(i)],
                            sequential[static_cast<size_t>(r)]);
    }
  }
}

}  // namespace
}  // namespace mysawh::explain
