#include "explain/tree_shap.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <string>
#include <thread>

#include "gbt/gbt_model.h"
#include "gbt/tree.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/serialization.h"
#include "util/trace.h"

namespace mysawh::explain {
namespace {

using gbt::GbtModel;
using gbt::GbtParams;
using gbt::ObjectiveType;
using gbt::RegressionTree;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

Dataset MakeData(int64_t n, int64_t num_features, uint64_t seed,
                 double missing_prob = 0.0) {
  Rng rng(seed);
  std::vector<std::string> names;
  for (int64_t f = 0; f < num_features; ++f) {
    std::string name = "f";
    name += std::to_string(f);
    names.push_back(std::move(name));
  }
  Dataset ds = Dataset::Create(names);
  for (int64_t i = 0; i < n; ++i) {
    std::vector<double> row(static_cast<size_t>(num_features));
    double y = 0.0;
    for (int64_t f = 0; f < num_features; ++f) {
      double v = rng.Uniform(-1, 1);
      if (missing_prob > 0 && rng.Bernoulli(missing_prob)) v = kNaN;
      row[static_cast<size_t>(f)] = v;
      if (!std::isnan(v)) {
        // Nonlinear multi-feature signal with interactions.
        y += (f % 2 == 0 ? 1.0 : -0.5) * v;
        if (f + 1 < num_features) y += 0.3 * v * (f % 3 == 0 ? 1 : 0);
      }
    }
    if (!std::isnan(row[0])) y += 0.4 * std::sin(3.0 * row[0]);
    EXPECT_TRUE(ds.AddRow(row, y).ok());
  }
  return ds;
}

/// The core SHAP property: phi sums to raw prediction minus expectation.
void ExpectAdditivity(const GbtModel& model, const Dataset& data,
                      double tolerance = 1e-6) {
  const TreeShap shap(&model);
  for (int64_t r = 0; r < data.num_rows(); ++r) {
    const auto phi = shap.Shap(data.row(r));
    const double total =
        std::accumulate(phi.begin(), phi.end(), shap.expected_value());
    EXPECT_NEAR(total, model.PredictRowRaw(data.row(r)), tolerance)
        << "additivity violated at row " << r;
  }
}

/// Per-row Shap and ShapBatch must both equal the reference recursion
/// (ShapBatchReference) bit for bit: an oracle independent of the pattern
/// tables both of them replay.
void ExpectMatchesReference(const TreeShap& shap, const Dataset& probe) {
  const auto reference = shap.ShapBatchReference(probe).value();
  const auto batch = shap.ShapBatch(probe).value();
  ASSERT_EQ(reference.size(), static_cast<size_t>(probe.num_rows()));
  EXPECT_EQ(batch, reference);
  for (int64_t r = 0; r < probe.num_rows(); ++r) {
    EXPECT_EQ(shap.Shap(probe.row(r)), reference[static_cast<size_t>(r)])
        << "row " << r;
  }
}

int64_t TableRows() {
  return MetricsRegistry::Global()
      .GetCounter("shap.batch_table_rows")
      ->Value();
}

TEST(TreeShapTest, SingleSplitTreeMatchesAnalyticValues) {
  // One tree, one split on f0 at 0 with leaf values a (left) and b (right),
  // covers cl and cr. For a row going right:
  //   phi_f0 = b - E[f] = b - (cl*a + cr*b)/(cl+cr).
  Dataset train = Dataset::Create({"f0"});
  Rng rng(3);
  for (int i = 0; i < 400; ++i) {
    const double x = rng.Uniform(-1, 1);
    ASSERT_TRUE(train.AddRow({x}, x < 0 ? -1.0 : 2.0).ok());
  }
  GbtParams params;
  params.num_trees = 1;
  params.learning_rate = 1.0;
  params.max_depth = 1;
  params.reg_lambda = 0.0;
  const GbtModel model = GbtModel::Train(train, params).value();
  ASSERT_EQ(model.trees().size(), 1u);
  const TreeShap shap(&model);
  const double right_row[] = {0.5};
  const auto phi = shap.Shap(right_row);
  ASSERT_EQ(phi.size(), 1u);
  EXPECT_NEAR(phi[0] + shap.expected_value(), model.PredictRowRaw(right_row),
              1e-9);
  // Expectation is between the two leaves, prediction at the right leaf.
  EXPECT_GT(phi[0], 0.0);
  const double left_row[] = {-0.5};
  EXPECT_LT(shap.Shap(left_row)[0], 0.0);
}

TEST(TreeShapTest, AdditivityOnDenseModel) {
  const Dataset train = MakeData(1200, 6, 21);
  GbtParams params;
  params.num_trees = 80;
  params.max_depth = 4;
  const GbtModel model = GbtModel::Train(train, params).value();
  const Dataset probe = MakeData(60, 6, 22);
  ExpectAdditivity(model, probe);
}

TEST(TreeShapTest, AdditivityWithMissingValues) {
  const Dataset train = MakeData(1200, 5, 23, /*missing_prob=*/0.2);
  GbtParams params;
  params.num_trees = 60;
  params.max_depth = 5;
  const GbtModel model = GbtModel::Train(train, params).value();
  const Dataset probe = MakeData(60, 5, 24, /*missing_prob=*/0.3);
  ExpectAdditivity(model, probe);
}

TEST(TreeShapTest, AdditivityLogisticModel) {
  Rng rng(25);
  Dataset train = Dataset::Create({"a", "b", "c"});
  for (int i = 0; i < 1500; ++i) {
    const double a = rng.Uniform(-1, 1);
    const double b = rng.Uniform(-1, 1);
    const double c = rng.Uniform(-1, 1);
    const double label = (a + b * c > 0.1) ? 1.0 : 0.0;
    ASSERT_TRUE(train.AddRow({a, b, c}, label).ok());
  }
  GbtParams params;
  params.objective = ObjectiveType::kLogistic;
  params.num_trees = 60;
  const GbtModel model = GbtModel::Train(train, params).value();
  ExpectAdditivity(model, train.Take({0, 1, 2, 3, 4, 5, 6, 7}).value());
}

TEST(TreeShapTest, DummyFeatureGetsZeroAttribution) {
  // f1 never influences the label; trees should not split on it, so its
  // SHAP value must be exactly zero.
  Rng rng(26);
  Dataset train = Dataset::Create({"signal", "dummy"});
  for (int i = 0; i < 800; ++i) {
    const double s = rng.Uniform(-1, 1);
    ASSERT_TRUE(train.AddRow({s, 0.0}, 2.0 * s).ok());
  }
  GbtParams params;
  params.num_trees = 30;
  const GbtModel model = GbtModel::Train(train, params).value();
  const TreeShap shap(&model);
  const double row[] = {0.7, 0.0};
  const auto phi = shap.Shap(row);
  EXPECT_DOUBLE_EQ(phi[1], 0.0);
  EXPECT_NE(phi[0], 0.0);
}

TEST(TreeShapTest, ExpectedValueMatchesCoverWeightedMean) {
  const Dataset train = MakeData(1000, 4, 27);
  GbtParams params;
  params.num_trees = 40;
  const GbtModel model = GbtModel::Train(train, params).value();
  const TreeShap shap(&model);
  // With full-data training (no subsampling) and squared error (hessian =
  // 1), cover weighting equals row weighting, so the expectation over the
  // training rows approximates expected_value closely.
  const auto raw = model.PredictRaw(train).value();
  const double mean_raw =
      std::accumulate(raw.begin(), raw.end(), 0.0) /
      static_cast<double>(raw.size());
  EXPECT_NEAR(shap.expected_value(), mean_raw, 1e-6);
}

TEST(TreeShapTest, ShapBatchMatchesPerRow) {
  const Dataset train = MakeData(400, 3, 28);
  GbtParams params;
  params.num_trees = 20;
  const GbtModel model = GbtModel::Train(train, params).value();
  const TreeShap shap(&model);
  const Dataset probe = MakeData(10, 3, 29);
  const auto batch = shap.ShapBatch(probe).value();
  ASSERT_EQ(batch.size(), 10u);
  for (int64_t r = 0; r < probe.num_rows(); ++r) {
    EXPECT_EQ(batch[static_cast<size_t>(r)], shap.Shap(probe.row(r)));
  }
}

TEST(TreeShapTest, ShapBatchPatternTablesMatchPerRow) {
  // Deep trees over few features force repeated features on paths (the
  // UnwindPath merge), and 256 probe rows make the pattern tables pay on a
  // fresh TreeShap, so the tables get the exact-equality check against the
  // reference recursion on that branch, missing values included.
  const Dataset train = MakeData(500, 4, 32, /*missing_prob=*/0.15);
  GbtParams params;
  params.num_trees = 15;
  params.max_depth = 5;
  const GbtModel model = GbtModel::Train(train, params).value();
  ASSERT_NE(model.flat_forest(), nullptr);
  const TreeShap shap(&model);
  const Dataset probe = MakeData(256, 4, 33, /*missing_prob=*/0.2);
  const auto batch = shap.ShapBatch(probe).value();
  ASSERT_EQ(batch.size(), 256u);
  for (int64_t r = 0; r < probe.num_rows(); ++r) {
    EXPECT_EQ(batch[static_cast<size_t>(r)], shap.Shap(probe.row(r)));
  }
  ExpectMatchesReference(shap, probe);
}

TEST(TreeShapTest, TreesWiderThanTheReplayWindowMatchReference) {
  // Depth-8 trees hold more leaves than the replay's 64-slice window, so
  // the replay grows its window and per-tree state for them; the values
  // still match the reference recursion bit for bit.
  const Dataset train = MakeData(3000, 6, 40, /*missing_prob=*/0.05);
  GbtParams params;
  params.num_trees = 6;
  params.max_depth = 8;
  const GbtModel model = GbtModel::Train(train, params).value();
  ASSERT_NE(model.flat_forest(), nullptr);
  int widest = 0;
  for (const auto& tree : model.trees()) {
    widest = std::max(widest, tree.num_leaves());
  }
  ASSERT_GT(widest, 64);
  const TreeShap shap(&model);
  const int64_t table_rows = TableRows();
  const Dataset probe = MakeData(600, 6, 41, /*missing_prob=*/0.1);
  ExpectMatchesReference(shap, probe);
  EXPECT_EQ(TableRows() - table_rows, probe.num_rows());
}

TEST(TreeShapTest, StudyShapedModelMatchesReference) {
  // The deployment shape: 300 trees of depth 4 whose splits route missing
  // values both ways (learned default_left), probed with NaNs.
  const Dataset train = MakeData(900, 12, 34, /*missing_prob=*/0.1);
  GbtParams params;
  params.num_trees = 300;
  params.max_depth = 4;
  const GbtModel model = GbtModel::Train(train, params).value();
  ASSERT_NE(model.flat_forest(), nullptr);
  bool nan_left = false, nan_right = false;
  for (const auto& tree : model.trees()) {
    for (int i = 0; i < tree.num_nodes(); ++i) {
      if (tree.node(i).IsLeaf()) continue;
      (tree.node(i).default_left ? nan_left : nan_right) = true;
    }
  }
  ASSERT_TRUE(nan_left && nan_right);
  const TreeShap shap(&model);
  const int64_t table_rows = TableRows();
  ExpectMatchesReference(shap, MakeData(120, 12, 35, /*missing_prob=*/0.2));
  EXPECT_EQ(TableRows() - table_rows, 120);
}

TEST(TreeShapTest, OneShotTreeShapSkipsTheTables) {
  // A TreeShap explaining one row serves it on the reference recursion: the
  // tables are built only once the rows served pay for them, counted across
  // Shap and ShapBatch calls.
  const Dataset train = MakeData(600, 6, 36, /*missing_prob=*/0.1);
  GbtParams params;
  params.num_trees = 40;
  params.max_depth = 4;
  const GbtModel model = GbtModel::Train(train, params).value();
  const Dataset one = MakeData(1, 6, 37);
  const Dataset probe = MakeData(64, 6, 38, /*missing_prob=*/0.2);
  const TreeShap shap(&model);
  const int64_t table_rows = TableRows();
  ExpectMatchesReference(shap, one);
  EXPECT_EQ(TableRows(), table_rows);
  // Depth <= 4 puts the break-even at <= 2 x 2^4 rows; 64 are past it.
  ExpectMatchesReference(shap, probe);
  ExpectMatchesReference(shap, one);
  EXPECT_EQ(TableRows() - table_rows, probe.num_rows() + 1);
}

TEST(TreeShapTest, TableCacheFirstUseIsThreadSafe) {
  // Four threads serve rows one at a time on one fresh TreeShap, half of
  // them through a copy that shares its cache, so the call that makes the
  // tables pay (and builds them) races with calls replaying them. Exactly
  // one build is traced.
  const Dataset train = MakeData(600, 6, 37, /*missing_prob=*/0.1);
  GbtParams params;
  params.num_trees = 40;
  params.max_depth = 4;
  const GbtModel model = GbtModel::Train(train, params).value();
  const Dataset probe = MakeData(32, 6, 38, /*missing_prob=*/0.2);
  const TreeShap shap(&model);
  const TreeShap copy = shap;
  std::vector<std::vector<std::vector<double>>> got(4);
  std::vector<std::thread> threads;
  Tracer::Global().Enable();
  for (size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      const TreeShap& mine = t % 2 == 0 ? shap : copy;
      for (int64_t r = 0; r < probe.num_rows(); ++r) {
        got[t].push_back(mine.Shap(probe.row(r)));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  Tracer::Global().Disable();
  int builds = 0;
  for (const TraceEvent& event : Tracer::Global().Snapshot()) {
    builds += event.name == "shap.tables" ? 1 : 0;
  }
  EXPECT_EQ(builds, 1);
  const auto reference = shap.ShapBatchReference(probe).value();
  for (size_t t = 0; t < 4; ++t) EXPECT_EQ(got[t], reference) << t;
}

TEST(TreeShapTest, ForestOverTheCapsFallsBackToReference) {
  // A caterpillar tree 30 levels deep: its deepest leaves would need 2^30
  // patterns each, past the depth cap, so Shap and ShapBatch take the
  // reference recursion. Splits alternate features, so paths repeat them.
  constexpr int kDepth = 30;
  RegressionTree tree;
  int spine = 0;
  double cover = 1024.0;
  tree.mutable_node(0)->cover = cover;
  for (int d = 0; d < kDepth; ++d) {
    const double threshold = -0.9 + 1.8 * d / kDepth;
    const auto [left, right] =
        tree.Split(spine, d % 3, threshold, /*default_left=*/d % 2 == 0,
                   /*gain=*/1.0);
    tree.mutable_node(left)->cover = cover * 0.25;
    tree.mutable_node(left)->value = 0.1 * d - 1.0;
    cover *= 0.75;
    tree.mutable_node(right)->cover = cover;
    tree.mutable_node(right)->value = 2.0 - 0.05 * d;
    spine = right;
  }
  ASSERT_EQ(tree.MaxDepth(), kDepth);
  std::string text = "mysawh-gbt v1\nobjective reg:squarederror\n";
  text += "base_score " + EncodeDouble(0.25) + "\nbest_iteration 0\n";
  text += "num_features 3\nfeature f0\nfeature f1\nfeature f2\n";
  text += "num_trees 1\ntree " + std::to_string(tree.num_nodes()) + "\n";
  for (int i = 0; i < tree.num_nodes(); ++i) {
    text += gbt::TreeNodeToText(tree.node(i)) + "\n";
  }
  const GbtModel model = GbtModel::Deserialize(text).value();
  ASSERT_NE(model.flat_forest(), nullptr);
  const TreeShap shap(&model);
  const Dataset probe = MakeData(64, 3, 39, /*missing_prob=*/0.2);
  const int64_t table_rows = TableRows();
  ExpectMatchesReference(shap, probe);
  EXPECT_EQ(TableRows(), table_rows);
  ExpectAdditivity(model, probe);
}

TEST(TreeShapTest, ShapBatchChecksWidth) {
  const Dataset train = MakeData(200, 3, 30);
  GbtParams params;
  params.num_trees = 5;
  const GbtModel model = GbtModel::Train(train, params).value();
  const TreeShap shap(&model);
  const Dataset wrong = MakeData(5, 2, 31);
  EXPECT_FALSE(shap.ShapBatch(wrong).ok());
  // A rejected batch is checked before its rows count toward building the
  // tables: however long, it leaves the next row on the reference path.
  EXPECT_FALSE(shap.ShapBatch(MakeData(500, 2, 32)).ok());
  const int64_t table_rows = TableRows();
  ExpectMatchesReference(shap, MakeData(1, 3, 33));
  EXPECT_EQ(TableRows(), table_rows);
}

/// Property sweep across tree depths: additivity must hold regardless of
/// how often features repeat along a path (repeated features exercise the
/// UnwindPath branch).
class TreeShapDepthTest : public ::testing::TestWithParam<int> {};

TEST_P(TreeShapDepthTest, AdditivityHolds) {
  const Dataset train = MakeData(800, 3, 100 + GetParam());
  GbtParams params;
  params.num_trees = 30;
  params.max_depth = GetParam();  // depth > features forces repeats
  const GbtModel model = GbtModel::Train(train, params).value();
  const Dataset probe = MakeData(40, 3, 200 + GetParam());
  ExpectAdditivity(model, probe);
}

INSTANTIATE_TEST_SUITE_P(Depths, TreeShapDepthTest,
                         ::testing::Values(1, 2, 4, 6, 8));

}  // namespace
}  // namespace mysawh::explain
