/// Unit tests of the split-finding engine itself, on hand-crafted gradient
/// configurations where the optimal split is known analytically.

#include "gbt/trainer.h"

#include <gtest/gtest.h>

#include <array>
#include <limits>

#include "util/metrics.h"

namespace mysawh::gbt {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// A step function in x: y = -1 for x < 0.5, +1 otherwise. The unique
/// optimal first split is at x = 0.5.
Dataset MakeStepData() {
  Dataset ds = Dataset::Create({"x"});
  for (int i = 0; i < 100; ++i) {
    const double x = static_cast<double>(i) / 100.0;
    EXPECT_TRUE(ds.AddRow({x}, x < 0.5 ? -1.0 : 1.0).ok());
  }
  return ds;
}

TEST(TrainerSplitTest, FindsTheStepBoundary) {
  const Dataset train = MakeStepData();
  GbtParams params;
  params.num_trees = 1;
  params.max_depth = 1;
  params.learning_rate = 1.0;
  params.reg_lambda = 0.0;
  params.max_bins = 254;
  const GbtModel model = GbtModel::Train(train, params).value();
  ASSERT_EQ(model.trees().size(), 1u);
  const RegressionTree& tree = model.trees()[0];
  ASSERT_EQ(tree.num_nodes(), 3);
  const TreeNode& root = tree.node(0);
  EXPECT_EQ(root.feature, 0);
  EXPECT_NEAR(root.threshold, 0.495, 0.02);
  // Leaf values recover the two levels exactly (lambda = 0, lr = 1).
  EXPECT_NEAR(tree.node(root.left).value, -1.0, 1e-9);
  EXPECT_NEAR(tree.node(root.right).value, 1.0, 1e-9);
  // Split gain for a clean step: 0.5 * (GL^2/HL + GR^2/HR - G^2/H)
  //  = 0.5 * (50 + 50 - 0) = 50.
  EXPECT_NEAR(root.gain, 50.0, 1.0);
}

TEST(TrainerSplitTest, MissingRowsRoutedToBetterSide) {
  // Missing x implies label +1 (same as the right side); the learned
  // default direction must send NaN right.
  Dataset train = Dataset::Create({"x"});
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(train.AddRow({0.1}, -1.0).ok());
    ASSERT_TRUE(train.AddRow({0.9}, 1.0).ok());
    ASSERT_TRUE(train.AddRow({kNaN}, 1.0).ok());
  }
  GbtParams params;
  params.num_trees = 1;
  params.max_depth = 1;
  params.learning_rate = 1.0;
  const GbtModel model = GbtModel::Train(train, params).value();
  const RegressionTree& tree = model.trees()[0];
  ASSERT_EQ(tree.num_nodes(), 3);
  EXPECT_FALSE(tree.node(0).default_left);
  const double missing_row[] = {kNaN};
  EXPECT_GT(model.PredictRow(missing_row), 0.5);
}

TEST(TrainerSplitTest, GammaBlocksWeakSplits) {
  // A weak step (levels +-0.1 -> max gain = 0.5) is below gamma = 2.
  Dataset train = Dataset::Create({"x"});
  for (int i = 0; i < 100; ++i) {
    const double x = static_cast<double>(i) / 100.0;
    ASSERT_TRUE(train.AddRow({x}, x < 0.5 ? -0.1 : 0.1).ok());
  }
  GbtParams params;
  params.num_trees = 1;
  params.max_depth = 3;
  params.reg_lambda = 0.0;
  params.gamma = 2.0;
  const GbtModel model = GbtModel::Train(train, params).value();
  EXPECT_EQ(model.trees()[0].num_nodes(), 1) << "no split should pass gamma";
  params.gamma = 0.0;
  const GbtModel unblocked = GbtModel::Train(train, params).value();
  EXPECT_GT(unblocked.trees()[0].num_nodes(), 1);
}

TEST(TrainerSplitTest, MinSamplesLeafRespected) {
  const Dataset train = MakeStepData();
  GbtParams params;
  params.num_trees = 1;
  params.max_depth = 6;
  params.min_samples_leaf = 20;
  const GbtModel model = GbtModel::Train(train, params).value();
  const RegressionTree& tree = model.trees()[0];
  // Count rows reaching each leaf.
  std::vector<int> counts(static_cast<size_t>(tree.num_nodes()), 0);
  for (int64_t r = 0; r < train.num_rows(); ++r) {
    counts[static_cast<size_t>(tree.GetLeaf(train.row(r)))] += 1;
  }
  for (int i = 0; i < tree.num_nodes(); ++i) {
    if (tree.node(i).IsLeaf()) {
      EXPECT_GE(counts[static_cast<size_t>(i)], 20) << "leaf " << i;
    }
  }
}

TEST(TrainerSplitTest, MinChildWeightRespected) {
  const Dataset train = MakeStepData();
  GbtParams params;
  params.num_trees = 1;
  params.max_depth = 6;
  // Squared error: hessian = 1 per row, so cover == row count.
  params.min_child_weight = 30.0;
  const GbtModel model = GbtModel::Train(train, params).value();
  const RegressionTree& tree = model.trees()[0];
  for (int i = 0; i < tree.num_nodes(); ++i) {
    EXPECT_GE(tree.node(i).cover, 30.0 - 1e-9);
  }
}

TEST(TrainerTest, L2ShrinksLeafValues) {
  const Dataset train = MakeStepData();
  GbtParams params;
  params.num_trees = 1;
  params.max_depth = 1;
  params.learning_rate = 1.0;
  params.reg_lambda = 50.0;  // 50 rows per leaf -> weight halves
  params.max_bins = 128;  // one bin per distinct x: an exact 50/50 split
  const GbtModel model = GbtModel::Train(train, params).value();
  const RegressionTree& tree = model.trees()[0];
  ASSERT_EQ(tree.num_nodes(), 3);
  EXPECT_NEAR(tree.node(tree.node(0).right).value, 0.5, 1e-9);
}

/// The histogram-pipeline node counters moved from TrainingLog into the
/// metrics registry; training twice with identical parameters must produce
/// identical per-run deltas through the new API.
TEST(TrainerTest, HistNodeCountersReportedThroughRegistry) {
  auto& registry = MetricsRegistry::Global();
  Counter* direct = registry.GetCounter("gbt.train.hist_nodes_direct");
  Counter* subtracted =
      registry.GetCounter("gbt.train.hist_nodes_subtracted");
  Counter* trees = registry.GetCounter("gbt.train.trees_grown");

  const Dataset train = MakeStepData();
  GbtParams params;
  params.num_trees = 4;
  params.max_depth = 3;  // deep enough for the sibling-subtraction trick

  auto train_once = [&] {
    const int64_t d0 = direct->Value();
    const int64_t s0 = subtracted->Value();
    const int64_t t0 = trees->Value();
    EXPECT_TRUE(GbtModel::Train(train, params).ok());
    return std::array<int64_t, 3>{direct->Value() - d0,
                                  subtracted->Value() - s0,
                                  trees->Value() - t0};
  };
  const auto first = train_once();
  const auto second = train_once();
  EXPECT_EQ(first, second) << "training is deterministic, so the registry "
                              "deltas must match run to run";
  EXPECT_GT(first[0], 0) << "training accumulates node histograms";
  EXPECT_GT(first[1], 0) << "depth 3 must exercise sibling subtraction";
  EXPECT_EQ(first[2], 4) << "one trees_grown increment per boosted tree";
}

TEST(TrainerTest, L1ZeroesSmallLeaves) {
  // With alpha larger than |G| of a leaf, its weight is exactly zero.
  Dataset train = Dataset::Create({"x"});
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(train.AddRow({static_cast<double>(i)}, 0.01).ok());
  }
  GbtParams params;
  params.num_trees = 1;
  params.max_depth = 1;
  params.learning_rate = 1.0;
  params.reg_alpha = 1.0;  // |G| = 0.1 at the root
  params.base_score = 0.0;
  const GbtModel model = GbtModel::Train(train, params).value();
  const double row[] = {5.0};
  EXPECT_DOUBLE_EQ(model.PredictRow(row), 0.0);
}

}  // namespace
}  // namespace mysawh::gbt
