/// Unit tests of the compiled flat-forest inference block: exact
/// equivalence with the reference pointer walker and the compile gates.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "gbt/flat_forest.h"
#include "gbt/gbt_model.h"
#include "util/rng.h"

namespace mysawh::gbt {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

Dataset MakeData(int64_t rows, uint64_t seed, double missing_rate = 0.1) {
  Rng rng(seed);
  Dataset ds = Dataset::Create({"a", "b", "c", "d"});
  for (int64_t r = 0; r < rows; ++r) {
    std::vector<double> x(4);
    for (auto& v : x) {
      v = rng.Uniform(0, 1) < missing_rate ? kNaN : rng.Uniform(-2, 2);
    }
    const double a = std::isnan(x[0]) ? 0.0 : x[0];
    const double b = std::isnan(x[1]) ? 0.0 : x[1];
    EXPECT_TRUE(ds.AddRow(x, std::sin(a) + b * b + rng.Normal(0, 0.1)).ok());
  }
  return ds;
}

GbtModel TrainModel(const Dataset& train, int num_trees = 20) {
  GbtParams params;
  params.num_trees = num_trees;
  params.max_depth = 4;
  return GbtModel::Train(train, params).value();
}

TEST(FlatForestTest, PredictRawBitIdenticalToReferenceWalker) {
  const Dataset train = MakeData(600, 1);
  const GbtModel model = TrainModel(train);
  ASSERT_NE(model.flat_forest(), nullptr);
  const Dataset probe = MakeData(257, 2, /*missing_rate=*/0.25);
  const std::vector<double> flat = model.PredictRaw(probe).value();
  const std::vector<double> reference =
      model.PredictRawReference(probe).value();
  ASSERT_EQ(flat.size(), reference.size());
  for (size_t r = 0; r < flat.size(); ++r) {
    // Bit identity, not closeness: same additions in the same order.
    EXPECT_EQ(flat[r], reference[r]) << "row " << r;
  }
}

TEST(FlatForestTest, CompiledShapeMatchesTheTrees) {
  const Dataset train = MakeData(400, 3);
  const GbtModel model = TrainModel(train);
  const FlatForest* flat = model.flat_forest();
  ASSERT_NE(flat, nullptr);
  int64_t internal = 0, leaves = 0;
  for (const auto& tree : model.trees()) {
    for (int i = 0; i < tree.num_nodes(); ++i) {
      (tree.node(i).IsLeaf() ? leaves : internal) += 1;
    }
  }
  EXPECT_EQ(flat->num_nodes(), internal);
  EXPECT_EQ(flat->num_leaves(), leaves);
  EXPECT_EQ(flat->num_trees(), static_cast<int>(model.trees().size()));
  EXPECT_EQ(flat->num_features(), model.num_features());
}

TEST(FlatForestTest, BinRowMatchesThresholdComparisons) {
  // A hand-built tree: bin quantization must reproduce v < t for values
  // on, between, and beyond the cuts, including -0.0 and infinities.
  std::vector<TreeNode> nodes(3);
  nodes[0].left = 1;
  nodes[0].right = 2;
  nodes[0].feature = 0;
  nodes[0].threshold = 0.0;
  nodes[0].cover = 2.0;
  nodes[1].value = -1.0;
  nodes[1].cover = 1.0;
  nodes[2].value = 1.0;
  nodes[2].cover = 1.0;
  std::vector<RegressionTree> trees;
  trees.push_back(RegressionTree::FromNodes(std::move(nodes)));
  const FlatForest flat = FlatForest::Compile(trees, 1).value();
  for (double v : {-1.0, -0.0, 0.0, 0.5, 1.0,
                   -std::numeric_limits<double>::infinity(),
                   std::numeric_limits<double>::infinity()}) {
    uint8_t bin = 0;
    flat.BinRow(&v, &bin);
    const bool flat_left = bin < flat.bin_threshold(flat.root(0));
    EXPECT_EQ(flat_left, v < 0.0) << "v=" << v;
  }
  double nan = kNaN;
  uint8_t bin = 0;
  flat.BinRow(&nan, &bin);
  EXPECT_EQ(bin, kFlatMissingBin);
}

TEST(FlatForestTest, TooManyDistinctThresholdsFallsBackToReference) {
  // 300 distinct split thresholds on one feature exceed the uint8 bin
  // encoding: Compile must refuse and the model must keep predicting
  // through the reference walker.
  std::vector<RegressionTree> trees;
  for (int t = 0; t < 300; ++t) {
    std::vector<TreeNode> nodes(3);
    nodes[0].left = 1;
    nodes[0].right = 2;
    nodes[0].feature = 0;
    nodes[0].threshold = static_cast<double>(t) / 300.0;
    nodes[0].cover = 2.0;
    nodes[1].value = -1.0;
    nodes[1].cover = 1.0;
    nodes[2].value = 1.0;
    nodes[2].cover = 1.0;
    trees.push_back(RegressionTree::FromNodes(std::move(nodes)));
  }
  const auto compiled = FlatForest::Compile(trees, 1);
  ASSERT_FALSE(compiled.ok());
  EXPECT_EQ(compiled.status().code(), StatusCode::kFailedPrecondition);
}

TEST(FlatForestTest, DeserializedModelCompilesAndMatches) {
  const Dataset train = MakeData(400, 7);
  const GbtModel model = TrainModel(train);
  const GbtModel restored =
      GbtModel::Deserialize(model.Serialize()).value();
  ASSERT_NE(restored.flat_forest(), nullptr);
  const Dataset probe = MakeData(64, 8, /*missing_rate=*/0.2);
  EXPECT_EQ(restored.PredictRaw(probe).value(),
            model.PredictRawReference(probe).value());
}

TEST(FlatForestTest, SingleLeafTreesCompile) {
  // Depth-0 trees (e.g. num_trees past convergence) have a leaf root; the
  // flat block must carry them as pure constants.
  std::vector<TreeNode> nodes(1);
  nodes[0].value = 0.25;
  nodes[0].cover = 10.0;
  std::vector<RegressionTree> trees;
  trees.push_back(RegressionTree::FromNodes(std::move(nodes)));
  const FlatForest flat = FlatForest::Compile(trees, 2).value();
  EXPECT_EQ(flat.num_nodes(), 0);
  EXPECT_EQ(flat.num_leaves(), 1);
  EXPECT_EQ(flat.max_depth(), 0);
  Dataset probe = Dataset::Create({"a", "b"});
  ASSERT_TRUE(probe.AddRow({0.5, kNaN}, 0.0).ok());
  double out = 0.0;
  flat.PredictRaw(probe, 1.0, &out);
  EXPECT_EQ(out, 1.25);
}

}  // namespace
}  // namespace mysawh::gbt
