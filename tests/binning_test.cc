#include "gbt/binning.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace mysawh::gbt {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

Dataset MakeOrdinalData() {
  Dataset ds = Dataset::Create({"ordinal", "wide"});
  for (int i = 0; i < 100; ++i) {
    const double ordinal = static_cast<double>(i % 5 + 1);  // 1..5
    const double wide = static_cast<double>(i) * 0.37;
    EXPECT_TRUE(ds.AddRow({ordinal, wide}, 0.0).ok());
  }
  return ds;
}

TEST(BinningTest, OrdinalFeaturesGetOneBinPerLevel) {
  const Dataset ds = MakeOrdinalData();
  const FeatureBins bins = FeatureBins::Build(ds, 64).value();
  EXPECT_EQ(bins.num_bins(0), 5);
  // Cut between levels is the midpoint.
  EXPECT_DOUBLE_EQ(bins.cut(0, 0), 1.5);
  EXPECT_DOUBLE_EQ(bins.cut(0, 3), 4.5);
  EXPECT_TRUE(std::isinf(bins.cut(0, 4)));
}

TEST(BinningTest, WideFeatureCappedAtMaxBins) {
  const Dataset ds = MakeOrdinalData();
  const FeatureBins bins = FeatureBins::Build(ds, 16).value();
  EXPECT_LE(bins.num_bins(1), 16);
  EXPECT_GE(bins.num_bins(1), 8);
}

TEST(BinningTest, CutsStrictlyIncrease) {
  const Dataset ds = MakeOrdinalData();
  const FeatureBins bins = FeatureBins::Build(ds, 16).value();
  for (int64_t f = 0; f < bins.num_features(); ++f) {
    for (int b = 1; b < bins.num_bins(f); ++b) {
      EXPECT_GT(bins.cut(f, b), bins.cut(f, b - 1));
    }
  }
}

TEST(BinningTest, BinForRespectsBoundaries) {
  const Dataset ds = MakeOrdinalData();
  const FeatureBins bins = FeatureBins::Build(ds, 64).value();
  EXPECT_EQ(bins.BinFor(0, 1.0), 0);
  EXPECT_EQ(bins.BinFor(0, 1.49), 0);
  EXPECT_EQ(bins.BinFor(0, 1.5), 1);  // boundary goes right
  EXPECT_EQ(bins.BinFor(0, 5.0), 4);
  EXPECT_EQ(bins.BinFor(0, 99.0), 4);   // beyond max clamps to last bin
  EXPECT_EQ(bins.BinFor(0, -99.0), 0);  // below min clamps to first bin
}

TEST(BinningTest, MissingMapsToSentinel) {
  const Dataset ds = MakeOrdinalData();
  const FeatureBins bins = FeatureBins::Build(ds, 64).value();
  EXPECT_EQ(bins.BinFor(0, kNaN), kMissingBin);
}

TEST(BinningTest, AllMissingColumn) {
  Dataset ds = Dataset::Create({"empty"});
  ASSERT_TRUE(ds.AddRow({kNaN}, 0.0).ok());
  ASSERT_TRUE(ds.AddRow({kNaN}, 1.0).ok());
  const FeatureBins bins = FeatureBins::Build(ds, 8).value();
  EXPECT_EQ(bins.num_bins(0), 1);
  EXPECT_EQ(bins.BinFor(0, kNaN), kMissingBin);
}

TEST(BinningTest, RejectsOutOfRangeBinCounts) {
  // Cells are bytes: bins 0..253 plus the missing sentinel.
  const Dataset ds = MakeOrdinalData();
  for (int max_bins : {1, 255, 65535}) {
    EXPECT_EQ(FeatureBins::Build(ds, max_bins).status().code(),
              StatusCode::kInvalidArgument)
        << "max_bins=" << max_bins;
    EXPECT_EQ(BuildBinned(ds, max_bins, nullptr).status().code(),
              StatusCode::kInvalidArgument)
        << "max_bins=" << max_bins;
  }
  EXPECT_TRUE(FeatureBins::Build(ds, kMaxBins).ok());
  EXPECT_TRUE(BuildBinned(ds, kMaxBins, nullptr).ok());
}

TEST(BinningTest, BinnedMatrixMatchesBinFor) {
  Dataset ds = Dataset::Create({"a", "b"});
  ASSERT_TRUE(ds.AddRow({1.0, 10.0}, 0.0).ok());
  ASSERT_TRUE(ds.AddRow({kNaN, 20.0}, 0.0).ok());
  ASSERT_TRUE(ds.AddRow({3.0, kNaN}, 0.0).ok());
  const FeatureBins bins = FeatureBins::Build(ds, 8).value();
  const BinnedMatrix matrix = BinnedMatrix::Build(ds, bins);
  EXPECT_EQ(matrix.num_rows(), 3);
  for (int64_t r = 0; r < 3; ++r) {
    for (int64_t f = 0; f < 2; ++f) {
      EXPECT_EQ(matrix.At(r, f), bins.BinFor(f, ds.At(r, f)))
          << "row " << r << " feature " << f;
    }
  }
}

TEST(BinningTest, FusedBuildMatchesOracle) {
  // BuildBinned must reproduce FeatureBins::Build + BinnedMatrix::Build
  // cell for cell, at the widest resolution too (a feature with more
  // distinct values than kMaxBins, plus missing cells).
  Dataset ds = Dataset::Create({"ordinal", "wide", "sparse"});
  for (int i = 0; i < 700; ++i) {
    const double sparse = i % 3 == 0 ? kNaN : static_cast<double>(i % 11);
    ASSERT_TRUE(ds.AddRow({static_cast<double>(i % 5),
                           std::sin(static_cast<double>(i)) * 100.0, sparse},
                          0.0)
                    .ok());
  }
  for (int max_bins : {2, 64, kMaxBins}) {
    const FeatureBins bins = FeatureBins::Build(ds, max_bins).value();
    const BinnedMatrix oracle = BinnedMatrix::Build(ds, bins);
    const BinnedData fused = BuildBinned(ds, max_bins, nullptr).value();
    for (int64_t f = 0; f < ds.num_features(); ++f) {
      ASSERT_EQ(fused.bins.num_bins(f), bins.num_bins(f));
      for (int b = 0; b < bins.num_bins(f); ++b) {
        EXPECT_EQ(fused.bins.cut(f, b), bins.cut(f, b));
      }
      for (int64_t r = 0; r < ds.num_rows(); ++r) {
        ASSERT_EQ(fused.matrix.At(r, f), oracle.At(r, f))
            << "max_bins " << max_bins << " row " << r << " feature " << f;
      }
    }
  }
}

/// Property sweep: binning a feature and mapping every training value back
/// through BinFor is order-preserving.
class BinningOrderTest : public ::testing::TestWithParam<int> {};

TEST_P(BinningOrderTest, BinsAreMonotoneInValue) {
  const int max_bins = GetParam();
  Dataset ds = Dataset::Create({"v"});
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(
        ds.AddRow({std::sin(static_cast<double>(i)) * 10.0}, 0.0).ok());
  }
  const FeatureBins bins = FeatureBins::Build(ds, max_bins).value();
  for (double a = -10.0; a < 10.0; a += 0.5) {
    EXPECT_LE(bins.BinFor(0, a), bins.BinFor(0, a + 0.5));
  }
}

INSTANTIATE_TEST_SUITE_P(MaxBins, BinningOrderTest,
                         ::testing::Values(2, 4, 16, 64, 254));

}  // namespace
}  // namespace mysawh::gbt
