#ifndef MYSAWH_GBT_BINNING_H_
#define MYSAWH_GBT_BINNING_H_

#include <cstdint>
#include <vector>

#include "data/dataset.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace mysawh::gbt {

class BinnedData;

/// Largest supported bins per feature: bins 0..253 plus the missing
/// sentinel fill one byte per quantized cell.
inline constexpr int kMaxBins = 254;

/// Sentinel bin index for a missing (NaN) feature value.
inline constexpr uint8_t kMissingBin = 0xFF;

/// Per-feature quantile cut points for histogram split finding.
///
/// For feature f, `cuts[f]` holds strictly increasing upper boundaries; a
/// value v maps to the smallest bin b with v < cuts[f][b]. The last cut is
/// +inf so every finite value maps somewhere. Features with few distinct
/// values get one bin per value (so categorical/ordinal PRO answers are
/// represented exactly).
class FeatureBins {
 public:
  /// Builds cut points from the training data with at most `max_bins` bins
  /// per feature; `max_bins` must be in [2, kMaxBins].
  static Result<FeatureBins> Build(const Dataset& data, int max_bins);

  int64_t num_features() const {
    return static_cast<int64_t>(cuts_.size());
  }
  /// Number of bins of a feature.
  int num_bins(int64_t feature) const {
    return static_cast<int>(cuts_[static_cast<size_t>(feature)].size());
  }
  /// The upper boundary of a bin; splitting "bin <= b" uses threshold
  /// cuts[f][b] (split condition value < cuts[f][b]).
  double cut(int64_t feature, int bin) const {
    return cuts_[static_cast<size_t>(feature)][static_cast<size_t>(bin)];
  }

  /// Maps a raw value to its bin (kMissingBin for NaN).
  uint8_t BinFor(int64_t feature, double value) const;

 private:
  friend Result<BinnedData> BuildBinned(const Dataset& data, int max_bins,
                                        ThreadPool* pool);
  std::vector<std::vector<double>> cuts_;
};

/// The whole training matrix quantized to bins, one byte per cell,
/// row-major so one pass over a node's rows touches each row's bins
/// contiguously and can feed the histograms of every feature at once.
class BinnedMatrix {
 public:
  /// Quantizes `data` with the given `bins`.
  static BinnedMatrix Build(const Dataset& data, const FeatureBins& bins);

  int64_t num_rows() const { return num_rows_; }
  int64_t num_features() const { return num_features_; }
  /// Bin of (row, feature); kMissingBin for a missing value.
  uint8_t At(int64_t row, int64_t feature) const {
    return cells_[static_cast<size_t>(row * num_features_ + feature)];
  }
  /// Raw row-major cells. The histogram builder reads these directly in its
  /// hot loop.
  const uint8_t* data() const { return cells_.data(); }

 private:
  friend Result<BinnedData> BuildBinned(const Dataset& data, int max_bins,
                                        ThreadPool* pool);
  std::vector<uint8_t> cells_;  // row * num_features + feature
  int64_t num_rows_ = 0;
  int64_t num_features_ = 0;
};

/// Cut points and quantized matrix produced together by BuildBinned.
class BinnedData {
 public:
  FeatureBins bins;
  BinnedMatrix matrix;
};

/// Per-feature occupancy of a quantized matrix — how well the histogram
/// resolution is actually used. Consumed by the data-quality profile
/// (core/data_profile.h) attached to every study cell's run manifest.
struct BinOccupancy {
  int num_bins = 0;           ///< Bins defined by the feature's cuts.
  int occupied_bins = 0;      ///< Bins holding at least one row.
  int64_t missing = 0;        ///< Rows with the missing sentinel.
  int64_t max_bin_count = 0;  ///< Rows in the fullest bin.
};

/// Counts per-bin occupancy of every feature. Deterministic (a pure
/// function of the quantized matrix); intended for profiling, not hot
/// paths.
std::vector<BinOccupancy> ComputeBinOccupancy(const FeatureBins& bins,
                                              const BinnedMatrix& matrix);

/// Builds the cut points and the quantized matrix in one fused pass: each
/// feature is sorted once as (value, row) pairs, the cuts are derived from
/// the distinct values of that ordering, and bins are assigned by walking
/// the sorted pairs — no per-cell binary search. Produces exactly the same
/// cuts and bins as FeatureBins::Build followed by BinnedMatrix::Build,
/// several times faster. Features are processed in parallel on `pool` when
/// given (each feature writes disjoint cells, so the result is identical
/// for any thread count).
Result<BinnedData> BuildBinned(const Dataset& data, int max_bins,
                               ThreadPool* pool);

}  // namespace mysawh::gbt

#endif  // MYSAWH_GBT_BINNING_H_
