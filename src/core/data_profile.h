#ifndef MYSAWH_CORE_DATA_PROFILE_H_
#define MYSAWH_CORE_DATA_PROFILE_H_

#include <string>
#include <vector>

#include "data/dataset.h"
#include "util/status.h"

namespace mysawh::core {

/// Data-quality profile of one study cell's train/test partition: the
/// missingness, outcome balance, histogram-bin occupancy, and train/test
/// drift diagnostics that the paper family's learning-curve analyses lean
/// on (class imbalance dominates the Falls task; missingness dominates the
/// PRO features). Attached to every cell of the run manifest
/// (`data_quality` block, see docs/observability.md) — never to
/// REPORT.md, so reports stay bit-identical with or without profiling.
///
/// Profiles are pure functions of the datasets: byte-identical JSON for
/// identical partitions, golden-testable (tests/data_profile_test.cc).

/// Per-feature quality diagnostics.
struct FeatureQuality {
  std::string name;
  double missing_train = 0.0;  ///< Fraction of NaN cells in train.
  double missing_test = 0.0;   ///< ... in test.
  double mean_train = 0.0;     ///< Mean over present train cells (NaN if none).
  double mean_test = 0.0;      ///< ... over present test cells.
  double stddev_train = 0.0;   ///< Population stddev over present train cells.
  /// Standardized mean difference |mean_train - mean_test| / stddev_train
  /// (0 when the train side is constant or either side is all-missing).
  double drift = 0.0;
  int num_bins = 0;            ///< Histogram bins from BuildBinned on train.
  int occupied_bins = 0;       ///< Bins holding at least one train row.
  int64_t max_bin_count = 0;   ///< Train rows in the fullest bin.
};

/// Outcome distribution of both partitions. For classification outcomes
/// the means are positive rates and the positive counts are meaningful;
/// for regression the min/max/stddev describe the label spread.
struct OutcomeQuality {
  bool classification = false;
  double mean_train = 0.0;
  double mean_test = 0.0;
  double stddev_train = 0.0;
  double min_train = 0.0;
  double max_train = 0.0;
  int64_t positives_train = 0;  ///< label == 1 count (classification).
  int64_t positives_test = 0;
};

/// The complete per-cell profile.
struct DataQualityProfile {
  int64_t train_rows = 0;
  int64_t test_rows = 0;
  int64_t num_features = 0;
  OutcomeQuality outcome;
  std::vector<FeatureQuality> features;  ///< In dataset feature order.

  // Aggregates for dashboards that do not want 59 feature rows.
  double max_missing_train = 0.0;
  std::string max_missing_feature;
  double max_drift = 0.0;
  std::string max_drift_feature;
  double mean_bin_occupancy = 0.0;  ///< Mean occupied/num_bins over features.
};

/// Profiles one train/test partition. Features are binned at the
/// trainer's default histogram resolution (gbt::GbtParams().max_bins) so
/// the occupancy stats describe the bins training actually used. Fails
/// only on malformed input (empty partitions, mismatched widths).
Result<DataQualityProfile> ProfilePartition(const Dataset& train,
                                            const Dataset& test,
                                            bool classification);

/// Deterministic JSON object (no trailing newline) for the manifest's
/// `data_quality` block. Doubles use round-trip-exact shortest form; NaN
/// renders as null.
std::string DataQualityJson(const DataQualityProfile& profile);

}  // namespace mysawh::core

#endif  // MYSAWH_CORE_DATA_PROFILE_H_
