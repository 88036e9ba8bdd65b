#include "core/data_profile.h"

#include <cmath>
#include <limits>
#include <sstream>

#include "gbt/binning.h"
#include "gbt/params.h"
#include "util/telemetry.h"

namespace mysawh::core {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Mean / population stddev / min / max over the present (non-NaN) values
/// of one feature column; mean and stddev are NaN when all values missing.
struct ColumnStats {
  int64_t present = 0;
  double mean = kNaN;
  double stddev = kNaN;
  double min = kNaN;
  double max = kNaN;
};

ColumnStats StatsOf(const Dataset& data, int64_t feature) {
  ColumnStats stats;
  double sum = 0.0;
  for (int64_t r = 0; r < data.num_rows(); ++r) {
    const double v = data.At(r, feature);
    if (std::isnan(v)) continue;
    if (stats.present == 0) {
      stats.min = v;
      stats.max = v;
    } else {
      stats.min = std::min(stats.min, v);
      stats.max = std::max(stats.max, v);
    }
    ++stats.present;
    sum += v;
  }
  if (stats.present == 0) return stats;
  stats.mean = sum / static_cast<double>(stats.present);
  double sq = 0.0;
  for (int64_t r = 0; r < data.num_rows(); ++r) {
    const double v = data.At(r, feature);
    if (std::isnan(v)) continue;
    const double d = v - stats.mean;
    sq += d * d;
  }
  stats.stddev = std::sqrt(sq / static_cast<double>(stats.present));
  return stats;
}

ColumnStats StatsOfLabels(const std::vector<double>& labels) {
  ColumnStats stats;
  double sum = 0.0;
  for (double v : labels) {
    if (std::isnan(v)) continue;
    if (stats.present == 0) {
      stats.min = v;
      stats.max = v;
    } else {
      stats.min = std::min(stats.min, v);
      stats.max = std::max(stats.max, v);
    }
    ++stats.present;
    sum += v;
  }
  if (stats.present == 0) return stats;
  stats.mean = sum / static_cast<double>(stats.present);
  double sq = 0.0;
  for (double v : labels) {
    if (std::isnan(v)) continue;
    const double d = v - stats.mean;
    sq += d * d;
  }
  stats.stddev = std::sqrt(sq / static_cast<double>(stats.present));
  return stats;
}

int64_t CountPositives(const std::vector<double>& labels) {
  int64_t positives = 0;
  for (double v : labels) {
    if (v == 1.0) ++positives;
  }
  return positives;
}

}  // namespace

Result<DataQualityProfile> ProfilePartition(const Dataset& train,
                                            const Dataset& test,
                                            bool classification) {
  if (train.num_rows() == 0 || test.num_rows() == 0) {
    return Status::InvalidArgument("profile needs non-empty partitions");
  }
  if (train.num_features() != test.num_features()) {
    return Status::InvalidArgument("profile partitions differ in width");
  }

  DataQualityProfile profile;
  profile.train_rows = train.num_rows();
  profile.test_rows = test.num_rows();
  profile.num_features = train.num_features();

  const ColumnStats label_train = StatsOfLabels(train.labels());
  const ColumnStats label_test = StatsOfLabels(test.labels());
  profile.outcome.classification = classification;
  profile.outcome.mean_train = label_train.mean;
  profile.outcome.mean_test = label_test.mean;
  profile.outcome.stddev_train = label_train.stddev;
  profile.outcome.min_train = label_train.min;
  profile.outcome.max_train = label_train.max;
  if (classification) {
    profile.outcome.positives_train = CountPositives(train.labels());
    profile.outcome.positives_test = CountPositives(test.labels());
  }

  // Bin occupancy at the trainer's histogram resolution.
  MYSAWH_ASSIGN_OR_RETURN(
      gbt::BinnedData binned,
      gbt::BuildBinned(train, gbt::GbtParams().max_bins, nullptr));
  const std::vector<gbt::BinOccupancy> occupancy =
      gbt::ComputeBinOccupancy(binned.bins, binned.matrix);

  double occupancy_sum = 0.0;
  for (int64_t f = 0; f < profile.num_features; ++f) {
    FeatureQuality feature;
    feature.name = train.feature_names()[static_cast<size_t>(f)];
    const ColumnStats in_train = StatsOf(train, f);
    const ColumnStats in_test = StatsOf(test, f);
    feature.missing_train =
        1.0 - static_cast<double>(in_train.present) /
                  static_cast<double>(profile.train_rows);
    feature.missing_test =
        1.0 - static_cast<double>(in_test.present) /
                  static_cast<double>(profile.test_rows);
    feature.mean_train = in_train.mean;
    feature.mean_test = in_test.mean;
    feature.stddev_train = in_train.stddev;
    if (in_train.present > 0 && in_test.present > 0 &&
        in_train.stddev > 0.0) {
      feature.drift = std::abs(in_train.mean - in_test.mean) / in_train.stddev;
    }
    const gbt::BinOccupancy& bins = occupancy[static_cast<size_t>(f)];
    feature.num_bins = bins.num_bins;
    feature.occupied_bins = bins.occupied_bins;
    feature.max_bin_count = bins.max_bin_count;
    if (bins.num_bins > 0) {
      occupancy_sum += static_cast<double>(bins.occupied_bins) /
                       static_cast<double>(bins.num_bins);
    }

    if (profile.max_missing_feature.empty() ||
        feature.missing_train > profile.max_missing_train) {
      profile.max_missing_train = feature.missing_train;
      profile.max_missing_feature = feature.name;
    }
    if (profile.max_drift_feature.empty() ||
        feature.drift > profile.max_drift) {
      profile.max_drift = feature.drift;
      profile.max_drift_feature = feature.name;
    }
    profile.features.push_back(std::move(feature));
  }
  profile.mean_bin_occupancy =
      occupancy_sum / static_cast<double>(profile.num_features);
  return profile;
}

std::string DataQualityJson(const DataQualityProfile& profile) {
  std::ostringstream os;
  os << "{\"train_rows\":" << profile.train_rows
     << ",\"test_rows\":" << profile.test_rows
     << ",\"num_features\":" << profile.num_features << ",\"outcome\":{"
     << "\"classification\":"
     << (profile.outcome.classification ? "true" : "false")
     << ",\"mean_train\":" << TelemetryDouble(profile.outcome.mean_train)
     << ",\"mean_test\":" << TelemetryDouble(profile.outcome.mean_test)
     << ",\"stddev_train\":" << TelemetryDouble(profile.outcome.stddev_train)
     << ",\"min_train\":" << TelemetryDouble(profile.outcome.min_train)
     << ",\"max_train\":" << TelemetryDouble(profile.outcome.max_train);
  if (profile.outcome.classification) {
    os << ",\"positives_train\":" << profile.outcome.positives_train
       << ",\"positives_test\":" << profile.outcome.positives_test;
  }
  os << "},\"max_missing_train\":" << TelemetryDouble(profile.max_missing_train)
     << ",\"max_missing_feature\":\""
     << TelemetryJsonEscape(profile.max_missing_feature) << "\""
     << ",\"max_drift\":" << TelemetryDouble(profile.max_drift)
     << ",\"max_drift_feature\":\""
     << TelemetryJsonEscape(profile.max_drift_feature) << "\""
     << ",\"mean_bin_occupancy\":"
     << TelemetryDouble(profile.mean_bin_occupancy) << ",\"features\":[";
  for (size_t f = 0; f < profile.features.size(); ++f) {
    const FeatureQuality& feature = profile.features[f];
    os << (f == 0 ? "" : ",") << "{\"name\":\""
       << TelemetryJsonEscape(feature.name) << "\""
       << ",\"missing_train\":" << TelemetryDouble(feature.missing_train)
       << ",\"missing_test\":" << TelemetryDouble(feature.missing_test)
       << ",\"mean_train\":" << TelemetryDouble(feature.mean_train)
       << ",\"mean_test\":" << TelemetryDouble(feature.mean_test)
       << ",\"stddev_train\":" << TelemetryDouble(feature.stddev_train)
       << ",\"drift\":" << TelemetryDouble(feature.drift)
       << ",\"num_bins\":" << feature.num_bins
       << ",\"occupied_bins\":" << feature.occupied_bins
       << ",\"max_bin_count\":" << feature.max_bin_count << "}";
  }
  os << "]}";
  return os.str();
}

}  // namespace mysawh::core
