#include "core/calibration_monitor.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "util/json.h"
#include "util/metrics.h"

namespace mysawh::core {
namespace {

/// Unit-interval score -> integer parts-per-million for int64 gauges.
int64_t Ppm(double value) {
  if (std::isnan(value)) return -1;
  return static_cast<int64_t>(std::llround(value * 1e6));
}

}  // namespace

Result<CalibrationReport> ComputeCalibration(const std::vector<double>& labels,
                                             const std::vector<double>& preds,
                                             int num_bins) {
  if (labels.size() != preds.size()) {
    return Status::InvalidArgument(
        "ComputeCalibration: " + std::to_string(labels.size()) +
        " labels vs " + std::to_string(preds.size()) + " predictions");
  }
  std::vector<double> usable_labels;
  std::vector<double> usable_preds;
  usable_labels.reserve(labels.size());
  usable_preds.reserve(preds.size());
  for (size_t i = 0; i < labels.size(); ++i) {
    if (std::isnan(labels[i]) || std::isnan(preds[i])) continue;
    usable_labels.push_back(labels[i]);
    usable_preds.push_back(preds[i]);
  }
  if (usable_labels.empty()) {
    return Status::InvalidArgument("ComputeCalibration: no usable rows");
  }
  CalibrationReport report;
  report.rows = static_cast<int64_t>(usable_labels.size());
  report.num_bins = num_bins;
  MYSAWH_ASSIGN_OR_RETURN(report.brier,
                          BrierScore(usable_labels, usable_preds));
  MYSAWH_ASSIGN_OR_RETURN(
      report.bins,
      ComputeCalibrationBins(usable_labels, usable_preds, num_bins));
  double ece_sum = 0.0;
  for (const CalibrationBin& bin : report.bins) {
    ece_sum += static_cast<double>(bin.count) *
               std::fabs(bin.mean_predicted - bin.observed_rate);
  }
  report.ece = ece_sum / static_cast<double>(report.rows);
  return report;
}

Result<ErrorQuantiles> ComputeErrorQuantiles(const std::vector<double>& labels,
                                             const std::vector<double>& preds) {
  if (labels.size() != preds.size()) {
    return Status::InvalidArgument(
        "ComputeErrorQuantiles: " + std::to_string(labels.size()) +
        " labels vs " + std::to_string(preds.size()) + " predictions");
  }
  std::vector<double> errors;
  errors.reserve(labels.size());
  double sum = 0.0;
  for (size_t i = 0; i < labels.size(); ++i) {
    if (std::isnan(labels[i]) || std::isnan(preds[i])) continue;
    const double err = std::fabs(labels[i] - preds[i]);
    errors.push_back(err);
    sum += err;
  }
  if (errors.empty()) {
    return Status::InvalidArgument("ComputeErrorQuantiles: no usable rows");
  }
  std::sort(errors.begin(), errors.end());
  ErrorQuantiles out;
  out.rows = static_cast<int64_t>(errors.size());
  out.mae = sum / static_cast<double>(errors.size());
  const auto at_quantile = [&](double q) {
    // rank = ceil(q * n), 1-based: the smallest error with at least a q
    // fraction of the mass at or below it.
    const auto n = static_cast<double>(errors.size());
    auto rank = static_cast<size_t>(std::ceil(q * n));
    if (rank < 1) rank = 1;
    if (rank > errors.size()) rank = errors.size();
    return errors[rank - 1];
  };
  out.p50 = at_quantile(0.50);
  out.p90 = at_quantile(0.90);
  out.p99 = at_quantile(0.99);
  out.max_err = errors.back();
  return out;
}

std::string CalibrationJson(const CalibrationReport& report) {
  JsonWriter w;
  w.BeginObject()
      .Key("kind").String("classification")
      .Key("rows").Int(report.rows)
      .Key("num_bins").Int(report.num_bins)
      .Key("brier").Number(report.brier)
      .Key("ece").Number(report.ece)
      .Key("bins").BeginArray();
  for (const CalibrationBin& bin : report.bins) {
    w.BeginObject()
        .Key("count").Int(bin.count)
        .Key("mean_pred").Number(bin.mean_predicted)
        .Key("mean_obs").Number(bin.observed_rate)
        .EndObject();
  }
  return w.EndArray().EndObject().Take();
}

std::string ErrorQuantilesJson(const ErrorQuantiles& quantiles) {
  JsonWriter w;
  w.BeginObject()
      .Key("kind").String("regression")
      .Key("rows").Int(quantiles.rows)
      .Key("mae").Number(quantiles.mae)
      .Key("p50").Number(quantiles.p50)
      .Key("p90").Number(quantiles.p90)
      .Key("p99").Number(quantiles.p99)
      .Key("max").Number(quantiles.max_err)
      .EndObject();
  return w.Take();
}

void PublishCalibrationGauges(const std::string& label,
                              const CalibrationReport& report) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.GetGauge("calibration." + label + ".ece_ppm")->Set(Ppm(report.ece));
  registry.GetGauge("calibration." + label + ".brier_ppm")
      ->Set(Ppm(report.brier));
  registry.GetGauge("calibration." + label + ".rows")->Set(report.rows);
}

void PublishErrorQuantileGauges(const std::string& label,
                                const ErrorQuantiles& quantiles) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.GetGauge("calibration." + label + ".mae_ppm")
      ->Set(Ppm(quantiles.mae));
  registry.GetGauge("calibration." + label + ".p90_ppm")
      ->Set(Ppm(quantiles.p90));
  registry.GetGauge("calibration." + label + ".rows")->Set(quantiles.rows);
}

}  // namespace mysawh::core
