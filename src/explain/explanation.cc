#include "explain/explanation.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <numeric>
#include <sstream>

#include "util/stats.h"
#include "util/string_util.h"

namespace mysawh::explain {

std::vector<FeatureContribution> LocalExplanation::Top(int k) const {
  const auto n = std::min<size_t>(static_cast<size_t>(std::max(k, 0)),
                                  contributions.size());
  return {contributions.begin(), contributions.begin() + static_cast<long>(n)};
}

std::string LocalExplanation::ToString(int top_k) const {
  std::ostringstream os;
  os << "prediction=" << FormatDouble(prediction, 4)
     << " (raw=" << FormatDouble(raw_prediction, 4)
     << ", expected=" << FormatDouble(expected_value, 4) << ")\n";
  double max_abs = 0.0;
  for (const auto& c : Top(top_k)) max_abs = std::max(max_abs, std::abs(c.shap));
  for (const auto& c : Top(top_k)) {
    const int width =
        max_abs > 0 ? static_cast<int>(std::abs(c.shap) / max_abs * 24 + 0.5)
                    : 0;
    os << "  " << (c.shap >= 0 ? "+" : "-") << " "
       << std::string(static_cast<size_t>(width), c.shap >= 0 ? '#' : '=')
       << " " << c.feature << "=" << FormatDouble(c.value, 4)
       << " (shap=" << FormatDouble(c.shap, 4) << ")\n";
  }
  return os.str();
}

Result<LocalExplanation> ExplainRow(const TreeShap& shap, const Dataset& data,
                                    int64_t row) {
  if (row < 0 || row >= data.num_rows()) {
    return Status::OutOfRange("ExplainRow: row out of range");
  }
  if (data.num_features() != shap.model().num_features()) {
    return Status::InvalidArgument("ExplainRow: dataset width mismatch");
  }
  LocalExplanation out;
  const double* x = data.row(row);
  // One pass yields both: on the pattern tables the margin comes from the
  // same replay as the SHAP values.
  const TreeShap::RowShap attribution = shap.ShapWithMargin(x);
  const std::vector<double>& phi = attribution.phi;
  out.raw_prediction = attribution.raw_prediction;
  out.prediction = shap.model().Transform(out.raw_prediction);
  out.expected_value = shap.expected_value();
  // Rank by (|phi| descending, name ascending) over feature indices; the
  // precomputed name rank stands in for the string comparison.
  const std::vector<int32_t>& name_rank = shap.feature_name_rank();
  std::vector<int32_t> order(phi.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int32_t a, int32_t b) {
    const double abs_a = std::abs(phi[static_cast<size_t>(a)]);
    const double abs_b = std::abs(phi[static_cast<size_t>(b)]);
    if (abs_a != abs_b) return abs_a > abs_b;
    return name_rank[static_cast<size_t>(a)] <
           name_rank[static_cast<size_t>(b)];
  });
  const auto& names = shap.model().feature_names();
  out.contributions.reserve(order.size());
  for (int32_t f : order) {
    const auto i = static_cast<size_t>(f);
    out.contributions.push_back({names[i], x[i], phi[i]});
  }
  return out;
}

Result<GlobalImportance> ComputeGlobalImportance(const TreeShap& shap,
                                                 const Dataset& data) {
  MYSAWH_ASSIGN_OR_RETURN(auto matrix, shap.ShapBatch(data));
  const auto& names = shap.model().feature_names();
  std::vector<double> mean_abs(names.size(), 0.0);
  for (const auto& row : matrix) {
    for (size_t f = 0; f < row.size(); ++f) mean_abs[f] += std::abs(row[f]);
  }
  if (!matrix.empty()) {
    for (double& v : mean_abs) v /= static_cast<double>(matrix.size());
  }
  std::vector<size_t> order(names.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (mean_abs[a] != mean_abs[b]) return mean_abs[a] > mean_abs[b];
    return names[a] < names[b];
  });
  GlobalImportance out;
  for (size_t i : order) {
    out.features.push_back(names[i]);
    out.mean_abs_shap.push_back(mean_abs[i]);
  }
  return out;
}

Result<DependenceCurve> ComputeDependenceCurve(
    const TreeShap& shap, const Dataset& data,
    const std::string& feature_name) {
  MYSAWH_ASSIGN_OR_RETURN(int feature, data.FeatureIndex(feature_name));
  MYSAWH_ASSIGN_OR_RETURN(auto matrix, shap.ShapBatch(data));
  DependenceCurve curve;
  curve.feature = feature_name;
  std::map<double, std::pair<double, int64_t>> by_value;  // sum, count
  for (int64_t r = 0; r < data.num_rows(); ++r) {
    const double v = data.At(r, feature);
    if (std::isnan(v)) continue;
    const double sv = matrix[static_cast<size_t>(r)][static_cast<size_t>(feature)];
    curve.values.push_back(v);
    curve.shap_values.push_back(sv);
    auto& acc = by_value[v];
    acc.first += sv;
    ++acc.second;
  }
  for (const auto& [v, acc] : by_value) {
    curve.distinct_values.push_back(v);
    curve.mean_shap.push_back(acc.first / static_cast<double>(acc.second));
    curve.counts.push_back(acc.second);
  }
  // Recovered threshold: scan every boundary between adjacent distinct
  // values and score it by the between-group variance of the SHAP values
  // (count-weighted), keeping only boundaries whose group means have
  // opposite signs. This is robust to the noisy micro sign-changes a raw
  // zero-crossing rule would latch onto.
  curve.recovered_threshold = std::numeric_limits<double>::quiet_NaN();
  double total_sum = 0.0;
  int64_t total_count = 0;
  for (size_t i = 0; i < curve.mean_shap.size(); ++i) {
    total_sum += curve.mean_shap[i] * static_cast<double>(curve.counts[i]);
    total_count += curve.counts[i];
  }
  double best_score = 0.0;
  double left_sum = 0.0;
  int64_t left_count = 0;
  for (size_t i = 0; i + 1 < curve.mean_shap.size(); ++i) {
    left_sum += curve.mean_shap[i] * static_cast<double>(curve.counts[i]);
    left_count += curve.counts[i];
    const int64_t right_count = total_count - left_count;
    if (right_count == 0) break;
    const double mean_left = left_sum / static_cast<double>(left_count);
    const double mean_right =
        (total_sum - left_sum) / static_cast<double>(right_count);
    if ((mean_left < 0.0) == (mean_right < 0.0)) continue;
    const double diff = mean_left - mean_right;
    const double score = static_cast<double>(left_count) *
                         static_cast<double>(right_count) /
                         static_cast<double>(total_count) * diff * diff;
    if (score > best_score) {
      best_score = score;
      curve.recovered_threshold =
          0.5 * (curve.distinct_values[i] + curve.distinct_values[i + 1]);
      curve.has_threshold = true;
    }
  }
  return curve;
}


Result<ShapSummary> ComputeShapSummary(const TreeShap& shap,
                                       const Dataset& data) {
  MYSAWH_ASSIGN_OR_RETURN(auto matrix, shap.ShapBatch(data));
  if (matrix.empty()) {
    return Status::InvalidArgument("ComputeShapSummary on empty dataset");
  }
  const auto& names = shap.model().feature_names();
  const size_t m = names.size();
  std::vector<double> mean_abs(m, 0.0);
  std::vector<double> direction(m, 0.0);
  for (size_t f = 0; f < m; ++f) {
    std::vector<double> values, shap_values;
    double abs_sum = 0.0;
    for (size_t r = 0; r < matrix.size(); ++r) {
      const double sv = matrix[r][f];
      abs_sum += std::abs(sv);
      const double v = data.At(static_cast<int64_t>(r),
                               static_cast<int64_t>(f));
      if (!std::isnan(v)) {
        values.push_back(v);
        shap_values.push_back(sv);
      }
    }
    mean_abs[f] = abs_sum / static_cast<double>(matrix.size());
    if (values.size() >= 2) {
      auto corr = PearsonCorrelation(values, shap_values);
      direction[f] = corr.ok() ? *corr : 0.0;
    }
  }
  std::vector<size_t> order(m);
  for (size_t i = 0; i < m; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (mean_abs[a] != mean_abs[b]) return mean_abs[a] > mean_abs[b];
    return names[a] < names[b];
  });
  ShapSummary out;
  for (size_t i : order) {
    out.features.push_back(names[i]);
    out.mean_abs_shap.push_back(mean_abs[i]);
    out.direction.push_back(direction[i]);
  }
  return out;
}

std::string RenderShapSummary(const ShapSummary& summary, int top_k) {
  std::ostringstream os;
  const size_t n = std::min<size_t>(summary.features.size(),
                                    static_cast<size_t>(std::max(top_k, 0)));
  double max_abs = 1e-300;
  size_t name_width = 0;
  for (size_t i = 0; i < n; ++i) {
    max_abs = std::max(max_abs, summary.mean_abs_shap[i]);
    name_width = std::max(name_width, summary.features[i].size());
  }
  for (size_t i = 0; i < n; ++i) {
    const int width = static_cast<int>(
        summary.mean_abs_shap[i] / max_abs * 24 + 0.5);
    const double dir = summary.direction[i];
    const char* arrow = dir > 0.2 ? "^" : (dir < -0.2 ? "v" : "~");
    os << summary.features[i]
       << std::string(name_width - summary.features[i].size(), ' ') << "  "
       << arrow << " " << std::string(static_cast<size_t>(width), '#') << " "
       << FormatDouble(summary.mean_abs_shap[i], 5) << " (dir "
       << FormatDouble(dir, 2) << ")\n";
  }
  return os.str();
}

}  // namespace mysawh::explain
