#include "core/drift_monitor.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "core/audit_log.h"
#include "util/json.h"
#include "util/metrics.h"
#include "util/monitor.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace mysawh::core {
namespace {

/// Proportions are clamped away from zero before the PSI log-ratio, the
/// standard guard that keeps an empty bin from producing an infinite
/// index.
constexpr double kPsiEpsilon = 1e-6;

std::atomic<bool> g_drift_enabled{false};

double Clamp(double p) { return p < kPsiEpsilon ? kPsiEpsilon : p; }

/// Bin index of one present value: the first edge at or above it, the
/// overflow bin otherwise. Edges are ascending, bins = edges.size() + 1.
size_t BinOf(const std::vector<double>& edges, double value) {
  const auto it = std::lower_bound(edges.begin(), edges.end(), value);
  return static_cast<size_t>(it - edges.begin());
}

/// PSI + KS from precomputed bin counts (`num_bins` = the baseline's bin
/// count, counts over present values only). The shared tail of the
/// strided single-column path and the fused row-major window sweep.
FeatureDriftStat StatFromCounts(const FeatureBaseline& base,
                                const int64_t* counts, int64_t missing,
                                int64_t rows) {
  FeatureDriftStat stat;
  stat.name = base.name;
  stat.rows = rows;
  if (rows == 0 || base.rows == 0) return stat;
  const size_t num_bins = std::max<size_t>(base.expected.size(), 1);
  const auto total = static_cast<double>(rows);
  const int64_t present = stat.rows - missing;
  stat.missing_actual = static_cast<double>(missing) / total;

  // PSI over num_bins + 1 components: each value bin scaled by the
  // present fraction, plus the missing bin, so missingness shift scores
  // exactly like value shift.
  double psi = 0.0;
  for (size_t b = 0; b < num_bins; ++b) {
    const double expected_present =
        b < base.expected.size() ? base.expected[b] : 0.0;
    const double e = Clamp(expected_present * (1.0 - base.missing_expected));
    const double a = Clamp(static_cast<double>(counts[b]) / total);
    psi += (a - e) * std::log(a / e);
  }
  {
    const double e = Clamp(base.missing_expected);
    const double a = Clamp(stat.missing_actual);
    psi += (a - e) * std::log(a / e);
  }
  stat.psi = psi;

  // KS: the maximum ECDF gap at the bin edges, present values only.
  if (!base.edges.empty() && present > 0) {
    double cum_expected = 0.0;
    double cum_actual = 0.0;
    double ks = 0.0;
    for (size_t b = 0; b + 1 < num_bins; ++b) {
      cum_expected += b < base.expected.size() ? base.expected[b] : 0.0;
      cum_actual +=
          static_cast<double>(counts[b]) / static_cast<double>(present);
      ks = std::max(ks, std::fabs(cum_expected - cum_actual));
    }
    stat.ks = ks;
  }
  return stat;
}

/// PSI + KS of one observed strided column against one baseline feature.
/// The stride lets callers evaluate row-major data in place.
FeatureDriftStat ComputeFeatureDriftStrided(const FeatureBaseline& base,
                                            const double* values,
                                            int64_t rows, int64_t stride) {
  if (rows == 0 || base.rows == 0) {
    return StatFromCounts(base, nullptr, 0, rows);
  }
  const size_t num_bins = std::max<size_t>(base.expected.size(), 1);
  std::vector<int64_t> counts(num_bins, 0);
  int64_t missing = 0;
  const double* edges = base.edges.data();
  const size_t num_edges = base.edges.size();
  for (int64_t r = 0; r < rows; ++r) {
    const double v = values[r * stride];
    if (std::isnan(v)) {
      ++missing;
      continue;
    }
    // Branchless lower_bound: the bin index is the number of edges
    // strictly below the value. Edge counts are single digits, so the
    // linear scan vectorizes and beats a binary search.
    size_t bin = 0;
    for (size_t j = 0; j < num_edges; ++j) bin += edges[j] < v ? 1 : 0;
    if (bin >= num_bins) bin = num_bins - 1;
    ++counts[bin];
  }
  return StatFromCounts(base, counts.data(), missing, rows);
}

FeatureDriftStat ComputeFeatureDrift(const FeatureBaseline& base,
                                     const std::vector<double>& values) {
  return ComputeFeatureDriftStrided(base, values.data(),
                                    static_cast<int64_t>(values.size()), 1);
}

/// Builds the baseline of one column: equal-frequency edges over the
/// present values, deduplicated (ties collapse bins), then the expected
/// proportions by re-binning the same values.
FeatureBaseline BuildFeatureBaseline(const std::string& name,
                                     const std::vector<double>& values,
                                     int num_bins) {
  FeatureBaseline base;
  base.name = name;
  base.rows = static_cast<int64_t>(values.size());
  std::vector<double> present;
  present.reserve(values.size());
  for (const double v : values) {
    if (!std::isnan(v)) present.push_back(v);
  }
  base.missing_expected =
      base.rows == 0
          ? 0.0
          : static_cast<double>(base.rows -
                                static_cast<int64_t>(present.size())) /
                static_cast<double>(base.rows);
  if (present.empty()) return base;  // All-missing: zero edges, no bins.

  std::sort(present.begin(), present.end());
  const size_t n = present.size();
  for (int k = 1; k < num_bins; ++k) {
    const size_t idx = (static_cast<size_t>(k) * n) / num_bins;
    const double edge = present[std::min(idx, n - 1)];
    if (base.edges.empty() || edge > base.edges.back()) {
      base.edges.push_back(edge);
    }
  }
  base.expected.assign(base.edges.size() + 1, 0.0);
  for (const double v : present) {
    base.expected[BinOf(base.edges, v)] += 1.0;
  }
  for (double& p : base.expected) p /= static_cast<double>(n);
  return base;
}

/// Builds a window report from per-feature stats (baseline order, then
/// the prediction stat). The argmax and threshold logic runs serially in
/// a fixed order, so stats computed in parallel assemble to the same
/// report as stats computed inline.
DriftReport AssembleReport(std::vector<FeatureDriftStat> features,
                           FeatureDriftStat prediction, bool has_prediction,
                           const DriftThresholds& thresholds, int64_t rows) {
  DriftReport report;
  report.rows = rows;
  const auto consider = [&](const FeatureDriftStat& stat) {
    if (report.max_psi_feature.empty() || stat.psi > report.max_psi) {
      report.max_psi = stat.psi;
      report.max_psi_feature = stat.name;
    }
    if (report.max_ks_feature.empty() || stat.ks > report.max_ks) {
      report.max_ks = stat.ks;
      report.max_ks_feature = stat.name;
    }
    if (stat.psi > thresholds.psi || stat.ks > thresholds.ks) {
      report.alerts.push_back(stat.name);
    }
  };
  report.features = std::move(features);
  for (const FeatureDriftStat& stat : report.features) consider(stat);
  report.prediction = std::move(prediction);
  if (has_prediction) consider(report.prediction);
  return report;
}

/// Shared core of EvaluateDrift and the streaming window: column-major
/// values, one column per baseline feature.
DriftReport EvaluateDriftColumns(const DriftBaseline& baseline,
                                 const std::vector<std::vector<double>>& cols,
                                 const std::vector<double>& preds,
                                 const DriftThresholds& thresholds,
                                 int64_t rows) {
  std::vector<FeatureDriftStat> stats;
  stats.reserve(baseline.features.size());
  for (size_t f = 0; f < baseline.features.size(); ++f) {
    stats.push_back(ComputeFeatureDrift(baseline.features[f], cols[f]));
  }
  FeatureDriftStat prediction;
  const bool has_prediction = !preds.empty() && baseline.prediction.rows > 0;
  if (has_prediction) {
    prediction = ComputeFeatureDrift(baseline.prediction, preds);
  } else {
    prediction.name = baseline.prediction.name.empty()
                          ? "__prediction__"
                          : baseline.prediction.name;
  }
  return AssembleReport(std::move(stats), std::move(prediction),
                        has_prediction, thresholds, rows);
}

void WriteFeatureBaseline(JsonWriter& w, const FeatureBaseline& base) {
  w.BeginObject()
      .Key("name").String(base.name)
      .Key("rows").Int(base.rows)
      .Key("missing").Number(base.missing_expected)
      .Key("edges").BeginArray();
  for (const double edge : base.edges) w.Number(edge);
  w.EndArray().Key("expected").BeginArray();
  for (const double share : base.expected) w.Number(share);
  w.EndArray().EndObject();
}

Result<FeatureBaseline> ParseFeatureBaseline(const JsonValue& value) {
  if (!value.is_object()) {
    return Status::InvalidArgument("drift baseline: feature is not an object");
  }
  FeatureBaseline base;
  const JsonValue* name = value.Find("name");
  if (name == nullptr || !name->is_string()) {
    return Status::InvalidArgument("drift baseline: feature without a name");
  }
  base.name = name->string_value();
  const JsonValue* rows = value.Find("rows");
  if (rows == nullptr || !rows->is_number()) {
    return Status::InvalidArgument("drift baseline: feature without rows");
  }
  base.rows = static_cast<int64_t>(rows->number_value());
  base.missing_expected = value.NumberOr("missing", 0.0);
  const auto read_array = [&](const char* key,
                              std::vector<double>& out) -> Status {
    const JsonValue* array = value.Find(key);
    if (array == nullptr || !array->is_array()) {
      return Status::InvalidArgument(std::string("drift baseline: feature ") +
                                     base.name + " lacks array " + key);
    }
    for (const JsonValue& item : array->array_items()) {
      out.push_back(item.is_null() ? std::nan("") : item.number_value());
    }
    return Status::Ok();
  };
  MYSAWH_RETURN_NOT_OK(read_array("edges", base.edges));
  MYSAWH_RETURN_NOT_OK(read_array("expected", base.expected));
  if (!base.expected.empty() &&
      base.expected.size() != base.edges.size() + 1) {
    return Status::DataLoss("drift baseline: feature " + base.name + " has " +
                            std::to_string(base.expected.size()) +
                            " proportions for " +
                            std::to_string(base.edges.size()) + " edges");
  }
  for (size_t i = 1; i < base.edges.size(); ++i) {
    if (!(base.edges[i] > base.edges[i - 1])) {
      return Status::DataLoss("drift baseline: feature " + base.name +
                              " edges are not ascending");
    }
  }
  return base;
}

void WriteFeatureDriftStat(JsonWriter& w, const FeatureDriftStat& stat) {
  w.BeginObject()
      .Key("name").String(stat.name)
      .Key("psi").Number(stat.psi)
      .Key("ks").Number(stat.ks)
      .Key("missing").Number(stat.missing_actual)
      .Key("rows").Int(stat.rows)
      .EndObject();
}

}  // namespace

Result<DriftBaseline> BuildDriftBaseline(const Dataset& train,
                                         const std::vector<double>& train_preds,
                                         int num_bins) {
  if (train.num_rows() == 0) {
    return Status::InvalidArgument("BuildDriftBaseline: empty training data");
  }
  if (num_bins < 2) {
    return Status::InvalidArgument("BuildDriftBaseline: num_bins must be >= 2");
  }
  if (!train_preds.empty() &&
      static_cast<int64_t>(train_preds.size()) != train.num_rows()) {
    return Status::InvalidArgument(
        "BuildDriftBaseline: prediction count != row count");
  }
  DriftBaseline baseline;
  baseline.num_bins = num_bins;
  std::vector<double> column(static_cast<size_t>(train.num_rows()));
  for (int64_t f = 0; f < train.num_features(); ++f) {
    for (int64_t r = 0; r < train.num_rows(); ++r) {
      column[static_cast<size_t>(r)] = train.At(r, f);
    }
    baseline.features.push_back(BuildFeatureBaseline(
        train.feature_names()[static_cast<size_t>(f)], column, num_bins));
  }
  if (train_preds.empty()) {
    baseline.prediction.name = "__prediction__";
  } else {
    baseline.prediction =
        BuildFeatureBaseline("__prediction__", train_preds, num_bins);
  }
  return baseline;
}

Result<DriftReport> EvaluateDrift(const DriftBaseline& baseline,
                                  const Dataset& data,
                                  const std::vector<double>& preds,
                                  const DriftThresholds& thresholds) {
  if (data.num_rows() == 0) {
    return Status::InvalidArgument("EvaluateDrift: empty data");
  }
  if (data.num_features() !=
      static_cast<int64_t>(baseline.features.size())) {
    return Status::InvalidArgument(
        "EvaluateDrift: dataset width " + std::to_string(data.num_features()) +
        " != baseline width " + std::to_string(baseline.features.size()));
  }
  if (!preds.empty() &&
      static_cast<int64_t>(preds.size()) != data.num_rows()) {
    return Status::InvalidArgument(
        "EvaluateDrift: prediction count != row count");
  }
  std::vector<std::vector<double>> cols(baseline.features.size());
  for (size_t f = 0; f < cols.size(); ++f) {
    cols[f].resize(static_cast<size_t>(data.num_rows()));
    for (int64_t r = 0; r < data.num_rows(); ++r) {
      cols[f][static_cast<size_t>(r)] = data.At(r, static_cast<int64_t>(f));
    }
  }
  return EvaluateDriftColumns(baseline, cols, preds, thresholds,
                              data.num_rows());
}

std::string DriftBaselineJson(const DriftBaseline& baseline) {
  JsonWriter w;
  w.BeginObject()
      .Key("schema").String("mysawh-drift-baseline v1")
      .Key("num_bins").Int(baseline.num_bins)
      .Key("features").BeginArray();
  for (const FeatureBaseline& base : baseline.features) {
    WriteFeatureBaseline(w, base);
  }
  w.EndArray().Key("prediction");
  WriteFeatureBaseline(w, baseline.prediction);
  return w.EndObject().Take();
}

Result<DriftBaseline> ParseDriftBaseline(const std::string& json) {
  MYSAWH_ASSIGN_OR_RETURN(JsonValue root, ParseJson(json));
  if (!root.is_object()) {
    return Status::InvalidArgument("drift baseline: not a JSON object");
  }
  if (root.StringOr("schema", "") != "mysawh-drift-baseline v1") {
    return Status::InvalidArgument(
        "drift baseline: missing or unknown schema (want "
        "\"mysawh-drift-baseline v1\")");
  }
  DriftBaseline baseline;
  baseline.num_bins = static_cast<int>(root.NumberOr("num_bins", 10));
  if (baseline.num_bins < 2) {
    return Status::DataLoss("drift baseline: num_bins < 2");
  }
  const JsonValue* features = root.Find("features");
  if (features == nullptr || !features->is_array()) {
    return Status::InvalidArgument("drift baseline: missing features array");
  }
  for (const JsonValue& item : features->array_items()) {
    MYSAWH_ASSIGN_OR_RETURN(FeatureBaseline base, ParseFeatureBaseline(item));
    baseline.features.push_back(std::move(base));
  }
  if (baseline.features.empty()) {
    return Status::DataLoss("drift baseline: zero features");
  }
  const JsonValue* prediction = root.Find("prediction");
  if (prediction != nullptr) {
    MYSAWH_ASSIGN_OR_RETURN(baseline.prediction,
                            ParseFeatureBaseline(*prediction));
  } else {
    baseline.prediction.name = "__prediction__";
  }
  return baseline;
}

std::string DriftReportJson(const DriftReport& report) {
  JsonWriter w;
  w.BeginObject()
      .Key("rows").Int(report.rows)
      .Key("max_psi").Number(report.max_psi)
      .Key("max_psi_feature").String(report.max_psi_feature)
      .Key("max_ks").Number(report.max_ks)
      .Key("max_ks_feature").String(report.max_ks_feature)
      .Key("alerts").BeginArray();
  for (const std::string& alert : report.alerts) w.String(alert);
  w.EndArray().Key("prediction");
  WriteFeatureDriftStat(w, report.prediction);
  w.Key("features").BeginArray();
  for (const FeatureDriftStat& stat : report.features) {
    WriteFeatureDriftStat(w, stat);
  }
  return w.EndArray().EndObject().Take();
}

bool DriftMonitoringEnabled() {
  return g_drift_enabled.load(std::memory_order_relaxed);
}

DriftMonitorRuntime& DriftMonitorRuntime::Global() {
  static DriftMonitorRuntime* const runtime = new DriftMonitorRuntime();
  return *runtime;
}

Status DriftMonitorRuntime::Configure(DriftBaseline baseline,
                                      DriftMonitorOptions options) {
  if (baseline.features.empty()) {
    return Status::InvalidArgument("drift monitor: empty baseline");
  }
  if (options.window < 1) {
    return Status::InvalidArgument("drift monitor: window must be >= 1");
  }
  if (options.sample_rate < 1) {
    return Status::InvalidArgument("drift monitor: sample rate must be >= 1");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  baseline_ = std::move(baseline);
  layout_ = BinLayout();
  size_t max_edges = 0;
  for (const FeatureBaseline& base : baseline_.features) {
    max_edges = std::max(max_edges, base.edges.size());
    const auto nbins =
        static_cast<int64_t>(std::max<size_t>(base.expected.size(), 1));
    layout_.nbins.push_back(nbins);
    layout_.offset.push_back(layout_.total_bins);
    layout_.total_bins += nbins;
  }
  // Strictly greater than max_edges: the binary search's log2(pad) steps
  // reach ranks up to pad - 1, so at least one +inf sentinel slot must
  // absorb the "every real edge is below v" case.
  layout_.pad = 1;
  while (layout_.pad <= static_cast<int64_t>(max_edges)) layout_.pad <<= 1;
  layout_.padded_edges.assign(
      baseline_.features.size() * static_cast<size_t>(layout_.pad),
      std::numeric_limits<double>::infinity());
  for (size_t f = 0; f < baseline_.features.size(); ++f) {
    std::copy(baseline_.features[f].edges.begin(),
              baseline_.features[f].edges.end(),
              layout_.padded_edges.begin() +
                  static_cast<int64_t>(f) * layout_.pad);
  }
  options_ = options;
  window_rows_.clear();
  window_preds_.clear();
  buffered_ = 0;
  alert_latched_ = false;
  has_report_ = false;
  g_drift_enabled.store(true, std::memory_order_relaxed);
  return Status::Ok();
}

void DriftMonitorRuntime::Disable() {
  g_drift_enabled.store(false, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mutex_);
  window_rows_.clear();
  window_preds_.clear();
  buffered_ = 0;
  alert_latched_ = false;
}

void DriftMonitorRuntime::ObserveBatch(const Dataset& data,
                                       const std::vector<double>& preds) {
  if (!DriftMonitoringEnabled()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  const auto width = static_cast<int64_t>(baseline_.features.size());
  if (data.num_features() != width ||
      static_cast<int64_t>(preds.size()) != data.num_rows()) {
    return;  // A different model's batch: not this monitor's population.
  }
  const int64_t n = data.num_rows();
  const int64_t window = options_.window;
  if (options_.sample_rate > 1) {
    ObserveSampledLocked(data, preds, width);
    return;
  }
  std::vector<WindowRef> ready;
  int64_t r = 0;
  bool buffer_pending = false;
  if (buffered_ > 0) {
    // Top up the partial window carried over from the previous batch.
    const int64_t take = std::min(window - buffered_, n);
    const double* first = data.row(0);
    window_rows_.insert(window_rows_.end(), first, first + take * width);
    window_preds_.insert(window_preds_.end(), preds.begin(),
                         preds.begin() + take);
    buffered_ += take;
    r = take;
    if (buffered_ >= window) {
      ready.push_back({window_rows_.data(), window_preds_.data(), window});
      buffer_pending = true;
    }
  }
  // Whole windows inside the batch evaluate in place: rows are contiguous
  // in the dataset, so the steady-state path copies nothing.
  for (; n - r >= window; r += window) {
    ready.push_back({data.row(r), preds.data() + r, window});
  }
  if (!ready.empty()) EvaluateWindowsLocked(ready);
  if (buffer_pending) {
    window_rows_.clear();
    window_preds_.clear();
    buffered_ = 0;
  }
  if (r < n) {  // Carry the tail into the next window.
    const double* tail = data.row(r);
    window_rows_.insert(window_rows_.end(), tail, tail + (n - r) * width);
    window_preds_.insert(window_preds_.end(), preds.begin() + r, preds.end());
    buffered_ += n - r;
  }
}

void DriftMonitorRuntime::ObserveSampledLocked(const Dataset& data,
                                               const std::vector<double>& preds,
                                               int64_t width) {
  // The sampling sweep — a leading-features hash per row — is the only
  // work paid for every row. It chunk-parallelizes on multicore machines
  // and admits an identical population for any worker count: chunk
  // boundaries are fixed and chunks merge in index order.
  constexpr int64_t kChunk = 1024;
  const int64_t n = data.num_rows();
  const int64_t num_chunks = (n + kChunk - 1) / kChunk;
  std::vector<std::vector<int64_t>> picked(static_cast<size_t>(num_chunks));
  const int64_t rate = options_.sample_rate;
  DefaultPool().ParallelForChunks(
      n, kChunk, [&](int64_t chunk, int64_t begin, int64_t end) {
        std::vector<int64_t>& out = picked[static_cast<size_t>(chunk)];
        for (int64_t r = begin; r < end; ++r) {
          if (AuditSampled(AuditSampleKey(data.row(r), width), rate)) {
            out.push_back(r);
          }
        }
      });
  const int64_t window = options_.window;
  for (const std::vector<int64_t>& chunk : picked) {
    for (const int64_t r : chunk) {
      const double* row = data.row(r);
      window_rows_.insert(window_rows_.end(), row, row + width);
      window_preds_.push_back(preds[static_cast<size_t>(r)]);
      if (++buffered_ == window) {
        const std::vector<WindowRef> ready = {
            {window_rows_.data(), window_preds_.data(), window}};
        EvaluateWindowsLocked(ready);
        window_rows_.clear();
        window_preds_.clear();
        buffered_ = 0;
      }
    }
  }
}

void DriftMonitorRuntime::Flush() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (buffered_ > 0) {
      const std::vector<WindowRef> ready = {
          {window_rows_.data(), window_preds_.data(), buffered_}};
      EvaluateWindowsLocked(ready);
      window_rows_.clear();
      window_preds_.clear();
      buffered_ = 0;
    }
  }
  g_drift_enabled.store(false, std::memory_order_relaxed);
}

std::string DriftMonitorRuntime::LastReportJson() {
  std::lock_guard<std::mutex> lock(mutex_);
  // Serialized on demand: rendering round-trip-exact doubles per window
  // would cost more than evaluating the window.
  return has_report_ ? DriftReportJson(last_report_) : std::string();
}

void DriftMonitorRuntime::EvaluateWindowsLocked(
    const std::vector<WindowRef>& windows) {
  const auto width = static_cast<int64_t>(baseline_.features.size());
  const bool has_prediction = baseline_.prediction.rows > 0;
  for (const WindowRef& win : windows) {
    // Fused row-major counting: one sequential sweep bins every feature
    // of a row at once. The per-feature strided alternative re-reads the
    // window `width` times, paying a cache miss per value once the window
    // outgrows L1. Rows are chunked for multicore machines; integer bin
    // counts merge exactly for any partition, so the report is identical
    // for any worker count (and the chunks run inline on a single core).
    constexpr int64_t kRowChunk = 128;
    const auto num_chunks =
        static_cast<size_t>((win.count + kRowChunk - 1) / kRowChunk);
    std::vector<std::vector<int64_t>> counts(num_chunks);
    std::vector<std::vector<int64_t>> missing(num_chunks);
    DefaultPool().ParallelForChunks(
        win.count, kRowChunk, [&](int64_t chunk, int64_t begin, int64_t end) {
          std::vector<int64_t>& c = counts[static_cast<size_t>(chunk)];
          std::vector<int64_t>& m = missing[static_cast<size_t>(chunk)];
          c.assign(static_cast<size_t>(layout_.total_bins), 0);
          m.assign(static_cast<size_t>(width), 0);
          const double* padded = layout_.padded_edges.data();
          const int64_t* nbins = layout_.nbins.data();
          const int64_t* offset = layout_.offset.data();
          const int64_t pad = layout_.pad;
          for (int64_t r = begin; r < end; ++r) {
            const double* row = win.rows + r * width;
            const double* edges = padded;
            for (int64_t f = 0; f < width; ++f, edges += pad) {
              const double v = row[f];
              if (std::isnan(v)) {
                ++m[static_cast<size_t>(f)];
                continue;
              }
              // Branchless binary search over the padded edges for the
              // count of edges strictly below the value (+inf padding
              // never is): log2(pad) compares, no data-dependent branch.
              int64_t bin = 0;
              for (int64_t step = pad >> 1; step > 0; step >>= 1) {
                bin += edges[bin + step - 1] < v ? step : 0;
              }
              if (bin >= nbins[f]) bin = nbins[f] - 1;
              ++c[static_cast<size_t>(offset[f] + bin)];
            }
          }
        });
    for (size_t chunk = 1; chunk < num_chunks; ++chunk) {
      for (size_t i = 0; i < counts[0].size(); ++i) {
        counts[0][i] += counts[chunk][i];
      }
      for (size_t f = 0; f < missing[0].size(); ++f) {
        missing[0][f] += missing[chunk][f];
      }
    }
    std::vector<FeatureDriftStat> stats(static_cast<size_t>(width));
    for (int64_t f = 0; f < width; ++f) {
      stats[static_cast<size_t>(f)] = StatFromCounts(
          baseline_.features[static_cast<size_t>(f)],
          counts[0].data() + layout_.offset[static_cast<size_t>(f)],
          missing[0][static_cast<size_t>(f)], win.count);
    }
    FeatureDriftStat prediction;
    if (has_prediction) {
      prediction = ComputeFeatureDriftStrided(baseline_.prediction, win.preds,
                                              win.count, 1);
    } else {
      prediction.name = baseline_.prediction.name.empty()
                            ? "__prediction__"
                            : baseline_.prediction.name;
    }
    // Reports assemble and latch strictly in window order.
    ProcessReportLocked(AssembleReport(std::move(stats), std::move(prediction),
                                       has_prediction, options_.thresholds,
                                       win.count));
  }
}

void DriftMonitorRuntime::ProcessReportLocked(DriftReport report) {
  windows_.fetch_add(1, std::memory_order_relaxed);
  static Counter* const windows_counter =
      MetricsRegistry::Global().GetCounter("drift.windows");
  windows_counter->Increment();
  last_report_ = std::move(report);
  has_report_ = true;
  const DriftReport& current = last_report_;
  const int64_t rows = current.rows;

  if (current.alerts.empty()) {
    alert_latched_ = false;  // A clean window re-arms the latch.
    return;
  }
  if (alert_latched_) return;  // One event per excursion.
  alert_latched_ = true;
  alerts_.fetch_add(1, std::memory_order_relaxed);
  static Counter* const alerts_counter =
      MetricsRegistry::Global().GetCounter("drift.alerts");
  alerts_counter->Increment();

  JsonWriter event;
  event.BeginObject()
      .Key("type").String("drift")
      .Key("window_rows").Int(rows)
      .Key("max_psi").Number(current.max_psi)
      .Key("max_psi_feature").String(current.max_psi_feature)
      .Key("max_ks").Number(current.max_ks)
      .Key("max_ks_feature").String(current.max_ks_feature)
      .Key("alerts").BeginArray();
  for (const std::string& alert : current.alerts) event.String(alert);
  event.EndArray().EndObject();
  if (Monitor* monitor = Monitor::Current()) {
    monitor->AppendEvent(event.Take());
  }
  if (TracingEnabled()) {
    TraceEvent trace_event;
    trace_event.name = "drift.alert";
    trace_event.cat = "monitor";
    trace_event.ts_us = Tracer::Global().NowMicros();
    trace_event.dur_us = 0;
    trace_event.args = JsonWriter()
                           .Key("alerts").Int(current.alerts.size())
                           .Key("window_rows").Int(rows)
                           .Take();
    Tracer::Global().Record(std::move(trace_event));
  }
}

}  // namespace mysawh::core
