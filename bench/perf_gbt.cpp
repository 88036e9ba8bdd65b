/// google-benchmark microbenchmarks for the gradient boosting substrate:
/// training throughput (by rows/features/depth) and batch prediction
/// latency.

#include <benchmark/benchmark.h>

#include <bitset>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>

#include "bench/perf_json_main.h"
#include "bench/study_shaped_data.h"
#include "core/audit_log.h"
#include "core/drift_monitor.h"
#include "core/evaluation.h"
#include "data/dataset.h"
#include "gbt/binning.h"
#include "gbt/gbt_model.h"
#include "gbt/histogram.h"
#include "util/metrics.h"
#include "util/monitor.h"
#include "util/rng.h"
#include "util/trace.h"

namespace {

using mysawh::Counter;
using mysawh::Dataset;
using mysawh::core::AuditLog;
using mysawh::core::AuditOptions;
using mysawh::core::BuildDriftBaseline;
using mysawh::core::DriftBaseline;
using mysawh::core::DriftMonitorOptions;
using mysawh::core::DriftMonitorRuntime;
using mysawh::MetricsRegistry;
using mysawh::Rng;
using mysawh::Tracer;
using mysawh::gbt::BinnedData;
using mysawh::gbt::BuildBinned;
using mysawh::gbt::GbtModel;
using mysawh::gbt::GbtParams;
using mysawh::gbt::GradientPair;
using mysawh::gbt::HistogramBuilder;
using mysawh::gbt::HistogramLayout;
using mysawh::gbt::NodeHistogram;
using mysawh::gbt::RegressionTree;
using mysawh::gbt::TreeNode;

Dataset MakeData(int64_t rows, int64_t features, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> names;
  for (int64_t f = 0; f < features; ++f) {
    std::string name = "f";
    name += std::to_string(f);
    names.push_back(std::move(name));
  }
  Dataset ds = Dataset::Create(names);
  for (int64_t i = 0; i < rows; ++i) {
    std::vector<double> row(static_cast<size_t>(features));
    double y = 0;
    for (int64_t f = 0; f < features; ++f) {
      row[static_cast<size_t>(f)] = rng.Uniform(-1, 1);
      y += (f % 3 == 0 ? 1.0 : -0.3) * row[static_cast<size_t>(f)];
    }
    y += 0.5 * row[0] * row[0];
    (void)ds.AddRow(row, y + rng.Normal(0, 0.1));
  }
  return ds;
}

GbtParams BenchParams() {
  GbtParams params;
  params.num_trees = 20;
  params.max_depth = 4;
  return params;
}

void BM_TrainHist(benchmark::State& state) {
  const Dataset data = MakeData(state.range(0), state.range(1), 1);
  const GbtParams params = BenchParams();
  // Histogram pipeline counters live in the metrics registry now; training
  // is deterministic, so the per-run node counts are exactly the counter
  // delta divided by the iteration count.
  Counter* const direct =
      MetricsRegistry::Global().GetCounter("gbt.train.hist_nodes_direct");
  Counter* const subtracted =
      MetricsRegistry::Global().GetCounter("gbt.train.hist_nodes_subtracted");
  const int64_t direct_before = direct->Value();
  const int64_t subtracted_before = subtracted->Value();
  for (auto _ : state) {
    auto model = GbtModel::Train(data, params);
    benchmark::DoNotOptimize(model);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  const auto iterations = static_cast<int64_t>(state.iterations());
  state.counters["nodes_direct"] = static_cast<double>(
      (direct->Value() - direct_before) / iterations);
  state.counters["nodes_subtracted"] = static_cast<double>(
      (subtracted->Value() - subtracted_before) / iterations);
}
BENCHMARK(BM_TrainHist)
    ->Args({500, 16})
    ->Args({2000, 16})
    ->Args({2000, 64})
    ->Args({8000, 64})
    ->Unit(benchmark::kMillisecond);

/// Mean bins and occupied bins per feature scan that a trained model
/// implies. Every node the trainer scanned (depth < max_depth and at least
/// 2 * min_samples_leaf rows) is revisited with all rows routed by the
/// model's thresholds, and each feature's bins holding a present row are
/// counted there. The full row set stands in for each tree's row
/// subsample, and all features for its column sample.
struct ScanShape {
  double bins = 0.0;
  double occupied = 0.0;
};

ScanShape MeasureScanShape(const Dataset& data, const GbtModel& model,
                           const GbtParams& params) {
  const BinnedData binned =
      BuildBinned(data, params.max_bins, nullptr).value();
  double bins = 0.0, occupied = 0.0, scans = 0.0;
  for (const RegressionTree& tree : model.trees()) {
    const auto nodes = static_cast<size_t>(tree.num_nodes());
    std::vector<std::vector<int64_t>> rows(nodes);
    std::vector<int> depth(nodes, 0);
    for (int64_t r = 0; r < data.num_rows(); ++r) {
      for (int id = 0;;) {
        rows[static_cast<size_t>(id)].push_back(r);
        const TreeNode& node = tree.node(id);
        if (node.IsLeaf()) break;
        const double v = data.At(r, node.feature);
        const bool left = std::isnan(v) ? node.default_left
                                        : v < node.threshold;
        const int child = left ? node.left : node.right;
        depth[static_cast<size_t>(child)] = depth[static_cast<size_t>(id)] + 1;
        id = child;
      }
    }
    for (size_t id = 0; id < nodes; ++id) {
      if (depth[id] >= params.max_depth ||
          static_cast<int64_t>(rows[id].size()) <
              2 * params.min_samples_leaf) {
        continue;
      }
      for (int64_t f = 0; f < data.num_features(); ++f) {
        std::bitset<256> seen;
        for (const int64_t r : rows[id]) seen.set(binned.matrix.At(r, f));
        seen.reset(mysawh::gbt::kMissingBin);
        bins += binned.bins.num_bins(f);
        occupied += static_cast<double>(seen.count());
        scans += 1.0;
      }
    }
  }
  return {bins / scans, occupied / scans};
}

/// One data-driven study fit on the study-shaped partition with the
/// study's DD settings (300 trees, subsample 0.9, colsample 0.8). Unlike
/// BM_TrainHist it pays for the row subsample, the missing-value direction
/// scan and the score update of out-of-sample rows. The counters report
/// the split-find shape (MeasureScanShape); the study's own scans average
/// 57.7 bins, 29.6 of them occupied.
void BM_TrainStudyShape(benchmark::State& state) {
  const Dataset data = mysawh::bench::MakeStudyShapedData(3);
  const GbtParams params = mysawh::core::DefaultGbtParams(
      mysawh::core::Outcome::kQol, mysawh::core::Approach::kDataDriven);
  for (auto _ : state) {
    auto model = GbtModel::Train(data, params);
    benchmark::DoNotOptimize(model);
  }
  state.SetItemsProcessed(state.iterations() * params.num_trees);
  const ScanShape shape =
      MeasureScanShape(data, GbtModel::Train(data, params).value(), params);
  state.counters["bins_per_scan"] = shape.bins;
  state.counters["occupied_bins_per_scan"] = shape.occupied;
  state.counters["occupied_share"] = shape.occupied / shape.bins;
}
BENCHMARK(BM_TrainStudyShape)->Unit(benchmark::kMillisecond);

/// The tracing-enabled twin of BM_TrainHist/2000/64: every span records an
/// event, so comparing against the disabled run bounds the observability
/// overhead (docs/observability.md budgets it at < 5%).
void BM_TrainHistTraceEnabled(benchmark::State& state) {
  const Dataset data = MakeData(state.range(0), state.range(1), 1);
  const GbtParams params = BenchParams();
  for (auto _ : state) {
    // Enable() clears the previous iteration's events, so the buffer cost
    // stays bounded and every iteration traces the same span population.
    Tracer::Global().Enable();
    auto model = GbtModel::Train(data, params);
    benchmark::DoNotOptimize(model);
  }
  Tracer::Global().Disable();
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.counters["trace_events"] =
      static_cast<double>(Tracer::Global().event_count());
}
BENCHMARK(BM_TrainHistTraceEnabled)
    ->Args({2000, 64})
    ->Unit(benchmark::kMillisecond);

/// The monitored twin of BM_TrainHist/2000/64: a live Monitor heartbeats
/// at an aggressive 50ms cadence (with the stall watchdog armed) while
/// training runs. Comparing against BM_MonitorDisabled below bounds the
/// monitor's overhead, budgeted at <= 1% — the monitor thread samples
/// /proc and diffs counters off the training threads' critical path.
void BM_MonitorOverhead(benchmark::State& state) {
  const Dataset data = MakeData(state.range(0), state.range(1), 1);
  const GbtParams params = BenchParams();
  mysawh::MonitorOptions options;
  options.status_path = "/tmp/mysawh_bench_status.json";
  options.interval_ms = 50;
  options.stall_timeout_ms = 10000;
  mysawh::Monitor monitor(options);
  if (!monitor.Start().ok()) {
    state.SkipWithError("monitor failed to start");
    return;
  }
  for (auto _ : state) {
    auto model = GbtModel::Train(data, params);
    benchmark::DoNotOptimize(model);
  }
  monitor.Stop();
  std::remove(options.status_path.c_str());
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.counters["heartbeats"] =
      static_cast<double>(monitor.heartbeats_written());
}
BENCHMARK(BM_MonitorOverhead)
    ->Args({2000, 64})
    ->Unit(benchmark::kMillisecond);

/// The no-monitor twin, byte-for-byte the same training loop. The
/// perf-trend diff pairs this with BM_MonitorOverhead so the overhead
/// number never conflates monitor cost with unrelated training drift.
void BM_MonitorDisabled(benchmark::State& state) {
  const Dataset data = MakeData(state.range(0), state.range(1), 1);
  const GbtParams params = BenchParams();
  for (auto _ : state) {
    auto model = GbtModel::Train(data, params);
    benchmark::DoNotOptimize(model);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MonitorDisabled)
    ->Args({2000, 64})
    ->Unit(benchmark::kMillisecond);

/// The histogram accumulation pass in isolation: one root-node histogram
/// over all rows and features (the single-pass row-major kernel plus the
/// deterministic chunked reduction, without split finding on top). Each
/// iteration hands its histogram back, so the next one builds in reused
/// storage, as training does.
void BM_HistogramBuild(benchmark::State& state) {
  const Dataset data = MakeData(state.range(0), state.range(1), 1);
  const BinnedData binned = BuildBinned(data, 64, nullptr).value();
  std::vector<int> features;
  for (int64_t f = 0; f < data.num_features(); ++f) {
    features.push_back(static_cast<int>(f));
  }
  const HistogramLayout layout(binned.bins, features);
  HistogramBuilder builder(binned.bins, binned.matrix, nullptr);
  std::vector<int64_t> rows;
  std::vector<GradientPair> gpairs;
  for (int64_t r = 0; r < data.num_rows(); ++r) {
    rows.push_back(r);
    gpairs.push_back({data.label(r), 1.0});
  }
  for (auto _ : state) {
    NodeHistogram hist = builder.Build(layout, rows, gpairs);
    benchmark::DoNotOptimize(hist);
    builder.Recycle(std::move(hist));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HistogramBuild)
    ->Args({2000, 64})
    ->Args({8000, 64})
    ->Unit(benchmark::kMicrosecond);

void BM_TrainDepth(benchmark::State& state) {
  const Dataset data = MakeData(2000, 32, 2);
  GbtParams params = BenchParams();
  params.max_depth = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto model = GbtModel::Train(data, params);
    benchmark::DoNotOptimize(model);
  }
}
BENCHMARK(BM_TrainDepth)->Arg(2)->Arg(4)->Arg(6)->Arg(8)
    ->Unit(benchmark::kMillisecond);

/// Batch prediction through the compiled flat-forest kernel (the default
/// dispatch). BM_PredictBatchRef is the reference-walker twin over the
/// same model and rows; their ratio is the compilation speedup claimed in
/// DESIGN.md and gated by tools/bench_diff.py.
void BM_PredictBatch(benchmark::State& state) {
  const Dataset train = MakeData(2000, 32, 3);
  GbtParams params = BenchParams();
  params.num_trees = static_cast<int>(state.range(0));
  const GbtModel model = GbtModel::Train(train, params).value();
  const Dataset test = MakeData(1000, 32, 4);
  for (auto _ : state) {
    auto preds = model.Predict(test);
    benchmark::DoNotOptimize(preds);
  }
  state.SetItemsProcessed(state.iterations() * test.num_rows());
}
BENCHMARK(BM_PredictBatch)->Arg(20)->Arg(100)->Arg(300)
    ->Unit(benchmark::kMillisecond);

/// Reference twin of BM_PredictBatch: the per-row pointer walker over the
/// original tree nodes, bypassing the flat forest.
void BM_PredictBatchRef(benchmark::State& state) {
  const Dataset train = MakeData(2000, 32, 3);
  GbtParams params = BenchParams();
  params.num_trees = static_cast<int>(state.range(0));
  const GbtModel model = GbtModel::Train(train, params).value();
  const Dataset test = MakeData(1000, 32, 4);
  for (auto _ : state) {
    auto preds = model.PredictReference(test);
    benchmark::DoNotOptimize(preds);
  }
  state.SetItemsProcessed(state.iterations() * test.num_rows());
}
BENCHMARK(BM_PredictBatchRef)->Arg(20)->Arg(100)->Arg(300)
    ->Unit(benchmark::kMillisecond);

/// Overhead twin of BM_PredictBatch/300: the same batch predict with the
/// audit log armed at the default 1-in-16 sampling. Reconfiguring per
/// iteration clears the record buffer so memory stays bounded; the delta
/// over BM_PredictBatch is the audit overhead budget (<= 1%) gated by
/// tools/bench_diff.py.
void BM_AuditLog(benchmark::State& state) {
  const Dataset train = MakeData(2000, 32, 3);
  GbtParams params = BenchParams();
  params.num_trees = static_cast<int>(state.range(0));
  const GbtModel model = GbtModel::Train(train, params).value();
  const Dataset test = MakeData(1000, 32, 4);
  AuditOptions options;
  options.sample_rate = 16;
  for (auto _ : state) {
    (void)AuditLog::Global().Configure(options);
    auto preds = model.Predict(test);
    benchmark::DoNotOptimize(preds);
  }
  AuditLog::Global().Disable();
  state.SetItemsProcessed(state.iterations() * test.num_rows());
}
BENCHMARK(BM_AuditLog)->Arg(300)->Unit(benchmark::kMillisecond);

/// Overhead twin of BM_PredictBatch/300 with the drift monitor armed at
/// the CLI-default 1-in-16 row sampling: every predicted batch streams
/// through the monitor, which scores 256-row windows of sampled rows
/// against a training-time baseline. Configured once so the loop measures
/// the steady-state monitored predict (the criterion's scenario).
void BM_DriftMonitor(benchmark::State& state) {
  const Dataset train = MakeData(2000, 32, 3);
  GbtParams params = BenchParams();
  params.num_trees = static_cast<int>(state.range(0));
  const GbtModel model = GbtModel::Train(train, params).value();
  const Dataset test = MakeData(1000, 32, 4);
  const DriftBaseline baseline =
      BuildDriftBaseline(train, model.Predict(train).value(), 10).value();
  DriftMonitorOptions options;
  options.window = 256;
  options.sample_rate = 16;
  (void)DriftMonitorRuntime::Global().Configure(baseline, options);
  for (auto _ : state) {
    auto preds = model.Predict(test);
    benchmark::DoNotOptimize(preds);
  }
  DriftMonitorRuntime::Global().Flush();
  state.SetItemsProcessed(state.iterations() * test.num_rows());
}
BENCHMARK(BM_DriftMonitor)->Arg(300)->Unit(benchmark::kMillisecond);

void BM_Serialize(benchmark::State& state) {
  const Dataset train = MakeData(2000, 32, 5);
  GbtParams params = BenchParams();
  params.num_trees = 100;
  const GbtModel model = GbtModel::Train(train, params).value();
  for (auto _ : state) {
    auto text = model.Serialize();
    benchmark::DoNotOptimize(text);
  }
}
BENCHMARK(BM_Serialize)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return mysawh::bench::RunPerfBenchmarks(argc, argv, "BENCH_perf.json");
}
