/// google-benchmark microbenchmarks for exact TreeSHAP: per-row explanation
/// latency as a function of ensemble size and tree depth, batch SHAP
/// against its reference twin, and a deployment-shaped ExplainRow on a
/// reused TreeShap and on a fresh one per request.

#include <benchmark/benchmark.h>

#include "bench/perf_json_main.h"
#include "bench/study_shaped_data.h"
#include "core/evaluation.h"
#include "data/dataset.h"
#include "explain/explanation.h"
#include "explain/tree_shap.h"
#include "gbt/gbt_model.h"
#include "util/rng.h"

namespace {

using mysawh::Dataset;
using mysawh::Rng;
using mysawh::explain::TreeShap;
using mysawh::gbt::GbtModel;
using mysawh::gbt::GbtParams;

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
      y += (f % 2 == 0 ? 0.8 : -0.4) * row[static_cast<size_t>(f)];
    }
    (void)ds.AddRow(row, y + rng.Normal(0, 0.05));
  }
  return ds;
}

void BM_ShapByTrees(benchmark::State& state) {
  const Dataset train = MakeData(2000, 30, 1);
  GbtParams params;
  params.num_trees = static_cast<int>(state.range(0));
  params.max_depth = 4;
  const GbtModel model = GbtModel::Train(train, params).value();
  const TreeShap shap(&model);
  const Dataset probe = MakeData(1, 30, 2);
  for (auto _ : state) {
    auto phi = shap.Shap(probe.row(0));
    benchmark::DoNotOptimize(phi);
  }
}
BENCHMARK(BM_ShapByTrees)->Arg(20)->Arg(100)->Arg(300)
    ->Unit(benchmark::kMicrosecond);

void BM_ShapByDepth(benchmark::State& state) {
  const Dataset train = MakeData(4000, 30, 3);
  GbtParams params;
  params.num_trees = 50;
  params.max_depth = static_cast<int>(state.range(0));
  const GbtModel model = GbtModel::Train(train, params).value();
  const TreeShap shap(&model);
  const Dataset probe = MakeData(1, 30, 4);
  for (auto _ : state) {
    auto phi = shap.Shap(probe.row(0));
    benchmark::DoNotOptimize(phi);
  }
}
BENCHMARK(BM_ShapByDepth)->Arg(2)->Arg(4)->Arg(6)->Arg(8)
    ->Unit(benchmark::kMicrosecond);

/// Batch SHAP through the model's cached pattern tables (the default
/// dispatch). BM_ShapBatchRef is the reference per-tree recursion twin;
/// their ratio is the table-replay speedup claimed in DESIGN.md.
void BM_ShapBatch(benchmark::State& state) {
  const Dataset train = MakeData(2000, 59, 5);  // paper-width feature space
  GbtParams params;
  params.num_trees = 100;
  params.max_depth = 4;
  const GbtModel model = GbtModel::Train(train, params).value();
  const TreeShap shap(&model);
  const Dataset probe = MakeData(state.range(0), 59, 6);
  for (auto _ : state) {
    auto matrix = shap.ShapBatch(probe);
    benchmark::DoNotOptimize(matrix);
  }
  state.SetItemsProcessed(state.iterations() * probe.num_rows());
}
BENCHMARK(BM_ShapBatch)->Arg(10)->Arg(100)->Unit(benchmark::kMillisecond);

/// Reference twin of BM_ShapBatch: per-row recursion over the original
/// tree nodes, one workspace per row.
void BM_ShapBatchRef(benchmark::State& state) {
  const Dataset train = MakeData(2000, 59, 5);
  GbtParams params;
  params.num_trees = 100;
  params.max_depth = 4;
  const GbtModel model = GbtModel::Train(train, params).value();
  const TreeShap shap(&model);
  const Dataset probe = MakeData(state.range(0), 59, 6);
  for (auto _ : state) {
    auto matrix = shap.ShapBatchReference(probe);
    benchmark::DoNotOptimize(matrix);
  }
  state.SetItemsProcessed(state.iterations() * probe.num_rows());
}
BENCHMARK(BM_ShapBatchRef)->Arg(10)->Arg(100)->Unit(benchmark::kMillisecond);

/// One per-patient request as deployed: ExplainRow (prediction plus SHAP
/// contributions ranked by size) on a data-driven study fit (300 trees,
/// depth 4, 60 features; the study-shaped partition perf_gbt trains on),
/// cycling through its rows on one long-lived TreeShap. A batch over the
/// data before the timed loop serves enough rows for the pattern tables to
/// pay, as a server's first requests do; BM_ExplainRowCold is the one-shot
/// case.
void BM_ExplainRow(benchmark::State& state) {
  const Dataset data = mysawh::bench::MakeStudyShapedData(3);
  const GbtModel model =
      GbtModel::Train(data, mysawh::core::DefaultGbtParams(
                                mysawh::core::Outcome::kQol,
                                mysawh::core::Approach::kDataDriven))
          .value();
  const TreeShap shap(&model);
  benchmark::DoNotOptimize(shap.ShapBatch(data));
  int64_t row = 0;
  for (auto _ : state) {
    auto explanation = mysawh::explain::ExplainRow(shap, data, row);
    benchmark::DoNotOptimize(explanation);
    row = (row + 1) % data.num_rows();
  }
}
BENCHMARK(BM_ExplainRow)->Unit(benchmark::kMicrosecond);

/// The one-shot request (CLI `explain`, audit replay): a fresh TreeShap per
/// iteration explains a single row, so the time includes constructing the
/// TreeShap. Arg = tree depth of the 300-tree study-shaped fit. A TreeShap
/// this short-lived never serves enough rows for the pattern tables to pay,
/// so this tracks the reference recursion plus the constructor.
void BM_ExplainRowCold(benchmark::State& state) {
  const Dataset data = mysawh::bench::MakeStudyShapedData(3);
  GbtParams params = mysawh::core::DefaultGbtParams(
      mysawh::core::Outcome::kQol, mysawh::core::Approach::kDataDriven);
  params.max_depth = static_cast<int>(state.range(0));
  const GbtModel model = GbtModel::Train(data, params).value();
  int64_t row = 0;
  for (auto _ : state) {
    const TreeShap shap(&model);
    auto explanation = mysawh::explain::ExplainRow(shap, data, row);
    benchmark::DoNotOptimize(explanation);
    row = (row + 1) % data.num_rows();
  }
}
BENCHMARK(BM_ExplainRowCold)->Arg(4)->Arg(6)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  return mysawh::bench::RunPerfBenchmarks(argc, argv, "BENCH_perf.json");
}
