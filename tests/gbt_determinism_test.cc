/// Regression tests of training determinism. The histogram pipeline
/// accumulates in fixed-size chunks merged in a fixed order and the
/// per-round gradient/prediction loops partition work identically for any
/// worker count, so a trained model must be bit-identical no matter how
/// many threads are used. The no-constraint fast split scan must likewise
/// match the generic scan exactly.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/audit_log.h"
#include "core/drift_monitor.h"
#include "explain/tree_shap.h"
#include "gbt/gbt_model.h"
#include "util/monitor.h"
#include "util/telemetry.h"
#include "util/thread_pool.h"

namespace mysawh::gbt {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Deterministic synthetic data: a nonlinear target over five features
/// with ~10% missing cells. A hand-rolled LCG keeps the fixture stable
/// across platforms and standard-library versions.
Dataset MakeData(int64_t rows) {
  Dataset ds = Dataset::Create({"a", "b", "c", "d", "e"});
  uint64_t state = 42;
  auto next = [&state]() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<double>(state >> 11) /
           static_cast<double>(uint64_t{1} << 53);
  };
  for (int64_t r = 0; r < rows; ++r) {
    std::vector<double> x(5);
    for (auto& v : x) {
      const double u = next();
      v = u < 0.1 ? kNaN : u;
    }
    const double a = std::isnan(x[0]) ? 0.5 : x[0];
    const double b = std::isnan(x[1]) ? 0.5 : x[1];
    const double y = a * a + std::sin(6.28 * b) + 0.1 * next();
    EXPECT_TRUE(ds.AddRow(x, y).ok());
  }
  return ds;
}

/// A fixture shaped like one data-driven cell of the study: 60 features,
/// most of them continuous (64 bins) with ~25% missing cells, plus eight
/// ordinal answers with 4 to 11 levels. `logistic` thresholds the target
/// into 0/1 labels.
Dataset MakeStudyShapedData(int64_t rows, bool logistic) {
  constexpr int kFeatures = 60;
  constexpr int kOrdinal = 8;
  std::vector<std::string> names;
  for (int f = 0; f < kFeatures; ++f) {
    names.push_back(std::string("q").append(std::to_string(f)));
  }
  Dataset ds = Dataset::Create(names);
  uint64_t state = 7;
  auto next = [&state]() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<double>(state >> 11) /
           static_cast<double>(uint64_t{1} << 53);
  };
  for (int64_t r = 0; r < rows; ++r) {
    std::vector<double> x(kFeatures);
    for (int f = 0; f < kFeatures - kOrdinal; ++f) {
      const double u = next();
      x[static_cast<size_t>(f)] = next() < 0.25 ? kNaN : u;
    }
    for (int k = 0; k < kOrdinal; ++k) {
      const int levels = 4 + k;  // 4..11
      x[static_cast<size_t>(kFeatures - kOrdinal + k)] =
          std::floor(next() * levels);
    }
    auto value = [&x](int f) {
      const double v = x[static_cast<size_t>(f)];
      return std::isnan(v) ? 0.5 : v;
    };
    double y = value(0) * value(1) + std::sin(6.28 * value(2)) +
               0.2 * value(kFeatures - 1) - 0.1 * value(kFeatures - 4) +
               0.3 * next();
    if (logistic) y = y > 0.6 ? 1.0 : 0.0;
    EXPECT_TRUE(ds.AddRow(x, y).ok());
  }
  return ds;
}

/// The study's data-driven GBT settings (core::DefaultGbtParams), with
/// fewer trees.
GbtParams StudyShapedParams(ObjectiveType objective) {
  GbtParams params;
  params.objective = objective;
  params.num_trees = 40;
  params.learning_rate = 0.07;
  params.max_depth = 4;
  params.min_samples_leaf = 4;
  params.subsample = 0.9;
  params.colsample_bytree = 0.8;
  params.seed = 7;
  return params;
}

GbtParams BaseParams() {
  GbtParams params;
  params.num_trees = 12;
  params.max_depth = 4;
  params.subsample = 0.8;
  params.colsample_bytree = 0.8;
  params.seed = 19;
  return params;
}

TEST(DeterminismTest, BitIdenticalAcrossThreadCounts) {
  // 3000 rows exceeds one 2048-row histogram chunk, so the chunked
  // reduction is genuinely exercised (not just the single-chunk path).
  // BaseParams subsamples rows, so the out-of-sample score update runs
  // on the pool's row chunks too.
  const Dataset train = MakeData(3000);
  GbtParams params = BaseParams();
  params.num_threads = 1;
  const std::string reference =
      GbtModel::Train(train, params).value().Serialize();
  for (int threads : {2, 4, 8}) {
    params.num_threads = threads;
    const std::string serialized =
        GbtModel::Train(train, params).value().Serialize();
    EXPECT_EQ(serialized, reference) << "num_threads=" << threads;
  }
}

TEST(DeterminismTest, TelemetryBitIdenticalAcrossThreadCounts) {
  // The telemetry artifact is part of the determinism contract: streams
  // buffer per producer and serialize in sorted label order, so the JSONL
  // must be byte-identical for any worker count.
  const Dataset train = MakeData(3000);
  const Dataset valid = MakeData(500);
  GbtParams params = BaseParams();
  std::string reference;
  for (int threads : {1, 2, 8}) {
    params.num_threads = threads;
    Telemetry::Global().Enable();
    ASSERT_TRUE(GbtModel::Train(train, params, &valid).ok());
    const std::string jsonl = Telemetry::Global().ToJsonl();
    Telemetry::Global().Disable();
    ASSERT_FALSE(jsonl.empty());
    EXPECT_NE(jsonl.find("\"schema\":\"mysawh-telemetry v1\""),
              std::string::npos);
    EXPECT_NE(jsonl.find("\"valid\":"), std::string::npos);
    if (threads == 1) {
      reference = jsonl;
    } else {
      EXPECT_EQ(jsonl, reference) << "num_threads=" << threads;
    }
  }
}

TEST(DeterminismTest, TelemetryRecordingDoesNotChangeModel) {
  // Recording telemetry (and passing a validation set for the learning
  // curve) must never feed back into training: the serialized model with
  // telemetry on equals the plain run bit for bit.
  const Dataset train = MakeData(1500);
  const Dataset valid = MakeData(300);
  const GbtParams params = BaseParams();
  const std::string plain =
      GbtModel::Train(train, params).value().Serialize();
  Telemetry::Global().Enable();
  const std::string instrumented =
      GbtModel::Train(train, params, &valid).value().Serialize();
  Telemetry::Global().Disable();
  EXPECT_EQ(instrumented, plain);
}

TEST(DeterminismTest, LiveMonitorDoesNotChangeModelOrTelemetry) {
  // The monitor only observes: a run watched by a fast heartbeat (with the
  // stall watchdog armed) must produce a bit-identical model and telemetry
  // artifact, because nothing in the monitor feeds back into training.
  const Dataset train = MakeData(1500);
  const Dataset valid = MakeData(300);
  const GbtParams params = BaseParams();

  Telemetry::Global().Enable();
  const std::string plain_model =
      GbtModel::Train(train, params, &valid).value().Serialize();
  const std::string plain_telemetry = Telemetry::Global().ToJsonl();
  Telemetry::Global().Disable();

  MonitorOptions options;
  options.status_path = ::testing::TempDir() + "/determinism_status.json";
  options.interval_ms = 2;  // Aggressive: many heartbeats inside one train.
  options.stall_timeout_ms = 50;
  Monitor monitor(options);
  ASSERT_TRUE(monitor.Start().ok());
  Telemetry::Global().Enable();
  const std::string monitored_model =
      GbtModel::Train(train, params, &valid).value().Serialize();
  const std::string monitored_telemetry = Telemetry::Global().ToJsonl();
  Telemetry::Global().Disable();
  monitor.Stop();

  EXPECT_GE(monitor.heartbeats_written(), 2)
      << "the monitor must actually have observed the run";
  EXPECT_EQ(monitored_model, plain_model);
  EXPECT_EQ(monitored_telemetry, plain_telemetry);
}

/// Re-deserializes `model` with every split threshold moved one ulp up, so
/// the thresholds are no longer the training cuts: the shape of a model
/// file written by another trainer.
GbtModel NudgeThresholds(const GbtModel& model) {
  std::istringstream in(model.Serialize());
  std::string text;
  for (std::string line; std::getline(in, line);) {
    Result<TreeNode> node = TreeNodeFromText(line);
    if (node.ok() && !node.value().IsLeaf()) {
      TreeNode nudged = node.value();
      nudged.threshold = std::nextafter(nudged.threshold, kInf);
      line = TreeNodeToText(nudged);
    }
    text += line + "\n";
  }
  return GbtModel::Deserialize(text).value();
}

TEST(DeterminismTest, FlatPredictBitIdenticalToReferenceAcrossThreadCounts) {
  // The compiled flat-forest kernel must reproduce the reference pointer
  // walker bit for bit — blocks write disjoint slots and every row sums
  // its trees in ascending order, so the worker count must not matter.
  // Checked on the trained model and on a copy whose thresholds are not
  // training cuts, probed exactly on and one ulp either side of every
  // threshold.
  const Dataset train = MakeData(1500);
  const GbtModel trained = GbtModel::Train(train, BaseParams()).value();
  const GbtModel nudged = NudgeThresholds(trained);
  ASSERT_NE(nudged.Serialize(), trained.Serialize());
  for (const GbtModel* model : {&trained, &nudged}) {
    ASSERT_NE(model->flat_forest(), nullptr);
    Dataset probe = MakeData(333);
    for (const RegressionTree& tree : model->trees()) {
      for (int i = 0; i < tree.num_nodes(); ++i) {
        const TreeNode& node = tree.node(i);
        if (node.IsLeaf()) continue;
        for (const double v : {std::nextafter(node.threshold, -kInf),
                               node.threshold,
                               std::nextafter(node.threshold, kInf)}) {
          std::vector<double> row(static_cast<size_t>(probe.num_features()),
                                  v);
          row[static_cast<size_t>(i) % row.size()] = kNaN;
          ASSERT_TRUE(probe.AddRow(row, 0.0).ok());
        }
      }
    }
    const std::vector<double> reference =
        model->PredictRawReference(probe).value();
    for (int threads : {1, 2, 8}) {
      ThreadPool pool(threads);
      std::vector<double> flat(static_cast<size_t>(probe.num_rows()));
      model->flat_forest()->PredictRaw(probe, model->base_score(),
                                       flat.data(), &pool);
      ASSERT_EQ(flat.size(), reference.size());
      for (size_t r = 0; r < flat.size(); ++r) {
        EXPECT_EQ(flat[r], reference[r])
            << "row " << r << " threads " << threads;
      }
    }
  }
}

TEST(DeterminismTest, FlatStagedPredictionsMatchReferenceWalker) {
  // PredictStaged accumulates tree by tree; the flat path quantizes once
  // and replays the same per-row summation order, so every stage must be
  // bit-identical to walking the trees directly.
  const Dataset train = MakeData(1200);
  const Dataset probe = MakeData(200);
  const GbtModel model = GbtModel::Train(train, BaseParams()).value();
  ASSERT_NE(model.flat_forest(), nullptr);
  const auto staged = model.PredictStaged(probe, 5).value();
  // Reference stages: per-row raw accumulation over tree prefixes.
  const auto objective = MakeObjective(model.objective_type());
  std::vector<double> raw(static_cast<size_t>(probe.num_rows()),
                          model.base_score());
  size_t stage = 0;
  for (size_t t = 0; t < model.trees().size(); ++t) {
    for (int64_t r = 0; r < probe.num_rows(); ++r) {
      raw[static_cast<size_t>(r)] += model.trees()[t].Predict(probe.row(r));
    }
    if ((t + 1) % 5 == 0 || t + 1 == model.trees().size()) {
      ASSERT_LT(stage, staged.size());
      for (int64_t r = 0; r < probe.num_rows(); ++r) {
        EXPECT_EQ(staged[stage][static_cast<size_t>(r)],
                  objective->Transform(raw[static_cast<size_t>(r)]))
            << "stage " << stage << " row " << r;
      }
      ++stage;
    }
  }
  EXPECT_EQ(stage, staged.size());
}

TEST(DeterminismTest, FlatShapBitIdenticalToReferenceAcrossThreadCounts) {
  // The pattern-table replay on the flat forest keeps the reference
  // recursion's arithmetic and accumulation order (precomputed cover
  // fractions divide the same values the reference divides per visit), so
  // attributions are bit-identical for any worker count.
  const Dataset train = MakeData(1000);
  const GbtModel model = GbtModel::Train(train, BaseParams()).value();
  ASSERT_NE(model.flat_forest(), nullptr);
  const explain::TreeShap shap(&model);
  // The first small batches run before the pattern tables pay and take the
  // reference recursion; the 300-row batches replay the tables. Every batch
  // must match the reference exactly.
  for (int64_t rows : {12, 300}) {
    const Dataset probe = MakeData(rows);
    const auto reference = shap.ShapBatchReference(probe).value();
    for (int threads : {1, 2, 8}) {
      ThreadPool pool(threads);
      const auto flat = shap.ShapBatch(probe, &pool).value();
      ASSERT_EQ(flat.size(), reference.size());
      for (size_t r = 0; r < flat.size(); ++r) {
        ASSERT_EQ(flat[r].size(), reference[r].size());
        for (size_t f = 0; f < flat[r].size(); ++f) {
          EXPECT_EQ(flat[r][f], reference[r][f])
              << "rows " << rows << " row " << r << " feature " << f
              << " threads " << threads;
        }
      }
    }
  }
}

TEST(DeterminismTest, AuditLogBitIdenticalAcrossThreadCounts) {
  // The audit log is part of the determinism contract: sampling is a pure
  // function of row content and records are content-sorted at
  // serialization, so the payload must be byte-identical no matter how
  // many workers predicted or explained the rows.
  const Dataset train = MakeData(1500);
  const Dataset probe = MakeData(300);
  const GbtModel model = GbtModel::Train(train, BaseParams()).value();
  const explain::TreeShap shap(&model);
  std::string reference;
  for (int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    core::AuditOptions options;
    options.sample_rate = 4;
    ASSERT_TRUE(core::AuditLog::Global().Configure(options).ok());
    ASSERT_TRUE(model.Predict(probe).ok());
    ASSERT_TRUE(shap.ShapBatch(probe, &pool).ok());
    const std::string payload = core::AuditLog::Global().SerializePayload();
    core::AuditLog::Global().Disable();
    EXPECT_NE(payload.find("\"type\":\"predict\""), std::string::npos);
    EXPECT_NE(payload.find("\"type\":\"shap\""), std::string::npos);
    if (threads == 1) {
      reference = payload;
    } else {
      EXPECT_EQ(payload, reference) << "threads=" << threads;
    }
  }
}

TEST(DeterminismTest, AuditAndDriftObservationDoesNotChangePredictions) {
  // Both hooks run on the calling thread after the parallel prediction
  // loop: an audited, drift-monitored run must produce bit-identical
  // predictions to a plain one.
  const Dataset train = MakeData(1500);
  const Dataset probe = MakeData(400);
  const GbtModel model = GbtModel::Train(train, BaseParams()).value();
  const std::vector<double> plain = model.Predict(probe).value();
  const core::DriftBaseline baseline =
      core::BuildDriftBaseline(train, model.Predict(train).value(), 10)
          .value();

  core::AuditOptions audit_options;
  audit_options.sample_rate = 1;
  ASSERT_TRUE(core::AuditLog::Global().Configure(audit_options).ok());
  core::DriftMonitorOptions drift_options;
  drift_options.window = 64;
  ASSERT_TRUE(core::DriftMonitorRuntime::Global()
                  .Configure(baseline, drift_options)
                  .ok());
  const std::vector<double> observed = model.Predict(probe).value();
  core::DriftMonitorRuntime::Global().Flush();
  core::AuditLog::Global().Disable();

  EXPECT_EQ(core::AuditLog::Global().record_count(), probe.num_rows());
  EXPECT_GT(core::DriftMonitorRuntime::Global().windows_evaluated(), 0);
  ASSERT_EQ(observed.size(), plain.size());
  for (size_t r = 0; r < observed.size(); ++r) {
    EXPECT_EQ(observed[r], plain[r]) << "row " << r;
  }
}

TEST(DeterminismTest, FastSplitPathMatchesGenericPath) {
  // All-zero monotone constraints force the generic ConsiderSplit scan;
  // empty constraints take the occupied-boundary array scan. Both must
  // produce the same model bit for bit, on the small fixture and on a
  // study-shaped one (many empty bins per node, most nodes with missing
  // mass) under both objectives.
  {
    const Dataset train = MakeData(1500);
    GbtParams params = BaseParams();
    const std::string fast =
        GbtModel::Train(train, params).value().Serialize();
    params.monotone_constraints.assign(5, 0);
    const std::string generic =
        GbtModel::Train(train, params).value().Serialize();
    EXPECT_EQ(fast, generic);
  }
  for (const ObjectiveType objective :
       {ObjectiveType::kSquaredError, ObjectiveType::kLogistic}) {
    const Dataset train = MakeStudyShapedData(
        1800, /*logistic=*/objective == ObjectiveType::kLogistic);
    GbtParams params = StudyShapedParams(objective);
    const std::string fast =
        GbtModel::Train(train, params).value().Serialize();
    params.monotone_constraints.assign(60, 0);
    const std::string generic =
        GbtModel::Train(train, params).value().Serialize();
    EXPECT_EQ(fast, generic) << ObjectiveTypeName(objective);
  }
}

TEST(DeterminismTest, ScoreCacheMatchesStagedPrediction) {
  // Sampled rows take their score from the leaf that holds them at the end
  // of each tree; the rest walk the tree. Either way each round's logged
  // train metric must equal the metric of the staged prediction.
  for (const ObjectiveType objective :
       {ObjectiveType::kSquaredError, ObjectiveType::kLogistic}) {
    const Dataset train = MakeStudyShapedData(
        1200, /*logistic=*/objective == ObjectiveType::kLogistic);
    GbtParams params = StudyShapedParams(objective);
    params.subsample = 0.7;
    TrainingLog log;
    const GbtModel model =
        GbtModel::Train(train, params, nullptr, &log).value();
    const auto stages = model.PredictStaged(train, 1).value();
    ASSERT_EQ(log.rounds.size(), stages.size());
    const auto metric = MakeObjective(objective);
    for (size_t t = 0; t < stages.size(); ++t) {
      EXPECT_EQ(log.rounds[t].train_metric,
                metric->EvalDefaultMetric(train.labels(), stages[t]))
          << ObjectiveTypeName(objective) << " round " << t;
    }
  }
}


}  // namespace
}  // namespace mysawh::gbt
