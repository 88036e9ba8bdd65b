#include "core/study.h"

#include <sys/stat.h>
#include <time.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "cohort/simulator.h"
#include "core/calibration_monitor.h"
#include "core/checkpoint.h"
#include "util/failpoint.h"
#include "util/metrics.h"
#include "util/serialization.h"
#include "util/string_util.h"
#include "util/telemetry.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace mysawh::core {

namespace {

Status EnsureCheckpointDir(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST) return Status::Ok();
  return Status::IoError("cannot create checkpoint directory " + dir + ": " +
                         std::strerror(errno));
}

/// Study-grid instruments: resume hit/miss split plus full-cell latency.
/// `cells_total` lets the live monitor render "done/total" progress.
struct StudyMetrics {
  Counter* cells_computed;
  Counter* resume_hits;
  Counter* resume_misses;
  Gauge* cells_total;
  LatencyHistogram* cell_us;
};

StudyMetrics& Metrics() {
  static StudyMetrics metrics = [] {
    auto& registry = MetricsRegistry::Global();
    return StudyMetrics{registry.GetCounter("study.cells_computed"),
                        registry.GetCounter("study.resume_hits"),
                        registry.GetCounter("study.resume_misses"),
                        registry.GetGauge("study.cells_total"),
                        registry.GetHistogram("study.cell_us")};
  }();
  return metrics;
}

/// Thread CPU time of the calling thread in milliseconds (0.0 when the
/// clock is unavailable).
double ThreadCpuMillis() {
  struct timespec ts;
  if (::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) * 1e-6;
}

}  // namespace

std::string StudyCellName(const StudyCellKey& key) {
  return std::string(OutcomeName(key.outcome)) + "-" +
         ApproachName(key.approach) + (key.with_fi ? "-fi1" : "-fi0");
}

std::string StudyFingerprint(const StudyConfig& config) {
  std::ostringstream os;
  os << "seed=" << config.cohort.seed << " clinics=";
  for (const auto& clinic : config.cohort.clinics) {
    os << clinic.name << ":" << clinic.num_patients << ":"
       << EncodeDouble(clinic.answer_shift) << ":"
       << EncodeDouble(clinic.noise_scale) << ";";
  }
  os << " months=" << config.cohort.num_months
     << " gap=" << config.build.max_interpolation_gap
     << " imputation=" << static_cast<int>(config.build.imputation)
     << " miss=" << EncodeDouble(config.build.max_missing_fraction)
     << " test=" << EncodeDouble(config.protocol.test_fraction)
     << " folds=" << config.protocol.cv_folds
     << " eval_seed=" << config.protocol.seed
     << " threshold=" << EncodeDouble(config.protocol.decision_threshold)
     << " family=" << ModelFamilyName(config.model_family);
  return os.str();
}

Result<const ExperimentResult*> StudyResult::Cell(Outcome outcome,
                                                  Approach approach,
                                                  bool with_fi) const {
  const auto it = cells.find({outcome, approach, with_fi});
  if (it == cells.end()) {
    return Status::NotFound("study cell missing");
  }
  return &it->second;
}

std::string StudyResult::ToMarkdown() const {
  std::ostringstream os;
  os << "# DD vs KD study report\n\n";
  os << "Dataset: " << retained << " monthly samples retained of "
     << total_candidates << " candidates; PRO gaps: " << gap_stats.num_gaps
     << " (mean length " << FormatDouble(gap_stats.mean_length, 2) << ", max "
     << gap_stats.max_length << ").\n\n";

  os << "## Regression outcomes (1-MAPE, test partition)\n\n";
  os << "| Outcome | KD w/o FI | DD w/o FI | KD w/ FI | DD w/ FI |\n";
  os << "|---|---|---|---|---|\n";
  for (Outcome outcome : {Outcome::kQol, Outcome::kSppb}) {
    os << "| " << OutcomeName(outcome) << " |";
    for (bool with_fi : {false, true}) {
      for (Approach approach :
           {Approach::kKnowledgeDriven, Approach::kDataDriven}) {
        const auto it = cells.find({outcome, approach, with_fi});
        if (it == cells.end()) {
          os << " - |";
        } else {
          os << " "
             << FormatPercent(it->second.test_regression.one_minus_mape, 1)
             << " |";
        }
      }
    }
    os << "\n";
  }

  os << "\n## Falls classification (test partition)\n\n";
  os << "| Model | Accuracy | P(True) | R(True) | F1(True) | R(False) |\n";
  os << "|---|---|---|---|---|---|\n";
  for (bool with_fi : {false, true}) {
    for (Approach approach :
         {Approach::kKnowledgeDriven, Approach::kDataDriven}) {
      const auto it = cells.find({Outcome::kFalls, approach, with_fi});
      if (it == cells.end()) continue;
      const auto& m = it->second.test_classification;
      os << "| " << ApproachName(approach) << (with_fi ? " w/ FI" : " w/o FI")
         << " | " << FormatPercent(m.accuracy, 1) << " | "
         << FormatPercent(m.precision_true, 1) << " | "
         << FormatPercent(m.recall_true, 1) << " | "
         << FormatPercent(m.f1_true, 1) << " | "
         << FormatPercent(m.recall_false, 1) << " |\n";
    }
  }

  os << "\n## Reading\n\n"
     << "The data-driven models (gradient boosting over the raw PRO and\n"
     << "activity features) outperform the knowledge-driven ICI models on\n"
     << "every outcome, and the Frailty Index baseline feature improves\n"
     << "both approaches — the paper's central result.\n";
  return os.str();
}

Result<StudyResult> RunFullStudy(const StudyConfig& config) {
  cohort::CohortSimulator simulator(config.cohort);
  StudyResult study;
  cohort::Cohort cohort;
  {
    TraceSpan span("study.generate_cohort", "study");
    MYSAWH_ASSIGN_OR_RETURN(cohort, simulator.Generate());
  }
  // Build all sample sets up front (the builder is stateful), then fan the
  // twelve independent cells out over a pool. Each cell seeds its own Rng
  // from the protocol, so the grid is deterministic for any thread count.
  struct CellJob {
    const Dataset* data = nullptr;
    Outcome outcome = Outcome::kQol;
    Approach approach = Approach::kDataDriven;
    bool with_fi = false;
  };
  std::vector<SampleSets> all_sets;
  all_sets.reserve(3);  // jobs hold pointers into all_sets; no reallocation
  std::vector<CellJob> jobs;
  {
    TraceSpan build_span("study.build_samples", "study");
    MYSAWH_ASSIGN_OR_RETURN(SampleSetBuilder builder,
                            SampleSetBuilder::Create(&cohort, config.build));
    for (Outcome outcome : {Outcome::kQol, Outcome::kSppb, Outcome::kFalls}) {
      MYSAWH_ASSIGN_OR_RETURN(SampleSets sets, builder.Build(outcome));
      if (outcome == Outcome::kQol) {
        study.total_candidates = sets.total_candidates;
        study.retained = sets.retained;
        study.gap_stats = sets.gap_stats_raw;
      }
      all_sets.push_back(std::move(sets));
      const SampleSets& stored = all_sets.back();
      jobs.push_back({&stored.kd, outcome, Approach::kKnowledgeDriven, false});
      jobs.push_back(
          {&stored.kd_fi, outcome, Approach::kKnowledgeDriven, true});
      jobs.push_back({&stored.dd, outcome, Approach::kDataDriven, false});
      jobs.push_back({&stored.dd_fi, outcome, Approach::kDataDriven, true});
    }
  }

  int num_threads = config.num_threads;
  if (num_threads == 0) {
    num_threads = static_cast<int>(std::thread::hardware_concurrency());
  }
  const bool checkpointing = !config.checkpoint_dir.empty();
  const std::string fingerprint = StudyFingerprint(config);
  if (checkpointing) {
    MYSAWH_RETURN_NOT_OK(EnsureCheckpointDir(config.checkpoint_dir));
  }
  ThreadPool pool(num_threads);
  Metrics().cells_total->Set(static_cast<int64_t>(jobs.size()));
  std::vector<Result<ExperimentResult>> outcomes_by_cell;
  outcomes_by_cell.reserve(jobs.size());
  for (size_t i = 0; i < jobs.size(); ++i) {
    outcomes_by_cell.emplace_back(Status::Internal("cell never ran"));
  }
  std::vector<CellTiming> timings_by_cell(jobs.size());
  // Longest first: a DD cell costs about five KD cells, so the DD cells are
  // dispatched before the KD cells and the short ones fill in behind them.
  // Slots stay indexed by grid position, so only the start order changes.
  std::vector<size_t> dispatch_order;
  dispatch_order.reserve(jobs.size());
  for (const Approach approach :
       {Approach::kDataDriven, Approach::kKnowledgeDriven}) {
    for (size_t i = 0; i < jobs.size(); ++i) {
      if (jobs[i].approach == approach) dispatch_order.push_back(i);
    }
  }
  pool.ParallelFor(static_cast<int64_t>(jobs.size()), [&](int64_t k) {
    const size_t i = dispatch_order[static_cast<size_t>(k)];
    const CellJob& job = jobs[i];
    auto& slot = outcomes_by_cell[i];
    CellTiming& timing = timings_by_cell[i];
    const StudyCellKey key{job.outcome, job.approach, job.with_fi};
    // Span names are dynamic, so build one only when tracing is on (the
    // disabled fast path must not allocate).
    TraceSpan cell_span;
    if (TracingEnabled()) {
      cell_span = TraceSpan("study.cell/" + StudyCellName(key), "study");
    }
    // Each cell runs wholly on one pool thread, so a thread-local telemetry
    // context uniquely labels its streams ("QoL-DD-fi0/cv2/train", ...)
    // regardless of which worker picked the cell up.
    TelemetryScope cell_scope(StudyCellName(key));
    ScopedLatencyTimer cell_timer(Metrics().cell_us);
    const auto wall_start = std::chrono::steady_clock::now();
    const double cpu_start = ThreadCpuMillis();
    auto finish_timing = [&](bool resumed) {
      timing.wall_ms = std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - wall_start)
                           .count();
      timing.cpu_ms = ThreadCpuMillis() - cpu_start;
      timing.resumed = resumed;
    };
    if (checkpointing && config.resume) {
      Result<ExperimentResult> loaded =
          LoadCellCheckpoint(config.checkpoint_dir, fingerprint, job.outcome,
                             job.approach, job.with_fi);
      if (loaded.ok()) {
        Metrics().resume_hits->Increment();
        slot = std::move(loaded);
        finish_timing(/*resumed=*/true);
        return;
      }
      // NotFound (never checkpointed), DataLoss (corrupt file) and
      // FailedPrecondition (different configuration) all mean the same
      // thing here: this cell must be recomputed.
      Metrics().resume_misses->Increment();
    }
    if (auto injected = FailpointRegistry::Global().Check("study/cell_run")) {
      slot = *std::move(injected);
      finish_timing(/*resumed=*/false);
      return;
    }
    ModelFamilyConfig model_config =
        DefaultModelConfig(job.outcome, job.approach, config.model_family);
    slot = RunExperiment(*job.data, job.outcome, job.approach, job.with_fi,
                         model_config, config.protocol);
    Metrics().cells_computed->Increment();
    if (slot.ok() && checkpointing) {
      const Status saved =
          SaveCellCheckpoint(config.checkpoint_dir, fingerprint, *slot);
      // A cell whose checkpoint cannot be written counts as failed: the
      // study's contract is that a later --resume never silently re-runs
      // work it reported as persisted.
      if (!saved.ok()) slot = saved;
    }
    finish_timing(/*resumed=*/false);
  });

  // Collect in grid order so the first error reported is deterministic too.
  for (size_t i = 0; i < jobs.size(); ++i) {
    const StudyCellKey key{jobs[i].outcome, jobs[i].approach,
                           jobs[i].with_fi};
    MYSAWH_ASSIGN_OR_RETURN(ExperimentResult result,
                            std::move(outcomes_by_cell[i]));
    study.cells.emplace(key, std::move(result));
    study.timings.emplace(key, timings_by_cell[i]);
  }
  // Profile each cell's train/test partition for the run manifest. Pure
  // function of the datasets, so this adds no nondeterminism and never
  // influences the metrics above. Cells resumed from a checkpoint carry
  // only their metrics, not their partitions, so they have no profile.
  {
    TraceSpan profile_span("study.profile_cells", "study");
    for (auto& [key, cell] : study.cells) {
      if (cell.train.num_rows() == 0 || cell.test.num_rows() == 0) continue;
      MYSAWH_ASSIGN_OR_RETURN(
          DataQualityProfile profile,
          ProfilePartition(cell.train, cell.test, cell.is_classification));
      study.profiles.emplace(key, std::move(profile));
    }
  }
  // Model-quality post-pass: per cell, drift of the test partition against
  // a train-time baseline, plus calibration (Falls) or error quantiles
  // (regression) of the test predictions. Serial, pure functions of the
  // already-trained models and partitions — like the profiles above, it
  // feeds only the manifest (and gauges), never REPORT.md.
  {
    TraceSpan quality_span("study.model_quality", "study");
    for (auto& [key, cell] : study.cells) {
      if (cell.train.num_rows() == 0 || cell.test.num_rows() == 0) continue;
      if (cell.model == nullptr) continue;
      MYSAWH_ASSIGN_OR_RETURN(std::vector<double> train_preds,
                              cell.model->PredictBatch(cell.train));
      MYSAWH_ASSIGN_OR_RETURN(std::vector<double> test_preds,
                              cell.model->PredictBatch(cell.test));
      MYSAWH_ASSIGN_OR_RETURN(
          DriftBaseline baseline,
          BuildDriftBaseline(cell.train, train_preds, config.drift_bins));
      MYSAWH_ASSIGN_OR_RETURN(
          DriftReport drift,
          EvaluateDrift(baseline, cell.test, test_preds,
                        config.drift_thresholds));
      study.drift_jsons.emplace(key, DriftReportJson(drift));
      const std::string cell_name = StudyCellName(key);
      const std::vector<double>& labels = cell.test.labels();
      if (cell.is_classification) {
        MYSAWH_ASSIGN_OR_RETURN(
            CalibrationReport calibration,
            ComputeCalibration(labels, test_preds, config.calibration_bins));
        PublishCalibrationGauges(cell_name, calibration);
        study.calibration_jsons.emplace(key, CalibrationJson(calibration));
      } else {
        MYSAWH_ASSIGN_OR_RETURN(ErrorQuantiles quantiles,
                                ComputeErrorQuantiles(labels, test_preds));
        PublishErrorQuantileGauges(cell_name, quantiles);
        study.calibration_jsons.emplace(key, ErrorQuantilesJson(quantiles));
      }
    }
  }
  return study;
}

}  // namespace mysawh::core
