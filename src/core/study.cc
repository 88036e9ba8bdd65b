#include "core/study.h"

#include <sys/stat.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <optional>
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

/// Wall and calling-thread CPU milliseconds since construction.
struct Stopwatch {
  std::chrono::steady_clock::time_point wall_start =
      std::chrono::steady_clock::now();
  double cpu_start = ThreadCpuMillis();

  double WallMs() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - wall_start)
        .count();
  }
  double CpuMs() const { return ThreadCpuMillis() - cpu_start; }
};

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
  // Build all sample sets up front (the builder is stateful), then plan the
  // twelve independent cells and fan their fits out over a pool. Each cell
  // seeds its own Rng from the protocol, so the grid is deterministic for
  // any thread count.
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

  const bool checkpointing = !config.checkpoint_dir.empty();
  const std::string fingerprint = StudyFingerprint(config);
  if (checkpointing) {
    MYSAWH_RETURN_NOT_OK(EnsureCheckpointDir(config.checkpoint_dir));
  }
  Metrics().cells_total->Set(static_cast<int64_t>(jobs.size()));

  // Planning pass, in grid order: a cell is resumed from its checkpoint,
  // failed by the `study/cell_run` failpoint, or planned into fits. Only
  // planned cells submit work.
  struct CellRun {
    Result<ExperimentResult> outcome = Status::Internal("cell never ran");
    std::optional<ExperimentPlan> plan;
    std::atomic<int> fits_left{0};
    /// Summed over the cell's fit tasks (see CellTiming).
    std::atomic<double> wall_ms{0.0}, cpu_ms{0.0};
    bool resumed = false;
  };
  std::vector<CellRun> runs(jobs.size());
  for (size_t i = 0; i < jobs.size(); ++i) {
    const CellJob& job = jobs[i];
    CellRun& run = runs[i];
    if (checkpointing && config.resume) {
      const Stopwatch stopwatch;
      Result<ExperimentResult> loaded =
          LoadCellCheckpoint(config.checkpoint_dir, fingerprint, job.outcome,
                             job.approach, job.with_fi);
      if (loaded.ok()) {
        Metrics().resume_hits->Increment();
        run.outcome = std::move(loaded);
        run.wall_ms = stopwatch.WallMs();
        run.cpu_ms = stopwatch.CpuMs();
        run.resumed = true;
        continue;
      }
      // NotFound (never checkpointed), DataLoss (corrupt file) and
      // FailedPrecondition (different configuration) all mean the same
      // thing here: this cell must be recomputed.
      Metrics().resume_misses->Increment();
    }
    if (auto injected = FailpointRegistry::Global().Check("study/cell_run")) {
      run.outcome = *std::move(injected);
      continue;
    }
    Result<ExperimentPlan> plan = ExperimentPlan::Create(
        *job.data, job.outcome, job.approach, job.with_fi,
        DefaultModelConfig(job.outcome, job.approach, config.model_family),
        config.protocol);
    if (!plan.ok()) {
      run.outcome = plan.status();
      Metrics().cells_computed->Increment();
      continue;
    }
    run.plan.emplace(std::move(plan).value());
    run.fits_left = run.plan->num_fits();
  }

  // One task per fit, longest first: a DD fit costs about five KD fits and
  // a final fit sees 1/(1 - 1/K) times a CV fit's rows, so the order is DD
  // finals, DD CV fits, KD finals, KD CV fits, each in grid order. Idle
  // workers take the next task from the FIFO queue, which is the
  // longest-processing-time-first schedule. Results stay in per-cell slots
  // and are collected in grid order, so only the start order changes.
  std::vector<std::pair<size_t, int>> tasks;
  for (const Approach approach :
       {Approach::kDataDriven, Approach::kKnowledgeDriven}) {
    for (const bool final_fits : {true, false}) {
      for (size_t i = 0; i < jobs.size(); ++i) {
        if (jobs[i].approach != approach || !runs[i].plan) continue;
        for (int k = 0; k < runs[i].plan->num_fits(); ++k) {
          if (runs[i].plan->is_final_fit(k) == final_fits) {
            tasks.emplace_back(i, k);
          }
        }
      }
    }
  }

  int num_threads = config.num_threads;
  if (num_threads == 0) {
    num_threads = static_cast<int>(std::thread::hardware_concurrency());
  }
  // At most one worker per fit: more would sit idle, and a huge request
  // would ask the OS for that many threads.
  num_threads = std::min(num_threads, static_cast<int>(tasks.size()));
  ThreadPool pool(num_threads);
  for (const auto& [i, k] : tasks) {
    pool.Submit([&, i = i, k = k] {
      CellRun& run = runs[i];
      const StudyCellKey key{jobs[i].outcome, jobs[i].approach,
                             jobs[i].with_fi};
      // Span names are dynamic, so build one only when tracing is on (the
      // disabled fast path must not allocate).
      TraceSpan cell_span;
      if (TracingEnabled()) {
        cell_span = TraceSpan("study.cell/" + StudyCellName(key), "study");
      }
      // A fit runs wholly on one pool thread, so a thread-local telemetry
      // context uniquely labels its streams ("QoL-DD-fi0/cv2/train", ...)
      // regardless of which worker picked it up.
      TelemetryScope cell_scope(StudyCellName(key));
      const Stopwatch stopwatch;
      // The fit's status is kept in the plan and reported by Finish.
      (void)run.plan->Fit(k);
      // The cell's last fit finishes it on this thread; the atomic
      // decrement orders the other fits' results before the finish.
      if (--run.fits_left == 0) {
        run.outcome = run.plan->Finish();
        Metrics().cells_computed->Increment();
        if (run.outcome.ok() && checkpointing) {
          const Status saved = SaveCellCheckpoint(config.checkpoint_dir,
                                                  fingerprint, *run.outcome);
          // A cell whose checkpoint cannot be written counts as failed:
          // the study's contract is that a later --resume never silently
          // re-runs work it reported as persisted.
          if (!saved.ok()) run.outcome = saved;
        }
      }
      run.wall_ms += stopwatch.WallMs();
      run.cpu_ms += stopwatch.CpuMs();
    });
  }
  pool.Wait();

  // Collect in grid order so the first error reported is deterministic too.
  for (size_t i = 0; i < jobs.size(); ++i) {
    CellRun& run = runs[i];
    const CellTiming timing{run.wall_ms, run.cpu_ms, run.resumed};
    if (run.resumed || run.plan) {
      Metrics().cell_us->Record(static_cast<int64_t>(timing.wall_ms * 1e3));
    }
    const StudyCellKey key{jobs[i].outcome, jobs[i].approach,
                           jobs[i].with_fi};
    MYSAWH_ASSIGN_OR_RETURN(ExperimentResult result, std::move(run.outcome));
    study.cells.emplace(key, std::move(result));
    study.timings.emplace(key, timing);
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
