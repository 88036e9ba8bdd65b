#ifndef MYSAWH_CORE_STUDY_H_
#define MYSAWH_CORE_STUDY_H_

#include <map>
#include <string>

#include "cohort/cohort.h"
#include "core/data_profile.h"
#include "core/drift_monitor.h"
#include "core/evaluation.h"
#include "core/sample_builder.h"
#include "util/status.h"

namespace mysawh::core {

/// Configuration of a complete paper-style study run.
struct StudyConfig {
  cohort::CohortConfig cohort;
  SampleBuildOptions build;
  EvalProtocol protocol;
  /// Model family trained in every cell (kGbt reproduces the paper).
  ModelFamily model_family = ModelFamily::kGbt;
  /// Worker threads for the grid's model fits (12 cells x (cv_folds + 1));
  /// 0 picks the hardware count, 1 runs sequentially, and counts past the
  /// number of fits are clamped to one worker per fit. Results are
  /// identical for any thread count: each cell derives its randomness
  /// solely from `protocol.seed`.
  int num_threads = 0;
  /// When non-empty, every finished cell persists its result into this
  /// directory (created if absent) as an atomically written, checksummed
  /// checkpoint file — see core/checkpoint.h.
  std::string checkpoint_dir;
  /// With `checkpoint_dir` set, cells whose checkpoint exists, verifies,
  /// and matches the configuration fingerprint are loaded instead of
  /// re-run; missing, corrupt, or mismatched checkpoints re-run (and are
  /// re-written). A resumed study's ToMarkdown() output is bit-identical
  /// to an uninterrupted run's.
  bool resume = false;
  /// Alert thresholds of the per-cell drift post-pass (train baseline vs
  /// test window; see core/drift_monitor.h). Like the data-quality
  /// profiles, the post-pass only feeds the manifest — never REPORT.md.
  DriftThresholds drift_thresholds;
  /// Equal-frequency bins of the drift baselines.
  int drift_bins = 10;
  /// Reliability bins of the calibration post-pass (Falls cells).
  int calibration_bins = 10;
};

/// Canonical fingerprint of the configuration fields that determine cell
/// results (cohort, sample building, protocol, model family — not thread
/// count or checkpoint settings). Stored inside every checkpoint so stale
/// checkpoints from a different configuration are never resumed.
std::string StudyFingerprint(const StudyConfig& config);

/// Key of one experiment cell in the study grid.
struct StudyCellKey {
  Outcome outcome = Outcome::kQol;
  Approach approach = Approach::kDataDriven;
  bool with_fi = false;

  bool operator<(const StudyCellKey& other) const {
    if (outcome != other.outcome) return outcome < other.outcome;
    if (approach != other.approach) return approach < other.approach;
    return with_fi < other.with_fi;
  }
};

/// Canonical "<Outcome>-<KD|DD>-fi<0|1>" label of a cell; used as the
/// trace span name (`study.cell/<label>`) and as the manifest timing key.
std::string StudyCellName(const StudyCellKey& key);

/// Wall/CPU cost of computing (or resuming) one study cell. Collected for
/// the run manifest only — ToMarkdown() never reads it, so a traced run's
/// REPORT.md stays bit-identical to an untraced one.
struct CellTiming {
  /// Busy time: the sum of the wall times of the cell's fit tasks (its
  /// finish step runs inside the last one), or the checkpoint load of a
  /// resumed cell. The fits may overlap on several workers, so this is
  /// not the interval from the cell's first start to its last end.
  double wall_ms = 0.0;
  /// Thread CPU time (CLOCK_THREAD_CPUTIME_ID) summed over the same tasks;
  /// excludes work a fit fanned out to other pools.
  double cpu_ms = 0.0;
  /// True when the cell was loaded from a checkpoint instead of computed.
  bool resumed = false;
};

/// The complete result of a study: the paper's Fig 4 grid (3 outcomes x
/// {KD, DD} x {with, without FI}) plus dataset-level statistics.
struct StudyResult {
  std::map<StudyCellKey, ExperimentResult> cells;
  /// Per-cell cost, keyed like `cells` (see CellTiming).
  std::map<StudyCellKey, CellTiming> timings;
  /// Per-cell train/test data-quality profile, keyed like `cells`.
  /// Surfaced through the run manifest's `data_quality` block; ToMarkdown()
  /// never reads it, so REPORT.md is unaffected by profiling.
  std::map<StudyCellKey, DataQualityProfile> profiles;
  /// Per-cell drift report (train baseline vs test partition), rendered
  /// JSON, keyed like `cells`; the manifest's `drift` block. Resumed
  /// cells carry no partitions and so have no entry.
  std::map<StudyCellKey, std::string> drift_jsons;
  /// Per-cell calibration (Falls: reliability/Brier/ECE; regression: MAE
  /// quantiles), rendered JSON; the manifest's `calibration` block.
  std::map<StudyCellKey, std::string> calibration_jsons;
  int64_t total_candidates = 0;
  int64_t retained = 0;
  GapStats gap_stats;

  /// The cell lookup; fails when the grid is incomplete.
  Result<const ExperimentResult*> Cell(Outcome outcome, Approach approach,
                                       bool with_fi) const;

  /// Renders the whole study as a self-contained Markdown report
  /// (dataset summary + Fig 4-style tables), suitable for writing to a
  /// REPORT.md.
  std::string ToMarkdown() const;
};

/// Runs the full DD-vs-KD study: generates the cohort, builds the aligned
/// sample sets for each outcome, and evaluates all twelve grid cells with
/// the default per-cell hyperparameters. Every cell is planned in grid
/// order (see ExperimentPlan), then all cells' fits run as one task each,
/// longest first, on a thread pool sized by `config.num_threads`; a cell
/// finishes (and checkpoints) on the thread of its last fit. The result
/// is deterministic regardless of parallelism.
Result<StudyResult> RunFullStudy(const StudyConfig& config);

}  // namespace mysawh::core

#endif  // MYSAWH_CORE_STUDY_H_
