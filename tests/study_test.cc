#include "core/study.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>

#include "core/checkpoint.h"
#include "util/failpoint.h"
#include "util/telemetry.h"

namespace mysawh::core {
namespace {

namespace fs = std::filesystem;

/// A small, fast study configuration (the pool size is left to the test).
StudyConfig FastConfig() {
  StudyConfig config;
  config.cohort.seed = 31;
  config.cohort.clinics = {{"A", 30, 0.0, 1.0}, {"B", 15, 0.0, 1.4}};
  config.protocol.cv_folds = 3;
  return config;
}

/// One shared small, fast study for all assertions.
const StudyResult& GetStudy() {
  static const StudyResult* study = [] {
    auto result = RunFullStudy(FastConfig());
    return new StudyResult(std::move(result).value());
  }();
  return *study;
}

TEST(StudyTest, GridIsComplete) {
  const StudyResult& study = GetStudy();
  EXPECT_EQ(study.cells.size(), 12u);  // 3 outcomes x 2 approaches x 2 FI
  for (Outcome outcome : {Outcome::kQol, Outcome::kSppb, Outcome::kFalls}) {
    for (Approach approach :
         {Approach::kKnowledgeDriven, Approach::kDataDriven}) {
      for (bool with_fi : {false, true}) {
        EXPECT_TRUE(study.Cell(outcome, approach, with_fi).ok());
      }
    }
  }
  EXPECT_GT(study.retained, 0);
  EXPECT_LE(study.retained, study.total_candidates);
}

TEST(StudyTest, CentralClaimHolds) {
  const StudyResult& study = GetStudy();
  for (Outcome outcome : {Outcome::kQol, Outcome::kSppb}) {
    const auto* dd = study.Cell(outcome, Approach::kDataDriven, true).value();
    const auto* kd =
        study.Cell(outcome, Approach::kKnowledgeDriven, false).value();
    EXPECT_GT(dd->test_regression.one_minus_mape,
              kd->test_regression.one_minus_mape)
        << OutcomeName(outcome);
  }
  const auto* dd_falls =
      study.Cell(Outcome::kFalls, Approach::kDataDriven, true).value();
  const auto* kd_falls =
      study.Cell(Outcome::kFalls, Approach::kKnowledgeDriven, false).value();
  EXPECT_GE(dd_falls->test_classification.accuracy,
            kd_falls->test_classification.accuracy);
}

TEST(StudyTest, MarkdownReportContainsTables) {
  const StudyResult& study = GetStudy();
  const std::string report = study.ToMarkdown();
  EXPECT_NE(report.find("# DD vs KD study report"), std::string::npos);
  EXPECT_NE(report.find("| QoL |"), std::string::npos);
  EXPECT_NE(report.find("| SPPB |"), std::string::npos);
  EXPECT_NE(report.find("Falls classification"), std::string::npos);
  EXPECT_NE(report.find("DD w/ FI"), std::string::npos);
}

TEST(StudyTest, ResultsIndependentOfThreadCount) {
  // GetStudy ran with the default pool (hardware threads). A sequential
  // rerun of the same configuration must produce identical metrics: every
  // cell derives its randomness from the protocol seed alone.
  StudyConfig config = FastConfig();
  config.num_threads = 1;
  const StudyResult sequential = RunFullStudy(config).value();
  EXPECT_EQ(sequential.ToMarkdown(), GetStudy().ToMarkdown());
  for (const auto& [key, cell] : GetStudy().cells) {
    const auto it = sequential.cells.find(key);
    ASSERT_NE(it, sequential.cells.end());
    EXPECT_EQ(cell.HeadlineMetric(), it->second.HeadlineMetric());
    EXPECT_EQ(cell.model->Serialize(), it->second.model->Serialize());
  }
  // More threads than the 48 fits: clamped to one worker per fit, same
  // report.
  config.num_threads = 64;
  EXPECT_EQ(RunFullStudy(config).value().ToMarkdown(), sequential.ToMarkdown());
}

TEST(StudyTest, TelemetryIndependentOfThreadCount) {
  // The fits of all cells interleave on the pool; every stream is labelled
  // by its cell and fit, so the artifact must not depend on the schedule.
  std::string reference;
  for (const int threads : {1, 4}) {
    StudyConfig config = FastConfig();
    config.num_threads = threads;
    Telemetry::Global().Enable();
    const bool ok = RunFullStudy(config).ok();
    const std::string jsonl = Telemetry::Global().ToJsonl();
    Telemetry::Global().Disable();
    ASSERT_TRUE(ok) << "threads=" << threads;
    // A CV fit's stream and a finish step's stream are both present.
    EXPECT_NE(jsonl.find("\"stream\":\"Falls-DD-fi1/cv2/train\""),
              std::string::npos);
    EXPECT_NE(jsonl.find("\"stream\":\"QoL-KD-fi0/final/eval\""),
              std::string::npos);
    if (threads == 1) {
      reference = jsonl;
    } else {
      EXPECT_EQ(jsonl, reference) << "threads=" << threads;
    }
  }
}

TEST(StudyTest, CellRunFailpointFailsThatCellAtAnyThreadCount) {
  // The failpoint is checked once per cell in the grid-order planning
  // pass, so its N-th hit always lands on grid cell N-1 (QoL-DD-fi0 for
  // N = 3), whatever the pool does afterwards. The other cells still run
  // and checkpoint; the study reports the injected error.
  const fs::path root =
      fs::temp_directory_path() /
      ("mysawh_cell_run_" + std::to_string(::getpid()));
  for (const int threads : {1, 4}) {
    const fs::path dir = root / std::to_string(threads);
    fs::create_directories(dir);
    StudyConfig config = FastConfig();
    config.num_threads = threads;
    config.checkpoint_dir = dir.string();
    FailpointRegistry::Global().Enable("study/cell_run",
                                       FailpointSpec::Nth(3));
    const Result<StudyResult> study = RunFullStudy(config);
    FailpointRegistry::Global().DisableAll();
    ASSERT_FALSE(study.ok()) << "threads=" << threads;
    EXPECT_NE(study.status().ToString().find("study/cell_run"),
              std::string::npos)
        << study.status().ToString();
    int count = 0;
    for ([[maybe_unused]] const auto& e : fs::directory_iterator(dir)) {
      ++count;
    }
    EXPECT_EQ(count, 11) << "threads=" << threads;
    EXPECT_FALSE(fs::exists(
        dir / CheckpointFileName(Outcome::kQol, Approach::kDataDriven, false)))
        << "threads=" << threads;
  }
  fs::remove_all(root);
}

TEST(StudyTest, MissingCellLookupFails) {
  StudyResult empty;
  EXPECT_FALSE(empty.Cell(Outcome::kQol, Approach::kDataDriven, true).ok());
}

}  // namespace
}  // namespace mysawh::core
