// Kill/resume coverage of the study checkpoint pipeline: a study killed via
// the "study/cell_save" failpoint after 1, 6, and 11 completed cells is
// resumed from its checkpoint directory and must render a REPORT.md
// bit-identical to an uninterrupted run. Corrupt and stale checkpoints must
// be re-run, not trusted.
#include "core/checkpoint.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "core/study.h"
#include "util/failpoint.h"
#include "util/file_io.h"

namespace mysawh::core {
namespace {

namespace fs = std::filesystem;

/// The fast study configuration shared with study_test.cc, on four
/// workers. The reference report is computed sequentially, so every test
/// that compares against it also checks that results do not depend on the
/// thread count.
StudyConfig FastConfig() {
  StudyConfig config;
  config.cohort.seed = 31;
  config.cohort.clinics = {{"A", 30, 0.0, 1.0}, {"B", 15, 0.0, 1.4}};
  config.protocol.cv_folds = 3;
  config.num_threads = 4;
  return config;
}

class CheckpointResumeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("mysawh_ckpt_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override {
    FailpointRegistry::Global().DisableAll();
    fs::remove_all(dir_);
  }

  fs::path dir_;
};

/// The uninterrupted, sequential reference run (no checkpointing),
/// computed once.
const std::string& ReferenceReport() {
  static const std::string* report = [] {
    StudyConfig config = FastConfig();
    config.num_threads = 1;
    auto study = RunFullStudy(config);
    return new std::string(study.value().ToMarkdown());
  }();
  return *report;
}

TEST_F(CheckpointResumeTest, CheckpointedRunMatchesPlainRun) {
  StudyConfig config = FastConfig();
  config.checkpoint_dir = (dir_ / "ckpt").string();
  auto study = RunFullStudy(config);
  ASSERT_TRUE(study.ok());
  EXPECT_EQ(study->ToMarkdown(), ReferenceReport());
  // All 12 cells left a checkpoint.
  int count = 0;
  for ([[maybe_unused]] const auto& e :
       fs::directory_iterator(config.checkpoint_dir)) {
    ++count;
  }
  EXPECT_EQ(count, 12);
}

TEST_F(CheckpointResumeTest, KilledStudiesResumeToIdenticalReport) {
  // Kill after 1, 6, and 11 persisted cells. Arming `from:K+1` makes the
  // K+1-th and every later save fail — exactly what a process that died
  // after K saves looks like to the next run.
  for (const int completed_cells : {1, 6, 11}) {
    const std::string ckpt_dir =
        (dir_ / ("kill_after_" + std::to_string(completed_cells))).string();
    StudyConfig config = FastConfig();
    config.checkpoint_dir = ckpt_dir;
    // Sequential, so "killed after K cells" is a well-defined prefix of the
    // fixed cell completion order.
    config.num_threads = 1;

    FailpointRegistry::Global().Enable(
        "study/cell_save", FailpointSpec::FromNth(completed_cells + 1));
    auto killed = RunFullStudy(config);
    FailpointRegistry::Global().DisableAll();
    ASSERT_FALSE(killed.ok()) << "kill after " << completed_cells;

    // Exactly the first K cells left checkpoints behind.
    int count = 0;
    for ([[maybe_unused]] const auto& e : fs::directory_iterator(ckpt_dir)) {
      ++count;
    }
    EXPECT_EQ(count, completed_cells);

    // Resume: finished cells load, the rest re-run.
    config.resume = true;
    auto resumed = RunFullStudy(config);
    ASSERT_TRUE(resumed.ok()) << "resume after " << completed_cells;
    EXPECT_EQ(resumed->ToMarkdown(), ReferenceReport())
        << "report differs after kill at " << completed_cells;
  }
}

TEST_F(CheckpointResumeTest, CorruptCheckpointIsRerunNotTrusted) {
  StudyConfig config = FastConfig();
  config.checkpoint_dir = (dir_ / "ckpt").string();
  ASSERT_TRUE(RunFullStudy(config).ok());

  // Corrupt one checkpoint file with a bit flip.
  const std::string victim =
      config.checkpoint_dir + "/" +
      CheckpointFileName(Outcome::kQol, Approach::kDataDriven, true);
  auto bytes = ReadFileToString(victim);
  ASSERT_TRUE(bytes.ok());
  std::string corrupted = *bytes;
  corrupted[corrupted.size() / 2] ^= 0x04;
  {
    std::ofstream out(victim, std::ios::binary | std::ios::trunc);
    out << corrupted;
  }
  // Loading it directly reports DataLoss.
  EXPECT_EQ(LoadCellCheckpoint(config.checkpoint_dir,
                               StudyFingerprint(config), Outcome::kQol,
                               Approach::kDataDriven, true)
                .status()
                .code(),
            StatusCode::kDataLoss);

  // A resumed study recomputes the corrupt cell and still matches.
  config.resume = true;
  auto resumed = RunFullStudy(config);
  ASSERT_TRUE(resumed.ok());
  EXPECT_EQ(resumed->ToMarkdown(), ReferenceReport());
  // The corrupt file was rewritten and now verifies again.
  EXPECT_TRUE(LoadCellCheckpoint(config.checkpoint_dir,
                                 StudyFingerprint(config), Outcome::kQol,
                                 Approach::kDataDriven, true)
                  .ok());
}

TEST_F(CheckpointResumeTest, FingerprintMismatchForcesRerun) {
  StudyConfig config = FastConfig();
  config.checkpoint_dir = (dir_ / "ckpt").string();
  ASSERT_TRUE(RunFullStudy(config).ok());

  // The same checkpoints under a different configuration are rejected...
  StudyConfig other = config;
  other.protocol.cv_folds = 4;
  EXPECT_EQ(LoadCellCheckpoint(other.checkpoint_dir, StudyFingerprint(other),
                               Outcome::kQol, Approach::kDataDriven, true)
                .status()
                .code(),
            StatusCode::kFailedPrecondition);

  // ...and a resume under the changed configuration re-runs everything,
  // matching a fresh run of that configuration.
  other.resume = true;
  auto resumed = RunFullStudy(other);
  ASSERT_TRUE(resumed.ok());
  StudyConfig fresh = FastConfig();
  fresh.protocol.cv_folds = 4;
  EXPECT_EQ(resumed->ToMarkdown(), RunFullStudy(fresh).value().ToMarkdown());
}

TEST_F(CheckpointResumeTest, ExperimentResultSerializationRoundTrips) {
  StudyConfig config = FastConfig();
  auto study = RunFullStudy(config);
  ASSERT_TRUE(study.ok());
  const std::string fingerprint = StudyFingerprint(config);
  for (const auto& [key, cell] : study->cells) {
    const std::string text = SerializeExperimentResult(cell, fingerprint);
    auto restored = DeserializeExperimentResult(text, fingerprint);
    ASSERT_TRUE(restored.ok());
    EXPECT_EQ(restored->outcome, cell.outcome);
    EXPECT_EQ(restored->approach, cell.approach);
    EXPECT_EQ(restored->with_fi, cell.with_fi);
    EXPECT_EQ(restored->is_classification, cell.is_classification);
    // Bit-exact metric round-trip (hex-encoded doubles).
    EXPECT_EQ(restored->test_regression.one_minus_mape,
              cell.test_regression.one_minus_mape);
    EXPECT_EQ(restored->test_regression.mae, cell.test_regression.mae);
    EXPECT_EQ(restored->cv_regression.rmse, cell.cv_regression.rmse);
    EXPECT_EQ(restored->test_classification.tp, cell.test_classification.tp);
    EXPECT_EQ(restored->test_classification.f1_true,
              cell.test_classification.f1_true);
    ASSERT_NE(restored->model, nullptr);
    EXPECT_EQ(restored->model->Serialize(), cell.model->Serialize());
    // Wrong fingerprint is a FailedPrecondition.
    EXPECT_EQ(DeserializeExperimentResult(text, fingerprint + "x")
                  .status()
                  .code(),
              StatusCode::kFailedPrecondition);
  }
}

}  // namespace
}  // namespace mysawh::core
