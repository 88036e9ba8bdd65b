#include "core/study.h"

#include <gtest/gtest.h>

namespace mysawh::core {
namespace {

/// One shared small, fast study for all assertions.
const StudyResult& GetStudy() {
  static const StudyResult* study = [] {
    StudyConfig config;
    config.cohort.seed = 31;
    config.cohort.clinics = {{"A", 30, 0.0, 1.0}, {"B", 15, 0.0, 1.4}};
    config.protocol.cv_folds = 3;
    auto result = RunFullStudy(config);
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
  StudyConfig config;
  config.cohort.seed = 31;
  config.cohort.clinics = {{"A", 30, 0.0, 1.0}, {"B", 15, 0.0, 1.4}};
  config.protocol.cv_folds = 3;
  config.num_threads = 1;
  const StudyResult sequential = RunFullStudy(config).value();
  EXPECT_EQ(sequential.ToMarkdown(), GetStudy().ToMarkdown());
  for (const auto& [key, cell] : GetStudy().cells) {
    const auto it = sequential.cells.find(key);
    ASSERT_NE(it, sequential.cells.end());
    EXPECT_EQ(cell.HeadlineMetric(), it->second.HeadlineMetric());
    EXPECT_EQ(cell.model->Serialize(), it->second.model->Serialize());
  }
  // More threads than the 12 cells: clamped to one worker per cell, same
  // report.
  config.num_threads = 64;
  EXPECT_EQ(RunFullStudy(config).value().ToMarkdown(), sequential.ToMarkdown());
}

TEST(StudyTest, MissingCellLookupFails) {
  StudyResult empty;
  EXPECT_FALSE(empty.Cell(Outcome::kQol, Approach::kDataDriven, true).ok());
}

}  // namespace
}  // namespace mysawh::core
