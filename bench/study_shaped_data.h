#ifndef MYSAWH_BENCH_STUDY_SHAPED_DATA_H_
#define MYSAWH_BENCH_STUDY_SHAPED_DATA_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "util/rng.h"

namespace mysawh::bench {

/// A study-shaped training partition, 1,800 rows x 60 features. As in the
/// study's DD samples, 56 features are questionnaire scores: each is the
/// mean of a few Likert answers (4 to 11 levels), so most rows sit on
/// quarter steps and a tail of rare fractional levels fills out the bins,
/// and 2% of these cells are missing. Three features are continuous
/// wearable aggregates and one is a frailty index with 33 levels.
inline Dataset MakeStudyShapedData(uint64_t seed) {
  constexpr int64_t kRows = 1800;
  constexpr int64_t kFeatures = 60;
  constexpr int64_t kScores = 56;
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  Rng rng(seed);
  std::vector<std::string> names;
  for (int64_t f = 0; f < kFeatures; ++f) {
    names.push_back(std::string("f").append(std::to_string(f)));
  }
  Dataset ds = Dataset::Create(names);
  std::vector<double> row(static_cast<size_t>(kFeatures));
  for (int64_t i = 0; i < kRows; ++i) {
    const double health = rng.Normal();  // the patient's latent state
    for (int64_t f = 0; f < kScores; ++f) {
      double& score = row[static_cast<size_t>(f)];
      if (rng.Uniform() < 0.02) {
        score = kNaN;
        continue;
      }
      const double levels = 4.0 + static_cast<double>(f % 8);
      const int64_t answers = rng.Uniform() < 0.8 ? 4 : rng.UniformInt(2, 6);
      const double center = 0.5 * (levels + 1.0) + 0.15 * levels * health;
      double sum = 0.0;
      for (int64_t a = 0; a < answers; ++a) {
        const double answer =
            std::round(center + rng.Normal(0.0, 0.15 * levels));
        sum += std::clamp(answer, 1.0, levels);
      }
      score = sum / static_cast<double>(answers);
    }
    for (int64_t f = kScores; f + 1 < kFeatures; ++f) {
      row[static_cast<size_t>(f)] =
          6000.0 + 2000.0 * health + rng.Normal(0.0, 1500.0);
    }
    const double frailty = std::round(16.0 - 6.0 * health + rng.Normal(0, 3));
    row[kFeatures - 1] = std::clamp(frailty, 0.0, 32.0) / 32.0;
    double y = 50.0 + 10.0 * health + rng.Normal(0.0, 5.0);
    for (int64_t f = 0; f < 6; ++f) {
      const double v = row[static_cast<size_t>(f)];
      if (!std::isnan(v)) y += (f % 2 == 0 ? 1.5 : -1.0) * v;
    }
    (void)ds.AddRow(row, y);
  }
  return ds;
}

}  // namespace mysawh::bench

#endif  // MYSAWH_BENCH_STUDY_SHAPED_DATA_H_
