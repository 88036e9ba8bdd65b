#ifndef MYSAWH_EXPLAIN_TREE_SHAP_H_
#define MYSAWH_EXPLAIN_TREE_SHAP_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "data/dataset.h"
#include "gbt/gbt_model.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace mysawh::explain {

/// Exact TreeSHAP (Lundberg et al., "Consistent Individualized Feature
/// Attribution for Tree Ensembles") over a trained GbtModel.
///
/// For each input row it computes one Shapley value per feature on the raw
/// margin scale, satisfying the local-accuracy identity
///
///     raw_prediction(x) = expected_value() + sum_j shap_j(x)
///
/// where expected_value() is the cover-weighted mean raw output of the
/// ensemble. Cover is the training hessian mass per node, matching
/// XGBoost's TreeSHAP semantics. Runs in O(trees * leaves * depth^2).
class TreeShap {
 public:
  /// `model` must outlive this object and must not be recompiled
  /// (CompileFlat) or reassigned while it lives: the object caches state
  /// derived from the model's trees and flat forest.
  explicit TreeShap(const gbt::GbtModel* model);

  /// SHAP values for one row (num_features() doubles; NaN = missing). Runs
  /// the reference per-tree recursion until this object (with its copies)
  /// has served enough rows for the model's pattern tables to pay (see
  /// ShapBatch); from then on it bins the row against the compiled flat
  /// forest and replays the tables. A model without a flat forest, or one
  /// whose tables would exceed the depth or memory caps, always runs the
  /// recursion. Both give bit-identical values.
  std::vector<double> Shap(const double* row) const;

  /// One row's SHAP values together with its raw margin.
  struct RowShap {
    std::vector<double> phi;      ///< As Shap(row) returns them.
    double raw_prediction = 0.0;  ///< == model().PredictRowRaw(row).
  };

  /// Shap(row) plus the raw margin, on the same path. On the tables both
  /// come from one replay: the first leaf it pops in each tree is the
  /// row's own leaf, so base_score plus those leaves in ascending tree
  /// order is the reference walker's sum, bit for bit, without a second
  /// walk. On the recursion the margin is PredictRowRaw. ExplainRow's
  /// entry point.
  RowShap ShapWithMargin(const double* row) const;

  /// SHAP values for every row of `data` (one inner vector per row), on
  /// the same path Shap(row) would take, after one quantization of the
  /// whole batch. The tables hold every (leaf, ancestor-direction pattern)
  /// addend of the reference recursion and depend only on the model. They
  /// are built once, under a once-flag shared by this object's copies, on
  /// the call that brings the rows served to where rows x leaves >= 2 x
  /// (leaf, pattern) pairs; calls before it delegate to
  /// ShapBatchReference. So the speedup rests on reusing a TreeShap: a
  /// one-shot explain never pays for the build. Rows are explained in
  /// parallel on `pool` (nullptr = the shared `DefaultPool()`); the output
  /// equals calling Shap() per row for any thread count.
  Result<std::vector<std::vector<double>>> ShapBatch(
      const Dataset& data, ThreadPool* pool = nullptr) const;

  /// The reference per-tree pointer recursion over every row; the
  /// benchmark twin and the oracle the equivalence tests hold ShapBatch
  /// and Shap to.
  Result<std::vector<std::vector<double>>> ShapBatchReference(
      const Dataset& data, ThreadPool* pool = nullptr) const;

  /// SHAP interaction values for one row: an M x M matrix (row-major,
  /// M = num_features) where entry (i, j), i != j, is feature i and j's
  /// pairwise interaction effect and (i, i) is feature i's main effect.
  /// Satisfies (up to float error):
  ///   * symmetry:      phi[i][j] == phi[j][i]
  ///   * row sums:      sum_j phi[i][j] == Shap(row)[i]
  ///   * local accuracy: sum_ij phi[i][j] + expected_value() == raw(x)
  /// Cost: num_features + 1 passes of the TreeSHAP recursion
  /// (O(M * trees * leaves * depth^2)).
  std::vector<double> ShapInteractions(const double* row) const;

  /// Raw-scale expectation of the model over its training distribution
  /// (base_score plus each tree's cover-weighted leaf mean).
  double expected_value() const { return expected_value_; }

  const gbt::GbtModel& model() const { return *model_; }

  /// Each feature's position among the model's feature names sorted
  /// ascending (equal names by column): ExplainRow's tie-break between
  /// equal |SHAP| values, ranked once here rather than by comparing names
  /// on every row.
  const std::vector<int32_t>& feature_name_rank() const { return name_rank_; }

 private:
  struct PatternCache;

  /// Counts `rows` about to be served and returns the model's pattern
  /// tables, building them on the call that makes them pay (thread-safe);
  /// nullptr before that, and always when the model has no flat forest or
  /// is over the caps.
  const PatternCache* Tables(int64_t rows) const;

  /// Adds the row's SHAP values to `phi` (num_features() zeros) on the
  /// path Shap(row) documents and returns the raw margin: the replay's
  /// on the tables, PredictRowRaw on the recursion when `want_raw` (0.0
  /// otherwise, so Shap skips the walk).
  double ShapRow(const double* row, double* phi, bool want_raw) const;

  /// Adds the (possibly conditioned) reference recursion over every tree
  /// to `phi`, reusing one workspace sized for the deepest tree.
  void AccumulateReference(const double* row, double* phi, int condition,
                           int condition_feature) const;

  const gbt::GbtModel* model_;
  double expected_value_ = 0.0;
  int max_depth_ = 0;  ///< Deepest tree; sizes the recursion workspace.
  std::shared_ptr<PatternCache> tables_;
  std::vector<int32_t> name_rank_;  ///< See feature_name_rank().
};

}  // namespace mysawh::explain

#endif  // MYSAWH_EXPLAIN_TREE_SHAP_H_
