#ifndef MYSAWH_GBT_PARAMS_H_
#define MYSAWH_GBT_PARAMS_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "gbt/objective.h"
#include "util/status.h"

namespace mysawh::gbt {

/// Booster hyperparameters; defaults follow XGBoost's conventions and are
/// tuned mildly for small tabular clinical datasets. Splits are always found
/// on quantile-binned histograms (XGBoost "hist").
struct GbtParams {
  ObjectiveType objective = ObjectiveType::kSquaredError;

  int num_trees = 200;          ///< Boosting rounds.
  int max_depth = 4;            ///< Maximum tree depth (>= 1).
  double learning_rate = 0.1;   ///< Shrinkage eta in (0, 1].
  double min_child_weight = 1.0;///< Min sum of hessians in a child.
  int min_samples_leaf = 1;     ///< Min rows in a leaf.
  double reg_lambda = 1.0;      ///< L2 regularization on leaf weights.
  double reg_alpha = 0.0;       ///< L1 regularization on leaf weights.
  double gamma = 0.0;           ///< Min loss reduction to make a split.
  double subsample = 1.0;       ///< Row subsampling per tree, (0, 1].
  double colsample_bytree = 1.0;///< Feature subsampling per tree, (0, 1].
  int max_bins = 64;            ///< Histogram bins per feature, [2, 254].
  /// Gradient weight multiplier for positive (label == 1) samples; > 1
  /// counteracts class imbalance in binary objectives (XGBoost's
  /// scale_pos_weight). Ignored for regression labels not equal to 1.
  double scale_pos_weight = 1.0;
  uint64_t seed = 7;            ///< RNG seed for subsampling.
  int num_threads = 1;          ///< Worker threads for split finding.

  /// Stop when the validation metric has not improved for this many rounds
  /// (0 disables early stopping; requires a validation set).
  int early_stopping_rounds = 0;

  /// Raw base score; NaN means "derive from the label mean".
  double base_score = std::numeric_limits<double>::quiet_NaN();

  /// Per-feature monotonicity constraints: +1 forces the prediction to be
  /// non-decreasing in the feature, -1 non-increasing, 0 unconstrained.
  /// Empty means no constraints; otherwise the length must equal the
  /// training set's feature count. Useful in clinical models where domain
  /// knowledge dictates the direction (e.g. "more daily steps can never
  /// predict a worse SPPB").
  std::vector<int> monotone_constraints;

  /// Checks ranges; returns InvalidArgument describing the first violation.
  Status Validate() const;
};

}  // namespace mysawh::gbt

#endif  // MYSAWH_GBT_PARAMS_H_
