#ifndef MYSAWH_GBT_GBT_MODEL_H_
#define MYSAWH_GBT_GBT_MODEL_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "gbt/flat_forest.h"
#include "gbt/objective.h"
#include "gbt/params.h"
#include "gbt/tree.h"
#include "model/model.h"
#include "util/status.h"

namespace mysawh::gbt {

/// Per-round metrics captured during training.
struct TrainingLog {
  struct Round {
    int round = 0;
    double train_metric = 0.0;
    double valid_metric = 0.0;  ///< NaN when no validation set was given.
  };
  std::vector<Round> rounds;
  std::string metric_name;
};
// The hist-mode node counters that used to live here are now registry
// counters `gbt.train.hist_nodes_direct` / `gbt.train.hist_nodes_subtracted`
// (see util/metrics.h and docs/observability.md).

/// A trained gradient-boosted tree ensemble (XGBoost-style second-order
/// boosting, built from scratch). Supports regression (squared error,
/// pseudo-Huber) and binary classification (logistic), missing values via
/// learned default directions, L1/L2/gamma regularization, row and column
/// subsampling, histogram split finding, and early stopping.
///
/// Implements the polymorphic `model::Model` interface, registered in the
/// serialization registry under kind "gbt".
class GbtModel : public model::Model {
 public:
  GbtModel() = default;

  /// Trains an ensemble on `train`. If `validation` is non-null its metric
  /// is tracked per round and early stopping (if enabled in `params`)
  /// truncates the ensemble at the best round. `log`, when non-null,
  /// receives per-round metrics.
  static Result<GbtModel> Train(const Dataset& train, const GbtParams& params,
                                const Dataset* validation = nullptr,
                                TrainingLog* log = nullptr);

  /// Prediction (transformed scale: value for regression, P(y=1) for
  /// logistic) for one row of num_features() doubles; NaN = missing.
  double PredictRow(const double* row) const;
  /// Raw margin score for one row.
  double PredictRowRaw(const double* row) const;
  /// Maps a raw margin to the prediction scale with the model's objective
  /// (identity for regression, sigmoid for logistic, exp for Poisson): the
  /// one transform PredictRow, Predict, PredictStaged and
  /// explain::ExplainRow apply.
  double Transform(double raw) const;

  /// Batch prediction; fails when the dataset's width differs. Runs the
  /// compiled flat-forest kernel when available (bit-identical to the
  /// reference walker), the reference walker otherwise.
  Result<std::vector<double>> Predict(const Dataset& data) const;
  /// Batch raw margins (same dispatch as Predict).
  Result<std::vector<double>> PredictRaw(const Dataset& data) const;

  /// Reference batch paths: the uncompiled per-row pointer walker. Always
  /// available; the benchmark twins and equivalence tests measure the flat
  /// kernels against these.
  Result<std::vector<double>> PredictReference(const Dataset& data) const;
  Result<std::vector<double>> PredictRawReference(const Dataset& data) const;

  // model::Model interface.
  std::string Kind() const override { return "gbt"; }
  bool IsClassifier() const override {
    return objective_type_ == ObjectiveType::kLogistic;
  }
  int64_t NumFeatures() const override { return num_features(); }
  const std::vector<std::string>& FeatureNames() const override {
    return feature_names_;
  }
  double Predict(const double* row) const override { return PredictRow(row); }
  Result<std::vector<double>> PredictBatch(const Dataset& data) const override {
    return Predict(data);
  }

  /// Staged batch prediction: transformed predictions after every `stride`
  /// trees (1, stride, 2*stride, ..., and always the full ensemble).
  /// Useful for learning curves and choosing the ensemble size post hoc.
  Result<std::vector<std::vector<double>>> PredictStaged(const Dataset& data,
                                                         int stride) const;

  /// The compiled flat forest, or nullptr when the ensemble's shape cannot
  /// be compiled (see FlatForest::Compile) and every batch path falls back
  /// to the reference walker. Train and Deserialize compile automatically.
  const FlatForest* flat_forest() const { return flat_.get(); }

  /// (Re)compiles the flat forest from the current trees. On a
  /// FailedPrecondition shape the model keeps flat_forest() == nullptr and
  /// counts `gbt.predict.flat_compile_fallbacks`.
  void CompileFlat();

  /// FNV-1a fingerprint of Serialize(). Names the exact model in every
  /// audit-log record (core/audit_log.h). Computed on the first read after
  /// a (re)compile and cached, shared by the model's copies; safe to call
  /// from several threads at once. 0 for a default-constructed model.
  uint64_t fingerprint() const;

  const std::vector<RegressionTree>& trees() const { return trees_; }
  const std::vector<std::string>& feature_names() const {
    return feature_names_;
  }
  int64_t num_features() const {
    return static_cast<int64_t>(feature_names_.size());
  }
  ObjectiveType objective_type() const { return objective_type_; }
  double base_score() const { return base_score_; }
  /// Round with the best validation metric (last round when early stopping
  /// was off).
  int best_iteration() const { return best_iteration_; }

  /// Total split gain attributed to each feature (the "gain" importance
  /// XGBoost reports). Features that never split are omitted.
  std::map<std::string, double> GainImportance() const;
  /// Number of times each feature is used in a split.
  std::map<std::string, int64_t> SplitCountImportance() const;
  /// Total hessian mass (cover) routed through each feature's splits.
  std::map<std::string, double> CoverImportance() const;

  /// Serializes the full model (objective, base score, feature names,
  /// trees) to a line-oriented text format that round-trips exactly.
  /// File round-trips go through the base layer's `model::Model::SaveToFile`
  /// / `LoadFromFile`, which add and dispatch on the `kind:` header.
  std::string Serialize() const override;
  /// Parses a payload produced by Serialize().
  static Result<GbtModel> Deserialize(const std::string& text);

 private:
  friend class Trainer;

  std::vector<RegressionTree> trees_;
  std::vector<std::string> feature_names_;
  ObjectiveType objective_type_ = ObjectiveType::kSquaredError;
  double base_score_ = 0.0;
  int best_iteration_ = -1;
  // The audit fingerprint of the forest CompileFlat last compiled. Hashing
  // needs a full text Serialize(), and only audit-logged predictions read
  // it, so it is computed once on first read rather than after every fit.
  struct FingerprintCache {
    std::once_flag once;
    uint64_t value = 0;
  };
  std::shared_ptr<FingerprintCache> fingerprint_;
  // Compiled inference form; shared so copies of a model reuse one block.
  // Not serialized: Serialize() stays byte-stable across this optimization
  // and Deserialize recompiles.
  std::shared_ptr<const FlatForest> flat_;
};

}  // namespace mysawh::gbt

#endif  // MYSAWH_GBT_GBT_MODEL_H_
