#ifndef MYSAWH_CORE_EVALUATION_H_
#define MYSAWH_CORE_EVALUATION_H_

#include <memory>
#include <string>
#include <vector>

#include "core/metrics.h"
#include "core/outcomes.h"
#include "data/dataset.h"
#include "data/split.h"
#include "gam/gam_model.h"
#include "gbt/gbt_model.h"
#include "model/model.h"
#include "util/status.h"

namespace mysawh::core {

/// Which learning framework a result belongs to (Fig 3's two sides).
enum class Approach {
  kDataDriven,       ///< GBT on the raw PRO + activity features.
  kKnowledgeDriven,  ///< GBT on the manually built ICI (+ FI).
};
/// "DD" / "KD".
const char* ApproachName(Approach approach);

/// Which model family an experiment cell trains. The paper's pipeline uses
/// gradient boosting; the linear and GAM families run the same protocol for
/// baseline comparisons (cf. `bench/ablation_model_families`).
enum class ModelFamily {
  kGbt,     ///< Gradient-boosted trees (the paper's choice).
  kLinear,  ///< Ridge regression / logistic regression by outcome type.
  kGam,     ///< Cyclic-boosted generalized additive model.
};

/// "gbt" / "linear" / "gam".
const char* ModelFamilyName(ModelFamily family);
/// Inverse of ModelFamilyName; InvalidArgument on unknown names.
Result<ModelFamily> ParseModelFamily(const std::string& name);

/// Hyperparameters for one experiment cell, covering every model family.
/// Only the block matching `family` is consulted at training time.
struct ModelFamilyConfig {
  ModelFamily family = ModelFamily::kGbt;
  gbt::GbtParams gbt;
  gam::GamParams gam;
  double linear_lambda = 1.0;  ///< Ridge strength for the linear family.
};

/// Train/test and cross-validation protocol, mirroring the paper: standard
/// KFold CV on 80% of the samples and a test phase on the remaining 20%.
struct EvalProtocol {
  double test_fraction = 0.2;
  int cv_folds = 5;
  uint64_t seed = 1234;
  /// Classification probability cutoff.
  double decision_threshold = 0.5;
};

/// Everything produced by one experiment cell (one outcome x approach x
/// FI-usage): test metrics, CV-mean metrics, the final model, and the
/// train/test partitions (retained so SHAP analyses can run on exactly the
/// evaluation data).
///
/// Move-only: the trained model is held polymorphically.
struct ExperimentResult {
  Outcome outcome = Outcome::kQol;
  Approach approach = Approach::kDataDriven;
  bool with_fi = false;

  bool is_classification = false;
  RegressionMetrics test_regression;      ///< Valid when regression.
  ClassificationMetrics test_classification;  ///< Valid when classification.
  RegressionMetrics cv_regression;        ///< Fold means.
  ClassificationMetrics cv_classification;

  std::unique_ptr<model::Model> model;  ///< Trained on the 80% train side.
  Dataset train;
  Dataset test;

  /// The trained model as a GBT, or nullptr when another family was used.
  /// TreeSHAP and the staged-prediction analyses are tree-only and need the
  /// concrete type.
  const gbt::GbtModel* gbt_model() const {
    return dynamic_cast<const gbt::GbtModel*>(model.get());
  }

  /// The headline scalar of Fig 4: 1-MAPE for regression, accuracy for
  /// classification.
  double HeadlineMetric() const;
};

/// Default booster hyperparameters for one outcome/approach cell. KD models
/// see only 1-2 features and use shallower trees; Falls uses the logistic
/// objective with a class-imbalance weight.
gbt::GbtParams DefaultGbtParams(Outcome outcome, Approach approach);

/// Default hyperparameters for any family on one outcome/approach cell.
/// The GBT block always matches DefaultGbtParams so family == kGbt
/// reproduces the paper pipeline exactly.
ModelFamilyConfig DefaultModelConfig(Outcome outcome, Approach approach,
                                     ModelFamily family = ModelFamily::kGbt);

/// Trains one model of the configured family on `train`. The linear family
/// resolves to logistic regression for classification outcomes.
/// `validation`, when non-null, is tracked per boosting round by the GBT
/// family (for telemetry learning curves; other families ignore it) — it
/// never changes the trained model unless early stopping is configured.
Result<std::unique_ptr<model::Model>> TrainModel(
    const Dataset& train, Outcome outcome, const ModelFamilyConfig& config,
    const Dataset* validation = nullptr);

/// One experiment cell cut into the steps a scheduler runs apart:
///  - plan (Create): the 80/20 split (stratified for Falls), the train/test
///    partitions and the CV fold index lists, drawn from the protocol's Rng;
///  - fit k (Fit): fits 0..K-1 train on CV fold k and score its held-out
///    rows; fit K trains the final model on all train rows. Each fit builds
///    its own fold datasets, so besides the train/test partitions a plan
///    holds only index lists;
///  - finish (Finish): the first failed fit in fold order, else the fold
///    means, the test evaluation and the eval telemetry.
/// Distinct fits may run concurrently; Finish runs after every Fit has
/// returned. Every step is a pure function of the inputs and the protocol
/// seed, so the result does not depend on the order or thread of the fits.
class ExperimentPlan {
 public:
  /// Validates the inputs and plans the cell. The partitions are copied
  /// out of `samples`, so it need not outlive the plan.
  static Result<ExperimentPlan> Create(const Dataset& samples,
                                       Outcome outcome, Approach approach,
                                       bool with_fi,
                                       const ModelFamilyConfig& config,
                                       const EvalProtocol& protocol);

  /// CV folds plus the final fit.
  int num_fits() const { return static_cast<int>(fit_status_.size()); }
  /// True for the fit that trains the final model (the last one).
  bool is_final_fit(int k) const { return k + 1 == num_fits(); }

  /// Runs fit `k` under the telemetry scope "cv<k>" or "final", and
  /// records its status for Finish.
  Status Fit(int k);

  /// Reduces the fits into the cell's result; call once.
  Result<ExperimentResult> Finish();

 private:
  ExperimentPlan() = default;
  Status RunFit(int k);

  ExperimentResult result_;
  ModelFamilyConfig config_;
  EvalProtocol protocol_;
  std::vector<Fold> folds_;
  std::vector<Status> fit_status_;
  std::vector<RegressionMetrics> fold_reg_;       ///< Regression cells.
  std::vector<ClassificationMetrics> fold_cls_;   ///< Classification cells.
};

/// Runs one experiment cell on a sample set (pass SampleSets::dd, dd_fi,
/// kd or kd_fi; `approach`/`with_fi` are recorded as metadata): splits
/// 80/20 (stratified for Falls), K-fold cross-validates on the train side,
/// trains the final model on all train rows, and evaluates on the test
/// side. The ExperimentPlan steps, in order, on the calling thread.
Result<ExperimentResult> RunExperiment(const Dataset& samples, Outcome outcome,
                                       Approach approach, bool with_fi,
                                       const ModelFamilyConfig& config,
                                       const EvalProtocol& protocol);

/// GBT-only overload, kept for the paper pipeline's call sites.
Result<ExperimentResult> RunExperiment(const Dataset& samples, Outcome outcome,
                                       Approach approach, bool with_fi,
                                       const gbt::GbtParams& params,
                                       const EvalProtocol& protocol);

/// Convenience overload using DefaultGbtParams.
Result<ExperimentResult> RunExperiment(const Dataset& samples, Outcome outcome,
                                       Approach approach, bool with_fi,
                                       const EvalProtocol& protocol);

}  // namespace mysawh::core

#endif  // MYSAWH_CORE_EVALUATION_H_
