#include "core/evaluation.h"

#include <cmath>
#include <limits>
#include <utility>

#include "data/split.h"
#include "linear/linear_model.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/telemetry.h"

namespace mysawh::core {

const char* ApproachName(Approach approach) {
  return approach == Approach::kDataDriven ? "DD" : "KD";
}

const char* ModelFamilyName(ModelFamily family) {
  switch (family) {
    case ModelFamily::kGbt:
      return "gbt";
    case ModelFamily::kLinear:
      return "linear";
    case ModelFamily::kGam:
      return "gam";
  }
  return "unknown";
}

Result<ModelFamily> ParseModelFamily(const std::string& name) {
  if (name == "gbt") return ModelFamily::kGbt;
  if (name == "linear") return ModelFamily::kLinear;
  if (name == "gam") return ModelFamily::kGam;
  return Status::InvalidArgument(
      "unknown model family: " + name + " (expected gbt, linear, or gam)");
}

double ExperimentResult::HeadlineMetric() const {
  return is_classification ? test_classification.accuracy
                           : test_regression.one_minus_mape;
}

gbt::GbtParams DefaultGbtParams(Outcome outcome, Approach approach) {
  gbt::GbtParams params;
  params.learning_rate = 0.07;
  params.num_trees = 300;
  params.subsample = 0.9;
  params.reg_lambda = 1.0;
  params.seed = 7;
  if (approach == Approach::kDataDriven) {
    params.max_depth = 4;
    params.colsample_bytree = 0.8;
    params.min_samples_leaf = 4;
  } else {
    // KD models see only the 1-2 index features.
    params.max_depth = 3;
    params.colsample_bytree = 1.0;
    params.min_samples_leaf = 8;
  }
  if (IsClassification(outcome)) {
    // Vanilla logistic boosting, as the paper's XGBoost setup: no class
    // weighting (GbtParams::scale_pos_weight is available for users who
    // want to trade precision for minority recall).
    params.objective = gbt::ObjectiveType::kLogistic;
  } else {
    params.objective = gbt::ObjectiveType::kSquaredError;
  }
  return params;
}

ModelFamilyConfig DefaultModelConfig(Outcome outcome, Approach approach,
                                     ModelFamily family) {
  ModelFamilyConfig config;
  config.family = family;
  config.gbt = DefaultGbtParams(outcome, approach);
  config.gam.objective = IsClassification(outcome)
                             ? gbt::ObjectiveType::kLogistic
                             : gbt::ObjectiveType::kSquaredError;
  return config;
}

Result<std::unique_ptr<model::Model>> TrainModel(
    const Dataset& train, Outcome outcome, const ModelFamilyConfig& config,
    const Dataset* validation) {
  switch (config.family) {
    case ModelFamily::kGbt: {
      MYSAWH_ASSIGN_OR_RETURN(
          gbt::GbtModel model,
          gbt::GbtModel::Train(train, config.gbt, validation));
      return std::unique_ptr<model::Model>(
          new gbt::GbtModel(std::move(model)));
    }
    case ModelFamily::kLinear: {
      // The linear family resolves to logistic regression when the outcome
      // is a classification task, so probabilities come out calibrated.
      if (IsClassification(outcome)) {
        MYSAWH_ASSIGN_OR_RETURN(
            linear::LogisticModel model,
            linear::LogisticModel::Train(train, config.linear_lambda));
        return std::unique_ptr<model::Model>(
            new linear::LogisticModel(std::move(model)));
      }
      MYSAWH_ASSIGN_OR_RETURN(
          linear::LinearModel model,
          linear::LinearModel::Train(train, config.linear_lambda));
      return std::unique_ptr<model::Model>(
          new linear::LinearModel(std::move(model)));
    }
    case ModelFamily::kGam: {
      // Force the objective to match the outcome type so predictions are
      // always on the scale the metrics expect.
      gam::GamParams params = config.gam;
      params.objective = IsClassification(outcome)
                             ? gbt::ObjectiveType::kLogistic
                             : gbt::ObjectiveType::kSquaredError;
      MYSAWH_ASSIGN_OR_RETURN(gam::GamModel model,
                              gam::GamModel::Train(train, params));
      return std::unique_ptr<model::Model>(
          new gam::GamModel(std::move(model)));
    }
  }
  return Status::InvalidArgument("unknown model family");
}

namespace {

/// Mean of per-fold regression metrics.
RegressionMetrics MeanRegression(const std::vector<RegressionMetrics>& folds) {
  RegressionMetrics mean;
  if (folds.empty()) return mean;
  for (const auto& f : folds) {
    mean.mae += f.mae;
    mean.rmse += f.rmse;
    mean.mape += f.mape;
    mean.n += f.n;
    mean.mape_skipped += f.mape_skipped;
  }
  const auto k = static_cast<double>(folds.size());
  mean.mae /= k;
  mean.rmse /= k;
  mean.mape /= k;
  mean.one_minus_mape = 1.0 - mean.mape;
  return mean;
}

/// Mean of per-fold classification metrics (ratios averaged, counts summed).
ClassificationMetrics MeanClassification(
    const std::vector<ClassificationMetrics>& folds) {
  ClassificationMetrics mean;
  if (folds.empty()) return mean;
  for (const auto& f : folds) {
    mean.tp += f.tp;
    mean.fp += f.fp;
    mean.tn += f.tn;
    mean.fn += f.fn;
    mean.accuracy += f.accuracy;
    mean.precision_true += f.precision_true;
    mean.precision_false += f.precision_false;
    mean.recall_true += f.recall_true;
    mean.recall_false += f.recall_false;
    mean.f1_true += f.f1_true;
    mean.f1_false += f.f1_false;
  }
  const auto k = static_cast<double>(folds.size());
  mean.accuracy /= k;
  mean.precision_true /= k;
  mean.precision_false /= k;
  mean.recall_true /= k;
  mean.recall_false /= k;
  mean.f1_true /= k;
  mean.f1_false /= k;
  return mean;
}

/// Family-specific hyperparameter validation.
Status ValidateConfig(const ModelFamilyConfig& config) {
  switch (config.family) {
    case ModelFamily::kGbt:
      return config.gbt.Validate();
    case ModelFamily::kGam:
      return config.gam.Validate();
    case ModelFamily::kLinear:
      if (config.linear_lambda < 0.0) {
        return Status::InvalidArgument("linear_lambda must be >= 0");
      }
      return Status::Ok();
  }
  return Status::InvalidArgument("unknown model family");
}

}  // namespace

Result<ExperimentPlan> ExperimentPlan::Create(
    const Dataset& samples, Outcome outcome, Approach approach, bool with_fi,
    const ModelFamilyConfig& config, const EvalProtocol& protocol) {
  if (samples.num_rows() < 10) {
    return Status::InvalidArgument("experiment needs at least 10 samples");
  }
  if (protocol.cv_folds < 2) {
    return Status::InvalidArgument("cv_folds must be >= 2");
  }
  MYSAWH_RETURN_NOT_OK(ValidateConfig(config));

  ExperimentPlan plan;
  plan.config_ = config;
  plan.protocol_ = protocol;
  ExperimentResult& result = plan.result_;
  result.outcome = outcome;
  result.approach = approach;
  result.with_fi = with_fi;
  result.is_classification = IsClassification(outcome);

  Rng rng(protocol.seed);
  TrainTestIndices split;
  if (result.is_classification) {
    MYSAWH_ASSIGN_OR_RETURN(
        split,
        StratifiedTrainTestSplit(samples.labels(), protocol.test_fraction,
                                 &rng));
  } else {
    MYSAWH_ASSIGN_OR_RETURN(
        split, TrainTestSplit(samples.num_rows(), protocol.test_fraction,
                              &rng));
  }
  MYSAWH_ASSIGN_OR_RETURN(result.train, samples.Take(split.train));
  MYSAWH_ASSIGN_OR_RETURN(result.test, samples.Take(split.test));

  // K-fold CV on the train partition.
  if (result.is_classification) {
    MYSAWH_ASSIGN_OR_RETURN(
        plan.folds_,
        StratifiedKFoldSplit(result.train.labels(), protocol.cv_folds, &rng));
    plan.fold_cls_.resize(plan.folds_.size());
  } else {
    MYSAWH_ASSIGN_OR_RETURN(
        plan.folds_,
        KFoldSplit(result.train.num_rows(), protocol.cv_folds, &rng));
    plan.fold_reg_.resize(plan.folds_.size());
  }
  plan.fit_status_.assign(plan.folds_.size() + 1,
                          Status::Internal("fit never ran"));
  return plan;
}

Status ExperimentPlan::Fit(int k) {
  Status status = RunFit(k);
  fit_status_[static_cast<size_t>(k)] = status;
  return status;
}

Status ExperimentPlan::RunFit(int k) {
  const Outcome outcome = result_.outcome;
  if (is_final_fit(k)) {
    // Final model on all train rows, evaluated on the test rows in Finish.
    TelemetryScope final_scope("final");
    MYSAWH_ASSIGN_OR_RETURN(
        result_.model,
        TrainModel(result_.train, outcome, config_,
                   TelemetryEnabled() ? &result_.test : nullptr));
    return Status::Ok();
  }
  const Fold& fold = folds_[static_cast<size_t>(k)];
  MYSAWH_ASSIGN_OR_RETURN(Dataset fold_train, result_.train.Take(fold.train));
  MYSAWH_ASSIGN_OR_RETURN(Dataset fold_valid,
                          result_.train.Take(fold.validation));
  // With telemetry on, the fold's held-out side is tracked per boosting
  // round (stream "<context>/cv<k>/train"). Early stopping is off in the
  // study protocol, so the trained model — and therefore every reported
  // metric — is bit-identical whether or not the validation set is
  // passed through.
  TelemetryScope fold_scope("cv" + std::to_string(k));
  MYSAWH_ASSIGN_OR_RETURN(
      std::unique_ptr<model::Model> model,
      TrainModel(fold_train, outcome, config_,
                 TelemetryEnabled() ? &fold_valid : nullptr));
  MYSAWH_ASSIGN_OR_RETURN(std::vector<double> preds,
                          model->PredictBatch(fold_valid));
  if (result_.is_classification) {
    MYSAWH_ASSIGN_OR_RETURN(
        fold_cls_[static_cast<size_t>(k)],
        ComputeClassificationMetrics(fold_valid.labels(), preds,
                                     protocol_.decision_threshold));
  } else {
    MYSAWH_ASSIGN_OR_RETURN(
        fold_reg_[static_cast<size_t>(k)],
        ComputeRegressionMetrics(fold_valid.labels(), preds));
  }
  return Status::Ok();
}

Result<ExperimentResult> ExperimentPlan::Finish() {
  for (const Status& status : fit_status_) MYSAWH_RETURN_NOT_OK(status);
  ExperimentResult result = std::move(result_);
  result.cv_regression = MeanRegression(fold_reg_);
  result.cv_classification = MeanClassification(fold_cls_);

  MYSAWH_ASSIGN_OR_RETURN(std::vector<double> test_preds,
                          result.model->PredictBatch(result.test));
  if (result.is_classification) {
    MYSAWH_ASSIGN_OR_RETURN(
        result.test_classification,
        ComputeClassificationMetrics(result.test.labels(), test_preds,
                                     protocol_.decision_threshold));
  } else {
    MYSAWH_ASSIGN_OR_RETURN(
        result.test_regression,
        ComputeRegressionMetrics(result.test.labels(), test_preds));
  }

  // With telemetry on and a tree model, record the held-out learning curve
  // in the paper's headline metric (AUC for classification, MAPE for
  // regression) — the trainer's stream only carries the objective loss.
  if (TelemetryEnabled() && result.gbt_model() != nullptr) {
    TelemetryScope final_scope("final");
    MYSAWH_ASSIGN_OR_RETURN(std::vector<std::vector<double>> stages,
                            result.gbt_model()->PredictStaged(result.test, 1));
    TelemetryStream eval = Telemetry::Global().StartStream("eval");
    if (eval.active()) {
      const char* metric = result.is_classification ? "auc" : "mape";
      JsonWriter header;
      header.Key("metric").String(metric)
          .Key("rows").Int(result.test.num_rows())
          .Key("stages").Int(stages.size());
      eval.Line("header", header.str());
      for (size_t stage = 0; stage < stages.size(); ++stage) {
        double value = std::numeric_limits<double>::quiet_NaN();
        if (result.is_classification) {
          Result<double> auc = RocAuc(result.test.labels(), stages[stage]);
          if (auc.ok()) value = *auc;
        } else {
          Result<RegressionMetrics> m =
              ComputeRegressionMetrics(result.test.labels(), stages[stage]);
          if (m.ok()) value = m->mape;
        }
        JsonWriter line;
        line.Key("round").Int(stage).Key("value").Number(value);
        eval.Line("eval", line.str());
      }
      eval.Finish();
    }
  }
  return result;
}

Result<ExperimentResult> RunExperiment(const Dataset& samples, Outcome outcome,
                                       Approach approach, bool with_fi,
                                       const ModelFamilyConfig& config,
                                       const EvalProtocol& protocol) {
  MYSAWH_ASSIGN_OR_RETURN(
      ExperimentPlan plan,
      ExperimentPlan::Create(samples, outcome, approach, with_fi, config,
                             protocol));
  for (int k = 0; k < plan.num_fits(); ++k) MYSAWH_RETURN_NOT_OK(plan.Fit(k));
  return plan.Finish();
}

Result<ExperimentResult> RunExperiment(const Dataset& samples, Outcome outcome,
                                       Approach approach, bool with_fi,
                                       const gbt::GbtParams& params,
                                       const EvalProtocol& protocol) {
  ModelFamilyConfig config;
  config.family = ModelFamily::kGbt;
  config.gbt = params;
  return RunExperiment(samples, outcome, approach, with_fi, config, protocol);
}

Result<ExperimentResult> RunExperiment(const Dataset& samples, Outcome outcome,
                                       Approach approach, bool with_fi,
                                       const EvalProtocol& protocol) {
  return RunExperiment(samples, outcome, approach, with_fi,
                       DefaultGbtParams(outcome, approach), protocol);
}

}  // namespace mysawh::core
