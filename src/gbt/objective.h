#ifndef MYSAWH_GBT_OBJECTIVE_H_
#define MYSAWH_GBT_OBJECTIVE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/status.h"

namespace mysawh::gbt {

/// First and second derivative of the loss at one sample.
struct GradientPair {
  double grad = 0.0;
  double hess = 0.0;
};

/// Loss functions supported by the booster.
enum class ObjectiveType {
  kSquaredError,   ///< reg:squarederror — regression on raw scores.
  kLogistic,       ///< binary:logistic — classification; outputs P(y = 1).
  kPseudoHuber,    ///< robust regression (delta = 1).
  kPoisson,        ///< count:poisson — count regression with a log link;
                   ///< outputs the expected count (e.g. SPPB as a count).
};

/// Parses "reg:squarederror" / "binary:logistic" / "reg:pseudohuber" /
/// "count:poisson".
Result<ObjectiveType> ParseObjectiveType(const std::string& name);
/// Inverse of ParseObjectiveType.
const char* ObjectiveTypeName(ObjectiveType type);

/// A twice-differentiable training loss. Gradients are with respect to the
/// raw (margin) score; `Transform` maps a raw score to the model output
/// (identity for regression, sigmoid for logistic).
class Objective {
 public:
  virtual ~Objective() = default;

  /// Loss derivatives at `n` samples: out[i] at (labels[i], raw[i]). One
  /// call per row chunk keeps the training loop free of per-row dispatch.
  virtual void ComputeGradients(const double* labels, const double* raw,
                                int64_t n, GradientPair* out) const = 0;

  /// Maps a raw margin score to the prediction scale.
  virtual double Transform(double raw) const { return raw; }

  /// Maps a prediction-scale value back to a raw score (used to derive the
  /// base score from the label mean).
  virtual double InverseTransform(double value) const { return value; }

  /// Raw base score minimizing the loss over `labels`.
  virtual double InitialRawPrediction(const std::vector<double>& labels) const;

  /// Validates labels (e.g. logistic requires labels in {0, 1}).
  virtual Status ValidateLabels(const std::vector<double>& labels) const;

  /// Default evaluation metric on the prediction scale ("rmse", "logloss").
  virtual const char* DefaultMetricName() const { return "rmse"; }
  /// Evaluates the default metric; `predictions` are transformed outputs.
  virtual double EvalDefaultMetric(const std::vector<double>& labels,
                                   const std::vector<double>& predictions) const;

  virtual ObjectiveType type() const = 0;
};

/// Factory for the built-in objectives.
std::unique_ptr<Objective> MakeObjective(ObjectiveType type);

/// The built-in objective of `type` as one immutable instance shared by the
/// process (the objectives hold no state), for callers that only evaluate
/// it per row and would otherwise allocate one per call.
const Objective& SharedObjective(ObjectiveType type);

}  // namespace mysawh::gbt

#endif  // MYSAWH_GBT_OBJECTIVE_H_
