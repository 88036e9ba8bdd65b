#include "gbt/objective.h"

#include <algorithm>
#include <cmath>

#include "util/stats.h"

namespace mysawh::gbt {

namespace {

double Sigmoid(double x) { return 1.0 / (1.0 + std::exp(-x)); }

double ClampProbability(double p) {
  return std::min(1.0 - 1e-15, std::max(1e-15, p));
}

/// Implements the batch gradient call over the derived objective's
/// per-sample `Gradient`, which the loop inlines.
template <typename Derived>
class RowwiseObjective : public Objective {
 public:
  void ComputeGradients(const double* labels, const double* raw, int64_t n,
                        GradientPair* out) const final {
    for (int64_t i = 0; i < n; ++i) {
      out[i] = Derived::Gradient(labels[i], raw[i]);
    }
  }
};

/// Mean squared error objective: L = 0.5 (y - f)^2.
class SquaredErrorObjective final
    : public RowwiseObjective<SquaredErrorObjective> {
 public:
  static GradientPair Gradient(double label, double raw) {
    return {raw - label, 1.0};
  }
  Status ValidateLabels(const std::vector<double>& labels) const override {
    for (double y : labels) {
      if (std::isnan(y)) {
        return Status::InvalidArgument("squared error: NaN label");
      }
    }
    return Status::Ok();
  }
  double EvalDefaultMetric(
      const std::vector<double>& labels,
      const std::vector<double>& predictions) const override {
    double ss = 0.0;
    for (size_t i = 0; i < labels.size(); ++i) {
      const double d = labels[i] - predictions[i];
      ss += d * d;
    }
    return labels.empty() ? 0.0
                          : std::sqrt(ss / static_cast<double>(labels.size()));
  }
  ObjectiveType type() const override { return ObjectiveType::kSquaredError; }
};

/// Binary logistic loss on raw margins; outputs probabilities.
class LogisticObjective final : public RowwiseObjective<LogisticObjective> {
 public:
  static GradientPair Gradient(double label, double raw) {
    const double p = Sigmoid(raw);
    return {p - label, std::max(p * (1.0 - p), 1e-16)};
  }
  double Transform(double raw) const override { return Sigmoid(raw); }
  double InverseTransform(double p) const override {
    const double q = ClampProbability(p);
    return std::log(q / (1.0 - q));
  }
  Status ValidateLabels(const std::vector<double>& labels) const override {
    for (double y : labels) {
      if (y != 0.0 && y != 1.0) {
        return Status::InvalidArgument(
            "binary:logistic labels must be 0 or 1");
      }
    }
    return Status::Ok();
  }
  const char* DefaultMetricName() const override { return "logloss"; }
  double EvalDefaultMetric(
      const std::vector<double>& labels,
      const std::vector<double>& predictions) const override {
    double loss = 0.0;
    for (size_t i = 0; i < labels.size(); ++i) {
      const double p = ClampProbability(predictions[i]);
      loss += labels[i] > 0.5 ? -std::log(p) : -std::log(1.0 - p);
    }
    return labels.empty() ? 0.0 : loss / static_cast<double>(labels.size());
  }
  ObjectiveType type() const override { return ObjectiveType::kLogistic; }
};

/// Pseudo-Huber loss with delta = 1: smooth near 0, linear in the tails.
class PseudoHuberObjective final
    : public RowwiseObjective<PseudoHuberObjective> {
 public:
  static GradientPair Gradient(double label, double raw) {
    const double r = raw - label;
    const double scale = std::sqrt(1.0 + r * r);
    const double grad = r / scale;
    const double hess = 1.0 / (scale * scale * scale);
    return {grad, std::max(hess, 1e-16)};
  }
  Status ValidateLabels(const std::vector<double>& labels) const override {
    for (double y : labels) {
      if (std::isnan(y)) {
        return Status::InvalidArgument("pseudo-huber: NaN label");
      }
    }
    return Status::Ok();
  }
  double EvalDefaultMetric(
      const std::vector<double>& labels,
      const std::vector<double>& predictions) const override {
    double total = 0.0;
    for (size_t i = 0; i < labels.size(); ++i) {
      total += std::abs(labels[i] - predictions[i]);
    }
    return labels.empty() ? 0.0 : total / static_cast<double>(labels.size());
  }
  const char* DefaultMetricName() const override { return "mae"; }
  ObjectiveType type() const override { return ObjectiveType::kPseudoHuber; }
};

/// Poisson deviance with log link: raw score is log-mean.
class PoissonObjective final : public RowwiseObjective<PoissonObjective> {
 public:
  static GradientPair Gradient(double label, double raw) {
    const double mu = std::exp(std::min(raw, 30.0));  // overflow guard
    return {mu - label, std::max(mu, 1e-10)};
  }
  double Transform(double raw) const override { return std::exp(raw); }
  double InverseTransform(double mu) const override {
    return std::log(std::max(mu, 1e-10));
  }
  Status ValidateLabels(const std::vector<double>& labels) const override {
    for (double y : labels) {
      if (std::isnan(y) || y < 0.0) {
        return Status::InvalidArgument(
            "count:poisson labels must be non-negative");
      }
    }
    return Status::Ok();
  }
  const char* DefaultMetricName() const override { return "poisson-dev"; }
  double EvalDefaultMetric(
      const std::vector<double>& labels,
      const std::vector<double>& predictions) const override {
    // Mean Poisson deviance (constant terms in y omitted for y = 0).
    double total = 0.0;
    for (size_t i = 0; i < labels.size(); ++i) {
      const double mu = std::max(predictions[i], 1e-10);
      const double y = labels[i];
      total += y > 0.0 ? 2.0 * (y * std::log(y / mu) - (y - mu))
                       : 2.0 * mu;
    }
    return labels.empty() ? 0.0 : total / static_cast<double>(labels.size());
  }
  ObjectiveType type() const override { return ObjectiveType::kPoisson; }
};

}  // namespace

Result<ObjectiveType> ParseObjectiveType(const std::string& name) {
  if (name == "reg:squarederror") return ObjectiveType::kSquaredError;
  if (name == "binary:logistic") return ObjectiveType::kLogistic;
  if (name == "reg:pseudohuber") return ObjectiveType::kPseudoHuber;
  if (name == "count:poisson") return ObjectiveType::kPoisson;
  return Status::InvalidArgument("unknown objective: " + name);
}

const char* ObjectiveTypeName(ObjectiveType type) {
  switch (type) {
    case ObjectiveType::kSquaredError:
      return "reg:squarederror";
    case ObjectiveType::kLogistic:
      return "binary:logistic";
    case ObjectiveType::kPseudoHuber:
      return "reg:pseudohuber";
    case ObjectiveType::kPoisson:
      return "count:poisson";
  }
  return "unknown";
}

double Objective::InitialRawPrediction(
    const std::vector<double>& labels) const {
  if (labels.empty()) return 0.0;
  return InverseTransform(Mean(labels));
}

Status Objective::ValidateLabels(const std::vector<double>&) const {
  return Status::Ok();
}

double Objective::EvalDefaultMetric(
    const std::vector<double>& labels,
    const std::vector<double>& predictions) const {
  double ss = 0.0;
  for (size_t i = 0; i < labels.size(); ++i) {
    const double d = labels[i] - predictions[i];
    ss += d * d;
  }
  return labels.empty() ? 0.0
                        : std::sqrt(ss / static_cast<double>(labels.size()));
}

std::unique_ptr<Objective> MakeObjective(ObjectiveType type) {
  switch (type) {
    case ObjectiveType::kSquaredError:
      return std::make_unique<SquaredErrorObjective>();
    case ObjectiveType::kLogistic:
      return std::make_unique<LogisticObjective>();
    case ObjectiveType::kPseudoHuber:
      return std::make_unique<PseudoHuberObjective>();
    case ObjectiveType::kPoisson:
      return std::make_unique<PoissonObjective>();
  }
  return nullptr;
}

const Objective& SharedObjective(ObjectiveType type) {
  static const SquaredErrorObjective squared_error;
  static const LogisticObjective logistic;
  static const PseudoHuberObjective pseudo_huber;
  static const PoissonObjective poisson;
  switch (type) {
    case ObjectiveType::kSquaredError:
      return squared_error;
    case ObjectiveType::kLogistic:
      return logistic;
    case ObjectiveType::kPseudoHuber:
      return pseudo_huber;
    case ObjectiveType::kPoisson:
      return poisson;
  }
  return squared_error;
}

}  // namespace mysawh::gbt
