#include "gam/gam_model.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "util/serialization.h"
#include "util/string_util.h"

namespace mysawh::gam {

namespace {

using gbt::GradientPair;
using gbt::RegressionTree;

/// Sorted view of one feature: row order by value, missing rows separate.
struct FeatureOrder {
  std::vector<int64_t> sorted_rows;  // rows with a present value, ascending
  std::vector<int64_t> missing_rows;
};

struct Range {
  int64_t begin = 0;  // indices into FeatureOrder::sorted_rows
  int64_t end = 0;
  bool with_missing = false;  // whether missing rows belong to this node
};

/// Builds one depth-limited tree on a single feature by recursive exact
/// split search over the pre-sorted value order.
class SingleFeatureTreeBuilder {
 public:
  SingleFeatureTreeBuilder(const Dataset& data, const FeatureOrder& order,
                           const std::vector<GradientPair>& gpairs,
                           const GamParams& params, int feature)
      : data_(data),
        order_(order),
        gpairs_(gpairs),
        params_(params),
        feature_(feature) {}

  RegressionTree Build() {
    RegressionTree tree;
    Range root{0, static_cast<int64_t>(order_.sorted_rows.size()), true};
    BuildNode(&tree, 0, root, 0);
    return tree;
  }

 private:
  struct Stats {
    double g = 0, h = 0;
    int64_t count = 0;
  };

  Stats RangeStats(const Range& range) const {
    Stats s;
    for (int64_t i = range.begin; i < range.end; ++i) {
      const auto& gp = gpairs_[static_cast<size_t>(
          order_.sorted_rows[static_cast<size_t>(i)])];
      s.g += gp.grad;
      s.h += gp.hess;
      ++s.count;
    }
    if (range.with_missing) {
      for (int64_t r : order_.missing_rows) {
        const auto& gp = gpairs_[static_cast<size_t>(r)];
        s.g += gp.grad;
        s.h += gp.hess;
        ++s.count;
      }
    }
    return s;
  }

  double Score(double g, double h) const {
    return g * g / (h + params_.reg_lambda);
  }

  void BuildNode(RegressionTree* tree, int node_id, const Range& range,
                 int depth) {
    const Stats total = RangeStats(range);
    tree->mutable_node(node_id)->cover = total.h;
    const double parent_score = Score(total.g, total.h);

    bool found = false;
    double best_gain = 1e-10;
    int64_t best_pos = -1;  // split between sorted positions pos-1 and pos
    double best_threshold = 0.0;
    bool best_missing_left = true;

    if (depth < params_.max_depth &&
        total.count >= 2 * params_.min_samples_leaf) {
      Stats miss;
      if (range.with_missing) {
        for (int64_t r : order_.missing_rows) {
          const auto& gp = gpairs_[static_cast<size_t>(r)];
          miss.g += gp.grad;
          miss.h += gp.hess;
          ++miss.count;
        }
      }
      double gl = 0, hl = 0;
      int64_t cl = 0;
      for (int64_t i = range.begin; i + 1 < range.end; ++i) {
        const int64_t row = order_.sorted_rows[static_cast<size_t>(i)];
        const int64_t next_row = order_.sorted_rows[static_cast<size_t>(i + 1)];
        const auto& gp = gpairs_[static_cast<size_t>(row)];
        gl += gp.grad;
        hl += gp.hess;
        ++cl;
        const double v = data_.At(row, feature_);
        const double vn = data_.At(next_row, feature_);
        if (v == vn) continue;
        const double threshold = 0.5 * (v + vn);
        const double gr = total.g - miss.g - gl;
        const double hr = total.h - miss.h - hl;
        const int64_t cr = total.count - miss.count - cl;
        for (const bool miss_left : {true, false}) {
          const double gL = gl + (miss_left ? miss.g : 0.0);
          const double hL = hl + (miss_left ? miss.h : 0.0);
          const int64_t cL = cl + (miss_left ? miss.count : 0);
          const double gR = gr + (miss_left ? 0.0 : miss.g);
          const double hR = hr + (miss_left ? 0.0 : miss.h);
          const int64_t cR = cr + (miss_left ? 0 : miss.count);
          if (cL < params_.min_samples_leaf || cR < params_.min_samples_leaf) {
            continue;
          }
          const double gain =
              0.5 * (Score(gL, hL) + Score(gR, hR) - parent_score);
          if (gain > best_gain) {
            found = true;
            best_gain = gain;
            best_pos = i + 1;
            best_threshold = threshold;
            best_missing_left = miss_left;
          }
        }
      }
    }

    if (!found) {
      tree->mutable_node(node_id)->value =
          -params_.learning_rate * total.g / (total.h + params_.reg_lambda);
      return;
    }
    const auto [left_id, right_id] = tree->Split(
        node_id, feature_, best_threshold, best_missing_left, best_gain);
    Range left{range.begin, best_pos, range.with_missing && best_missing_left};
    Range right{best_pos, range.end,
                range.with_missing && !best_missing_left};
    BuildNode(tree, left_id, left, depth + 1);
    BuildNode(tree, right_id, right, depth + 1);
  }

  const Dataset& data_;
  const FeatureOrder& order_;
  const std::vector<GradientPair>& gpairs_;
  const GamParams& params_;
  const int feature_;
};

}  // namespace

Status GamParams::Validate() const {
  if (num_cycles < 1) return Status::InvalidArgument("num_cycles must be >= 1");
  if (max_depth < 1) return Status::InvalidArgument("max_depth must be >= 1");
  if (!(learning_rate > 0.0) || learning_rate > 1.0) {
    return Status::InvalidArgument("learning_rate must be in (0, 1]");
  }
  if (min_samples_leaf < 1) {
    return Status::InvalidArgument("min_samples_leaf must be >= 1");
  }
  if (reg_lambda < 0.0) {
    return Status::InvalidArgument("reg_lambda must be >= 0");
  }
  return Status::Ok();
}

Result<GamModel> GamModel::Train(const Dataset& train,
                                 const GamParams& params) {
  MYSAWH_RETURN_NOT_OK(params.Validate());
  if (train.num_rows() == 0) {
    return Status::InvalidArgument("training set is empty");
  }
  if (train.num_features() == 0) {
    return Status::InvalidArgument("training set has no features");
  }
  const auto objective = gbt::MakeObjective(params.objective);
  MYSAWH_RETURN_NOT_OK(objective->ValidateLabels(train.labels()));

  GamModel model;
  model.feature_names_ = train.feature_names();
  model.objective_type_ = params.objective;
  model.base_score_ = objective->InitialRawPrediction(train.labels());

  const int64_t n = train.num_rows();
  const int64_t nf = train.num_features();

  // Pre-sort each feature once.
  std::vector<FeatureOrder> orders(static_cast<size_t>(nf));
  for (int64_t f = 0; f < nf; ++f) {
    auto& order = orders[static_cast<size_t>(f)];
    for (int64_t r = 0; r < n; ++r) {
      if (std::isnan(train.At(r, f))) {
        order.missing_rows.push_back(r);
      } else {
        order.sorted_rows.push_back(r);
      }
    }
    std::sort(order.sorted_rows.begin(), order.sorted_rows.end(),
              [&](int64_t a, int64_t b) {
                return train.At(a, f) < train.At(b, f);
              });
  }

  std::vector<double> raw(static_cast<size_t>(n), model.base_score_);
  std::vector<GradientPair> gpairs(static_cast<size_t>(n));
  for (int cycle = 0; cycle < params.num_cycles; ++cycle) {
    for (int64_t f = 0; f < nf; ++f) {
      objective->ComputeGradients(train.labels().data(), raw.data(), n,
                                  gpairs.data());
      SingleFeatureTreeBuilder builder(train, orders[static_cast<size_t>(f)],
                                       gpairs, params, static_cast<int>(f));
      RegressionTree tree = builder.Build();
      if (tree.num_nodes() == 1) continue;  // no useful split this step
      for (int64_t i = 0; i < n; ++i) {
        raw[static_cast<size_t>(i)] += tree.Predict(train.row(i));
      }
      model.trees_.push_back(std::move(tree));
      model.tree_feature_.push_back(static_cast<int>(f));
    }
  }
  // Per-feature mean contribution over the training rows (the Shapley
  // baseline for additive models).
  model.mean_contribution_.assign(static_cast<size_t>(nf), 0.0);
  for (size_t t = 0; t < model.trees_.size(); ++t) {
    const auto f = static_cast<size_t>(model.tree_feature_[t]);
    double total = 0.0;
    for (int64_t r = 0; r < n; ++r) {
      total += model.trees_[t].Predict(train.row(r));
    }
    model.mean_contribution_[f] += total / static_cast<double>(n);
  }
  model.expected_value_ = model.base_score_;
  for (double mean : model.mean_contribution_) {
    model.expected_value_ += mean;
  }
  return model;
}

Result<std::vector<double>> GamModel::ShapValues(const double* row) const {
  if (row == nullptr) {
    return Status::InvalidArgument("ShapValues: null row");
  }
  std::vector<double> phi(mean_contribution_.size(), 0.0);
  for (size_t i = 0; i < phi.size(); ++i) phi[i] = -mean_contribution_[i];
  for (size_t t = 0; t < trees_.size(); ++t) {
    phi[static_cast<size_t>(tree_feature_[t])] += trees_[t].Predict(row);
  }
  return phi;
}

double GamModel::PredictRow(const double* row) const {
  double raw = base_score_;
  for (const auto& tree : trees_) raw += tree.Predict(row);
  return gbt::SharedObjective(objective_type_).Transform(raw);
}

Result<std::vector<double>> GamModel::Predict(const Dataset& data) const {
  if (data.num_features() != num_features()) {
    return Status::InvalidArgument("Predict: dataset width mismatch");
  }
  std::vector<double> out(static_cast<size_t>(data.num_rows()));
  for (int64_t i = 0; i < data.num_rows(); ++i) {
    out[static_cast<size_t>(i)] = PredictRow(data.row(i));
  }
  return out;
}

std::string GamModel::Serialize() const {
  std::ostringstream os;
  os << "mysawh-gam v1\n";
  os << "objective " << gbt::ObjectiveTypeName(objective_type_) << "\n";
  os << "base_score " << EncodeDouble(base_score_) << "\n";
  os << "expected_value " << EncodeDouble(expected_value_) << "\n";
  os << "num_features " << feature_names_.size() << "\n";
  for (const auto& name : feature_names_) os << "feature " << name << "\n";
  os << "mean_contributions " << EncodeDoubleVector(mean_contribution_)
     << "\n";
  os << "num_trees " << trees_.size() << "\n";
  for (size_t t = 0; t < trees_.size(); ++t) {
    os << "tree " << tree_feature_[t] << " " << trees_[t].num_nodes() << "\n";
    for (int i = 0; i < trees_[t].num_nodes(); ++i) {
      os << gbt::TreeNodeToText(trees_[t].node(i)) << "\n";
    }
  }
  return os.str();
}

Result<GamModel> GamModel::Deserialize(const std::string& text) {
  std::istringstream is(text);
  std::string line;
  auto next_line = [&]() -> Result<std::string> {
    if (!std::getline(is, line)) {
      return Status::InvalidArgument("model text truncated");
    }
    return line;
  };
  auto field = [&](const char* key) -> Result<std::string> {
    MYSAWH_ASSIGN_OR_RETURN(std::string l, next_line());
    const auto parts = Split(l, ' ');
    if (parts.size() != 2 || parts[0] != key) {
      return Status::InvalidArgument(std::string("bad ") + key + " line: " + l);
    }
    return parts[1];
  };
  MYSAWH_ASSIGN_OR_RETURN(std::string header, next_line());
  if (header != "mysawh-gam v1") {
    return Status::InvalidArgument("bad model header: " + header);
  }
  GamModel model;
  MYSAWH_ASSIGN_OR_RETURN(std::string obj_name, field("objective"));
  MYSAWH_ASSIGN_OR_RETURN(model.objective_type_,
                          gbt::ParseObjectiveType(obj_name));
  MYSAWH_ASSIGN_OR_RETURN(std::string base_hex, field("base_score"));
  MYSAWH_ASSIGN_OR_RETURN(model.base_score_, DecodeDouble(base_hex));
  MYSAWH_ASSIGN_OR_RETURN(std::string ev_hex, field("expected_value"));
  MYSAWH_ASSIGN_OR_RETURN(model.expected_value_, DecodeDouble(ev_hex));
  MYSAWH_ASSIGN_OR_RETURN(std::string nf_str, field("num_features"));
  MYSAWH_ASSIGN_OR_RETURN(int64_t num_features, ParseInt64(nf_str));
  if (num_features < 1) {
    return Status::InvalidArgument("bad num_features: " + nf_str);
  }
  for (int64_t i = 0; i < num_features; ++i) {
    MYSAWH_ASSIGN_OR_RETURN(std::string fline, next_line());
    if (!StartsWith(fline, "feature ")) {
      return Status::InvalidArgument("bad feature line: " + fline);
    }
    model.feature_names_.push_back(fline.substr(8));
  }
  MYSAWH_ASSIGN_OR_RETURN(std::string mc_line, next_line());
  if (!StartsWith(mc_line, "mean_contributions")) {
    return Status::InvalidArgument("bad mean_contributions line: " + mc_line);
  }
  MYSAWH_ASSIGN_OR_RETURN(
      model.mean_contribution_,
      DecodeDoubleVector(Trim(mc_line.substr(18)), num_features));
  MYSAWH_ASSIGN_OR_RETURN(std::string nt_str, field("num_trees"));
  MYSAWH_ASSIGN_OR_RETURN(int64_t num_trees, ParseInt64(nt_str));
  for (int64_t t = 0; t < num_trees; ++t) {
    MYSAWH_ASSIGN_OR_RETURN(std::string tline, next_line());
    const auto tparts = Split(tline, ' ');
    if (tparts.size() != 3 || tparts[0] != "tree") {
      return Status::InvalidArgument("bad tree line: " + tline);
    }
    MYSAWH_ASSIGN_OR_RETURN(int64_t feature, ParseInt64(tparts[1]));
    if (feature < 0 || feature >= num_features) {
      return Status::InvalidArgument("tree feature out of range: " + tline);
    }
    MYSAWH_ASSIGN_OR_RETURN(int64_t num_nodes, ParseInt64(tparts[2]));
    if (num_nodes < 1) return Status::InvalidArgument("empty tree");
    std::vector<gbt::TreeNode> nodes;
    // Bounded reserve: corrupt counts fail on missing lines, not on a
    // giant allocation.
    nodes.reserve(static_cast<size_t>(std::min<int64_t>(num_nodes, 4096)));
    for (int64_t i = 0; i < num_nodes; ++i) {
      MYSAWH_ASSIGN_OR_RETURN(std::string nline, next_line());
      MYSAWH_ASSIGN_OR_RETURN(gbt::TreeNode node,
                              gbt::TreeNodeFromText(nline));
      nodes.push_back(node);
    }
    RegressionTree rebuilt = RegressionTree::FromNodes(std::move(nodes));
    MYSAWH_RETURN_NOT_OK(rebuilt.Validate(num_features));
    model.trees_.push_back(std::move(rebuilt));
    model.tree_feature_.push_back(static_cast<int>(feature));
  }
  return model;
}

Result<std::vector<double>> GamModel::ShapeFunction(
    int feature, const std::vector<double>& values) const {
  if (feature < 0 || feature >= num_features()) {
    return Status::OutOfRange("ShapeFunction: bad feature index");
  }
  std::vector<double> row(static_cast<size_t>(num_features()),
                          std::numeric_limits<double>::quiet_NaN());
  std::vector<double> out(values.size(), 0.0);
  for (size_t v = 0; v < values.size(); ++v) {
    row[static_cast<size_t>(feature)] = values[v];
    double acc = 0.0;
    for (size_t t = 0; t < trees_.size(); ++t) {
      if (tree_feature_[t] != feature) continue;
      acc += trees_[t].Predict(row.data());
    }
    out[v] = acc;
  }
  return out;
}

}  // namespace mysawh::gam
