#include "gbt/gbt_model.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "core/audit_log.h"
#include "core/drift_monitor.h"
#include "gbt/trainer.h"
#include "util/metrics.h"
#include "util/serialization.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace mysawh::gbt {

Result<GbtModel> GbtModel::Train(const Dataset& train, const GbtParams& params,
                                 const Dataset* validation, TrainingLog* log) {
  Trainer trainer(train, params);
  MYSAWH_ASSIGN_OR_RETURN(GbtModel model, trainer.Run(validation, log));
  model.CompileFlat();
  return model;
}

void GbtModel::CompileFlat() {
  // A (re)compile is the only time the forest can change, so it starts a
  // new fingerprint cache; copies made before keep the old forest's one.
  fingerprint_ = std::make_shared<FingerprintCache>();
  flat_.reset();
  Result<FlatForest> compiled = FlatForest::Compile(trees_, num_features());
  if (compiled.ok()) {
    flat_ = std::make_shared<const FlatForest>(std::move(compiled).value());
    return;
  }
  // An uncompilable shape (e.g. >254 distinct thresholds on one feature,
  // which only a loaded model file can hold) is not an error — the
  // reference walker handles every valid forest.
  static Counter* const fallback_counter = MetricsRegistry::Global().GetCounter(
      "gbt.predict.flat_compile_fallbacks");
  fallback_counter->Increment();
}

uint64_t GbtModel::fingerprint() const {
  if (fingerprint_ == nullptr) return 0;
  std::call_once(fingerprint_->once, [this] {
    const std::string serialized = Serialize();
    fingerprint_->value =
        core::HashBytes(serialized.data(), serialized.size());
  });
  return fingerprint_->value;
}

double GbtModel::PredictRowRaw(const double* row) const {
  double raw = base_score_;
  for (const auto& tree : trees_) raw += tree.Predict(row);
  return raw;
}

double GbtModel::Transform(double raw) const {
  return SharedObjective(objective_type_).Transform(raw);
}

double GbtModel::PredictRow(const double* row) const {
  return Transform(PredictRowRaw(row));
}

Result<std::vector<double>> GbtModel::PredictRaw(const Dataset& data) const {
  if (data.num_features() != num_features()) {
    return Status::InvalidArgument(
        "Predict: dataset width " + std::to_string(data.num_features()) +
        " != model width " + std::to_string(num_features()));
  }
  if (flat_ == nullptr) {
    // Uncompilable ensemble shape: count the rows served by the slow path
    // so a serving deployment can see it is not on the flat kernel.
    static Counter* const fallback_rows = MetricsRegistry::Global().GetCounter(
        "gbt.predict.flat_fallback_rows");
    fallback_rows->Increment(data.num_rows());
    return PredictRawReference(data);
  }
  TraceSpan span("gbt.predict", "predict");
  span.Arg("rows", data.num_rows());
  span.Arg("flat", 1);
  static Counter* const rows_counter =
      MetricsRegistry::Global().GetCounter("gbt.predict.rows");
  rows_counter->Increment(data.num_rows());
  static Counter* const flat_rows_counter =
      MetricsRegistry::Global().GetCounter("gbt.predict.flat_rows");
  flat_rows_counter->Increment(data.num_rows());
  std::vector<double> out(static_cast<size_t>(data.num_rows()));
  flat_->PredictRaw(data, base_score_, out.data());
  return out;
}

Result<std::vector<double>> GbtModel::PredictRawReference(
    const Dataset& data) const {
  if (data.num_features() != num_features()) {
    return Status::InvalidArgument(
        "Predict: dataset width " + std::to_string(data.num_features()) +
        " != model width " + std::to_string(num_features()));
  }
  TraceSpan span("gbt.predict", "predict");
  span.Arg("rows", data.num_rows());
  span.Arg("flat", 0);
  static Counter* const rows_counter =
      MetricsRegistry::Global().GetCounter("gbt.predict.rows");
  rows_counter->Increment(data.num_rows());
  // Rows are independent and write disjoint slots, so the shared pool keeps
  // results bit-identical to the sequential loop.
  std::vector<double> out(static_cast<size_t>(data.num_rows()));
  DefaultPool().ParallelFor(data.num_rows(), [&](int64_t i) {
    out[static_cast<size_t>(i)] = PredictRowRaw(data.row(i));
  });
  return out;
}

Result<std::vector<double>> GbtModel::Predict(const Dataset& data) const {
  MYSAWH_ASSIGN_OR_RETURN(std::vector<double> raw, PredictRaw(data));
  DefaultPool().ParallelFor(static_cast<int64_t>(raw.size()), [&](int64_t i) {
    raw[static_cast<size_t>(i)] = Transform(raw[static_cast<size_t>(i)]);
  });
  // Model-quality observability hooks: one relaxed load each when
  // disarmed, and always on the calling thread after the parallel loops,
  // so observation can never change what was computed.
  if (core::AuditEnabled()) {
    core::AuditLog::Global().RecordPredictBatch(fingerprint(), data, raw);
  }
  if (core::DriftMonitoringEnabled()) {
    core::DriftMonitorRuntime::Global().ObserveBatch(data, raw);
  }
  return raw;
}

Result<std::vector<double>> GbtModel::PredictReference(
    const Dataset& data) const {
  MYSAWH_ASSIGN_OR_RETURN(std::vector<double> raw, PredictRawReference(data));
  DefaultPool().ParallelFor(static_cast<int64_t>(raw.size()), [&](int64_t i) {
    raw[static_cast<size_t>(i)] = Transform(raw[static_cast<size_t>(i)]);
  });
  return raw;
}

Result<std::vector<std::vector<double>>> GbtModel::PredictStaged(
    const Dataset& data, int stride) const {
  if (stride < 1) return Status::InvalidArgument("stride must be >= 1");
  if (data.num_features() != num_features()) {
    return Status::InvalidArgument("PredictStaged: dataset width mismatch");
  }
  std::vector<double> raw(static_cast<size_t>(data.num_rows()), base_score_);
  std::vector<std::vector<double>> stages;
  auto snapshot = [&] {
    std::vector<double> stage(raw.size());
    for (size_t i = 0; i < raw.size(); ++i) {
      stage[i] = Transform(raw[i]);
    }
    stages.push_back(std::move(stage));
  };
  if (flat_ != nullptr) {
    // Quantize once, then every stage walk is byte comparisons over the
    // flat block. Per row the leaf values still sum in ascending tree
    // order from base_score_, so stages match the reference walker bit
    // for bit.
    const std::vector<uint8_t> bins = flat_->BinMatrix(data);
    constexpr int64_t kChunk = 256;
    const int64_t chunks = (data.num_rows() + kChunk - 1) / kChunk;
    for (size_t t = 0; t < trees_.size(); ++t) {
      DefaultPool().ParallelFor(chunks, [&](int64_t c) {
        const int64_t begin = c * kChunk;
        const int64_t n = std::min(kChunk, data.num_rows() - begin);
        flat_->Accumulate(bins.data() + begin * num_features(), n,
                          static_cast<int>(t), static_cast<int>(t) + 1,
                          raw.data() + begin);
      });
      if ((t + 1) % static_cast<size_t>(stride) == 0 ||
          t + 1 == trees_.size()) {
        snapshot();
      }
    }
    if (trees_.empty()) snapshot();
    return stages;
  }
  for (size_t t = 0; t < trees_.size(); ++t) {
    DefaultPool().ParallelFor(data.num_rows(), [&](int64_t r) {
      raw[static_cast<size_t>(r)] += trees_[t].Predict(data.row(r));
    });
    if ((t + 1) % static_cast<size_t>(stride) == 0 || t + 1 == trees_.size()) {
      snapshot();
    }
  }
  if (trees_.empty()) snapshot();
  return stages;
}

std::map<std::string, double> GbtModel::GainImportance() const {
  std::map<std::string, double> importance;
  for (const auto& tree : trees_) {
    for (int i = 0; i < tree.num_nodes(); ++i) {
      const TreeNode& n = tree.node(i);
      if (n.IsLeaf()) continue;
      importance[feature_names_[static_cast<size_t>(n.feature)]] += n.gain;
    }
  }
  return importance;
}

std::map<std::string, int64_t> GbtModel::SplitCountImportance() const {
  std::map<std::string, int64_t> importance;
  for (const auto& tree : trees_) {
    for (int i = 0; i < tree.num_nodes(); ++i) {
      const TreeNode& n = tree.node(i);
      if (n.IsLeaf()) continue;
      importance[feature_names_[static_cast<size_t>(n.feature)]] += 1;
    }
  }
  return importance;
}

std::map<std::string, double> GbtModel::CoverImportance() const {
  std::map<std::string, double> importance;
  for (const auto& tree : trees_) {
    for (int i = 0; i < tree.num_nodes(); ++i) {
      const TreeNode& n = tree.node(i);
      if (n.IsLeaf()) continue;
      importance[feature_names_[static_cast<size_t>(n.feature)]] += n.cover;
    }
  }
  return importance;
}

std::string GbtModel::Serialize() const {
  std::ostringstream os;
  os << "mysawh-gbt v1\n";
  os << "objective " << ObjectiveTypeName(objective_type_) << "\n";
  os << "base_score " << EncodeDouble(base_score_) << "\n";
  os << "best_iteration " << best_iteration_ << "\n";
  os << "num_features " << feature_names_.size() << "\n";
  for (const auto& name : feature_names_) os << "feature " << name << "\n";
  os << "num_trees " << trees_.size() << "\n";
  for (const auto& tree : trees_) {
    os << "tree " << tree.num_nodes() << "\n";
    for (int i = 0; i < tree.num_nodes(); ++i) {
      os << TreeNodeToText(tree.node(i)) << "\n";
    }
  }
  return os.str();
}

Result<GbtModel> GbtModel::Deserialize(const std::string& text) {
  std::istringstream is(text);
  std::string line;
  auto next_line = [&]() -> Result<std::string> {
    if (!std::getline(is, line)) {
      return Status::InvalidArgument("model text truncated");
    }
    return line;
  };
  MYSAWH_ASSIGN_OR_RETURN(std::string header, next_line());
  if (header != "mysawh-gbt v1") {
    return Status::InvalidArgument("bad model header: " + header);
  }
  GbtModel model;
  MYSAWH_ASSIGN_OR_RETURN(std::string obj_line, next_line());
  {
    const auto parts = Split(obj_line, ' ');
    if (parts.size() != 2 || parts[0] != "objective") {
      return Status::InvalidArgument("bad objective line");
    }
    MYSAWH_ASSIGN_OR_RETURN(model.objective_type_,
                            ParseObjectiveType(parts[1]));
  }
  MYSAWH_ASSIGN_OR_RETURN(std::string base_line, next_line());
  {
    const auto parts = Split(base_line, ' ');
    if (parts.size() != 2 || parts[0] != "base_score") {
      return Status::InvalidArgument("bad base_score line");
    }
    MYSAWH_ASSIGN_OR_RETURN(model.base_score_, DecodeDouble(parts[1]));
  }
  MYSAWH_ASSIGN_OR_RETURN(std::string best_line, next_line());
  {
    const auto parts = Split(best_line, ' ');
    if (parts.size() != 2 || parts[0] != "best_iteration") {
      return Status::InvalidArgument("bad best_iteration line");
    }
    MYSAWH_ASSIGN_OR_RETURN(int64_t v, ParseInt64(parts[1]));
    model.best_iteration_ = static_cast<int>(v);
  }
  MYSAWH_ASSIGN_OR_RETURN(std::string nf_line, next_line());
  int64_t num_features = 0;
  {
    const auto parts = Split(nf_line, ' ');
    if (parts.size() != 2 || parts[0] != "num_features") {
      return Status::InvalidArgument("bad num_features line");
    }
    MYSAWH_ASSIGN_OR_RETURN(num_features, ParseInt64(parts[1]));
    if (num_features < 0) {
      return Status::InvalidArgument("negative num_features");
    }
  }
  for (int64_t i = 0; i < num_features; ++i) {
    MYSAWH_ASSIGN_OR_RETURN(std::string fline, next_line());
    if (!StartsWith(fline, "feature ")) {
      return Status::InvalidArgument("bad feature line: " + fline);
    }
    model.feature_names_.push_back(fline.substr(8));
  }
  MYSAWH_ASSIGN_OR_RETURN(std::string nt_line, next_line());
  int64_t num_trees = 0;
  {
    const auto parts = Split(nt_line, ' ');
    if (parts.size() != 2 || parts[0] != "num_trees") {
      return Status::InvalidArgument("bad num_trees line");
    }
    MYSAWH_ASSIGN_OR_RETURN(num_trees, ParseInt64(parts[1]));
  }
  for (int64_t t = 0; t < num_trees; ++t) {
    MYSAWH_ASSIGN_OR_RETURN(std::string tline, next_line());
    const auto tparts = Split(tline, ' ');
    if (tparts.size() != 2 || tparts[0] != "tree") {
      return Status::InvalidArgument("bad tree line: " + tline);
    }
    MYSAWH_ASSIGN_OR_RETURN(int64_t num_nodes, ParseInt64(tparts[1]));
    if (num_nodes < 1) return Status::InvalidArgument("empty tree");
    std::vector<TreeNode> nodes;
    // Reserve is bounded: a corrupted count must fail on the missing
    // lines below, not attempt a multi-exabyte allocation here.
    nodes.reserve(static_cast<size_t>(std::min<int64_t>(num_nodes, 4096)));
    for (int64_t i = 0; i < num_nodes; ++i) {
      MYSAWH_ASSIGN_OR_RETURN(std::string nline, next_line());
      MYSAWH_ASSIGN_OR_RETURN(TreeNode node, TreeNodeFromText(nline));
      nodes.push_back(node);
    }
    RegressionTree rebuilt = RegressionTree::FromNodes(std::move(nodes));
    MYSAWH_RETURN_NOT_OK(rebuilt.Validate(num_features));
    model.trees_.push_back(std::move(rebuilt));
  }
  // Deserialized models predict through the same compiled kernel as
  // freshly trained ones (Serialize() does not carry the flat block).
  model.CompileFlat();
  return model;
}

}  // namespace mysawh::gbt
