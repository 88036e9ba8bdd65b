#include "gbt/trainer.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "util/json.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/telemetry.h"
#include "util/trace.h"

namespace mysawh::gbt {

namespace {

constexpr double kMinSplitGain = 1e-10;

/// Rows per task of the per-row gradient and score loops: one std::function
/// call per chunk instead of one per row. The loops write disjoint slots,
/// so the chunking never affects results.
constexpr int64_t kRowChunk = 1024;

/// Training instruments. The histogram-pipeline node counters moved here
/// from the old ad-hoc `TrainingLog` fields, so every counter in the
/// process reads through one registry (docs/observability.md).
struct TrainerMetrics {
  Counter* hist_nodes_direct;
  Counter* hist_nodes_subtracted;
  Counter* trees_grown;
  Counter* rounds_completed;
  LatencyHistogram* tree_us;
};

TrainerMetrics& Metrics() {
  static TrainerMetrics metrics = [] {
    auto& registry = MetricsRegistry::Global();
    return TrainerMetrics{
        registry.GetCounter("gbt.train.hist_nodes_direct"),
        registry.GetCounter("gbt.train.hist_nodes_subtracted"),
        registry.GetCounter("gbt.train.trees_grown"),
        registry.GetCounter("gbt.train.rounds_completed"),
        registry.GetHistogram("gbt.train.tree_us")};
  }();
  return metrics;
}

/// Soft-thresholding for L1 regularization on the gradient sum.
double ThresholdL1(double g, double alpha) {
  if (g > alpha) return g - alpha;
  if (g < -alpha) return g + alpha;
  return 0.0;
}

}  // namespace

Trainer::Trainer(const Dataset& train, const GbtParams& params)
    : train_(train),
      params_(params),
      objective_(MakeObjective(params.objective)),
      rng_(params.seed),
      pool_(params.num_threads) {}

double Trainer::LeafWeight(double g, double h) const {
  return -ThresholdL1(g, params_.reg_alpha) / (h + params_.reg_lambda);
}

double Trainer::ScoreFn(double g, double h) const {
  const double t = ThresholdL1(g, params_.reg_alpha);
  return t * t / (h + params_.reg_lambda);
}

int Trainer::ConstraintOf(int feature) const {
  if (params_.monotone_constraints.empty()) return 0;
  return params_.monotone_constraints[static_cast<size_t>(feature)];
}

void Trainer::ConsiderSplit(const NodeStats& parent, double parent_score,
                            const NodeStats& miss, double sum_g_left,
                            double sum_h_left, int64_t count_left, int feature,
                            double threshold, int bin,
                            const NodeBounds& bounds,
                            SplitCandidate* best) const {
  // Present-value right side = parent - missing - left.
  const double sum_g_right = parent.sum_g - miss.sum_g - sum_g_left;
  const double sum_h_right = parent.sum_h - miss.sum_h - sum_h_left;
  const int64_t count_right = parent.count - miss.count - count_left;
  // With no missing mass the two default directions score identically and
  // the first (missing-left) wins the tie-break, so skip the second.
  const bool no_miss =
      miss.count == 0 && miss.sum_g == 0.0 && miss.sum_h == 0.0;
  for (const bool miss_left : {true, false}) {
    if (!miss_left && no_miss) break;
    const double gl = sum_g_left + (miss_left ? miss.sum_g : 0.0);
    const double hl = sum_h_left + (miss_left ? miss.sum_h : 0.0);
    const int64_t cl = count_left + (miss_left ? miss.count : 0);
    const double gr = sum_g_right + (miss_left ? 0.0 : miss.sum_g);
    const double hr = sum_h_right + (miss_left ? 0.0 : miss.sum_h);
    const int64_t cr = count_right + (miss_left ? 0 : miss.count);
    if (cl < params_.min_samples_leaf || cr < params_.min_samples_leaf) {
      continue;
    }
    if (hl < params_.min_child_weight || hr < params_.min_child_weight) {
      continue;
    }
    const double gain =
        0.5 * (ScoreFn(gl, hl) + ScoreFn(gr, hr) - parent_score) -
        params_.gamma;
    if (gain <= kMinSplitGain) continue;
    // Fast reject: a strictly lower gain can never become `best` (ties can,
    // through the tie-break below), so skip the leaf-weight divisions and
    // constraint checks — this boundary scan is the hist hot loop.
    if (best->valid && gain < best->gain) continue;
    // Monotone constraint: reject directions that violate the ordering or
    // leave the admissible weight interval.
    const double wl = LeafWeight(gl, hl);
    const double wr = LeafWeight(gr, hr);
    const int constraint = ConstraintOf(feature);
    if (constraint > 0 && wl > wr) continue;
    if (constraint < 0 && wl < wr) continue;
    if (wl < bounds.lower || wl > bounds.upper || wr < bounds.lower ||
        wr > bounds.upper) {
      continue;
    }
    // Deterministic tie-break: larger gain wins; equal gains prefer the
    // lower feature index, then the smaller threshold.
    const bool better =
        !best->valid || gain > best->gain ||
        (gain == best->gain &&
         (feature < best->feature ||
          (feature == best->feature && threshold < best->threshold)));
    if (better) {
      best->valid = true;
      best->feature = feature;
      best->threshold = threshold;
      best->bin = bin;
      best->default_left = miss_left;
      best->gain = gain;
      best->weight_left = wl;
      best->weight_right = wr;
    }
  }
}

Trainer::SplitCandidate Trainer::FindSplitHist(
    int feature_pos, const HistogramLayout& layout, const NodeHistogram& hist,
    const NodeStats& parent, const NodeBounds& bounds) const {
  const int feature = layout.features()[static_cast<size_t>(feature_pos)];
  const int nb = layout.num_bins(feature_pos);
  SplitCandidate best;
  if (nb < 2) return best;
  const HistEntry* slots = hist.feature_slots(layout, feature_pos);
  const HistEntry& miss_entry = hist.miss(feature_pos);
  const NodeStats miss{miss_entry.sum_g, miss_entry.sum_h, miss_entry.count};
  const double parent_score = ScoreFn(parent.sum_g, parent.sum_h);
  const int64_t present = parent.count - miss.count;
  if (params_.monotone_constraints.empty()) {
    return FindSplitHistFast(feature, nb, slots, miss, parent, parent_score,
                             present);
  }
  double acc_g = 0.0, acc_h = 0.0;
  int64_t acc_c = 0;
  for (int b = 0; b + 1 < nb; ++b) {
    acc_g += slots[b].sum_g;
    acc_h += slots[b].sum_h;
    acc_c += slots[b].count;
    if (slots[b].count == 0) continue;  // no boundary change
    ConsiderSplit(parent, parent_score, miss, acc_g, acc_h, acc_c, feature,
                  bins_.cut(feature, b), b, bounds, &best);
    // Every present row is on the left: later boundaries leave the right
    // side empty and can never form a valid split.
    if (acc_c == present) break;
  }
  return best;
}

Trainer::SplitCandidate Trainer::FindSplitHistFast(
    int feature, int nb, const HistEntry* slots, const NodeStats& miss,
    const NodeStats& parent, double parent_score, int64_t present) const {
  const double alpha = params_.reg_alpha;
  const double lambda = params_.reg_lambda;
  const double gamma = params_.gamma;
  const int64_t msl = params_.min_samples_leaf;
  const double mcw = params_.min_child_weight;
  // Same soft-thresholded score as ScoreFn/ThresholdL1, inlined so the loop
  // body is just adds, compares, and the two divisions.
  const auto score = [alpha, lambda](double g, double h) {
    const double t = g > alpha ? g - alpha : (g < -alpha ? g + alpha : 0.0);
    return t * t / (h + lambda);
  };
  // Present-value right side = (parent - missing) - left, with the same
  // association as ConsiderSplit so gains are bit-identical.
  const double gsub = parent.sum_g - miss.sum_g;
  const double hsub = parent.sum_h - miss.sum_h;
  // With no missing mass the two default directions score identically and
  // missing-left wins the tie-break, so the second direction is skipped.
  const bool no_miss =
      miss.count == 0 && miss.sum_g == 0.0 && miss.sum_h == 0.0;
  // Array form: prefix sums first, then two gain loops whose iterations
  // are independent and whose compares end in selects, not branches. Both
  // loops vectorize (two lanes with SSE2) because src/CMakeLists.txt
  // compiles this file with -fno-trapping-math: under the default
  // -ftrapping-math GCC will not if-convert the FP compares ("control flow
  // in loop"). The flag permits neither reassociation nor contraction, so
  // every lane computes the scalar IEEE result. Counts are carried as
  // doubles (exact for any realistic row count) to keep the loops in one
  // vector domain. Only occupied boundaries are kept: an empty bin repeats
  // its predecessor's prefix and the generic scan skips it ("no boundary
  // change"), so the prefix pass compacts the occupied ones, with their
  // bin index, into the first `m` entries. Empty bins still feed the
  // running sums, since a subtracted histogram may leave a rounding
  // residue in a zero-count slot.
  double pg[kMaxBins], ph[kMaxBins], pc[kMaxBins];
  int bin[kMaxBins];
  double gain_l[kMaxBins], gain_r[kMaxBins];
  int m = 0;
  {
    double ag = 0.0, ah = 0.0;
    int64_t ac = 0;
    for (int b = 0; b + 1 < nb; ++b) {
      ag += slots[b].sum_g;
      ah += slots[b].sum_h;
      ac += slots[b].count;
      pg[m] = ag;
      ph[m] = ah;
      pc[m] = static_cast<double>(ac);
      bin[m] = b;
      m += slots[b].count != 0 ? 1 : 0;
      // Every present row is on the left: no later bin is occupied.
      if (ac == present) break;
    }
  }
  const double msl_d = static_cast<double>(msl);
  const double present_d = static_cast<double>(present);
  const double miss_g = miss.sum_g;
  const double miss_h = miss.sum_h;
  const double miss_c = static_cast<double>(miss.count);
  const double neg_inf = -std::numeric_limits<double>::infinity();
  for (int i = 0; i < m; ++i) {  // Missing goes left.
    const double gl = pg[i] + miss_g;
    const double hl = ph[i] + miss_h;
    const double cl = pc[i] + miss_c;
    const double shr = hsub - ph[i];
    const double scr = present_d - pc[i];
    const double gain =
        0.5 * (score(gl, hl) + score(gsub - pg[i], shr) - parent_score) -
        gamma;
    const bool ok = cl >= msl_d && scr >= msl_d && hl >= mcw && shr >= mcw;
    gain_l[i] = ok ? gain : neg_inf;
  }
  if (!no_miss) {
    for (int i = 0; i < m; ++i) {  // Missing goes right.
      const double sgr = gsub - pg[i];
      const double shr = hsub - ph[i];
      const double gr = sgr + miss_g;
      const double hr = shr + miss_h;
      const double cr = (present_d - pc[i]) + miss_c;
      const double gain =
          0.5 * (score(pg[i], ph[i]) + score(gr, hr) - parent_score) - gamma;
      const bool ok = pc[i] >= msl_d && cr >= msl_d && ph[i] >= mcw &&
                      hr >= mcw;
      gain_r[i] = ok ? gain : neg_inf;
    }
  }
  // Strict >: bins ascend and missing-left is checked first, so keeping the
  // incumbent on ties reproduces ConsiderSplit's smaller-threshold /
  // missing-left preference.
  double best_gain = kMinSplitGain;
  int best = -1;
  bool best_dir = true;
  for (int i = 0; i < m; ++i) {
    if (gain_l[i] > best_gain) {
      best_gain = gain_l[i];
      best = i;
      best_dir = true;
    }
    if (!no_miss && gain_r[i] > best_gain) {
      best_gain = gain_r[i];
      best = i;
      best_dir = false;
    }
  }
  SplitCandidate candidate;
  if (best >= 0) {
    const double gl = best_dir ? pg[best] + miss_g : pg[best];
    const double hl = best_dir ? ph[best] + miss_h : ph[best];
    const double gr = best_dir ? gsub - pg[best] : (gsub - pg[best]) + miss_g;
    const double hr = best_dir ? hsub - ph[best] : (hsub - ph[best]) + miss_h;
    candidate.valid = true;
    candidate.feature = feature;
    candidate.threshold = bins_.cut(feature, bin[best]);
    candidate.bin = bin[best];
    candidate.default_left = best_dir;
    candidate.gain = best_gain;
    candidate.weight_left = LeafWeight(gl, hl);
    candidate.weight_right = LeafWeight(gr, hr);
  }
  return candidate;
}

void Trainer::BuildNode(RegressionTree* tree, int node_id, TreeState* state,
                        int64_t begin, const NodeStats& stats, int depth,
                        const NodeBounds& bounds, NodeHistogram hist) {
  const std::vector<GradientPair>& gpairs = *state->gpairs;
  const HistogramLayout& layout = *state->layout;
  const int64_t count = stats.count;
  int64_t* rows = state->rows.data() + begin;
  tree->mutable_node(node_id)->cover = stats.sum_h;

  const bool can_split = depth < params_.max_depth &&
                         stats.count >= 2 * params_.min_samples_leaf &&
                         stats.sum_h >= 2 * params_.min_child_weight;
  SplitCandidate best;
  if (can_split) {
    if (hist.empty()) {
      // Root (or a node whose parent skipped the subtraction trick): one
      // row-major pass accumulates every feature's histogram at once.
      TraceSpan span("gbt.hist_build", "train");
      span.Arg("rows", count);
      hist = hist_builder_->Build(layout, {rows, static_cast<size_t>(count)},
                                  gpairs);
      ++hist_nodes_direct_;
    }
    TraceSpan split_span("gbt.split_find", "train");
    // Per-feature proposals evaluated in parallel, reduced deterministically.
    std::vector<SplitCandidate> proposals(
        static_cast<size_t>(layout.num_features()));
    pool_.ParallelFor(layout.num_features(), [&](int64_t i) {
      proposals[static_cast<size_t>(i)] =
          FindSplitHist(static_cast<int>(i), layout, hist, stats, bounds);
    });
    for (const auto& p : proposals) {
      if (!p.valid) continue;
      const bool better =
          !best.valid || p.gain > best.gain ||
          (p.gain == best.gain &&
           (p.feature < best.feature ||
            (p.feature == best.feature && p.threshold < best.threshold)));
      if (better) best = p;
    }
  }

  if (!best.valid) {
    TreeNode* leaf = tree->mutable_node(node_id);
    const double weight = std::min(
        bounds.upper,
        std::max(bounds.lower, LeafWeight(stats.sum_g, stats.sum_h)));
    leaf->value = params_.learning_rate * weight;
    // Score cache: the binned routing that put these rows here is the
    // threshold routing RegressionTree::Predict would take, so this adds
    // exactly what walking the finished tree would.
    for (int64_t i = 0; i < count; ++i) {
      state->raw_train[rows[i]] += leaf->value;
    }
    return;
  }

  const auto [left_id, right_id] = tree->Split(
      node_id, best.feature, best.threshold, best.default_left, best.gain);
  // Stable in-place partition: left rows are compacted to the front of the
  // span, right rows are staged in the scratch buffer and copied in behind
  // them, so both children stay ascending. The same pass sums each child's
  // gradients in that ascending row order, so the children's NodeStats are
  // what a separate pass over their rows would compute. A row adds +0.0 to
  // the other side's sums, picked by a bit mask so the loop stays
  // branch-free; that add is exact, as a sum that starts at +0.0 is never
  // -0.0.
  const uint8_t* cells = binned_.data() + best.feature;
  const int64_t stride = binned_.num_features();
  int64_t* staged = state->scratch.data();
  const auto masked = [](double v, uint64_t mask) {
    return std::bit_cast<double>(std::bit_cast<uint64_t>(v) & mask);
  };
  int64_t num_left = 0;
  double left_g = 0.0, left_h = 0.0, right_g = 0.0, right_h = 0.0;
  for (int64_t i = 0; i < count; ++i) {
    const int64_t r = rows[i];
    const uint8_t b = cells[r * stride];
    const bool go_left = (b == kMissingBin) ? best.default_left
                                            : static_cast<int>(b) <= best.bin;
    const uint64_t left_mask = uint64_t{0} - static_cast<uint64_t>(go_left);
    const GradientPair& gp = gpairs[static_cast<size_t>(r)];
    left_g += masked(gp.grad, left_mask);
    left_h += masked(gp.hess, left_mask);
    right_g += masked(gp.grad, ~left_mask);
    right_h += masked(gp.hess, ~left_mask);
    rows[num_left] = r;
    staged[i - num_left] = r;
    num_left += static_cast<int64_t>(go_left);
  }
  const int64_t num_right = count - num_left;
  std::copy(staged, staged + num_right, rows + num_left);
  const NodeStats left_stats{left_g, left_h, num_left};
  const NodeStats right_stats{right_g, right_h, num_right};
  // Sibling subtraction: build only the smaller child's histogram from its
  // rows and derive the larger one as parent − smaller. Skipped when the
  // children cannot split anyway (depth or min_samples_leaf), in which case
  // they are passed empty histograms they will never consult.
  NodeHistogram left_hist, right_hist;
  if (depth + 1 < params_.max_depth &&
      std::max(num_left, num_right) >= 2 * params_.min_samples_leaf) {
    const bool left_smaller = num_left <= num_right;
    NodeHistogram smaller;
    {
      TraceSpan span("gbt.hist_build", "train");
      const int64_t smaller_count = left_smaller ? num_left : num_right;
      span.Arg("rows", smaller_count);
      smaller = hist_builder_->Build(
          layout,
          {left_smaller ? rows : rows + num_left,
           static_cast<size_t>(smaller_count)},
          gpairs);
      ++hist_nodes_direct_;
    }
    NodeHistogram larger;
    {
      TraceSpan subtract_span("gbt.hist_subtract", "train");
      larger = NodeHistogram::Subtract(std::move(hist), smaller);
      ++hist_nodes_subtracted_;
    }
    left_hist = left_smaller ? std::move(smaller) : std::move(larger);
    right_hist = left_smaller ? std::move(larger) : std::move(smaller);
  }
  hist = NodeHistogram();  // release the parent histogram before recursing
  // Propagate monotone weight bounds: when this split is constrained, the
  // children's admissible weights are separated at the midpoint of the
  // candidate child weights (XGBoost's rule).
  NodeBounds left_bounds = bounds;
  NodeBounds right_bounds = bounds;
  const int constraint = ConstraintOf(best.feature);
  if (constraint != 0) {
    const double mid = 0.5 * (best.weight_left + best.weight_right);
    if (constraint > 0) {
      left_bounds.upper = std::min(left_bounds.upper, mid);
      right_bounds.lower = std::max(right_bounds.lower, mid);
    } else {
      left_bounds.lower = std::max(left_bounds.lower, mid);
      right_bounds.upper = std::min(right_bounds.upper, mid);
    }
  }
  BuildNode(tree, left_id, state, begin, left_stats, depth + 1, left_bounds,
            std::move(left_hist));
  BuildNode(tree, right_id, state, begin + num_left, right_stats, depth + 1,
            right_bounds, std::move(right_hist));
}

RegressionTree Trainer::GrowTree(const std::vector<GradientPair>& gpairs,
                                 std::vector<int64_t> rows,
                                 const std::vector<int>& features,
                                 double* raw_train) {
  RegressionTree tree;
  const NodeBounds root_bounds{-std::numeric_limits<double>::infinity(),
                               std::numeric_limits<double>::infinity()};
  const HistogramLayout layout(bins_, features);
  const auto count = static_cast<int64_t>(rows.size());
  NodeStats root;
  for (const int64_t r : rows) {
    root.sum_g += gpairs[static_cast<size_t>(r)].grad;
    root.sum_h += gpairs[static_cast<size_t>(r)].hess;
  }
  root.count = count;
  TreeState state{&gpairs, &layout, std::move(rows),
                  std::vector<int64_t>(static_cast<size_t>(count)),
                  raw_train};
  BuildNode(&tree, 0, &state, 0, root, 0, root_bounds, NodeHistogram());
  return tree;
}

Result<GbtModel> Trainer::Run(const Dataset* validation, TrainingLog* log) {
  MYSAWH_RETURN_NOT_OK(params_.Validate());
  if (train_.num_rows() == 0) {
    return Status::InvalidArgument("training set is empty");
  }
  if (train_.num_features() == 0) {
    return Status::InvalidArgument("training set has no features");
  }
  if (objective_ == nullptr) {
    return Status::InvalidArgument("unknown objective");
  }
  MYSAWH_RETURN_NOT_OK(objective_->ValidateLabels(train_.labels()));
  if (validation != nullptr &&
      validation->num_features() != train_.num_features()) {
    return Status::InvalidArgument("validation feature width mismatch");
  }
  if (params_.early_stopping_rounds > 0 && validation == nullptr) {
    return Status::InvalidArgument(
        "early stopping requires a validation set");
  }
  if (!params_.monotone_constraints.empty() &&
      static_cast<int64_t>(params_.monotone_constraints.size()) !=
          train_.num_features()) {
    return Status::InvalidArgument(
        "monotone_constraints length must equal the feature count");
  }

  TraceSpan train_span("gbt.train", "train");
  train_span.Arg("rows", train_.num_rows());
  train_span.Arg("features", train_.num_features());

  MYSAWH_ASSIGN_OR_RETURN(BinnedData binned_data,
                          BuildBinned(train_, params_.max_bins, &pool_));
  bins_ = std::move(binned_data.bins);
  binned_ = std::move(binned_data.matrix);
  hist_builder_ = std::make_unique<HistogramBuilder>(bins_, binned_, &pool_);

  GbtModel model;
  model.feature_names_ = train_.feature_names();
  model.objective_type_ = params_.objective;
  model.base_score_ = std::isnan(params_.base_score)
                          ? objective_->InitialRawPrediction(train_.labels())
                          : params_.base_score;

  const int64_t n = train_.num_rows();
  const int64_t nf = train_.num_features();
  std::vector<double> raw_train(static_cast<size_t>(n), model.base_score_);
  std::vector<double> raw_valid;
  if (validation != nullptr) {
    raw_valid.assign(static_cast<size_t>(validation->num_rows()),
                     model.base_score_);
  }
  if (log != nullptr) log->metric_name = objective_->DefaultMetricName();

  std::vector<GradientPair> gpairs(static_cast<size_t>(n));
  const bool subsampled = params_.subsample < 1.0;
  const int64_t sample_size =
      subsampled ? std::max<int64_t>(
                       1, static_cast<int64_t>(std::llround(
                              static_cast<double>(n) * params_.subsample)))
                 : n;
  std::vector<uint8_t> in_sample(subsampled ? static_cast<size_t>(n) : 0);
  // The row and column draws reuse one index buffer across rounds.
  std::vector<int64_t> drawn;
  const double pos_weight = params_.scale_pos_weight;
  double best_metric = std::numeric_limits<double>::infinity();
  int best_round = -1;

  // Training telemetry (util/telemetry.h): a per-round JSONL stream of the
  // train/valid metric plus cumulative per-feature split statistics. The
  // disabled path is one relaxed load; when enabled, per-round metrics are
  // computed even without a validation set or TrainingLog. Recording never
  // feeds back into training, so the model is bit-identical either way.
  TelemetryStream telemetry;
  std::vector<int64_t> feature_split_counts;
  std::vector<double> feature_split_gains;
  if (TelemetryEnabled()) {
    telemetry = Telemetry::Global().StartStream("train");
    JsonWriter header;
    header.Key("objective").String(ObjectiveTypeName(params_.objective))
        .Key("metric").String(objective_->DefaultMetricName())
        .Key("rows").Int(n)
        .Key("features").Int(nf)
        .Key("num_trees").Int(params_.num_trees)
        .Key("max_depth").Int(params_.max_depth)
        .Key("learning_rate").Number(params_.learning_rate);
    telemetry.Line("header", header.str());
    feature_split_counts.assign(static_cast<size_t>(nf), 0);
    feature_split_gains.assign(static_cast<size_t>(nf), 0.0);
  }

  for (int round = 0; round < params_.num_trees; ++round) {
    TraceSpan tree_span("gbt.tree", "train");
    tree_span.Arg("round", round);
    ScopedLatencyTimer tree_timer(Metrics().tree_us);
    {
      // Per-row gradients are independent writes to disjoint slots, so the
      // parallel loop is deterministic for any thread count.
      TraceSpan span("gbt.gradients", "train");
      pool_.ParallelForChunks(
          n, kRowChunk, [&](int64_t, int64_t begin, int64_t end) {
            objective_->ComputeGradients(train_.labels().data() + begin,
                                         raw_train.data() + begin,
                                         end - begin, gpairs.data() + begin);
            if (pos_weight == 1.0) return;
            for (int64_t i = begin; i < end; ++i) {
              if (train_.label(i) != 1.0) continue;
              gpairs[static_cast<size_t>(i)].grad *= pos_weight;
              gpairs[static_cast<size_t>(i)].hess *= pos_weight;
            }
          });
    }
    // Row subsample, emitted ascending by one pass over a membership mask
    // (the draw itself is unordered).
    std::vector<int64_t> rows;
    if (subsampled) {
      std::fill(in_sample.begin(), in_sample.end(), 0);
      rng_.SampleWithoutReplacement(n, sample_size, &drawn);
      for (const int64_t r : drawn) in_sample[static_cast<size_t>(r)] = 1;
      rows.reserve(static_cast<size_t>(sample_size));
      for (int64_t i = 0; i < n; ++i) {
        if (in_sample[static_cast<size_t>(i)] != 0) rows.push_back(i);
      }
    } else {
      rows.resize(static_cast<size_t>(n));
      for (int64_t i = 0; i < n; ++i) rows[static_cast<size_t>(i)] = i;
    }
    // Column subsample.
    std::vector<int> features;
    if (params_.colsample_bytree < 1.0) {
      const auto k = std::max<int64_t>(
          1, static_cast<int64_t>(std::llround(
                 static_cast<double>(nf) * params_.colsample_bytree)));
      rng_.SampleWithoutReplacement(nf, k, &drawn);
      for (const int64_t f : drawn) features.push_back(static_cast<int>(f));
      std::sort(features.begin(), features.end());
    } else {
      features.resize(static_cast<size_t>(nf));
      for (int64_t f = 0; f < nf; ++f) {
        features[static_cast<size_t>(f)] = static_cast<int>(f);
      }
    }

    RegressionTree tree =
        GrowTree(gpairs, std::move(rows), features, raw_train.data());

    int tree_splits = 0;
    double tree_gain = 0.0;
    if (telemetry.active()) {
      for (int i = 0; i < tree.num_nodes(); ++i) {
        const TreeNode& node = tree.node(i);
        if (node.IsLeaf()) continue;
        ++tree_splits;
        tree_gain += node.gain;
        feature_split_counts[static_cast<size_t>(node.feature)] += 1;
        feature_split_gains[static_cast<size_t>(node.feature)] += node.gain;
      }
    }

    {
      // GrowTree already added the tree to the sampled rows' raw scores;
      // only rows outside the subsample and the validation set walk it.
      TraceSpan span("gbt.update_scores", "train");
      if (subsampled) {
        pool_.ParallelForChunks(
            n, kRowChunk, [&](int64_t, int64_t begin, int64_t end) {
              for (int64_t i = begin; i < end; ++i) {
                if (in_sample[static_cast<size_t>(i)] != 0) continue;
                raw_train[static_cast<size_t>(i)] +=
                    tree.Predict(train_.row(i));
              }
            });
      }
      if (validation != nullptr) {
        pool_.ParallelForChunks(
            validation->num_rows(), kRowChunk,
            [&](int64_t, int64_t begin, int64_t end) {
              for (int64_t i = begin; i < end; ++i) {
                raw_valid[static_cast<size_t>(i)] +=
                    tree.Predict(validation->row(i));
              }
            });
      }
    }
    model.trees_.push_back(std::move(tree));

    // Metrics.
    double train_metric = std::numeric_limits<double>::quiet_NaN();
    double valid_metric = std::numeric_limits<double>::quiet_NaN();
    if (log != nullptr || validation != nullptr || telemetry.active()) {
      std::vector<double> preds(static_cast<size_t>(n));
      pool_.ParallelFor(n, [&](int64_t i) {
        preds[static_cast<size_t>(i)] =
            objective_->Transform(raw_train[static_cast<size_t>(i)]);
      });
      train_metric = objective_->EvalDefaultMetric(train_.labels(), preds);
      if (validation != nullptr) {
        std::vector<double> vpreds(raw_valid.size());
        for (size_t i = 0; i < raw_valid.size(); ++i) {
          vpreds[i] = objective_->Transform(raw_valid[i]);
        }
        valid_metric =
            objective_->EvalDefaultMetric(validation->labels(), vpreds);
      }
    }
    if (log != nullptr) {
      log->rounds.push_back({round, train_metric, valid_metric});
    }
    if (telemetry.active()) {
      JsonWriter line;
      line.Key("round").Int(round)
          .Key("train").Number(train_metric)
          .Key("valid").Number(valid_metric)
          .Key("splits").Int(tree_splits)
          .Key("gain").Number(tree_gain);
      telemetry.Line("round", line.str());
    }
    // Live progress for the stall watchdog: unlike the bulk flush below,
    // this counter must advance *during* training, one round at a time.
    Metrics().rounds_completed->Increment();
    if (validation != nullptr) {
      if (valid_metric < best_metric) {
        best_metric = valid_metric;
        best_round = round;
      }
      if (params_.early_stopping_rounds > 0 &&
          round - best_round >= params_.early_stopping_rounds) {
        break;
      }
    }
  }

  if (params_.early_stopping_rounds > 0 && best_round >= 0) {
    model.trees_.resize(static_cast<size_t>(best_round + 1));
    model.best_iteration_ = best_round;
  } else {
    model.best_iteration_ = static_cast<int>(model.trees_.size()) - 1;
  }
  if (telemetry.active()) {
    // Cumulative per-feature split statistics over the whole run (early
    // stopping trims the model, not this tally — the stream records what
    // training did, not what survived).
    JsonWriter line;
    line.Key("names").BeginArray();
    for (const std::string& name : train_.feature_names()) line.String(name);
    line.EndArray().Key("split_counts").BeginArray();
    for (const int64_t count : feature_split_counts) line.Int(count);
    line.EndArray().Key("split_gains").BeginArray();
    for (const double gain : feature_split_gains) line.Number(gain);
    line.EndArray()
        .Key("trees").Int(model.trees_.size())
        .Key("best_iteration").Int(model.best_iteration_);
    telemetry.Line("features", line.str());
    telemetry.Finish();
  }
  // Flush the per-run node counters into the registry in one shot: the
  // recursion stays free of atomics, and the registry still sees exact
  // per-training deltas (tests and benchmarks read these).
  Metrics().hist_nodes_direct->Increment(hist_nodes_direct_);
  Metrics().hist_nodes_subtracted->Increment(hist_nodes_subtracted_);
  Metrics().trees_grown->Increment(static_cast<int64_t>(model.trees_.size()));
  return model;
}

}  // namespace mysawh::gbt
