#ifndef MYSAWH_GBT_TRAINER_H_
#define MYSAWH_GBT_TRAINER_H_

#include <memory>
#include <vector>

#include "data/dataset.h"
#include "gbt/binning.h"
#include "gbt/gbt_model.h"
#include "gbt/histogram.h"
#include "gbt/objective.h"
#include "gbt/params.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace mysawh::gbt {

/// Internal training engine behind GbtModel::Train. Exposed in a header so
/// tests can exercise split finding directly, but not part of the stable
/// public API.
class Trainer {
 public:
  /// The dataset must outlive the trainer.
  Trainer(const Dataset& train, const GbtParams& params);

  /// Runs boosting and produces the final model.
  Result<GbtModel> Run(const Dataset* validation, TrainingLog* log);

  /// A scored split proposal for one node.
  struct SplitCandidate {
    bool valid = false;
    int feature = -1;
    double threshold = 0.0;
    int bin = -1;             ///< The split is "bin <= this".
    bool default_left = true; ///< Learned missing-value direction.
    double gain = 0.0;
    double weight_left = 0.0;   ///< Unshrunk child weights (for monotone
    double weight_right = 0.0;  ///< bound propagation).
  };

 private:
  struct NodeStats {
    double sum_g = 0.0;
    double sum_h = 0.0;
    int64_t count = 0;
  };

  /// Admissible leaf-weight interval enforcing monotone constraints along
  /// the path from the root.
  struct NodeBounds {
    double lower;
    double upper;
  };

  double LeafWeight(double g, double h) const;
  double ScoreFn(double g, double h) const;

  /// Evaluates both missing-direction assignments for a partition
  /// (left/right exclude missing) and updates `best` in place, skipping
  /// candidates that violate the feature's monotone constraint or the
  /// node's weight bounds. `parent_score` is ScoreFn(parent), hoisted out
  /// because this runs once per candidate boundary.
  void ConsiderSplit(const NodeStats& parent, double parent_score,
                     const NodeStats& miss, double sum_g_left,
                     double sum_h_left, int64_t count_left, int feature,
                     double threshold, int bin, const NodeBounds& bounds,
                     SplitCandidate* best) const;

  /// Unconstrained boundary scan (no monotone constraints configured, so
  /// node bounds are always infinite and no candidate can be rejected after
  /// scoring). Same gains, tie-breaks, and results as the generic path
  /// through ConsiderSplit, but with the per-boundary work reduced to the
  /// two score divisions. This is the training hot loop.
  SplitCandidate FindSplitHistFast(int feature, int nb,
                                   const HistEntry* slots,
                                   const NodeStats& miss,
                                   const NodeStats& parent,
                                   double parent_score,
                                   int64_t present) const;
  /// Scans the prebuilt node histogram of the `feature_pos`-th selected
  /// feature for the best boundary.
  SplitCandidate FindSplitHist(int feature_pos, const HistogramLayout& layout,
                               const NodeHistogram& hist,
                               const NodeStats& parent,
                               const NodeBounds& bounds) const;

  /// State shared by every node of the tree being grown.
  struct TreeState {
    const std::vector<GradientPair>* gpairs = nullptr;
    const HistogramLayout* layout = nullptr;
    /// The tree's sampled rows, ascending. Every node owns a contiguous
    /// span of it, which BuildNode partitions in place between children.
    std::vector<int64_t> rows;
    /// Staging for the right-hand rows of one partition.
    std::vector<int64_t> scratch;
    /// Cached raw train scores: a finalized leaf adds its value to the
    /// entries of its rows, so these rows never walk the finished tree.
    double* raw_train = nullptr;
  };

  /// Recursively grows the subtree rooted at `node_id` over the rows
  /// `state->rows[begin, begin + stats.count)`, whose gradient sums are
  /// `stats` (the parent's partition pass computes them). `hist` is the
  /// node's histogram (built lazily when empty); children inherit
  /// histograms via the sibling-subtraction trick.
  void BuildNode(RegressionTree* tree, int node_id, TreeState* state,
                 int64_t begin, const NodeStats& stats, int depth,
                 const NodeBounds& bounds, NodeHistogram hist);

  /// The monotone constraint of a feature (0 when none configured).
  int ConstraintOf(int feature) const;

  /// Grows one tree on the sampled `rows` (ascending) and `features`, and
  /// adds each leaf's value to `raw_train` for the rows it holds.
  RegressionTree GrowTree(const std::vector<GradientPair>& gpairs,
                          std::vector<int64_t> rows,
                          const std::vector<int>& features,
                          double* raw_train);

  const Dataset& train_;
  const GbtParams params_;
  std::unique_ptr<Objective> objective_;
  FeatureBins bins_;
  BinnedMatrix binned_;
  std::unique_ptr<HistogramBuilder> hist_builder_;
  int64_t hist_nodes_direct_ = 0;      ///< Histograms built from rows.
  int64_t hist_nodes_subtracted_ = 0;  ///< Histograms derived by subtraction.
  Rng rng_;
  ThreadPool pool_;
};

}  // namespace mysawh::gbt

#endif  // MYSAWH_GBT_TRAINER_H_
