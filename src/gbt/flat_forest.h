#ifndef MYSAWH_GBT_FLAT_FOREST_H_
#define MYSAWH_GBT_FLAT_FOREST_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "gbt/tree.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace mysawh::gbt {

/// Sentinel bin of a missing (NaN) feature value in a quantized row. Shared
/// with the training-side byte matrix (gbt/binning.h kMissingBin).
inline constexpr uint8_t kFlatMissingBin = 0xFF;

/// Rows per predict block: the batch kernel quantizes this many rows into a
/// feature-major (column) byte panel and walks them through the forest with
/// the trees in the inner loop. Must stay a power of two — the walk step
/// folds the in-block row index into a shift-based panel address.
inline constexpr int64_t kFlatPredictBlock = 64;

/// A trained forest compiled into a single structure-of-arrays node block
/// for branch-light batch inference — the post-training counterpart of the
/// training-side binned matrix (gbt/binning.h).
///
/// Compilation collects the distinct split thresholds of every feature into
/// sorted per-feature cut arrays (for a hist-trained model these are by
/// construction a subset of the `BuildBinned` cuts the splits were chosen
/// from) and rewrites each internal node's double threshold as a `uint8`
/// bin index against those cuts. An input row is quantized once —
/// `bin(v) = #{cuts <= v}`, NaN -> kFlatMissingBin — after which every
/// node test `v < threshold` becomes the byte comparison
/// `bin < bin_threshold`, an exact equivalence (see docs/gbt.md), so the
/// flat kernels are bit-identical to the reference pointer walker.
///
/// Layout (globally indexed, per-tree contiguous ranges):
///   * internal nodes: `int16 feature`, `uint8 bin_threshold`,
///     `int32 left/right` child refs, a missing-direction bitmask, and the
///     precomputed TreeSHAP cover fractions of both children;
///   * child refs are leaf-tagged: `ref >= 0` is an internal node index,
///     `ref < 0` refers to leaf `~ref` in the `double leaf_value` array.
///
/// A forest whose shape cannot be compiled (more than 254 distinct
/// thresholds on one feature, more than 32767 features) is reported by
/// Compile with FailedPrecondition; callers fall back to the reference
/// walker. Training never produces more thresholds than its byte-wide bins
/// (gbt/binning.h kMaxBins), so only a loaded model file can take this
/// path.
///
/// The block is derived state: GbtModel compiles it from its trees on
/// Train and Deserialize, and it is never written to disk.
class FlatForest {
 public:
  FlatForest() = default;

  /// Compiles `trees` against a feature space of width `num_features`;
  /// every tree passes RegressionTree::Validate first, so the kernels
  /// index rows and node arrays without bounds checks.
  static Result<FlatForest> Compile(const std::vector<RegressionTree>& trees,
                                    int64_t num_features);

  int64_t num_features() const { return num_features_; }
  int num_trees() const { return static_cast<int>(roots_.size()); }
  int64_t num_nodes() const {
    return static_cast<int64_t>(feature_.size());
  }
  int64_t num_leaves() const {
    return static_cast<int64_t>(leaf_values_.size());
  }
  /// Longest root-to-leaf path over the whole forest (sizes the TreeSHAP
  /// path workspace).
  int max_depth() const { return max_depth_; }

  // --- Node accessors (SHAP port + tests). Internal nodes only. ---
  int32_t root(int tree) const { return roots_[static_cast<size_t>(tree)]; }
  int16_t feature(int64_t node) const {
    return feature_[static_cast<size_t>(node)];
  }
  uint8_t bin_threshold(int64_t node) const {
    return bin_threshold_[static_cast<size_t>(node)];
  }
  int32_t left(int64_t node) const { return left_[static_cast<size_t>(node)]; }
  int32_t right(int64_t node) const {
    return right_[static_cast<size_t>(node)];
  }
  bool default_left(int64_t node) const {
    return (default_left_bits_[static_cast<size_t>(node >> 6)] >>
            (node & 63)) & 1;
  }
  /// Cover fraction of the left/right child (child cover / parent cover,
  /// the TreeSHAP zero-fraction), precomputed at compile time with exactly
  /// the arithmetic of the reference recursion.
  double left_fraction(int64_t node) const {
    return left_fraction_[static_cast<size_t>(node)];
  }
  double right_fraction(int64_t node) const {
    return right_fraction_[static_cast<size_t>(node)];
  }
  double leaf_value(int64_t leaf) const {
    return leaf_values_[static_cast<size_t>(leaf)];
  }
  /// Tree `tree`'s leaves are ids [tree_leaf_begin(t), tree_leaf_end(t)) —
  /// the half-open slice of the leaf-value array a `ref < 0` child of that
  /// tree can point into. Lets per-tree caches (the TreeSHAP pattern
  /// tables) index leaves densely without a discovery pass.
  int32_t tree_leaf_begin(int tree) const {
    return tree_leaf_offsets_[static_cast<size_t>(tree)];
  }
  int32_t tree_leaf_end(int tree) const {
    return tree_leaf_offsets_[static_cast<size_t>(tree) + 1];
  }
  /// Tree `tree`'s internal nodes are ids [tree_node_begin(t),
  /// tree_node_end(t)), in preorder: the root first (when the tree has an
  /// internal node at all) and every parent before its children.
  int32_t tree_node_begin(int tree) const {
    return tree_node_offsets_[static_cast<size_t>(tree)];
  }
  int32_t tree_node_end(int tree) const {
    return tree_node_offsets_[static_cast<size_t>(tree) + 1];
  }

  /// Quantizes one row of num_features() doubles into `out` (num_features()
  /// bytes): bin(v) = number of cuts <= v, NaN -> kFlatMissingBin.
  void BinRow(const double* row, uint8_t* out) const;

  /// Quantizes every row of `data` (width must match) into a row-major
  /// byte matrix.
  std::vector<uint8_t> BinMatrix(const Dataset& data) const;

  /// raw[r] += leaf values of trees [tree_begin, tree_end), accumulated in
  /// ascending tree order per row — the same summation order as the
  /// reference walker. `bins` is `rows` quantized rows (BinRow layout).
  void Accumulate(const uint8_t* bins, int64_t rows, int tree_begin,
                  int tree_end, double* raw) const;

  /// Full batch kernel: out[r] = base_score + every tree's leaf for row r.
  /// Rows are processed in cache-sized blocks with the trees in the inner
  /// loop (one pass over the node block per ~64 rows); blocks run in
  /// parallel on `pool` (nullptr = the shared DefaultPool()). Each block
  /// writes disjoint slots and sums trees in ascending order, so the
  /// output is bit-identical to the reference walker for any thread count.
  void PredictRaw(const Dataset& data, double base_score, double* out,
                  ThreadPool* pool = nullptr) const;

 private:
  /// Recomputes the derived kernel state from the canonical arrays:
  /// per-tree depths (and max_depth_), the packed per-node metadata words,
  /// and the interleaved child-ref pairs. Called at the end of Compile.
  void BuildDerivedState();

  /// Column-major predict kernel for one block: `bins_cm` is a
  /// feature-major panel (feature f's column at bins_cm + f *
  /// kFlatPredictBlock, rows 0..rows-1 contiguous within it). Adds every
  /// tree's leaf value to raw[0..rows), ascending tree order per row.
  void AccumulateBlock(const uint8_t* bins_cm, int64_t rows,
                       double* raw) const;

  int64_t num_features_ = 0;
  int max_depth_ = 0;

  // Per-feature sorted distinct thresholds, flattened: feature f's cuts are
  // cut_values_[cut_offsets_[f] .. cut_offsets_[f+1]).
  std::vector<double> cut_values_;
  std::vector<int32_t> cut_offsets_;  // num_features_ + 1 entries

  // Leaf-tagged root ref of each tree (single-leaf trees have ref < 0).
  std::vector<int32_t> roots_;
  // Height of each tree (0 for a leaf root). The predict kernel runs every
  // row exactly this many branchless steps (finished rows self-loop on
  // their leaf ref), so the walk has no per-level exit branch. Derived
  // from the links.
  std::vector<int32_t> tree_depths_;
  // Tree t's internal nodes are [tree_node_offsets_[t],
  // tree_node_offsets_[t+1]), its leaves likewise in tree_leaf_offsets_.
  std::vector<int32_t> tree_node_offsets_;
  std::vector<int32_t> tree_leaf_offsets_;

  // Internal-node SoA block, preorder within each tree.
  std::vector<int16_t> feature_;
  std::vector<uint8_t> bin_threshold_;
  std::vector<int32_t> left_;
  std::vector<int32_t> right_;
  std::vector<uint64_t> default_left_bits_;  // bit i = node i goes left on NaN
  std::vector<double> left_fraction_;
  std::vector<double> right_fraction_;

  std::vector<double> leaf_values_;

  // Derived kernel tables (built by BuildDerivedState).
  // The walk kernel sees an augmented node space: internal nodes first,
  // then one self-looping pseudo-node per leaf (children point at itself,
  // metadata 0), so a walk step is always meta load -> panel byte ->
  // indexed child load with no leaf-tag masking; a finished lane parks on
  // its leaf pseudo-node for the tree's remaining levels. node_meta_ packs
  // feature << 9 | bin_threshold << 1 | default_left; children_ stores the
  // go-right target at 2n and the go-left target at 2n + 1 so the taken
  // child is children_[2n + go_left]; node_value_ is 0 for internal nodes
  // and the leaf value on pseudo-nodes; kernel_roots_ maps each tree's
  // leaf-tagged root ref into the augmented index space.
  std::vector<uint32_t> node_meta_;
  std::vector<int32_t> children_;
  std::vector<double> node_value_;
  std::vector<int32_t> kernel_roots_;
  // Per-feature cut arrays padded with NaN to one shared power-of-two
  // length (feature f's pad starts at f * search_len_): BinRow runs
  // branchless fixed-shape binary searches over these instead of
  // std::upper_bound's mispredicting one, four features in lockstep —
  // the shared length is what lets their chains interleave. NaN pads
  // never count: every ordered comparison against them is false.
  std::vector<double> search_cuts_;
  int64_t search_len_ = 0;
};

}  // namespace mysawh::gbt

#endif  // MYSAWH_GBT_FLAT_FOREST_H_
