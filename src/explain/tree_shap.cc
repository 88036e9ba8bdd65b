#include "explain/tree_shap.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <mutex>
#include <numeric>
#include <string>

#include "core/audit_log.h"
#include "gbt/flat_forest.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace mysawh::explain {

namespace {

using gbt::RegressionTree;
using gbt::TreeNode;

/// One step of the feature path maintained by the TreeSHAP recursion.
struct PathElement {
  int feature_index = -1;
  double zero_fraction = 0.0;  ///< Fraction of "feature absent" paths kept.
  double one_fraction = 0.0;   ///< 1 when x follows this split, else 0.
  double pweight = 0.0;        ///< Permutation weight of this prefix length.
};

/// Grows the path by one split, updating permutation weights.
void ExtendPath(PathElement* path, int unique_depth, double zero_fraction,
                double one_fraction, int feature_index) {
  path[unique_depth].feature_index = feature_index;
  path[unique_depth].zero_fraction = zero_fraction;
  path[unique_depth].one_fraction = one_fraction;
  path[unique_depth].pweight = unique_depth == 0 ? 1.0 : 0.0;
  const double d = static_cast<double>(unique_depth) + 1.0;
  for (int i = unique_depth - 1; i >= 0; --i) {
    path[i + 1].pweight +=
        one_fraction * path[i].pweight * static_cast<double>(i + 1) / d;
    path[i].pweight = zero_fraction * path[i].pweight *
                      static_cast<double>(unique_depth - i) / d;
  }
}

/// Removes the element at `path_index`, restoring the weights ExtendPath
/// would have produced without it.
void UnwindPath(PathElement* path, int unique_depth, int path_index) {
  const double one_fraction = path[path_index].one_fraction;
  const double zero_fraction = path[path_index].zero_fraction;
  double next_one_portion = path[unique_depth].pweight;
  const double d = static_cast<double>(unique_depth) + 1.0;
  for (int i = unique_depth - 1; i >= 0; --i) {
    if (one_fraction != 0.0) {
      const double tmp = path[i].pweight;
      path[i].pweight =
          next_one_portion * d / (static_cast<double>(i + 1) * one_fraction);
      next_one_portion = tmp - path[i].pweight * zero_fraction *
                                   static_cast<double>(unique_depth - i) / d;
    } else {
      path[i].pweight = path[i].pweight * d /
                        (zero_fraction * static_cast<double>(unique_depth - i));
    }
  }
  for (int i = path_index; i < unique_depth; ++i) {
    path[i].feature_index = path[i + 1].feature_index;
    path[i].zero_fraction = path[i + 1].zero_fraction;
    path[i].one_fraction = path[i + 1].one_fraction;
  }
}

/// Total permutation weight the element at `path_index` would carry if it
/// were unwound — the w factor of the SHAP sum at a leaf.
double UnwoundPathSum(const PathElement* path, int unique_depth,
                      int path_index) {
  const double one_fraction = path[path_index].one_fraction;
  const double zero_fraction = path[path_index].zero_fraction;
  double next_one_portion = path[unique_depth].pweight;
  double total = 0.0;
  const double d = static_cast<double>(unique_depth) + 1.0;
  for (int i = unique_depth - 1; i >= 0; --i) {
    if (one_fraction != 0.0) {
      const double tmp =
          next_one_portion * d / (static_cast<double>(i + 1) * one_fraction);
      total += tmp;
      next_one_portion =
          path[i].pweight -
          tmp * zero_fraction * static_cast<double>(unique_depth - i) / d;
    } else {
      total += path[i].pweight /
               (zero_fraction * static_cast<double>(unique_depth - i) / d);
    }
  }
  return total;
}

double SafeCover(double cover) { return std::max(cover, 1e-30); }

/// Core recursion: walks every root-to-leaf path once, maintaining the set
/// of unique features on the path with their zero/one fractions.
///
/// `condition` extends the plain algorithm for interaction values
/// (Lundberg et al., Algorithm 3): 0 computes ordinary SHAP values;
/// +1 conditions on `condition_feature` being present (known), -1 on it
/// being absent — the conditioned feature is kept off the path and its
/// branch weights flow through `condition_fraction` instead.
void TreeShapRecurse(const RegressionTree& tree, const double* x, double* phi,
                     int node_index, int unique_depth,
                     PathElement* parent_unique_path,
                     double parent_zero_fraction, double parent_one_fraction,
                     int parent_feature_index, int condition,
                     int condition_feature, double condition_fraction) {
  if (condition_fraction == 0.0) return;

  PathElement* unique_path = parent_unique_path + unique_depth + 1;
  std::copy(parent_unique_path, parent_unique_path + unique_depth + 1,
            unique_path);
  if (condition == 0 || condition_feature != parent_feature_index) {
    ExtendPath(unique_path, unique_depth, parent_zero_fraction,
               parent_one_fraction, parent_feature_index);
  }

  const TreeNode& node = tree.node(node_index);
  if (node.IsLeaf()) {
    for (int i = 1; i <= unique_depth; ++i) {
      const double w = UnwoundPathSum(unique_path, unique_depth, i);
      const PathElement& el = unique_path[i];
      phi[el.feature_index] += w * (el.one_fraction - el.zero_fraction) *
                               node.value * condition_fraction;
    }
    return;
  }

  const double v = x[node.feature];
  int hot, cold;
  if (std::isnan(v)) {
    hot = node.default_left ? node.left : node.right;
    cold = node.default_left ? node.right : node.left;
  } else if (v < node.threshold) {
    hot = node.left;
    cold = node.right;
  } else {
    hot = node.right;
    cold = node.left;
  }
  const double node_cover = SafeCover(node.cover);
  const double hot_zero_fraction = tree.node(hot).cover / node_cover;
  const double cold_zero_fraction = tree.node(cold).cover / node_cover;
  double incoming_zero_fraction = 1.0;
  double incoming_one_fraction = 1.0;

  // If this feature is already on the path, undo its previous contribution
  // and combine the fractions (each unique feature appears once).
  int path_index = 0;
  for (; path_index <= unique_depth; ++path_index) {
    if (unique_path[path_index].feature_index == node.feature) break;
  }
  if (path_index != unique_depth + 1) {
    incoming_zero_fraction = unique_path[path_index].zero_fraction;
    incoming_one_fraction = unique_path[path_index].one_fraction;
    UnwindPath(unique_path, unique_depth, path_index);
    unique_depth -= 1;
  }

  // Split the condition weight between the children when this node tests
  // the conditioned feature (which then stays off the path).
  double hot_condition_fraction = condition_fraction;
  double cold_condition_fraction = condition_fraction;
  if (condition > 0 && node.feature == condition_feature) {
    cold_condition_fraction = 0.0;
    unique_depth -= 1;
  } else if (condition < 0 && node.feature == condition_feature) {
    hot_condition_fraction *= hot_zero_fraction;
    cold_condition_fraction *= cold_zero_fraction;
    unique_depth -= 1;
  }

  TreeShapRecurse(tree, x, phi, hot, unique_depth + 1, unique_path,
                  hot_zero_fraction * incoming_zero_fraction,
                  incoming_one_fraction, node.feature, condition,
                  condition_feature, hot_condition_fraction);
  TreeShapRecurse(tree, x, phi, cold, unique_depth + 1, unique_path,
                  cold_zero_fraction * incoming_zero_fraction, 0.0,
                  node.feature, condition, condition_feature,
                  cold_condition_fraction);
}

/// Path elements one recursion over trees at most `max_depth` deep uses:
/// each level copies its parent's path into the next slice. The buffer is
/// reusable across rows and trees because every slot a recursion reads was
/// written earlier in the same recursion (the root ExtendPath fully
/// initializes element 0).
size_t WorkspaceSize(int max_depth) {
  const int maxd = max_depth + 2;
  return static_cast<size_t>((maxd * (maxd + 1)) / 2 + maxd + 1);
}

// ---------------------------------------------------------------------------
// Pattern tables.
//
// For a fixed tree, everything the recursion computes at a leaf is a
// function of ONE per-row input: the direction the row takes at each of the
// leaf's ancestors. The split fractions, the leaf value, the unique-path
// feature set — all row-independent; the row only decides which child is
// "hot" (one_fraction 1) at each ancestor. A leaf at depth d therefore has
// exactly 2^d possible addend vectors. Running the recursion per row
// repeats the same arithmetic, so the model's tables enumerate every
// (leaf, pattern) pair once, storing each addend
// `w * (one_fraction - zero_fraction) * value` the recursion would produce,
// and each row replays a table-lookup walk. The tables depend only on the
// model: once a TreeShap has served enough rows for them to pay
// (RowsBeforeTables), it builds them and serves Shap and ShapBatch from them.
//
// Bit-identity with the reference recursion holds because (a) the stored
// addends come out of the SAME path arithmetic, on the flat forest's
// compile-time cover fractions (computed with the recursion's division),
// driven by an enumerated direction bit instead of the row's split test,
// and (b) the replay adds them to phi in the SAME order the recursion
// would: trees ascending, leaves in hot-child-first DFS order within a
// tree, path positions ascending within a leaf. The replay does not walk
// that DFS; it computes each leaf's rank in it (PatternShapRow).
// ---------------------------------------------------------------------------

/// Ancestor direction patterns wider than this fall back to the reference
/// recursion (2^26 patterns on one leaf is already far past the point where
/// the table could pay for itself, and the cap keeps the pattern index well
/// inside uint32).
constexpr int kPatternDepthCap = 26;
/// Upper bound on total table payload before falling back.
constexpr double kPatternTableMaxBytes = 64.0 * 1024 * 1024;

/// One leaf's slice of a tree's pattern table.
struct PatternLeaf {
  int32_t depth = -1;   ///< Ancestors on the root path = pattern bits.
  int32_t unique = 0;   ///< Unique path features = addends per pattern.
  int32_t feat_off = 0;  ///< Start of the phi indices in `feats`.
  int64_t val_off = 0;   ///< Addends at val_off + pattern * unique.
};

/// One internal node of a tree's table, in the flat forest's preorder
/// (parents before children): its split test on the binned row and, per
/// child (index 1 = left, 0 = right), the child's slot in the replay's
/// per-tree state and the number of leaves under it. Internal node i of a
/// tree has slot i, its leaf j slot (number of internal nodes) + j.
struct PatternNode {
  int16_t feature = 0;
  uint8_t bin_threshold = 0;
  uint8_t default_left = 0;
  int32_t depth = 0;  ///< Ancestors above the node = its pattern bit.
  int32_t slot[2] = {0, 0};
  int32_t leaves[2] = {0, 0};
};

/// Precomputed SHAP addends of every (leaf, ancestor-pattern) pair of one
/// tree. Bit i of a pattern is 1 when the row goes left at the i-th
/// internal node (root first) of the leaf's path.
struct PatternTable {
  std::vector<PatternNode> nodes;   ///< Internal nodes, preorder.
  std::vector<PatternLeaf> leaves;  ///< Indexed by leaf id - leaf_begin.
  std::vector<int32_t> feats;
  std::vector<double> vals;
  int32_t leaf_begin = 0;
};

/// Sizes the tables: the builder visits leaf l 2^depth(l) times. Doubles
/// to keep pathological depths finite.
void CountPatternVisits(const gbt::FlatForest& flat, int32_t ref, int depth,
                        int* deepest, double* pattern_visits) {
  if (ref < 0) {
    *deepest = std::max(*deepest, depth);
    *pattern_visits += std::ldexp(1.0, depth);
    return;
  }
  CountPatternVisits(flat, flat.left(ref), depth + 1, deepest,
                     pattern_visits);
  CountPatternVisits(flat, flat.right(ref), depth + 1, deepest,
                     pattern_visits);
}

/// The condition == 0 TreeShapRecurse on the flat forest, with the row's
/// direction replaced by an enumeration of both directions: at every
/// internal node the recursion forks on b = "row goes left here", so each
/// leaf is reached once per ancestor pattern, carrying exactly the path
/// state the reference recursion would have for a row with those
/// directions. At the leaf the addends are stored instead of added.
void BuildPatternsRecurse(const gbt::FlatForest& flat, int32_t ref,
                          int unique_depth, PathElement* parent_unique_path,
                          double parent_zero_fraction,
                          double parent_one_fraction,
                          int parent_feature_index, uint32_t pattern,
                          int depth, PatternTable* tbl) {
  PathElement* unique_path = parent_unique_path + unique_depth + 1;
  std::copy(parent_unique_path, parent_unique_path + unique_depth + 1,
            unique_path);
  ExtendPath(unique_path, unique_depth, parent_zero_fraction,
             parent_one_fraction, parent_feature_index);

  if (ref < 0) {
    const double value = flat.leaf_value(~ref);
    PatternLeaf& lt = tbl->leaves[static_cast<size_t>(~ref - tbl->leaf_begin)];
    if (lt.depth < 0) {  // First pattern to reach this leaf sizes its slice.
      lt.depth = depth;
      lt.unique = unique_depth;
      lt.feat_off = static_cast<int32_t>(tbl->feats.size());
      for (int i = 1; i <= unique_depth; ++i) {
        tbl->feats.push_back(unique_path[i].feature_index);
      }
      lt.val_off = static_cast<int64_t>(tbl->vals.size());
      tbl->vals.resize(tbl->vals.size() +
                       (size_t{1} << depth) * static_cast<size_t>(unique_depth));
    }
    double* slot = tbl->vals.data() + lt.val_off +
                   static_cast<int64_t>(pattern) * lt.unique;
    for (int i = 1; i <= unique_depth; ++i) {
      const double w = UnwoundPathSum(unique_path, unique_depth, i);
      const PathElement& el = unique_path[i];
      slot[i - 1] = w * (el.one_fraction - el.zero_fraction) * value;
    }
    return;
  }

  const int feature = flat.feature(ref);
  double incoming_zero_fraction = 1.0;
  double incoming_one_fraction = 1.0;
  int path_index = 0;
  for (; path_index <= unique_depth; ++path_index) {
    if (unique_path[path_index].feature_index == feature) break;
  }
  if (path_index != unique_depth + 1) {
    incoming_zero_fraction = unique_path[path_index].zero_fraction;
    incoming_one_fraction = unique_path[path_index].one_fraction;
    UnwindPath(unique_path, unique_depth, path_index);
    unique_depth -= 1;
  }

  for (uint32_t b = 0; b < 2; ++b) {
    const bool left_hot = b == 1;
    const int32_t hot = left_hot ? flat.left(ref) : flat.right(ref);
    const int32_t cold = left_hot ? flat.right(ref) : flat.left(ref);
    const double hot_zero_fraction =
        left_hot ? flat.left_fraction(ref) : flat.right_fraction(ref);
    const double cold_zero_fraction =
        left_hot ? flat.right_fraction(ref) : flat.left_fraction(ref);
    const uint32_t child_pattern = pattern | (b << depth);
    BuildPatternsRecurse(flat, hot, unique_depth + 1, unique_path,
                         hot_zero_fraction * incoming_zero_fraction,
                         incoming_one_fraction, feature, child_pattern,
                         depth + 1, tbl);
    BuildPatternsRecurse(flat, cold, unique_depth + 1, unique_path,
                         cold_zero_fraction * incoming_zero_fraction, 0.0,
                         feature, child_pattern, depth + 1, tbl);
  }
}

std::vector<PatternTable> BuildPatternTables(const gbt::FlatForest& flat) {
  std::vector<PatternTable> tables(static_cast<size_t>(flat.num_trees()));
  std::vector<PathElement> workspace(WorkspaceSize(flat.max_depth()));
  for (int t = 0; t < flat.num_trees(); ++t) {
    PatternTable& tbl = tables[static_cast<size_t>(t)];
    tbl.leaf_begin = flat.tree_leaf_begin(t);
    tbl.leaves.assign(
        static_cast<size_t>(flat.tree_leaf_end(t) - tbl.leaf_begin),
        PatternLeaf{});
    BuildPatternsRecurse(flat, flat.root(t), 0, workspace.data(), 1.0, 1.0,
                         -1, 0, 0, &tbl);
    const int32_t node_begin = flat.tree_node_begin(t);
    const int32_t internal = flat.tree_node_end(t) - node_begin;
    auto slot = [&](int32_t ref) {
      return ref >= 0 ? ref - node_begin
                      : internal + (~ref - tbl.leaf_begin);
    };
    tbl.nodes.resize(static_cast<size_t>(internal));
    for (int32_t i = 0; i < internal; ++i) {  // Preorder: depths top-down.
      PatternNode& node = tbl.nodes[static_cast<size_t>(i)];
      const int32_t ref = node_begin + i;
      node.feature = flat.feature(ref);
      node.bin_threshold = flat.bin_threshold(ref);
      node.default_left = flat.default_left(ref) ? 1 : 0;
      node.slot[1] = slot(flat.left(ref));
      node.slot[0] = slot(flat.right(ref));
      for (const int32_t child : node.slot) {
        if (child < internal) {
          tbl.nodes[static_cast<size_t>(child)].depth = node.depth + 1;
        }
      }
    }
    for (int32_t i = internal - 1; i >= 0; --i) {  // Leaf counts bottom-up.
      PatternNode& node = tbl.nodes[static_cast<size_t>(i)];
      for (int c = 0; c < 2; ++c) {
        const int32_t child = node.slot[c];
        node.leaves[c] =
            child < internal
                ? tbl.nodes[static_cast<size_t>(child)].leaves[0] +
                      tbl.nodes[static_cast<size_t>(child)].leaves[1]
                : 1;
      }
    }
  }
  return tables;
}

/// One leaf's addends for one row: `count` values added to phi at the
/// feature indices `feats`.
struct AddendSlice {
  const double* vals;
  const int32_t* feats;
  int32_t count;
};

/// Leaves the replay locates (and prefetches) ahead of adding them.
constexpr size_t kSliceWindow = 64;

void PrefetchRead(const void* p) {
#if defined(__GNUC__)
  __builtin_prefetch(p, 0, 3);
#else
  (void)p;
#endif
}

void AddSlices(const AddendSlice* slices, size_t n, double* phi) {
  for (size_t k = 0; k < n; ++k) {
    const AddendSlice& s = slices[k];
    for (int32_t i = 0; i < s.count; ++i) phi[s.feats[i]] += s.vals[i];
  }
}

/// One row over every tree's table; returns `raw` plus the row's leaf of
/// each tree (its raw margin when `raw` is the base score).
///
/// The recursion visits a tree's leaves depth first, the child the row
/// takes (hot) before the other (cold). A leaf's rank in that order is the
/// number of leaves under the hot child of each ancestor where the leaf
/// lies under the cold child, and its pattern is the row's directions at
/// its ancestors. One branch-free pass over the internal nodes in preorder
/// hands both down to the children, with no DFS and no branch on the row's
/// directions. Each leaf then files its addend slice at its rank in a
/// window and prefetches it; the window is added to phi in rank order once
/// full (and at the end), so the accumulation order (and the rounding) is
/// the recursion's while the table loads overlap the passes. The leaf of
/// rank 0 lies under hot children only: it is the row's own leaf, summed
/// in ascending tree order as the reference walker does.
double PatternShapRow(const gbt::FlatForest& flat,
                      const std::vector<PatternTable>& tables,
                      const uint8_t* bins, double raw, double* phi) {
  struct SlotState {
    uint32_t pattern;
    int32_t rank;
  };
  std::vector<AddendSlice> window(kSliceWindow);
  std::vector<SlotState> state(2 * kSliceWindow);
  size_t pending = 0;
  for (const PatternTable& tbl : tables) {
    const size_t internal = tbl.nodes.size();
    const size_t leaves = tbl.leaves.size();
    if (pending + leaves > window.size()) {
      AddSlices(window.data(), pending, phi);
      pending = 0;
      if (leaves > window.size()) window.resize(leaves);
    }
    if (internal + leaves > state.size()) state.resize(internal + leaves);
    SlotState* st = state.data();
    st[0] = {0, 0};  // The root: internal node 0, or a lone leaf.
    for (size_t i = 0; i < internal; ++i) {
      const PatternNode& node = tbl.nodes[i];
      // A missing bin (0xFF) is never below a threshold (at most 254).
      const uint8_t bin = bins[node.feature];
      const uint32_t left =
          static_cast<uint32_t>(bin < node.bin_threshold) |
          (static_cast<uint32_t>(bin == gbt::kFlatMissingBin) &
           node.default_left);
      const SlotState s = st[i];
      const uint32_t pattern = s.pattern | (left << node.depth);
      st[node.slot[left]] = {pattern, s.rank};
      st[node.slot[left ^ 1]] = {pattern, s.rank + node.leaves[left]};
    }
    AddendSlice* out = window.data() + pending;
    double own = 0.0;
    for (size_t j = 0; j < leaves; ++j) {
      const SlotState s = st[internal + j];
      const PatternLeaf& lt = tbl.leaves[j];
      const double* v = tbl.vals.data() + lt.val_off +
                        static_cast<int64_t>(s.pattern) * lt.unique;
      PrefetchRead(v);
      out[s.rank] = {v, tbl.feats.data() + lt.feat_off, lt.unique};
      own = s.rank == 0
                ? flat.leaf_value(tbl.leaf_begin + static_cast<int32_t>(j))
                : own;
    }
    raw += own;
    pending += leaves;
  }
  AddSlices(window.data(), pending, phi);
  return raw;
}

/// Rows a TreeShap serves on the reference recursion before it builds the
/// tables. The builder visits every (leaf, pattern) pair once and a row
/// visits every leaf once, so the tables pay for themselves once rows
/// served x leaves >= 2 x pattern visits; a TreeShap that explains a row or
/// two never builds them. -1 when the tables would break the caps: a leaf
/// deeper than kPatternDepthCap or over kPatternTableMaxBytes of addends.
int64_t RowsBeforeTables(const gbt::FlatForest& flat) {
  int deepest = 0;
  double pattern_visits = 0.0;
  for (int t = 0; t < flat.num_trees(); ++t) {
    CountPatternVisits(flat, flat.root(t), 0, &deepest, &pattern_visits);
  }
  if (deepest > kPatternDepthCap) return -1;
  // Addends per pattern <= depth, so this bounds the payload from counts
  // already in hand.
  if (pattern_visits * deepest * 8 > kPatternTableMaxBytes) return -1;
  const auto leaves =
      static_cast<double>(std::max<int64_t>(flat.num_leaves(), 1));
  return static_cast<int64_t>(std::ceil(2.0 * pattern_visits / leaves));
}

/// Cover-weighted mean leaf value of one tree.
double TreeExpectedValue(const RegressionTree& tree, int node_index) {
  const TreeNode& node = tree.node(node_index);
  if (node.IsLeaf()) return node.value;
  const double cover = SafeCover(node.cover);
  const double wl = tree.node(node.left).cover / cover;
  const double wr = tree.node(node.right).cover / cover;
  return wl * TreeExpectedValue(tree, node.left) +
         wr * TreeExpectedValue(tree, node.right);
}

}  // namespace

/// The pattern tables of one model, shared by a TreeShap and its copies.
struct TreeShap::PatternCache {
  /// The forest the tables describe; nullptr when the model has none or is
  /// over the caps (then every call runs the reference recursion).
  const gbt::FlatForest* flat = nullptr;
  int64_t rows_before_tables = 0;  ///< See RowsBeforeTables.
  std::atomic<int64_t> rows_served{0};
  std::once_flag once;
  std::vector<PatternTable> tables;
};

TreeShap::TreeShap(const gbt::GbtModel* model)
    : model_(model), tables_(std::make_shared<PatternCache>()) {
  // API contract, not input-reachable: every caller obtains the model from
  // training or a validated LoadFromFile (see the policy in util/logging.h).
  MYSAWH_CHECK(model != nullptr);
  expected_value_ = model->base_score();
  for (const auto& tree : model->trees()) {
    expected_value_ += TreeExpectedValue(tree, 0);
    max_depth_ = std::max(max_depth_, tree.MaxDepth());
  }
  if (const gbt::FlatForest* flat = model->flat_forest()) {
    tables_->rows_before_tables = RowsBeforeTables(*flat);
    if (tables_->rows_before_tables >= 0) tables_->flat = flat;
  }
  const std::vector<std::string>& names = model->feature_names();
  std::vector<int32_t> by_name(names.size());
  std::iota(by_name.begin(), by_name.end(), 0);
  std::stable_sort(by_name.begin(), by_name.end(), [&](int32_t a, int32_t b) {
    return names[static_cast<size_t>(a)] < names[static_cast<size_t>(b)];
  });
  name_rank_.resize(names.size());
  for (size_t i = 0; i < by_name.size(); ++i) {
    name_rank_[static_cast<size_t>(by_name[i])] = static_cast<int32_t>(i);
  }
}

const TreeShap::PatternCache* TreeShap::Tables(int64_t rows) const {
  PatternCache* cache = tables_.get();
  if (cache == nullptr || cache->flat == nullptr) return nullptr;
  // API contract (tree_shap.h): the model is not recompiled or reassigned
  // while this object lives, so the tables index the current forest.
  MYSAWH_CHECK(cache->flat == model_->flat_forest());
  // Count rows until the tables pay; past that point a load suffices.
  if (cache->rows_served.load(std::memory_order_relaxed) <
          cache->rows_before_tables &&
      cache->rows_served.fetch_add(rows, std::memory_order_relaxed) + rows <
          cache->rows_before_tables) {
    return nullptr;
  }
  std::call_once(cache->once, [cache] {
    TraceSpan span("shap.tables", "explain");
    cache->tables = BuildPatternTables(*cache->flat);
    size_t bytes = 0;
    for (const PatternTable& tbl : cache->tables) {
      bytes += tbl.nodes.size() * sizeof(PatternNode) +
               tbl.leaves.size() * sizeof(PatternLeaf) +
               tbl.feats.size() * sizeof(int32_t) +
               tbl.vals.size() * sizeof(double);
    }
    span.Arg("bytes", static_cast<int64_t>(bytes));
  });
  return cache;
}

void TreeShap::AccumulateReference(const double* row, double* phi,
                                   int condition,
                                   int condition_feature) const {
  std::vector<PathElement> workspace(WorkspaceSize(max_depth_));
  for (const auto& tree : model_->trees()) {
    TreeShapRecurse(tree, row, phi, 0, 0, workspace.data(), 1.0, 1.0, -1,
                    condition, condition_feature, 1.0);
  }
}

double TreeShap::ShapRow(const double* row, double* phi,
                         bool want_raw) const {
  if (const PatternCache* cache = Tables(1)) {
    const gbt::FlatForest& flat = *model_->flat_forest();
    // The row's bins live on the stack unless the model is unusually wide.
    constexpr size_t kStackBins = 256;
    uint8_t stack_bins[kStackBins];
    std::vector<uint8_t> heap_bins;
    uint8_t* bins = stack_bins;
    if (static_cast<size_t>(flat.num_features()) > kStackBins) {
      heap_bins.resize(static_cast<size_t>(flat.num_features()));
      bins = heap_bins.data();
    }
    flat.BinRow(row, bins);
    return PatternShapRow(flat, cache->tables, bins, model_->base_score(),
                          phi);
  }
  AccumulateReference(row, phi, /*condition=*/0, /*condition_feature=*/-1);
  return want_raw ? model_->PredictRowRaw(row) : 0.0;
}

std::vector<double> TreeShap::Shap(const double* row) const {
  std::vector<double> phi(static_cast<size_t>(model_->num_features()), 0.0);
  ShapRow(row, phi.data(), /*want_raw=*/false);
  return phi;
}

TreeShap::RowShap TreeShap::ShapWithMargin(const double* row) const {
  RowShap out;
  out.phi.assign(static_cast<size_t>(model_->num_features()), 0.0);
  out.raw_prediction = ShapRow(row, out.phi.data(), /*want_raw=*/true);
  return out;
}

std::vector<double> TreeShap::ShapInteractions(const double* row) const {
  const auto m = static_cast<size_t>(model_->num_features());
  std::vector<double> interactions(m * m, 0.0);
  const std::vector<double> phi = Shap(row);
  std::vector<double> diag = phi;  // main effects start at the full values
  std::vector<double> phi_on(m), phi_off(m);
  for (size_t i = 0; i < m; ++i) {
    std::fill(phi_on.begin(), phi_on.end(), 0.0);
    std::fill(phi_off.begin(), phi_off.end(), 0.0);
    AccumulateReference(row, phi_on.data(), /*condition=*/1,
                        static_cast<int>(i));
    AccumulateReference(row, phi_off.data(), /*condition=*/-1,
                        static_cast<int>(i));
    for (size_t j = 0; j < m; ++j) {
      if (j == i) continue;
      const double pairwise = (phi_on[j] - phi_off[j]) / 2.0;
      interactions[i * m + j] = pairwise;
      diag[i] -= pairwise;
    }
  }
  for (size_t i = 0; i < m; ++i) interactions[i * m + i] = diag[i];
  return interactions;
}

Result<std::vector<std::vector<double>>> TreeShap::ShapBatch(
    const Dataset& data, ThreadPool* pool) const {
  if (data.num_features() != model_->num_features()) {
    return Status::InvalidArgument("ShapBatch: dataset width mismatch");
  }
  const PatternCache* cache = Tables(data.num_rows());
  if (cache == nullptr) return ShapBatchReference(data, pool);
  TraceSpan span("shap.batch", "explain");
  span.Arg("rows", data.num_rows());
  span.Arg("pattern_tables", 1);
  static Counter* const rows_counter =
      MetricsRegistry::Global().GetCounter("shap.batch_rows");
  rows_counter->Increment(data.num_rows());
  static Counter* const table_rows_counter =
      MetricsRegistry::Global().GetCounter("shap.batch_table_rows");
  table_rows_counter->Increment(data.num_rows());
  // Quantize the whole batch once; each row then replays the cached
  // tables (bit-identical — see the pattern-table block above).
  const gbt::FlatForest& flat = *model_->flat_forest();
  const std::vector<uint8_t> bins = flat.BinMatrix(data);
  const auto m = static_cast<size_t>(model_->num_features());
  std::vector<std::vector<double>> out(static_cast<size_t>(data.num_rows()));
  ThreadPool& workers = pool != nullptr ? *pool : DefaultPool();
  workers.ParallelFor(data.num_rows(), [&](int64_t r) {
    std::vector<double> phi(m, 0.0);
    PatternShapRow(flat, cache->tables,
                   bins.data() + static_cast<size_t>(r) * m,
                   model_->base_score(), phi.data());
    out[static_cast<size_t>(r)] = std::move(phi);
  });
  // Audit hook: on the calling thread after the parallel loop, so
  // recording can never perturb the attributions it logs.
  if (core::AuditEnabled()) {
    core::AuditLog::Global().RecordShapBatch(model_->fingerprint(), data, out);
  }
  return out;
}

Result<std::vector<std::vector<double>>> TreeShap::ShapBatchReference(
    const Dataset& data, ThreadPool* pool) const {
  if (data.num_features() != model_->num_features()) {
    return Status::InvalidArgument("ShapBatch: dataset width mismatch");
  }
  TraceSpan span("shap.batch", "explain");
  span.Arg("rows", data.num_rows());
  span.Arg("pattern_tables", 0);
  static Counter* const rows_counter =
      MetricsRegistry::Global().GetCounter("shap.batch_rows");
  rows_counter->Increment(data.num_rows());
  // Each row's attribution is an independent recursion with its own
  // workspace writing its own output slot, so the pool changes nothing
  // about the values — only the wall clock.
  const auto m = static_cast<size_t>(model_->num_features());
  std::vector<std::vector<double>> out(static_cast<size_t>(data.num_rows()));
  ThreadPool& workers = pool != nullptr ? *pool : DefaultPool();
  workers.ParallelFor(data.num_rows(), [&](int64_t r) {
    std::vector<double> phi(m, 0.0);
    AccumulateReference(data.row(r), phi.data(), /*condition=*/0,
                        /*condition_feature=*/-1);
    out[static_cast<size_t>(r)] = std::move(phi);
  });
  if (core::AuditEnabled()) {
    core::AuditLog::Global().RecordShapBatch(model_->fingerprint(), data, out);
  }
  return out;
}

}  // namespace mysawh::explain
