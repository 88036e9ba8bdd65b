#ifndef MYSAWH_GBT_HISTOGRAM_H_
#define MYSAWH_GBT_HISTOGRAM_H_

#include <cstdint>
#include <span>
#include <vector>

#include "gbt/binning.h"
#include "gbt/objective.h"
#include "util/thread_pool.h"

namespace mysawh::gbt {

/// Accumulated gradient statistics of one histogram slot (one bin of one
/// feature, or one feature's missing-value bucket).
struct HistEntry {
  double sum_g = 0.0;
  double sum_h = 0.0;
  int64_t count = 0;
};

/// Slot layout of a per-node histogram over a (possibly column-subsampled)
/// feature set: `num_bins(feature)` contiguous slots per selected feature,
/// plus one missing-value slot per selected feature kept in a separate
/// array. The layout is fixed per tree, so parent and child histograms are
/// slot-compatible and support element-wise subtraction.
class HistogramLayout {
 public:
  HistogramLayout() = default;
  /// `features` are dataset feature indices, ascending.
  HistogramLayout(const FeatureBins& bins, std::vector<int> features);

  /// The selected dataset feature indices (ascending).
  const std::vector<int>& features() const { return features_; }
  int num_features() const { return static_cast<int>(features_.size()); }
  /// Total bin slots across all selected features (missing excluded).
  int64_t num_slots() const { return offsets_.empty() ? 0 : offsets_.back(); }
  /// First slot of the i-th selected feature.
  int64_t offset(int i) const { return offsets_[static_cast<size_t>(i)]; }
  /// Bin count of the i-th selected feature.
  int num_bins(int i) const {
    return static_cast<int>(offsets_[static_cast<size_t>(i) + 1] -
                            offsets_[static_cast<size_t>(i)]);
  }

 private:
  std::vector<int> features_;
  std::vector<int64_t> offsets_;  // size features_.size() + 1
};

/// One node's gradient histogram in a given layout.
class NodeHistogram {
 public:
  NodeHistogram() = default;
  explicit NodeHistogram(const HistogramLayout& layout)
      : slots_(static_cast<size_t>(layout.num_slots())),
        miss_(static_cast<size_t>(layout.num_features())) {}

  bool empty() const { return slots_.empty() && miss_.empty(); }

  /// Reshapes this histogram to `layout` and zeroes every slot, keeping
  /// the storage it already has.
  void Reset(const HistogramLayout& layout);

  /// Bin slots of the i-th selected feature (layout.num_bins(i) entries).
  const HistEntry* feature_slots(const HistogramLayout& layout, int i) const {
    return slots_.data() + layout.offset(i);
  }
  /// Missing-value bucket of the i-th selected feature.
  const HistEntry& miss(int i) const {
    return miss_[static_cast<size_t>(i)];
  }

  HistEntry* mutable_slots() { return slots_.data(); }
  HistEntry* mutable_miss() { return miss_.data(); }
  const HistEntry* slots_data() const { return slots_.data(); }
  const HistEntry* miss_data() const { return miss_.data(); }
  int64_t num_slots() const { return static_cast<int64_t>(slots_.size()); }
  int64_t num_miss() const { return static_cast<int64_t>(miss_.size()); }

  /// The sibling-subtraction trick: consumes a parent histogram and returns
  /// `parent - child` slot-wise, so the larger sibling costs O(slots)
  /// instead of a pass over its rows. Both must share one layout.
  static NodeHistogram Subtract(NodeHistogram parent,
                                const NodeHistogram& child);

 private:
  std::vector<HistEntry> slots_;
  std::vector<HistEntry> miss_;
};

/// Builds per-node gradient histograms with a single row-major pass: for
/// each of the node's rows, the row's bins (contiguous in the row-major
/// BinnedMatrix) feed every selected feature's histogram at once, instead
/// of rescanning the node once per feature.
///
/// Rows are partitioned into fixed-size chunks (boundaries depend only on
/// the row count), each chunk is accumulated independently, and the chunk
/// partials are merged in ascending chunk order — so the result is
/// bit-identical for any thread count, including inline execution.
///
/// The builder keeps the histograms handed back through Recycle and builds
/// into their storage instead of allocating. It holds no more of them than
/// its caller once held at the same time (a tree's trainer: about one per
/// level). It is not thread-safe: one training run owns one builder.
class HistogramBuilder {
 public:
  /// `bins` and `binned` must outlive the builder. `pool` may be null for
  /// strictly inline execution.
  HistogramBuilder(const FeatureBins& bins, const BinnedMatrix& binned,
                   ThreadPool* pool)
      : bins_(&bins), binned_(&binned), pool_(pool) {}

  /// Accumulates the histogram of `rows` for every feature in `layout`.
  NodeHistogram Build(const HistogramLayout& layout,
                      std::span<const int64_t> rows,
                      const std::vector<GradientPair>& gpairs);

  /// Hands a histogram that is no longer needed back for reuse.
  void Recycle(NodeHistogram hist);

 private:
  /// A zeroed histogram in `layout`, in recycled storage when there is any.
  NodeHistogram Take(const HistogramLayout& layout);

  const FeatureBins* bins_;
  const BinnedMatrix* binned_;
  ThreadPool* pool_;
  std::vector<NodeHistogram> free_;
};

}  // namespace mysawh::gbt

#endif  // MYSAWH_GBT_HISTOGRAM_H_
