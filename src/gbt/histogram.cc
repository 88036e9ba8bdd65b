#include "gbt/histogram.h"

#include <algorithm>
#include <cstring>
#include <type_traits>
#include <utility>

namespace mysawh::gbt {

namespace {

/// Fixed chunk size of the deterministic reduction. Independent of the
/// thread count by design: the same chunk boundaries (and therefore the
/// same floating-point association) are used whether chunks run inline or
/// across workers.
constexpr int64_t kHistChunkRows = 2048;

/// Features per pass of AccumulateCells: their slot base pointers fit a
/// fixed array. The study's nodes have at most 60 features, one pass.
constexpr int kFeatureBlock = 64;

/// Accumulates rows [begin, end) of `rows` into `out` — the single
/// cache-friendly pass: each row's cells are read contiguously and feed
/// all selected features. Per-feature slot base pointers are hoisted so
/// the inner loop is load/add/store per feature. Rows go in pairs: the two
/// rows' updates of one feature are independent unless they hit the same
/// slot, and then the earlier row's add lands first, so every slot still
/// sums its rows in ascending order. A slot belongs to one feature, so the
/// feature blocks do not reorder any slot's adds either.
void AccumulateCells(const HistogramLayout& layout, const BinnedMatrix& binned,
                     std::span<const int64_t> rows,
                     const std::vector<GradientPair>& gpairs, int64_t begin,
                     int64_t end, NodeHistogram* out) {
  const uint8_t* cells = binned.data();
  const int64_t stride = binned.num_features();
  const GradientPair* gp = gpairs.data();
  // One cell: into its bin, or into the feature's missing bucket.
  const auto add = [](HistEntry* bins, HistEntry& missing, uint8_t b,
                      const GradientPair& p) {
    HistEntry& e = b == kMissingBin ? missing : bins[b];
    e.sum_g += p.grad;
    e.sum_h += p.hess;
    ++e.count;
  };
  for (int f0 = 0; f0 < layout.num_features(); f0 += kFeatureBlock) {
    const int nf = std::min(kFeatureBlock, layout.num_features() - f0);
    const int* feats = layout.features().data() + f0;
    HistEntry* miss = out->mutable_miss() + f0;
    HistEntry* base[kFeatureBlock];
    for (int fi = 0; fi < nf; ++fi) {
      base[fi] = out->mutable_slots() + layout.offset(f0 + fi);
    }
    int64_t i = begin;
    for (; i + 1 < end; i += 2) {
      const int64_t r0 = rows[static_cast<size_t>(i)];
      const int64_t r1 = rows[static_cast<size_t>(i) + 1];
      const uint8_t* row0 = cells + r0 * stride;
      const uint8_t* row1 = cells + r1 * stride;
      const GradientPair p0 = gp[r0];
      const GradientPair p1 = gp[r1];
      for (int fi = 0; fi < nf; ++fi) {
        add(base[fi], miss[fi], row0[feats[fi]], p0);
        add(base[fi], miss[fi], row1[feats[fi]], p1);
      }
    }
    if (i < end) {
      const int64_t r = rows[static_cast<size_t>(i)];
      const uint8_t* row = cells + r * stride;
      for (int fi = 0; fi < nf; ++fi) {
        add(base[fi], miss[fi], row[feats[fi]], gp[r]);
      }
    }
  }
}

}  // namespace

HistogramLayout::HistogramLayout(const FeatureBins& bins,
                                 std::vector<int> features)
    : features_(std::move(features)) {
  offsets_.reserve(features_.size() + 1);
  offsets_.push_back(0);
  for (int f : features_) {
    offsets_.push_back(offsets_.back() + bins.num_bins(f));
  }
}

void NodeHistogram::Reset(const HistogramLayout& layout) {
  slots_.resize(static_cast<size_t>(layout.num_slots()));
  miss_.resize(static_cast<size_t>(layout.num_features()));
  // All-zero bytes are HistEntry{}: 0.0, 0.0, 0.
  static_assert(std::is_trivially_copyable_v<HistEntry>);
  std::memset(static_cast<void*>(slots_.data()), 0,
              slots_.size() * sizeof(HistEntry));
  std::memset(static_cast<void*>(miss_.data()), 0,
              miss_.size() * sizeof(HistEntry));
}

NodeHistogram NodeHistogram::Subtract(NodeHistogram parent,
                                      const NodeHistogram& child) {
  HistEntry* ps = parent.mutable_slots();
  const HistEntry* cs = child.slots_.data();
  for (int64_t i = 0; i < parent.num_slots(); ++i) {
    ps[i].sum_g -= cs[i].sum_g;
    ps[i].sum_h -= cs[i].sum_h;
    ps[i].count -= cs[i].count;
  }
  HistEntry* pm = parent.mutable_miss();
  const HistEntry* cm = child.miss_.data();
  for (int64_t i = 0; i < parent.num_miss(); ++i) {
    pm[i].sum_g -= cm[i].sum_g;
    pm[i].sum_h -= cm[i].sum_h;
    pm[i].count -= cm[i].count;
  }
  return parent;
}

NodeHistogram HistogramBuilder::Take(const HistogramLayout& layout) {
  NodeHistogram hist;
  if (!free_.empty()) {
    hist = std::move(free_.back());
    free_.pop_back();
  }
  hist.Reset(layout);
  return hist;
}

void HistogramBuilder::Recycle(NodeHistogram hist) {
  if (!hist.empty()) free_.push_back(std::move(hist));
}

NodeHistogram HistogramBuilder::Build(
    const HistogramLayout& layout, std::span<const int64_t> rows,
    const std::vector<GradientPair>& gpairs) {
  NodeHistogram out = Take(layout);
  const auto n = static_cast<int64_t>(rows.size());
  if (n == 0) return out;
  if (n <= kHistChunkRows) {
    AccumulateCells(layout, *binned_, rows, gpairs, 0, n, &out);
    return out;
  }
  // Fixed-boundary chunk partials, merged in ascending chunk order. The
  // association of floating-point adds depends only on n, never on the
  // worker count, so models are bit-identical for any num_threads.
  const int64_t num_chunks = (n + kHistChunkRows - 1) / kHistChunkRows;
  // The partials are taken here, on the calling thread: the free list is
  // not shared with the pool's workers.
  std::vector<NodeHistogram> partials(static_cast<size_t>(num_chunks));
  for (NodeHistogram& partial : partials) partial = Take(layout);
  auto accumulate_chunk = [&](int64_t chunk, int64_t begin, int64_t end) {
    AccumulateCells(layout, *binned_, rows, gpairs, begin, end,
                    &partials[static_cast<size_t>(chunk)]);
  };
  auto merge_slot = [&](HistEntry* dst, int64_t slot, bool missing) {
    for (const NodeHistogram& partial : partials) {
      const HistEntry& src = missing ? partial.miss_data()[slot]
                                     : partial.slots_data()[slot];
      dst->sum_g += src.sum_g;
      dst->sum_h += src.sum_h;
      dst->count += src.count;
    }
  };
  const int64_t num_slots = out.num_slots();
  const int64_t num_miss = out.num_miss();
  auto merge_all = [&](int64_t i) {
    if (i < num_slots) {
      merge_slot(out.mutable_slots() + i, i, /*missing=*/false);
    } else {
      merge_slot(out.mutable_miss() + (i - num_slots), i - num_slots,
                 /*missing=*/true);
    }
  };
  if (pool_ == nullptr) {
    int64_t chunk = 0;
    for (int64_t begin = 0; begin < n; begin += kHistChunkRows, ++chunk) {
      accumulate_chunk(chunk, begin, std::min(begin + kHistChunkRows, n));
    }
    for (int64_t i = 0; i < num_slots + num_miss; ++i) merge_all(i);
  } else {
    pool_->ParallelForChunks(n, kHistChunkRows, accumulate_chunk);
    pool_->ParallelFor(num_slots + num_miss, merge_all);
  }
  for (NodeHistogram& partial : partials) Recycle(std::move(partial));
  return out;
}

}  // namespace mysawh::gbt
