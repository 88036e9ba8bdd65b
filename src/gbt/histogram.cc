#include "gbt/histogram.h"

#include <utility>

namespace mysawh::gbt {

namespace {

/// Fixed chunk size of the deterministic reduction. Independent of the
/// thread count by design: the same chunk boundaries (and therefore the
/// same floating-point association) are used whether chunks run inline or
/// across workers.
constexpr int64_t kHistChunkRows = 2048;

/// Accumulates rows [begin, end) of `rows` into `out` — the single
/// cache-friendly pass: each row's cells are read contiguously and feed
/// all selected features. Per-feature slot base pointers are hoisted so
/// the inner loop is load/add/store per feature.
void AccumulateCells(const HistogramLayout& layout, const BinnedMatrix& binned,
                     std::span<const int64_t> rows,
                     const std::vector<GradientPair>& gpairs, int64_t begin,
                     int64_t end, NodeHistogram* out) {
  const int* feats = layout.features().data();
  const int nf = layout.num_features();
  HistEntry* slots = out->mutable_slots();
  HistEntry* miss = out->mutable_miss();
  std::vector<HistEntry*> bases(static_cast<size_t>(nf));
  for (int fi = 0; fi < nf; ++fi) {
    bases[static_cast<size_t>(fi)] = slots + layout.offset(fi);
  }
  HistEntry** base = bases.data();
  const uint8_t* cells = binned.data();
  const int64_t stride = binned.num_features();
  for (int64_t i = begin; i < end; ++i) {
    const int64_t r = rows[static_cast<size_t>(i)];
    const uint8_t* row_bins = cells + r * stride;
    const double g = gpairs[static_cast<size_t>(r)].grad;
    const double h = gpairs[static_cast<size_t>(r)].hess;
    for (int fi = 0; fi < nf; ++fi) {
      const uint8_t b = row_bins[feats[fi]];
      HistEntry& e =
          b == kMissingBin ? miss[fi] : base[fi][static_cast<int64_t>(b)];
      e.sum_g += g;
      e.sum_h += h;
      ++e.count;
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

NodeHistogram HistogramBuilder::Build(
    const HistogramLayout& layout, std::span<const int64_t> rows,
    const std::vector<GradientPair>& gpairs) const {
  NodeHistogram out(layout);
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
  std::vector<NodeHistogram> partials(static_cast<size_t>(num_chunks));
  auto accumulate_chunk = [&](int64_t chunk, int64_t begin, int64_t end) {
    NodeHistogram& partial = partials[static_cast<size_t>(chunk)];
    partial = NodeHistogram(layout);
    AccumulateCells(layout, *binned_, rows, gpairs, begin, end, &partial);
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
  return out;
}

}  // namespace mysawh::gbt
