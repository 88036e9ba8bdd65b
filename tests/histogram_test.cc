/// Tests of the single-pass histogram pipeline: sibling subtraction must
/// reproduce a directly built histogram, the chunked parallel reduction
/// must match inline accumulation, paired-row accumulation and reused
/// buffers must match a one-row-at-a-time reference, hist split decisions
/// must be unchanged relative to a straightforward per-feature boundary
/// scan, and both compiled copies of the split scan must pick the split
/// the generic ConsiderSplit scan picks.

#include "gbt/histogram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "gbt/binning.h"
#include "gbt/gbt_model.h"
#include "gbt/trainer.h"
#include "util/thread_pool.h"

namespace mysawh::gbt {

/// Reaches the trainer's split scans directly: the baseline and AVX2
/// copies of the unconstrained scan, and the generic ConsiderSplit scan.
class TrainerTestPeer {
 public:
  using Candidate = Trainer::SplitCandidate;

  /// A trainer over `data` with its bins built, as Run builds them.
  static std::unique_ptr<Trainer> Make(const Dataset& data,
                                       const GbtParams& params) {
    auto trainer = std::make_unique<Trainer>(data, params);
    trainer->bins_ = FeatureBins::Build(data, params.max_bins).value();
    return trainer;
  }
  static const FeatureBins& Bins(const Trainer& trainer) {
    return trainer.bins_;
  }

  /// `slots` holds the feature's bins; the parent is their sum plus `miss`.
  static Candidate Baseline(const Trainer& trainer, int feature,
                            const std::vector<HistEntry>& slots,
                            const HistEntry& miss) {
    return trainer.FindSplitHistBaseline(Scan(trainer, feature, slots, miss));
  }
#if MYSAWH_SPLIT_SCAN_AVX2
  static Candidate Avx2(const Trainer& trainer, int feature,
                        const std::vector<HistEntry>& slots,
                        const HistEntry& miss) {
    return trainer.FindSplitHistAvx2(Scan(trainer, feature, slots, miss));
  }
#endif
  /// The generic path: FindSplitHist on a trainer whose (all-zero)
  /// monotone constraints route it through ConsiderSplit.
  static Candidate Generic(const Trainer& trainer, int feature,
                           const std::vector<HistEntry>& slots,
                           const HistEntry& miss) {
    EXPECT_FALSE(trainer.params_.monotone_constraints.empty());
    const HistogramLayout layout(trainer.bins_, {feature});
    NodeHistogram hist(layout);
    std::copy(slots.begin(), slots.end(), hist.mutable_slots());
    hist.mutable_miss()[0] = miss;
    const double inf = std::numeric_limits<double>::infinity();
    return trainer.FindSplitHist(0, layout, hist,
                                 Parent(slots, miss), {-inf, inf});
  }

 private:
  static Trainer::NodeStats Parent(const std::vector<HistEntry>& slots,
                                   const HistEntry& miss) {
    Trainer::NodeStats parent{miss.sum_g, miss.sum_h, miss.count};
    for (const HistEntry& e : slots) {
      parent.sum_g += e.sum_g;
      parent.sum_h += e.sum_h;
      parent.count += e.count;
    }
    return parent;
  }
  static Trainer::BoundaryScan Scan(const Trainer& trainer, int feature,
                                    const std::vector<HistEntry>& slots,
                                    const HistEntry& miss) {
    EXPECT_EQ(static_cast<int>(slots.size()),
              trainer.bins_.num_bins(feature));
    const Trainer::NodeStats parent = Parent(slots, miss);
    return {feature,
            static_cast<int>(slots.size()),
            slots.data(),
            {miss.sum_g, miss.sum_h, miss.count},
            parent,
            trainer.ScoreFn(parent.sum_g, parent.sum_h),
            parent.count - miss.count};
  }
};

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Fixture with ~12% missing cells. Labels are small integers so every
/// gradient sum is exactly representable and bit-equality assertions are
/// meaningful regardless of accumulation order.
Dataset MakeData(int64_t rows) {
  Dataset ds = Dataset::Create({"a", "b", "c", "d"});
  uint64_t state = 7;
  auto next = [&state]() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 11;
  };
  for (int64_t r = 0; r < rows; ++r) {
    std::vector<double> x(4);
    for (auto& v : x) {
      const uint64_t u = next();
      v = (u % 100) < 12 ? kNaN : static_cast<double>(u % 997);
    }
    const double y = static_cast<double>(next() % 17) - 8.0;
    EXPECT_TRUE(ds.AddRow(x, y).ok());
  }
  return ds;
}

/// Integer-valued gradients (hessian 1), exactly representable.
std::vector<GradientPair> MakeGpairs(const Dataset& data) {
  std::vector<GradientPair> gpairs;
  gpairs.reserve(static_cast<size_t>(data.num_rows()));
  for (int64_t r = 0; r < data.num_rows(); ++r) {
    gpairs.push_back({-data.label(r), 1.0});
  }
  return gpairs;
}

TEST(HistogramTest, SiblingSubtractionMatchesDirectBuild) {
  const Dataset data = MakeData(3000);
  const BinnedData binned = BuildBinned(data, 64, nullptr).value();
  const std::vector<GradientPair> gpairs = MakeGpairs(data);
  HistogramBuilder builder(binned.bins, binned.matrix, nullptr);
  const HistogramLayout layout(binned.bins, {0, 1, 2, 3});

  std::vector<int64_t> all, left, right;
  for (int64_t r = 0; r < data.num_rows(); ++r) {
    all.push_back(r);
    (r % 3 == 0 ? left : right).push_back(r);
  }
  const NodeHistogram parent = builder.Build(layout, all, gpairs);
  const NodeHistogram left_direct = builder.Build(layout, left, gpairs);
  const NodeHistogram right_direct = builder.Build(layout, right, gpairs);
  const NodeHistogram subtracted = NodeHistogram::Subtract(parent, left_direct);

  ASSERT_EQ(subtracted.num_slots(), right_direct.num_slots());
  for (int64_t i = 0; i < subtracted.num_slots(); ++i) {
    EXPECT_EQ(subtracted.slots_data()[i].sum_g, right_direct.slots_data()[i].sum_g);
    EXPECT_EQ(subtracted.slots_data()[i].sum_h, right_direct.slots_data()[i].sum_h);
    EXPECT_EQ(subtracted.slots_data()[i].count, right_direct.slots_data()[i].count);
  }
  ASSERT_EQ(subtracted.num_miss(), right_direct.num_miss());
  for (int64_t i = 0; i < subtracted.num_miss(); ++i) {
    EXPECT_EQ(subtracted.miss_data()[i].sum_g, right_direct.miss_data()[i].sum_g);
    EXPECT_EQ(subtracted.miss_data()[i].count, right_direct.miss_data()[i].count);
  }
}

TEST(HistogramTest, ParallelBuildMatchesInlineBuild) {
  const Dataset data = MakeData(5000);  // several 2048-row chunks
  const BinnedData binned = BuildBinned(data, 64, nullptr).value();
  const std::vector<GradientPair> gpairs = MakeGpairs(data);
  const HistogramLayout layout(binned.bins, {0, 1, 2, 3});
  std::vector<int64_t> rows;
  for (int64_t r = 0; r < data.num_rows(); ++r) rows.push_back(r);

  HistogramBuilder inline_builder(binned.bins, binned.matrix, nullptr);
  const NodeHistogram a = inline_builder.Build(layout, rows, gpairs);
  ThreadPool pool(4);
  HistogramBuilder pooled(binned.bins, binned.matrix, &pool);
  const NodeHistogram b = pooled.Build(layout, rows, gpairs);

  ASSERT_EQ(a.num_slots(), b.num_slots());
  for (int64_t i = 0; i < a.num_slots(); ++i) {
    EXPECT_EQ(a.slots_data()[i].sum_g, b.slots_data()[i].sum_g);
    EXPECT_EQ(a.slots_data()[i].sum_h, b.slots_data()[i].sum_h);
    EXPECT_EQ(a.slots_data()[i].count, b.slots_data()[i].count);
  }
  for (int64_t i = 0; i < a.num_miss(); ++i) {
    EXPECT_EQ(a.miss_data()[i].sum_g, b.miss_data()[i].sum_g);
    EXPECT_EQ(a.miss_data()[i].count, b.miss_data()[i].count);
  }
}

/// The best root split of one feature found by the pre-refactor style
/// single-feature scan: accumulate the feature's bins in ascending order
/// and evaluate each occupied boundary with missing routed either way,
/// using the trainer's exact gain formula and tie-breaks.
struct RefSplit {
  bool valid = false;
  int feature = -1;
  double threshold = 0.0;
  bool default_left = true;
  double gain = 0.0;
};

void RefScanFeature(const Dataset& data, const FeatureBins& bins, int feature,
                    const std::vector<GradientPair>& gpairs, double lambda,
                    RefSplit* best) {
  const int nb = bins.num_bins(feature);
  std::vector<HistEntry> slots(static_cast<size_t>(nb));
  HistEntry miss;
  double parent_g = 0.0, parent_h = 0.0;
  int64_t parent_c = 0;
  for (int64_t r = 0; r < data.num_rows(); ++r) {
    const uint8_t b = bins.BinFor(feature, data.At(r, feature));
    HistEntry& e = b == kMissingBin ? miss : slots[b];
    e.sum_g += gpairs[static_cast<size_t>(r)].grad;
    e.sum_h += gpairs[static_cast<size_t>(r)].hess;
    ++e.count;
    parent_g += gpairs[static_cast<size_t>(r)].grad;
    parent_h += gpairs[static_cast<size_t>(r)].hess;
    ++parent_c;
  }
  auto score = [lambda](double g, double h) { return g * g / (h + lambda); };
  const double parent_score = score(parent_g, parent_h);
  const int64_t present = parent_c - miss.count;
  double acc_g = 0.0, acc_h = 0.0;
  int64_t acc_c = 0;
  for (int b = 0; b + 1 < nb; ++b) {
    acc_g += slots[static_cast<size_t>(b)].sum_g;
    acc_h += slots[static_cast<size_t>(b)].sum_h;
    acc_c += slots[static_cast<size_t>(b)].count;
    if (slots[static_cast<size_t>(b)].count == 0) continue;
    const double threshold = bins.cut(feature, b);
    const double rg = parent_g - miss.sum_g - acc_g;
    const double rh = parent_h - miss.sum_h - acc_h;
    const int64_t rc = parent_c - miss.count - acc_c;
    for (const bool miss_left : {true, false}) {
      if (!miss_left && miss.count == 0) break;
      const double gl = acc_g + (miss_left ? miss.sum_g : 0.0);
      const double hl = acc_h + (miss_left ? miss.sum_h : 0.0);
      const int64_t cl = acc_c + (miss_left ? miss.count : 0);
      const double gr = rg + (miss_left ? 0.0 : miss.sum_g);
      const double hr = rh + (miss_left ? 0.0 : miss.sum_h);
      const int64_t cr = rc + (miss_left ? 0 : miss.count);
      if (cl < 1 || cr < 1 || hl < 1.0 || hr < 1.0) continue;
      const double gain = 0.5 * (score(gl, hl) + score(gr, hr) - parent_score);
      if (gain <= 1e-10) continue;
      const bool better =
          !best->valid || gain > best->gain ||
          (gain == best->gain &&
           (feature < best->feature ||
            (feature == best->feature && threshold < best->threshold)));
      if (better) {
        best->valid = true;
        best->feature = feature;
        best->threshold = threshold;
        best->default_left = miss_left;
        best->gain = gain;
      }
    }
    if (acc_c == present) break;
  }
}

TEST(HistogramTest, HistSplitDecisionMatchesReferenceScan) {
  const Dataset data = MakeData(2500);
  // Exact gradients: base_score 0 and squared error make the root
  // gradient of row r equal to -label(r), an integer.
  GbtParams params;
  params.num_trees = 1;
  params.max_depth = 1;
  params.learning_rate = 1.0;
  params.base_score = 0.0;
  const GbtModel model = GbtModel::Train(data, params).value();
  ASSERT_EQ(model.trees().size(), 1u);
  const RegressionTree& tree = model.trees()[0];
  ASSERT_EQ(tree.num_nodes(), 3);
  const TreeNode& root = tree.node(0);

  const FeatureBins bins = FeatureBins::Build(data, params.max_bins).value();
  const std::vector<GradientPair> gpairs = MakeGpairs(data);
  RefSplit ref;
  for (int f = 0; f < 4; ++f) {
    RefScanFeature(data, bins, f, gpairs, params.reg_lambda, &ref);
  }
  ASSERT_TRUE(ref.valid);
  EXPECT_EQ(root.feature, ref.feature);
  EXPECT_DOUBLE_EQ(root.threshold, ref.threshold);
  EXPECT_EQ(root.default_left, ref.default_left);
  EXPECT_DOUBLE_EQ(root.gain, ref.gain);
}

/// Deterministic generator for synthetic histograms and gradients.
struct Lcg {
  uint64_t state;
  uint64_t Next() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 11;
  }
  /// Uniform in [0, 1) with all 53 mantissa bits random, so sums of
  /// these round and their value depends on the order of the adds.
  double Uniform() { return static_cast<double>(Next()) * 0x1.0p-53; }
  int Below(int n) { return static_cast<int>(Next() % static_cast<uint64_t>(n)); }
};

void ExpectSameHistogram(const NodeHistogram& a, const NodeHistogram& b) {
  ASSERT_EQ(a.num_slots(), b.num_slots());
  ASSERT_EQ(a.num_miss(), b.num_miss());
  const auto same = [](const HistEntry& x, const HistEntry& y) {
    return std::bit_cast<uint64_t>(x.sum_g) == std::bit_cast<uint64_t>(y.sum_g) &&
           std::bit_cast<uint64_t>(x.sum_h) == std::bit_cast<uint64_t>(y.sum_h) &&
           x.count == y.count;
  };
  for (int64_t i = 0; i < a.num_slots(); ++i) {
    EXPECT_TRUE(same(a.slots_data()[i], b.slots_data()[i])) << "slot " << i;
  }
  for (int64_t i = 0; i < a.num_miss(); ++i) {
    EXPECT_TRUE(same(a.miss_data()[i], b.miss_data()[i])) << "miss " << i;
  }
}

/// Four features: three distinct values (so paired rows often share a
/// slot), 200 distinct values, all missing, and 30% missing.
Dataset MakeAccumulateData(int64_t rows) {
  Dataset ds = Dataset::Create({"few", "many", "all_missing", "some_missing"});
  Lcg rng{11};
  for (int64_t r = 0; r < rows; ++r) {
    const double few = static_cast<double>(rng.Below(3));
    const double many = static_cast<double>(rng.Below(200));
    const double some = rng.Below(10) < 3 ? kNaN : static_cast<double>(rng.Below(40));
    EXPECT_TRUE(ds.AddRow({few, many, kNaN, some}, 0.0).ok());
  }
  return ds;
}

/// Non-integer gradients, so a slot's sum depends on its add order.
std::vector<GradientPair> MakeInexactGpairs(int64_t rows) {
  Lcg rng{5};
  std::vector<GradientPair> gpairs(static_cast<size_t>(rows));
  for (GradientPair& gp : gpairs) gp = {rng.Uniform() * 6.0 - 3.0, rng.Uniform()};
  return gpairs;
}

/// HistogramBuilder::Build one row at a time: rows in order, each feature's
/// slot += the row's pair. Above 2048 rows (the builder's fixed chunk)
/// the per-chunk partials are summed into a zeroed histogram in chunk
/// order, as Build merges them.
NodeHistogram ReferenceBuild(const HistogramLayout& layout,
                             const BinnedMatrix& binned,
                             const std::vector<int64_t>& rows,
                             const std::vector<GradientPair>& gpairs) {
  constexpr size_t kChunk = 2048;
  const auto accumulate = [&](size_t begin, size_t end, NodeHistogram* out) {
    for (size_t i = begin; i < end; ++i) {
      const GradientPair& gp = gpairs[static_cast<size_t>(rows[i])];
      for (int fi = 0; fi < layout.num_features(); ++fi) {
        const uint8_t b = binned.At(rows[i], layout.features()[static_cast<size_t>(fi)]);
        HistEntry& e = b == kMissingBin ? out->mutable_miss()[fi]
                                        : out->mutable_slots()[layout.offset(fi) + b];
        e.sum_g += gp.grad;
        e.sum_h += gp.hess;
        ++e.count;
      }
    }
  };
  NodeHistogram out(layout);
  if (rows.size() <= kChunk) {
    accumulate(0, rows.size(), &out);
    return out;
  }
  for (size_t begin = 0; begin < rows.size(); begin += kChunk) {
    NodeHistogram partial(layout);
    accumulate(begin, std::min(begin + kChunk, rows.size()), &partial);
    const auto merge = [](HistEntry* dst, const HistEntry* src, int64_t n) {
      for (int64_t i = 0; i < n; ++i) {
        dst[i].sum_g += src[i].sum_g;
        dst[i].sum_h += src[i].sum_h;
        dst[i].count += src[i].count;
      }
    };
    merge(out.mutable_slots(), partial.slots_data(), out.num_slots());
    merge(out.mutable_miss(), partial.miss_data(), out.num_miss());
  }
  return out;
}

TEST(HistogramTest, PairedAccumulationMatchesRowByRowReference) {
  const Dataset data = MakeAccumulateData(2400);
  const BinnedData binned = BuildBinned(data, 64, nullptr).value();
  const std::vector<GradientPair> gpairs = MakeInexactGpairs(data.num_rows());
  const HistogramLayout layout(binned.bins, {0, 1, 2, 3});
  const HistogramLayout all_missing(binned.bins, {2});
  // An ascending subset with gaps, as a node's rows are.
  std::vector<int64_t> subset;
  for (int64_t r = 0; r < data.num_rows(); ++r) {
    if (r % 7 != 3) subset.push_back(r);
  }
  ThreadPool pool(2);
  HistogramBuilder inline_builder(binned.bins, binned.matrix, nullptr);
  HistogramBuilder pooled(binned.bins, binned.matrix, &pool);
  for (const size_t n : {0, 1, 2, 3, 2047, 2048, 2049}) {
    SCOPED_TRACE(n);
    ASSERT_LE(n, subset.size());
    const std::vector<int64_t> rows(subset.begin(), subset.begin() + n);
    for (const HistogramLayout* l : {&layout, &all_missing}) {
      const NodeHistogram expected = ReferenceBuild(*l, binned.matrix, rows, gpairs);
      ExpectSameHistogram(inline_builder.Build(*l, rows, gpairs), expected);
      ExpectSameHistogram(pooled.Build(*l, rows, gpairs), expected);
    }
  }
  // The all-missing feature sends every row to its missing bucket.
  const NodeHistogram hist = inline_builder.Build(all_missing, subset, gpairs);
  EXPECT_EQ(hist.miss(0).count, static_cast<int64_t>(subset.size()));
}

TEST(HistogramTest, ReusedBufferMatchesFreshBuild) {
  const Dataset data = MakeAccumulateData(2000);
  const BinnedData binned = BuildBinned(data, 64, nullptr).value();
  const std::vector<GradientPair> gpairs = MakeInexactGpairs(data.num_rows());
  const HistogramLayout wide(binned.bins, {0, 1, 2, 3});
  const HistogramLayout narrow(binned.bins, {0, 3});
  std::vector<int64_t> all, odd, some;
  for (int64_t r = 0; r < data.num_rows(); ++r) {
    all.push_back(r);
    if (r % 2 == 1) odd.push_back(r);
    if (r % 5 == 0) some.push_back(r);
  }
  HistogramBuilder fresh(binned.bins, binned.matrix, nullptr);
  HistogramBuilder reusing(binned.bins, binned.matrix, nullptr);

  // A larger node in a wider layout, then a smaller, different node.
  NodeHistogram larger = reusing.Build(wide, all, gpairs);
  const HistEntry* storage = larger.slots_data();
  reusing.Recycle(std::move(larger));
  const NodeHistogram smaller = reusing.Build(narrow, odd, gpairs);
  EXPECT_EQ(smaller.slots_data(), storage) << "the recycled buffer was not reused";
  ExpectSameHistogram(smaller, fresh.Build(narrow, odd, gpairs));

  // Growing a recycled buffer back to the wider layout.
  reusing.Recycle(NodeHistogram(smaller));
  ExpectSameHistogram(reusing.Build(wide, some, gpairs),
                      fresh.Build(wide, some, gpairs));
}

using Candidate = TrainerTestPeer::Candidate;

void ExpectSameCandidate(const Candidate& a, const Candidate& b) {
  ASSERT_EQ(a.valid, b.valid);
  if (!a.valid) return;
  EXPECT_EQ(a.feature, b.feature);
  EXPECT_EQ(a.bin, b.bin);
  EXPECT_EQ(a.threshold, b.threshold);
  EXPECT_EQ(a.default_left, b.default_left);
  EXPECT_EQ(std::bit_cast<uint64_t>(a.gain), std::bit_cast<uint64_t>(b.gain));
  EXPECT_EQ(std::bit_cast<uint64_t>(a.weight_left),
            std::bit_cast<uint64_t>(b.weight_left));
  EXPECT_EQ(std::bit_cast<uint64_t>(a.weight_right),
            std::bit_cast<uint64_t>(b.weight_right));
}

/// Bins for the scan tests: 64, 5 and 30 bins.
Dataset MakeScanData() {
  Dataset ds = Dataset::Create({"wide", "narrow", "mid"});
  for (int r = 0; r < 400; ++r) {
    EXPECT_TRUE(ds.AddRow({static_cast<double>(r), static_cast<double>(r % 5),
                           static_cast<double>(r % 30)},
                          0.0)
                    .ok());
  }
  return ds;
}

enum class Shape { kRandom, kTies, kNoMissing, kNoGain, kEarlyPresent };

/// A synthetic feature histogram of `nb` bins and its missing bucket.
std::vector<HistEntry> MakeSlots(int nb, Shape shape, Lcg* rng,
                                 HistEntry* miss) {
  std::vector<HistEntry> slots(static_cast<size_t>(nb));
  const int used = shape == Shape::kEarlyPresent ? std::max(1, nb / 3) : nb;
  for (int b = 0; b < used; ++b) {
    HistEntry& e = slots[static_cast<size_t>(b)];
    if (shape == Shape::kTies) {
      // Small integers: equal gains at several boundaries are common.
      e.count = rng->Below(3);
      e.sum_h = static_cast<double>(e.count);
      e.sum_g = e.count == 0 ? 0.0 : static_cast<double>(rng->Below(5) - 2);
      continue;
    }
    if (rng->Below(10) < 3) {
      // Empty; now and then with the rounding residue a subtracted
      // histogram can leave.
      if (rng->Below(10) == 0) e.sum_g = 1e-13;
      continue;
    }
    e.count = 1 + rng->Below(20);
    e.sum_h = static_cast<double>(e.count) * (0.1 + rng->Uniform());
    e.sum_g = shape == Shape::kNoGain
                  ? 0.0
                  : (rng->Uniform() * 10.0 - 5.0) * static_cast<double>(e.count);
  }
  *miss = HistEntry{};
  if (shape == Shape::kNoMissing || rng->Below(4) == 0) return slots;
  if (shape == Shape::kTies) {
    miss->count = 1 + rng->Below(3);
    // A missing bucket without gradient mass: both directions tie.
    const bool massless = rng->Below(3) == 0;
    miss->sum_h = massless ? 0.0 : static_cast<double>(miss->count);
    miss->sum_g = massless ? 0.0 : static_cast<double>(rng->Below(5) - 2);
    return slots;
  }
  miss->count = 1 + rng->Below(30);
  miss->sum_h = static_cast<double>(miss->count) * (0.1 + rng->Uniform());
  miss->sum_g = shape == Shape::kNoGain
                    ? 0.0
                    : (rng->Uniform() * 10.0 - 5.0) * static_cast<double>(miss->count);
  return slots;
}

/// Parameter sets for the scan tests: the defaults, and one with every
/// regularizer and leaf limit active.
std::vector<GbtParams> ScanParams() {
  GbtParams plain;
  GbtParams regularized;
  regularized.reg_alpha = 0.5;
  regularized.reg_lambda = 0.3;
  regularized.gamma = 0.2;
  regularized.min_samples_leaf = 3;
  regularized.min_child_weight = 0.5;
  return {plain, regularized};
}

/// Runs `check(fast, generic, feature, slots, miss)` over every shape,
/// parameter set and feature, with `fast` unconstrained and `generic`
/// carrying all-zero monotone constraints.
template <typename Check>
void ForEachScanCase(Check check) {
  const Dataset data = MakeScanData();
  for (GbtParams params : ScanParams()) {
    const auto fast = TrainerTestPeer::Make(data, params);
    params.monotone_constraints.assign(3, 0);
    const auto generic = TrainerTestPeer::Make(data, params);
    Lcg rng{3};
    for (const Shape shape : {Shape::kRandom, Shape::kTies, Shape::kNoMissing,
                              Shape::kNoGain, Shape::kEarlyPresent}) {
      SCOPED_TRACE(static_cast<int>(shape));
      for (int iter = 0; iter < 300; ++iter) {
        for (int feature = 0; feature < 3; ++feature) {
          HistEntry miss;
          const std::vector<HistEntry> slots = MakeSlots(
              TrainerTestPeer::Bins(*fast).num_bins(feature), shape, &rng, &miss);
          check(*fast, *generic, feature, slots, miss, shape);
        }
      }
    }
  }
}

TEST(SplitScanTest, BaselineMatchesGenericScan) {
  int valid = 0;
  ForEachScanCase([&](const Trainer& fast, const Trainer& generic, int feature,
                      const std::vector<HistEntry>& slots,
                      const HistEntry& miss, Shape shape) {
    const Candidate base = TrainerTestPeer::Baseline(fast, feature, slots, miss);
    ExpectSameCandidate(base, TrainerTestPeer::Generic(generic, feature, slots, miss));
    if (shape == Shape::kNoGain) {
      EXPECT_FALSE(base.valid);
    }
    valid += base.valid ? 1 : 0;
  });
  EXPECT_GT(valid, 1000);  // the fixtures mostly have a split to find
}

TEST(SplitScanTest, Avx2MatchesBaseline) {
#if MYSAWH_SPLIT_SCAN_AVX2
  if (!__builtin_cpu_supports("avx2")) GTEST_SKIP() << "host has no AVX2";
  EXPECT_STREQ(SplitKernelName(), "avx2");
  ForEachScanCase([](const Trainer& fast, const Trainer& generic, int feature,
                     const std::vector<HistEntry>& slots,
                     const HistEntry& miss, Shape) {
    const Candidate avx2 = TrainerTestPeer::Avx2(fast, feature, slots, miss);
    ExpectSameCandidate(avx2, TrainerTestPeer::Baseline(fast, feature, slots, miss));
    ExpectSameCandidate(avx2, TrainerTestPeer::Generic(generic, feature, slots, miss));
  });
#else
  GTEST_SKIP() << "this build has no AVX2 copy of the scan";
#endif
}

TEST(SplitScanTest, TiesPickFirstBinAndMissingLeft) {
  // Feature 1 has five bins. Boundaries 0, 1 and 2 leave the same gradient
  // sums on each side (bins 1 and 2 hold rows without gradient mass), and
  // the massless missing bucket scores the same either way: the scan must
  // keep bin 0 with missing going left, as ConsiderSplit does.
  const Dataset data = MakeScanData();
  GbtParams params;
  const auto fast = TrainerTestPeer::Make(data, params);
  params.monotone_constraints.assign(3, 0);
  const auto generic = TrainerTestPeer::Make(data, params);
  const std::vector<HistEntry> slots = {
      {4.0, 2.0, 2}, {0.0, 0.0, 1}, {0.0, 0.0, 1}, {-4.0, 2.0, 2}, {}};
  const HistEntry miss{0.0, 0.0, 1};
  const Candidate base = TrainerTestPeer::Baseline(*fast, 1, slots, miss);
  ASSERT_TRUE(base.valid);
  EXPECT_EQ(base.bin, 0);
  EXPECT_TRUE(base.default_left);
  EXPECT_EQ(base.gain, 16.0 / 3.0);
  ExpectSameCandidate(base, TrainerTestPeer::Generic(*generic, 1, slots, miss));
#if MYSAWH_SPLIT_SCAN_AVX2
  if (__builtin_cpu_supports("avx2")) {
    ExpectSameCandidate(base, TrainerTestPeer::Avx2(*fast, 1, slots, miss));
  }
#endif
}

}  // namespace
}  // namespace mysawh::gbt
