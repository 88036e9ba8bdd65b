#include "util/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>

#include "util/stats.h"

namespace mysawh {
namespace {

TEST(RngTest, DeterministicForEqualSeeds) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += a.NextUint64() == b.NextUint64();
  EXPECT_LT(equal, 4);
}

TEST(RngTest, ForkIsIndependentOfParentContinuation) {
  Rng parent1(7), parent2(7);
  Rng child1 = parent1.Fork();
  Rng child2 = parent2.Fork();
  // Children of identical parents are identical.
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(child1.NextUint64(), child2.NextUint64());
  }
  // Child stream differs from the parent's continuation.
  EXPECT_NE(parent1.NextUint64(), child1.NextUint64());
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformMeanNearHalf) {
  Rng rng(5);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) stats.Add(rng.Uniform());
  EXPECT_NEAR(stats.mean(), 0.5, 0.01);
  EXPECT_NEAR(stats.variance(), 1.0 / 12.0, 0.005);
}

TEST(RngTest, UniformIntCoversInclusiveRange) {
  Rng rng(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(RngTest, UniformIntSingleton) {
  Rng rng(1);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.UniformInt(42, 42), 42);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliRate) {
  Rng rng(11);
  int64_t hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / 20000.0, 0.3, 0.02);
}

TEST(RngTest, NormalMoments) {
  Rng rng(13);
  RunningStats stats;
  for (int i = 0; i < 40000; ++i) stats.Add(rng.Normal(2.0, 3.0));
  EXPECT_NEAR(stats.mean(), 2.0, 0.1);
  EXPECT_NEAR(stats.stddev(), 3.0, 0.1);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(17);
  RunningStats stats;
  for (int i = 0; i < 40000; ++i) stats.Add(rng.Exponential(2.0));
  EXPECT_NEAR(stats.mean(), 0.5, 0.02);
}

TEST(RngTest, PoissonMoments) {
  Rng rng(19);
  RunningStats small, large;
  for (int i = 0; i < 20000; ++i) {
    small.Add(static_cast<double>(rng.Poisson(3.5)));
    large.Add(static_cast<double>(rng.Poisson(80.0)));
  }
  EXPECT_NEAR(small.mean(), 3.5, 0.1);
  EXPECT_NEAR(small.variance(), 3.5, 0.25);
  EXPECT_NEAR(large.mean(), 80.0, 0.5);
}

TEST(RngTest, PoissonZeroLambda) {
  Rng rng(1);
  EXPECT_EQ(rng.Poisson(0.0), 0);
}

TEST(RngTest, GammaMoments) {
  Rng rng(23);
  RunningStats stats;
  for (int i = 0; i < 40000; ++i) stats.Add(rng.Gamma(2.0, 3.0));
  EXPECT_NEAR(stats.mean(), 6.0, 0.15);        // k * theta
  EXPECT_NEAR(stats.variance(), 18.0, 1.0);    // k * theta^2
}

TEST(RngTest, GammaSmallShape) {
  Rng rng(29);
  RunningStats stats;
  for (int i = 0; i < 40000; ++i) {
    const double g = rng.Gamma(0.5, 1.0);
    EXPECT_GE(g, 0.0);
    stats.Add(g);
  }
  EXPECT_NEAR(stats.mean(), 0.5, 0.05);
}

TEST(RngTest, BetaMomentsAndSupport) {
  Rng rng(31);
  RunningStats stats;
  for (int i = 0; i < 40000; ++i) {
    const double b = rng.Beta(2.0, 5.0);
    EXPECT_GE(b, 0.0);
    EXPECT_LE(b, 1.0);
    stats.Add(b);
  }
  EXPECT_NEAR(stats.mean(), 2.0 / 7.0, 0.01);
}

TEST(RngTest, BinomialMean) {
  Rng rng(37);
  RunningStats stats;
  for (int i = 0; i < 10000; ++i) {
    stats.Add(static_cast<double>(rng.Binomial(10, 0.4)));
  }
  EXPECT_NEAR(stats.mean(), 4.0, 0.1);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(41);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  auto sorted = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

/// SampleWithoutReplacement into a fresh vector.
std::vector<int64_t> Sample(Rng* rng, int64_t n, int64_t k) {
  std::vector<int64_t> out;
  rng->SampleWithoutReplacement(n, k, &out);
  return out;
}

TEST(RngTest, SampleWithoutReplacementDistinctAndInRange) {
  Rng rng(43);
  for (int trial = 0; trial < 50; ++trial) {
    const auto sample = Sample(&rng, 20, 7);
    ASSERT_EQ(sample.size(), 7u);
    std::set<int64_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), 7u);
    for (int64_t idx : sample) {
      EXPECT_GE(idx, 0);
      EXPECT_LT(idx, 20);
    }
  }
}

TEST(RngTest, SampleWithoutReplacementFull) {
  Rng rng(47);
  auto sample = Sample(&rng, 5, 5);
  std::sort(sample.begin(), sample.end());
  EXPECT_EQ(sample, (std::vector<int64_t>{0, 1, 2, 3, 4}));
}

TEST(RngTest, SampleWithoutReplacementEmpty) {
  Rng rng(1);
  EXPECT_TRUE(Sample(&rng, 5, 0).empty());
}

TEST(RngTest, SampleWithoutReplacementReusesBuffer) {
  // A reused buffer holding a longer earlier draw gives the same draws as
  // fresh vectors.
  Rng a(53), b(53);
  std::vector<int64_t> buffer;
  for (const int64_t k : {12, 30, 5, 0, 17}) {
    b.SampleWithoutReplacement(30, k, &buffer);
    EXPECT_EQ(buffer, Sample(&a, 30, k)) << "k " << k;
  }
}

/// FNV-1a over the little-endian bytes of `values`, in order.
uint64_t Digest(const std::vector<int64_t>& values) {
  uint64_t h = 1469598103934665603ull;
  for (const int64_t v : values) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (static_cast<uint64_t>(v) >> (8 * byte)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  return h;
}

/// The draw stream is part of every trained model: the trainer's row and
/// column subsamples come from it. These literals were recorded from the
/// previous rejection test (x < UINT64_MAX - UINT64_MAX % range, two
/// divisions per draw), so a rewrite of UniformInt is checked against
/// them rather than against itself. The full 64-bit range is the raw
/// NextUint64 stream: the previous code meant to return it, but computed
/// hi - lo in signed arithmetic, and GCC -O2 then dropped the range == 0
/// branch and divided by zero.
TEST(RngTest, UniformIntStreamIsPinned) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  struct Case {
    const char* range;
    int64_t lo;
    int64_t hi;
    std::array<int64_t, 64> draws;
  };
  const Case cases[] = {
      {"1", 0, 0,
       {
        0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
       }},
      {"3", 0, 2,
       {
        1, 2, 0, 0, 0, 0, 2, 0, 2, 1, 2, 0, 1, 1, 0, 1, 2, 0, 0, 2, 1, 1, 0, 0,
        0, 1, 1, 1, 0, 0, 0, 1, 1, 2, 2, 0, 1, 0, 2, 0, 2, 2, 0, 1, 2, 1, 2, 2,
        1, 0, 1, 2, 2, 1, 2, 0, 1, 2, 1, 2, 2, 2, 1, 1,
       }},
      {"1440", 0, 1439,
       {
        1393, 1145, 426, 492, 132, 645, 671, 21, 1313, 1111, 131, 534, 1111,
        493, 720, 973, 773, 411, 180, 1283, 1324, 202, 984, 804, 564, 1378,
        718, 196, 1140, 975, 1155, 1009, 1093, 1157, 455, 693, 28, 69, 278,
        1380, 1358, 455, 792, 1009, 1043, 715, 1208, 191, 1231, 1311, 1021,
        1361, 1286, 1297, 1028, 1086, 1165, 1400, 556, 455, 1310, 839, 163,
        355,
       }},
      {"2^32+1", 0, int64_t{1} << 32,
       {
        162291090, 3749149748, 2434468673, 2538904874, 3533876975, 3962835013,
        1033299888, 413963512, 2606673014, 2590237321, 653114402, 937266971,
        2239413914, 4038098622, 1644654978, 3405500843, 3865476263, 133468901,
        4042593571, 1788152337, 3295275132, 429998799, 3016480899, 4263954132,
        4287851527, 632526544, 3410065548, 859687510, 1287360665, 2698847250,
        3522083331, 443203079, 3288710302, 1664530507, 3082569886, 2784153247,
        1891091483, 1053366902, 4247941424, 1455205089, 4032154285, 2024834981,
        1106052222, 1050908371, 3854756649, 3317573395, 708351339, 3888199875,
        2795350062, 4021481738, 1100315414, 3159138049, 2826483724, 2857583206,
        1542044636, 1400564413, 1962874422, 2649845738, 67907694, 114564610,
        2368522111, 1269928123, 1597453792, 2560953460,
       }},
      {"2^62", 0, (int64_t{1} << 62) - 1,
       {
        450682392641635025, 828361916374477561, 4492727561091312426,
        3166499217812637548, 4578301368936960964, 3006103401061967893,
        1752607566161063873, 2441928940550839287, 1667187976851998403,
        708362144568007223, 4565877685834596429, 1930907958172149776,
        2057199171658784869, 283531434095010107, 4174834188010456995,
        3049473034520612876, 4329726962759600778, 1957815651560548216,
        235180526051937860, 3816092523353925620, 2030092994159308194,
        45974578897669678, 80395391305738628, 3671766561018891476,
        2482997153562368707, 2828466358300932401, 3243071292471472325,
        4037410248514763653, 3132752544387601525, 1852574295082757788,
        784906508309472965, 26324264685663990, 94160815775232420,
        426974321987204494, 3040103620073825735, 2184849361032515603,
        362920671044562904, 2443933550188941663, 901919226156149487,
        326860164365561503, 823358733164913533, 2843028591518750321,
        1853205046356552337, 2221175017444273860, 140713949635215565,
        3975356099210296632, 3038294766869963116, 287722973191884935,
        1705579121399889895, 3288589542098641059, 4550166256682045991,
        1293047036424574692, 4562740808926492107, 3709368501112803343,
        2222926432581957260, 2272536330865132912, 263397756894959762,
        2744826555720840472, 1022605280924612087, 3856567678899486475,
        2771952526542095598, 3274359416065871540, 2259563517188621872,
        739254373896921975,
       }},
      {"2^63", 0, kMax,
       {
        5440047934801865465, 4492727561091312426, 7778185236240025452,
        1752607566161063873, 7053614958978227191, 9177563704261984333,
        6542593976599537680, 6668885190086172773, 4895217452522398011,
        8941412981186988682, 4846866544479325764, 8427778541781313524,
        6641779012586696098, 45974578897669678, 8283452579446279380,
        8649096266942151557, 1852574295082757788, 5396592526736860869,
        94160815775232420, 5038660340414592398, 3040103620073825735,
        2184849361032515603, 4974606689471950808, 5513605244583537391,
        2843028591518750321, 1853205046356552337, 140713949635215565,
        3038294766869963116, 287722973191884935, 6317265139827277799,
        7900275560526028963, 1293047036424574692, 3709368501112803343,
        6834612451009345164, 6884222349292520816, 4875083775322347666,
        5634291299351999991, 2771952526542095598, 3274359416065871540,
        739254373896921975, 3726055124385420524, 9216393887174268761,
        3475484306522126285, 462513580241656868, 646912794105016272,
        5816404926648012421, 4375304530067674785, 8686371102198694220,
        1313761712730698665, 9070464575305991699, 370164010869540856,
        8746883493461479303, 3875885713540505444, 7683120735154664347,
        4979727942617913654, 8231786338682831214, 6438951626382363831,
        1952474982893555368, 8795212791527997860, 1476371792788913876,
        578375591072227879, 17265465863817414, 2351991067846434217,
        1422533491010469082,
       }},
      {"2^63+1", -1, kMax,
       {
        5440047934801865464, 4492727561091312425, 7778185236240025451,
        1752607566161063872, 7053614958978227190, 9177563704261984332,
        6542593976599537679, 6668885190086172772, 4895217452522398010,
        8941412981186988681, 4846866544479325763, 8427778541781313523,
        6641779012586696097, 45974578897669677, 8283452579446279379,
        8649096266942151556, 1852574295082757787, 5396592526736860868,
        94160815775232419, 5038660340414592397, 3040103620073825734,
        2184849361032515602, 4974606689471950807, 5513605244583537390,
        2843028591518750320, 1853205046356552336, 140713949635215564,
        3038294766869963115, 287722973191884934, 6317265139827277798,
        7900275560526028962, 1293047036424574691, 3709368501112803342,
        6834612451009345163, 6884222349292520815, 4875083775322347665,
        5634291299351999990, 2771952526542095597, 3274359416065871539,
        739254373896921974, 3726055124385420523, 9216393887174268760,
        3475484306522126284, 462513580241656867, 646912794105016271,
        5816404926648012420, 4375304530067674784, 8686371102198694219,
        1313761712730698664, 9070464575305991698, 370164010869540855,
        8746883493461479302, 3875885713540505443, 7683120735154664346,
        4979727942617913653, 8231786338682831213, 6438951626382363830,
        1952474982893555367, 8795212791527997859, 1476371792788913875,
        578375591072227878, 17265465863817413, 2351991067846434216,
        1422533491010469081,
       }},
      {"2^64", kMin, kMax,
       {
        -8772689644213140783, 5440047934801865465, 4492727561091312426,
        7778185236240025452, -4645070667917814844, -3536262346519298971,
        -396109439606217665, -6217268635792807915, 1752607566161063873,
        7053614958978227191, -7556184060002777405, -3380988789153210442,
        -8515009892286768585, 9177563704261984333, 6542593976599537680,
        -2429367352433510163, 6668885190086172773, 4895217452522398011,
        -1689700938744197356, -5048537848844318813, -6173899002334162932,
        8941412981186988682, -7265556385294227592, 4846866544479325764,
        8427778541781313524, 6641779012586696098, 45974578897669678,
        -9142976645549037180, 8283452579446279380, -4375096136929268401,
        -6740374883292407101, -6394905678553843407, -5980300744383303483,
        8649096266942151557, -689583960255470681, -6090619492467174283,
        1852574295082757788, 5396592526736860869, -9197047772169111818,
        94160815775232420, 5038660340414592398, 3040103620073825735,
        -4333556052344102344, -1603349090926372527, 2184849361032515603,
        -445504821117622581, 4974606689471950808, -6779438486665834145,
        5513605244583537391, -8896511872489214305, -8400013303689862275,
        2843028591518750321, -1101488980904414810, 1853205046356552337,
        -7002197019410501948, -2535816577001331970, 140713949635215565,
        -5248015937644479176, 3038294766869963116, 287722973191884935,
        -3765411433367774786, 6317265139827277799, 7900275560526028963,
        -256437376458031101,
       }},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.range);
    Rng rng(2024);
    for (size_t i = 0; i < c.draws.size(); ++i) {
      ASSERT_EQ(rng.UniformInt(c.lo, c.hi), c.draws[i]) << "draw " << i;
    }
  }
}

TEST(RngTest, SampleWithoutReplacementStreamIsPinned) {
  // Digests of SampleWithoutReplacement(1600, 1440), the study's row
  // subsample shape, recorded with the previous UniformInt.
  const uint64_t expected[] = {0x70ef2848565ea601ull, 0x292df12fbf56ac8aull,
                               0x172227a8466d2ebaull};
  for (uint64_t seed = 0; seed < 3; ++seed) {
    Rng rng(seed);
    EXPECT_EQ(Digest(Sample(&rng, 1600, 1440)), expected[seed])
        << "seed " << seed;
  }
}

/// Property sweep: UniformInt is unbiased over several ranges.
class UniformIntRangeTest : public ::testing::TestWithParam<int64_t> {};

TEST_P(UniformIntRangeTest, MeanMatchesMidpoint) {
  const int64_t hi = GetParam();
  Rng rng(1000 + static_cast<uint64_t>(hi));
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) {
    stats.Add(static_cast<double>(rng.UniformInt(0, hi)));
  }
  const double expected = static_cast<double>(hi) / 2.0;
  EXPECT_NEAR(stats.mean(), expected, 0.02 * (hi + 1));
}

INSTANTIATE_TEST_SUITE_P(Ranges, UniformIntRangeTest,
                         ::testing::Values<int64_t>(1, 2, 9, 63, 1000));

}  // namespace
}  // namespace mysawh
