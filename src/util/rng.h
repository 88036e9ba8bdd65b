#ifndef MYSAWH_UTIL_RNG_H_
#define MYSAWH_UTIL_RNG_H_

#include <cstdint>
#include <vector>

namespace mysawh {

/// Deterministic pseudo-random number generator plus the distributions used
/// throughout the library (cohort simulation, subsampling, CV shuffling).
///
/// The core generator is xoshiro256++ seeded through splitmix64, which gives
/// high-quality 64-bit streams with a tiny state and lets a parent stream
/// `Fork()` statistically independent child streams — important so that e.g.
/// per-patient simulation is insensitive to the order patients are generated
/// in. All distribution code is self-contained so results are identical
/// across platforms and standard libraries.
class Rng {
 public:
  /// Seeds the generator. Equal seeds produce equal streams.
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ull);

  /// Next raw 64 random bits.
  uint64_t NextUint64();

  /// Creates an independent child stream derived from this stream's state.
  Rng Fork();

  /// Uniform double in [0, 1).
  double Uniform();
  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);
  /// Uniform integer in [lo, hi] (inclusive bounds). Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);
  /// True with probability `p` (clamped to [0, 1]).
  bool Bernoulli(double p);
  /// Standard normal via the Marsaglia polar method.
  double Normal();
  /// Normal with the given mean and standard deviation (sd >= 0).
  double Normal(double mean, double sd);
  /// Exponential with rate `lambda` > 0.
  double Exponential(double lambda);
  /// Poisson with mean `lambda` >= 0 (inversion for small lambda, normal
  /// approximation with rounding for lambda > 50).
  int64_t Poisson(double lambda);
  /// Gamma(shape k > 0, scale theta > 0) via Marsaglia–Tsang.
  double Gamma(double shape, double scale);
  /// Beta(a, b) with a, b > 0, via two gamma draws.
  double Beta(double a, double b);
  /// Binomial(n, p) by summing Bernoulli draws (n is small in this library).
  int64_t Binomial(int64_t n, double p);

  /// Fisher–Yates shuffle of `values`.
  template <typename T>
  void Shuffle(std::vector<T>* values) {
    if (values->empty()) return;
    for (int64_t i = static_cast<int64_t>(values->size()) - 1; i > 0; --i) {
      int64_t j = UniformInt(0, i);
      std::swap((*values)[i], (*values)[j]);
    }
  }

  /// Sets `*out` to `k` distinct indices drawn uniformly from [0, n), in
  /// random order. Requires 0 <= k <= n. The buffer's capacity is reused,
  /// so repeated draws into one vector do not allocate.
  void SampleWithoutReplacement(int64_t n, int64_t k,
                                std::vector<int64_t>* out);

 private:
  uint64_t state_[4];
  // Cached second output of the polar method.
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace mysawh

#endif  // MYSAWH_UTIL_RNG_H_
