#include "util/rng.h"

#include <cmath>

#include "util/logging.h"

// The distribution-parameter CHECKs below are programmer invariants, not
// input validation: user-supplied parameters enter through
// CohortConfig::Validate (and the other config Validate methods), which
// rejects bad ranges with a Status before any sampler runs. See the
// abort-vs-Status policy in util/logging.h.

namespace mysawh {

namespace {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : state_) s = SplitMix64(&sm);
}

uint64_t Rng::NextUint64() {
  const uint64_t result = Rotl(state_[0] + state_[3], 23) + state_[0];
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

Rng Rng::Fork() { return Rng(NextUint64()); }

double Rng::Uniform() {
  // 53 high-quality bits -> double in [0, 1).
  return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  MYSAWH_CHECK_LE(lo, hi);
  // Unsigned arithmetic: hi - lo overflows int64 for ranges above 2^63.
  const uint64_t range =
      static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo) + 1;
  if (range == 0) return static_cast<int64_t>(NextUint64());  // full range
  // Rejection sampling to remove modulo bias: keep x when its whole block
  // [x - x % range, x - x % range + range) lies below UINT64_MAX. That is
  // exactly x < UINT64_MAX - UINT64_MAX % range, with one division per draw.
  uint64_t x = NextUint64();
  uint64_t offset = x % range;
  while (x - offset > UINT64_MAX - range) {
    x = NextUint64();
    offset = x % range;
  }
  return static_cast<int64_t>(static_cast<uint64_t>(lo) + offset);
}

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return Uniform() < p;
}

double Rng::Normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u, v, s;
  do {
    u = Uniform(-1.0, 1.0);
    v = Uniform(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  cached_normal_ = v * factor;
  has_cached_normal_ = true;
  return u * factor;
}

double Rng::Normal(double mean, double sd) {
  MYSAWH_CHECK_GE(sd, 0.0);
  return mean + sd * Normal();
}

double Rng::Exponential(double lambda) {
  MYSAWH_CHECK_GT(lambda, 0.0);
  double u = Uniform();
  while (u <= 0.0) u = Uniform();
  return -std::log(u) / lambda;
}

int64_t Rng::Poisson(double lambda) {
  MYSAWH_CHECK_GE(lambda, 0.0);
  if (lambda == 0.0) return 0;
  if (lambda > 50.0) {
    // Normal approximation, adequate for the simulator's workloads.
    double x = Normal(lambda, std::sqrt(lambda));
    return x < 0.0 ? 0 : static_cast<int64_t>(std::llround(x));
  }
  const double limit = std::exp(-lambda);
  int64_t k = 0;
  double prod = Uniform();
  while (prod > limit) {
    ++k;
    prod *= Uniform();
  }
  return k;
}

double Rng::Gamma(double shape, double scale) {
  MYSAWH_CHECK_GT(shape, 0.0);
  MYSAWH_CHECK_GT(scale, 0.0);
  if (shape < 1.0) {
    // Boosting trick: Gamma(a) = Gamma(a + 1) * U^(1/a).
    const double u = std::max(Uniform(), 1e-300);
    return Gamma(shape + 1.0, scale) * std::pow(u, 1.0 / shape);
  }
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  while (true) {
    double x, v;
    do {
      x = Normal();
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    const double u = Uniform();
    if (u < 1.0 - 0.0331 * x * x * x * x) return d * v * scale;
    if (u > 0.0 &&
        std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) {
      return d * v * scale;
    }
  }
}

double Rng::Beta(double a, double b) {
  const double x = Gamma(a, 1.0);
  const double y = Gamma(b, 1.0);
  return x / (x + y);
}

int64_t Rng::Binomial(int64_t n, double p) {
  MYSAWH_CHECK_GE(n, 0);
  int64_t count = 0;
  for (int64_t i = 0; i < n; ++i) count += Bernoulli(p) ? 1 : 0;
  return count;
}

void Rng::SampleWithoutReplacement(int64_t n, int64_t k,
                                   std::vector<int64_t>* out) {
  MYSAWH_CHECK_GE(k, 0);
  MYSAWH_CHECK_LE(k, n);
  // Partial Fisher–Yates over an index vector.
  std::vector<int64_t>& indices = *out;
  indices.resize(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) indices[static_cast<size_t>(i)] = i;
  for (int64_t i = 0; i < k; ++i) {
    int64_t j = UniformInt(i, n - 1);
    std::swap(indices[static_cast<size_t>(i)], indices[static_cast<size_t>(j)]);
  }
  indices.resize(static_cast<size_t>(k));
}

}  // namespace mysawh
