#include "util/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/json.h"

namespace mysawh {

void LatencyHistogram::Record(int64_t micros) {
  if (micros < 0) micros = 0;
  // Bucket index = position of the highest set bit + 1, so bucket i spans
  // [2^(i-1), 2^i) µs and bucket 0 is exactly 0 µs.
  int bucket = std::bit_width(static_cast<uint64_t>(micros));
  if (bucket >= kNumBuckets) bucket = kNumBuckets - 1;
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(micros, std::memory_order_relaxed);
  int64_t seen = max_.load(std::memory_order_relaxed);
  while (micros > seen &&
         !max_.compare_exchange_weak(seen, micros,
                                     std::memory_order_relaxed)) {
  }
}

int64_t HistogramQuantileFromBuckets(const int64_t* buckets, int num_buckets,
                                     int64_t max_micros, double q) {
  int64_t count = 0;
  for (int b = 0; b < num_buckets; ++b) count += buckets[b];
  if (count <= 0) return 0;
  if (q <= 0.0) q = 1.0 / static_cast<double>(count);
  if (q > 1.0) q = 1.0;
  // 1-based target rank; ceil without floating-point edge surprises.
  const int64_t rank =
      std::max<int64_t>(1, static_cast<int64_t>(
                               std::ceil(q * static_cast<double>(count))));
  int64_t cumulative = 0;
  for (int b = 0; b < num_buckets; ++b) {
    cumulative += buckets[b];
    if (cumulative >= rank) {
      if (b == 0) return 0;
      if (b == num_buckets - 1) return max_micros;
      // Bucket b spans [2^(b-1), 2^b); its inclusive upper edge.
      return (int64_t{1} << b) - 1;
    }
  }
  return max_micros;
}

int64_t LatencyHistogram::ApproxQuantileMicros(double q) const {
  int64_t buckets[kNumBuckets];
  for (int b = 0; b < kNumBuckets; ++b) buckets[b] = BucketCount(b);
  return HistogramQuantileFromBuckets(buckets, kNumBuckets, MaxMicros(), q);
}

void LatencyHistogram::Reset() {
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

MetricsRegistry& MetricsRegistry::Global() {
  // Leaked intentionally: worker threads may touch cached instrument
  // pointers during static destruction.
  static MetricsRegistry* const registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

LatencyHistogram* MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<LatencyHistogram>();
  return slot.get();
}

namespace {

/// One snapshot section: `{` + one `"name": value` line per instrument +
/// `}`. The snapshot is the one pretty-printed schema, so it is laid out
/// here with the escaper directly rather than through JsonWriter.
template <typename Instruments, typename Render>
std::string SnapshotSection(const Instruments& instruments, Render render) {
  std::string out = "{";
  for (const auto& [name, instrument] : instruments) {
    if (out.size() > 1) out += ',';
    out += "\n    \"" + JsonEscape(name) + "\": " + render(*instrument);
  }
  if (out.size() > 1) out += "\n  ";
  return out + "}";
}

}  // namespace

std::string MetricsRegistry::SnapshotJson() const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto value = [](const auto& instrument) {
    return std::to_string(instrument.Value());
  };
  const auto histogram = [](const LatencyHistogram& h) {
    std::string out = "{\"count\": " + std::to_string(h.Count()) +
                      ", \"sum_us\": " + std::to_string(h.SumMicros()) +
                      ", \"max_us\": " + std::to_string(h.MaxMicros()) +
                      ", \"buckets\": [";
    for (int b = 0; b < LatencyHistogram::kNumBuckets; ++b) {
      if (b > 0) out += ", ";
      out += std::to_string(h.BucketCount(b));
    }
    return out + "]}";
  };
  return "{\n  \"counters\": " + SnapshotSection(counters_, value) +
         ",\n  \"gauges\": " + SnapshotSection(gauges_, value) +
         ",\n  \"histograms\": " + SnapshotSection(histograms_, histogram) +
         "\n}\n";
}

std::vector<std::pair<std::string, int64_t>> MetricsRegistry::CounterValues()
    const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<std::string, int64_t>> values;
  values.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    values.emplace_back(name, counter->Value());
  }
  return values;
}

void MetricsRegistry::ResetAll() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
}

}  // namespace mysawh
