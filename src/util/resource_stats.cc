#include "util/resource_stats.h"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "util/json.h"
#include "util/metrics.h"

namespace mysawh {

namespace {

#if defined(__linux__)
/// Clock ticks per second, for converting /proc/self/stat utime/stime.
double TicksPerSecond() {
  static const double ticks = [] {
    const long hz = ::sysconf(_SC_CLK_TCK);
    return hz > 0 ? static_cast<double>(hz) : 100.0;
  }();
  return ticks;
}

/// Parses /proc/self/stat fields 10 (minflt), 12 (majflt), 14 (utime),
/// 15 (stime), 20 (num_threads). The comm field (2) may contain spaces, so
/// scanning restarts after its closing ')'.
bool ParseProcStat(ResourceSample* sample) {
  std::ifstream in("/proc/self/stat");
  if (!in) return false;
  std::string line;
  if (!std::getline(in, line)) return false;
  const size_t close = line.rfind(')');
  if (close == std::string::npos) return false;
  std::istringstream fields(line.substr(close + 1));
  // Fields after comm, starting at field 3 (state).
  std::string state;
  long long ppid, pgrp, session, tty, tpgid;
  unsigned long long flags, minflt, cminflt, majflt, cmajflt, utime, stime;
  long long cutime, cstime, priority, nice, num_threads;
  if (!(fields >> state >> ppid >> pgrp >> session >> tty >> tpgid >> flags >>
        minflt >> cminflt >> majflt >> cmajflt >> utime >> stime >> cutime >>
        cstime >> priority >> nice >> num_threads)) {
    return false;
  }
  sample->minor_faults = static_cast<int64_t>(minflt);
  sample->major_faults = static_cast<int64_t>(majflt);
  sample->utime_ms = static_cast<double>(utime) * 1e3 / TicksPerSecond();
  sample->stime_ms = static_cast<double>(stime) * 1e3 / TicksPerSecond();
  sample->num_threads = static_cast<int64_t>(num_threads);
  return true;
}

/// Reads VmRSS / VmHWM (kB lines) from /proc/self/status.
void ParseProcStatus(ResourceSample* sample) {
  std::ifstream in("/proc/self/status");
  if (!in) return;
  std::string line;
  while (std::getline(in, line)) {
    long long kb = 0;
    if (std::sscanf(line.c_str(), "VmRSS: %lld kB", &kb) == 1) {
      sample->rss_bytes = static_cast<int64_t>(kb) * 1024;
    } else if (std::sscanf(line.c_str(), "VmHWM: %lld kB", &kb) == 1) {
      sample->peak_rss_bytes = static_cast<int64_t>(kb) * 1024;
    }
  }
}
#endif  // __linux__

/// Cumulative tracked bytes per category, process-wide. Plain atomics next
/// to the registry gauges so ThreadAllocBytes() and the gauges can never
/// drift apart on the accounting side.
struct AllocAccounting {
  Gauge* gauges[kNumAllocCategories];
};

AllocAccounting& Accounting() {
  static AllocAccounting accounting = [] {
    auto& registry = MetricsRegistry::Global();
    AllocAccounting a;
    for (int c = 0; c < kNumAllocCategories; ++c) {
      a.gauges[c] =
          registry.GetGauge(AllocCategoryGaugeName(static_cast<AllocCategory>(c)));
    }
    return a;
  }();
  return accounting;
}

/// The calling thread's cumulative tracked bytes (all categories). Spans
/// delta this; it only ever grows, so a span's delta is exactly the bytes
/// tracked during its lifetime on its thread.
thread_local int64_t tls_alloc_bytes = 0;

}  // namespace

ResourceSample SampleResources() {
  ResourceSample sample;
#if defined(__linux__)
  sample.valid = ParseProcStat(&sample);
  ParseProcStatus(&sample);
#endif
  return sample;
}

void UpdateResourceGauges(const ResourceSample& sample) {
  struct ResourceGauges {
    Gauge* rss;
    Gauge* peak_rss;
    Gauge* utime_ms;
    Gauge* stime_ms;
    Gauge* minor_faults;
    Gauge* major_faults;
    Gauge* threads;
  };
  static ResourceGauges gauges = [] {
    auto& registry = MetricsRegistry::Global();
    return ResourceGauges{registry.GetGauge("resource.rss_bytes"),
                          registry.GetGauge("resource.peak_rss_bytes"),
                          registry.GetGauge("resource.utime_ms"),
                          registry.GetGauge("resource.stime_ms"),
                          registry.GetGauge("resource.minor_faults"),
                          registry.GetGauge("resource.major_faults"),
                          registry.GetGauge("resource.threads")};
  }();
  gauges.rss->Set(sample.rss_bytes);
  gauges.peak_rss->Set(sample.peak_rss_bytes);
  gauges.utime_ms->Set(static_cast<int64_t>(sample.utime_ms));
  gauges.stime_ms->Set(static_cast<int64_t>(sample.stime_ms));
  gauges.minor_faults->Set(sample.minor_faults);
  gauges.major_faults->Set(sample.major_faults);
  gauges.threads->Set(sample.num_threads);
}

std::string ResourceSampleJson(const ResourceSample& sample) {
  JsonWriter w;
  w.BeginObject()
      .Key("rss_bytes").Int(sample.rss_bytes)
      .Key("peak_rss_bytes").Int(sample.peak_rss_bytes)
      .Key("utime_ms").Int(static_cast<int64_t>(sample.utime_ms))
      .Key("stime_ms").Int(static_cast<int64_t>(sample.stime_ms))
      .Key("minor_faults").Int(sample.minor_faults)
      .Key("major_faults").Int(sample.major_faults)
      .Key("threads").Int(sample.num_threads)
      .Key("valid").Bool(sample.valid)
      .EndObject();
  return w.Take();
}

const char* AllocCategoryGaugeName(AllocCategory category) {
  switch (category) {
    case AllocCategory::kBinnedMatrix:
      return "alloc.binned_matrix_bytes";
    case AllocCategory::kFlatForest:
      return "alloc.flat_forest_bytes";
    case AllocCategory::kCheckpoint:
      return "alloc.checkpoint_bytes";
  }
  return "alloc.unknown_bytes";
}

void TrackAlloc(AllocCategory category, int64_t bytes) {
  if (bytes <= 0) return;
  Accounting().gauges[static_cast<int>(category)]->Add(bytes);
  tls_alloc_bytes += bytes;
}

int64_t ThreadAllocBytes() { return tls_alloc_bytes; }

}  // namespace mysawh
