#include "util/monitor.h"

#include <algorithm>
#include <map>

#include "util/file_io.h"
#include "util/json.h"
#include "util/metrics.h"
#include "util/resource_stats.h"
#include "util/trace.h"

namespace mysawh {

namespace {

/// At most one monitor is live at a time; manifest building reaches it
/// through this slot without plumbing a pointer through core/.
std::atomic<Monitor*> g_current{nullptr};

/// The status stream keeps the last few events; older ones age out (the
/// artifacts still carry them via the `monitor.stalls` counter).
constexpr size_t kMaxEvents = 8;
/// Recent-span ring depth for stall reports.
constexpr size_t kRecentSpans = 8;

struct MonitorMetrics {
  Counter* heartbeats;
  Counter* stalls;
};

MonitorMetrics& Metrics() {
  static MonitorMetrics metrics = [] {
    auto& registry = MetricsRegistry::Global();
    return MonitorMetrics{registry.GetCounter("monitor.heartbeats"),
                          registry.GetCounter("monitor.stalls")};
  }();
  return metrics;
}

}  // namespace

Monitor::Monitor(MonitorOptions options)
    : options_(std::move(options)),
      epoch_(std::chrono::steady_clock::now()) {
  // The standard progress set: counters that advance only when real work
  // completes. Deliberately excludes `file_io.*` (the heartbeat's own
  // writes) and `monitor.*` — a watchdog must not feed itself.
  progress_counter_names_ = {
      "gbt.predict.flat_rows", "gbt.predict.rows",
      "gbt.train.rounds_completed", "gbt.train.trees_grown",
      "shap.batch_rows",
      "study.cells_computed", "study.resume_hits",
  };
}

Monitor::~Monitor() { Stop(); }

Monitor* Monitor::Current() {
  return g_current.load(std::memory_order_acquire);
}

void Monitor::RegisterProgressCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(tick_mutex_);
  if (std::find(progress_counter_names_.begin(),
                progress_counter_names_.end(),
                name) == progress_counter_names_.end()) {
    progress_counter_names_.push_back(name);
    std::sort(progress_counter_names_.begin(),
              progress_counter_names_.end());
    last_progress_values_.clear();  // Baseline is stale; re-prime.
  }
}

int64_t Monitor::UptimeMs() const {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

Status Monitor::Start() {
  if (started_) return Status::Ok();
  started_ = true;
  g_current.store(this, std::memory_order_release);
  // Arm the recently-completed-span ring only when the watchdog could
  // actually report it: stall reports are the ring's sole consumer.
  if (options_.stall_timeout_ms > 0) {
    Tracer::Global().EnableRecentSpans(kRecentSpans);
  }
  // Heartbeat 0 lands before the monitored work starts, so a tailer can
  // attach immediately — and a broken status path fails the run up front.
  Status status = ForceHeartbeat(false);
  if (!status.ok()) {
    g_current.store(nullptr, std::memory_order_release);
    started_ = false;
    return status;
  }
  thread_ = std::thread([this] { Loop(); });
  return Status::Ok();
}

void Monitor::Stop() {
  if (!started_) return;
  {
    std::lock_guard<std::mutex> lock(wake_mutex_);
    stop_requested_ = true;
  }
  wake_.notify_all();
  if (thread_.joinable()) thread_.join();
  // The terminal heartbeat: watch_status.py exits when it sees it.
  (void)ForceHeartbeat(true);
  if (options_.stall_timeout_ms > 0) {
    Tracer::Global().EnableRecentSpans(0);
  }
  g_current.store(nullptr, std::memory_order_release);
  started_ = false;
}

void Monitor::Loop() {
  std::unique_lock<std::mutex> lock(wake_mutex_);
  while (!stop_requested_) {
    const auto interval =
        std::chrono::milliseconds(std::max<int64_t>(1, options_.interval_ms));
    if (wake_.wait_for(lock, interval, [this] { return stop_requested_; })) {
      return;
    }
    lock.unlock();
    // A failed write (disk full, injected fault) is not fatal to the run:
    // the monitor observes, it never kills the work it watches.
    (void)ForceHeartbeat(false);
    lock.lock();
  }
}

void Monitor::CheckStall(int64_t uptime_ms) {
  auto& registry = MetricsRegistry::Global();
  std::vector<int64_t> values;
  values.reserve(progress_counter_names_.size());
  for (const std::string& name : progress_counter_names_) {
    values.push_back(registry.GetCounter(name)->Value());
  }
  if (last_progress_values_.empty() || values != last_progress_values_) {
    // Progress (or first observation): move the baseline, re-arm the latch.
    last_progress_values_ = std::move(values);
    last_progress_uptime_ms_ = uptime_ms;
    stall_latched_ = false;
    return;
  }
  const int64_t silent_ms = uptime_ms - last_progress_uptime_ms_;
  if (silent_ms < options_.stall_timeout_ms || stall_latched_) return;

  // Exactly one event per stall: latch until progress resumes.
  stall_latched_ = true;
  stalls_.fetch_add(1, std::memory_order_relaxed);
  Metrics().stalls->Increment();
  const int64_t queue_depth =
      registry.GetGauge("thread_pool.queue_depth")->Value();

  JsonWriter event;
  event.BeginObject()
      .Key("type").String("stall")
      .Key("at_uptime_ms").Int(uptime_ms)
      .Key("silent_ms").Int(silent_ms)
      .Key("queue_depth").Int(queue_depth)
      .Key("recent_spans").BeginArray();
  for (const std::string& span : Tracer::Global().RecentSpanNames()) {
    event.String(span);
  }
  event_jsons_.push_back(event.EndArray().EndObject().Take());
  if (event_jsons_.size() > kMaxEvents) {
    event_jsons_.erase(event_jsons_.begin());
  }

  if (TracingEnabled()) {
    TraceEvent trace_event;
    trace_event.name = "monitor.stall";
    trace_event.cat = "monitor";
    trace_event.ts_us = Tracer::Global().NowMicros();
    trace_event.dur_us = 0;
    trace_event.args = JsonWriter()
                           .Key("silent_ms").Int(silent_ms)
                           .Key("queue_depth").Int(queue_depth)
                           .Take();
    Tracer::Global().Record(std::move(trace_event));
  }
}

void Monitor::AppendEvent(std::string event_json) {
  std::lock_guard<std::mutex> lock(tick_mutex_);
  event_jsons_.push_back(std::move(event_json));
  if (event_jsons_.size() > kMaxEvents) {
    event_jsons_.erase(event_jsons_.begin());
  }
}

std::string Monitor::BuildHeartbeatJson(bool final_heartbeat) {
  std::lock_guard<std::mutex> lock(tick_mutex_);
  auto& registry = MetricsRegistry::Global();
  const int64_t uptime_ms = UptimeMs();

  const ResourceSample sample = SampleResources();
  UpdateResourceGauges(sample);
  if (options_.stall_timeout_ms > 0) CheckStall(uptime_ms);

  // Nonzero counter movement since the previous heartbeat. Both lists are
  // name-sorted, so a linear merge finds every new and changed counter.
  const auto current = registry.CounterValues();
  JsonWriter delta;
  size_t j = 0;
  for (const auto& [name, value] : current) {
    while (j < last_counter_values_.size() &&
           last_counter_values_[j].first < name) {
      ++j;
    }
    int64_t previous = 0;
    if (j < last_counter_values_.size() &&
        last_counter_values_[j].first == name) {
      previous = last_counter_values_[j].second;
    }
    if (value != previous) delta.Key(name).Int(value - previous);
  }
  last_counter_values_ = current;

  JsonWriter progress;
  for (const std::string& name : progress_counter_names_) {
    progress.Key(name).Int(registry.GetCounter(name)->Value());
  }

  const int64_t cells_done =
      registry.GetCounter("study.cells_computed")->Value() +
      registry.GetCounter("study.resume_hits")->Value();
  const int64_t cells_total =
      registry.GetGauge("study.cells_total")->Value();
  const int64_t queue_depth =
      registry.GetGauge("thread_pool.queue_depth")->Value();

  JsonWriter w;
  w.BeginObject()
      .Key("schema").String("mysawh-status v1")
      .Key("seq").Int(next_seq_++)
      .Key("final").Bool(final_heartbeat)
      .Key("uptime_ms").Int(uptime_ms)
      .Key("interval_ms").Int(options_.interval_ms)
      .Key("stall_timeout_ms").Int(options_.stall_timeout_ms)
      .Key("resource").Raw(ResourceSampleJson(sample))
      .Key("progress").BeginObject().Raw(progress.str()).EndObject()
      .Key("study").BeginObject()
      .Key("cells_done").Int(cells_done)
      .Key("cells_total").Int(cells_total)
      .EndObject()
      .Key("queue_depth").Int(queue_depth)
      .Key("counters_delta").BeginObject().Raw(delta.str()).EndObject()
      .Key("events").BeginArray();
  for (const std::string& event : event_jsons_) w.Raw(event);
  return w.EndArray().EndObject().Take() + "\n";
}

Status Monitor::ForceHeartbeat(bool final_heartbeat) {
  const std::string json = BuildHeartbeatJson(final_heartbeat);
  Status status =
      WriteFileAtomic(options_.status_path, json, "status_write");
  if (status.ok()) {
    heartbeats_.fetch_add(1, std::memory_order_relaxed);
    Metrics().heartbeats->Increment();
  }
  return status;
}

}  // namespace mysawh
