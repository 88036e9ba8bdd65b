#ifndef MYSAWH_UTIL_TRACE_H_
#define MYSAWH_UTIL_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/json.h"
#include "util/status.h"

namespace mysawh {

/// Scoped trace spans emitting Chrome/Perfetto-compatible `trace_event`
/// JSON (open a written file directly in https://ui.perfetto.dev or
/// chrome://tracing).
///
/// Discipline mirrors util/failpoint.h: spans are compiled into every
/// build, and a *disabled* span costs one relaxed atomic load and
/// allocates nothing — so the hot training/explanation paths stay
/// instrumented permanently. Enabling (CLI `--trace-out=<file>`, or
/// Tracer::Global().Enable() in tests) starts a session; spans then record
/// their wall-clock interval into a per-thread buffer (no lock per event).
///
///   {
///     TraceSpan span("gbt.tree", "train");
///     span.Arg("round", round);
///     ...  // the traced work
///   }      // duration recorded here
///
/// Spans nest naturally: Perfetto stacks events of the same thread by
/// containment, so the RAII scopes ARE the timeline hierarchy.
///
/// Buffers are collected by ToJson()/WriteJson(), which must run quiescent
/// (no spans concurrently open — in practice: after pools Wait()ed and the
/// traced call returned). Enable() clears the previous session.

/// One completed span (a Chrome "X" complete event).
struct TraceEvent {
  std::string name;
  const char* cat = "mysawh";
  int64_t ts_us = 0;   ///< Start, microseconds since session start.
  int64_t dur_us = 0;  ///< Wall-clock duration in microseconds.
  int tid = 0;         ///< Small dense thread id, assigned per session use.
  std::string args;    ///< Pre-rendered JSON object body ("" = no args).
  int64_t cpu_us = -1;       ///< Thread-CPU-time delta; -1 = not captured.
  int64_t alloc_bytes = -1;  ///< Tracked-allocation delta; -1 = not captured.
};

namespace trace_internal {
/// Session on/off flag. Namespace-scope atomic (not a function-local
/// static) so the disabled fast path is exactly one relaxed load with no
/// init guard.
extern std::atomic<bool> g_enabled;
/// Per-span cost attribution flag. Off by default even when tracing is on,
/// because capturing CLOCK_THREAD_CPUTIME_ID twice per span is measurably
/// more expensive than the plain wall-clock pair; opt in via
/// Tracer::SetCostAttribution (CLI `--span-costs`).
extern std::atomic<bool> g_cost_attribution;
}  // namespace trace_internal

/// True when a trace session is active. The one-load fast path; call
/// sites building dynamic span names should guard on this so the disabled
/// mode allocates nothing.
inline bool TracingEnabled() {
  return trace_internal::g_enabled.load(std::memory_order_relaxed);
}

/// True when spans additionally capture thread-CPU-time and allocation
/// deltas. Only meaningful while TracingEnabled().
inline bool CostAttributionEnabled() {
  return trace_internal::g_cost_attribution.load(std::memory_order_relaxed);
}

/// The process-wide span collector.
class Tracer {
 public:
  static Tracer& Global();

  /// Starts a fresh session: clears previously collected events and
  /// resets the session clock. Call quiescent.
  void Enable();
  /// Stops recording. Already-open spans still deposit their event on
  /// destruction (they are part of the session being closed).
  void Disable();
  bool enabled() const { return TracingEnabled(); }

  /// Turns per-span cost attribution on or off (see CostAttributionEnabled).
  void SetCostAttribution(bool enabled);

  /// Caps each per-thread buffer at `max_events` events (0 = unbounded,
  /// the default). Events recorded past the cap are dropped and counted in
  /// the `trace.dropped_events` counter — a bounded trace beats an
  /// unbounded heap on a long run. Call quiescent; applies to the current
  /// session (Enable() keeps the configured cap).
  void SetMaxEventsPerThread(size_t max_events);
  /// Events dropped by the per-thread cap since the session started.
  int64_t dropped_events() const;

  /// Microseconds since the session started.
  int64_t NowMicros() const;

  /// Deposits one completed event into this thread's buffer.
  void Record(TraceEvent event);

  /// All collected events, sorted by (ts, -dur, tid). Call quiescent.
  std::vector<TraceEvent> Snapshot();
  size_t event_count();

  /// The collected session as Chrome trace JSON
  /// (`{"traceEvents": [...], ...}`).
  std::string ToJson();
  /// ToJson() written atomically to `path`.
  Status WriteJson(const std::string& path);

  /// Deterministic per-span-name cost aggregation over the collected
  /// session: `{"by_cpu":[{"name","count","cpu_us","alloc_bytes"},...],
  /// "by_bytes":[...]}`, each list the top `top_n` names sorted descending
  /// (name ascending on ties). Only events that captured costs contribute;
  /// returns "" when none did. Call quiescent.
  std::string CostTableJson(int top_n);

  /// Arms a small ring of recently completed span names, consulted by the
  /// stall watchdog to report what last finished before a wedge. Costs one
  /// short mutex-protected push per recorded event, so it is only worth
  /// paying while a watchdog is actually running; `capacity` 0 disarms.
  void EnableRecentSpans(size_t capacity);
  /// The armed ring's contents, oldest first. Empty when disarmed.
  std::vector<std::string> RecentSpanNames();

  /// Per-thread event sink (public so the thread_local cache in trace.cc
  /// can name the type; not part of the API).
  struct ThreadBuffer {
    int tid = 0;
    std::vector<TraceEvent> events;
  };

 private:
  Tracer() = default;
  ThreadBuffer* BufferForThisThread();

  std::mutex mutex_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
  int next_tid_ = 1;
  std::atomic<size_t> max_events_per_thread_{0};

  // The watchdog's recent-span ring. Guarded by its own mutex so Record()
  // never contends with Snapshot()'s buffer walk.
  std::mutex recent_mutex_;
  std::vector<std::string> recent_names_;
  size_t recent_capacity_ = 0;
  size_t recent_next_ = 0;
  std::atomic<bool> recent_enabled_{false};
};

/// RAII span. Construct with the static span name (a string literal); the
/// interval from construction to destruction becomes one trace event.
/// Disabled sessions make both ends a no-op.
class TraceSpan {
 public:
  /// An inactive span (for the two-phase dynamic-name pattern:
  /// `TraceSpan s; if (TracingEnabled()) s = TraceSpan(BuildName(), cat);`).
  TraceSpan() = default;

  explicit TraceSpan(const char* name, const char* cat = "mysawh")
      : active_(TracingEnabled()) {
    if (active_) Begin(name, cat);
  }
  /// Dynamic-name form; the string is only reachable from call sites that
  /// already guarded on TracingEnabled(), but checks again for safety.
  TraceSpan(std::string name, const char* cat) : active_(TracingEnabled()) {
    if (active_) Begin(std::move(name), cat);
  }

  TraceSpan(TraceSpan&& other) noexcept { *this = std::move(other); }
  TraceSpan& operator=(TraceSpan&& other) noexcept;
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  ~TraceSpan() { Finish(); }

  /// Attaches an integer argument shown in the trace viewer's detail pane.
  void Arg(const char* key, int64_t value);

  bool active() const { return active_; }

 private:
  void Begin(std::string name, const char* cat);
  void Finish();

  bool active_ = false;
  bool costed_ = false;  ///< This span captured cost-attribution baselines.
  std::string name_;
  const char* cat_ = "mysawh";
  int64_t start_us_ = 0;
  int64_t start_cpu_us_ = 0;    ///< CLOCK_THREAD_CPUTIME_ID at Begin.
  int64_t start_alloc_bytes_ = 0;  ///< ThreadAllocBytes() at Begin.
  JsonWriter args_;  ///< Member fragment for TraceEvent::args.
};

}  // namespace mysawh

#endif  // MYSAWH_UTIL_TRACE_H_
