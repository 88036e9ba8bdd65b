/// Tests of the trace-span system (util/trace.h): event capture, nesting,
/// the disabled fast path, Chrome-trace JSON shape, and session lifecycle.

#include "util/trace.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "util/file_io.h"
#include "util/json.h"
#include "util/metrics.h"
#include "util/resource_stats.h"

namespace mysawh {
namespace {

/// Every test owns the global session: enable fresh, disable on exit.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override { Tracer::Global().Enable(); }
  void TearDown() override { Tracer::Global().Disable(); }
};

TEST_F(TraceTest, SpanRecordsOneEvent) {
  { TraceSpan span("unit.work", "test"); }
  const auto events = Tracer::Global().Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "unit.work");
  EXPECT_EQ(std::string(events[0].cat), "test");
  EXPECT_GE(events[0].ts_us, 0);
  EXPECT_GE(events[0].dur_us, 0);
  EXPECT_GT(events[0].tid, 0);
}

TEST_F(TraceTest, SpansNestByContainment) {
  {
    TraceSpan outer("unit.outer", "test");
    TraceSpan inner("unit.inner", "test");
  }
  const auto events = Tracer::Global().Snapshot();
  ASSERT_EQ(events.size(), 2u);
  // Sorted by (ts, -dur): the enclosing span comes first, and the inner
  // interval is contained in the outer one.
  EXPECT_EQ(events[0].name, "unit.outer");
  EXPECT_EQ(events[1].name, "unit.inner");
  EXPECT_LE(events[0].ts_us, events[1].ts_us);
  EXPECT_GE(events[0].ts_us + events[0].dur_us,
            events[1].ts_us + events[1].dur_us);
}

TEST_F(TraceTest, DisabledModeEmitsNothing) {
  Tracer::Global().Disable();
  {
    TraceSpan span("unit.ghost", "test");
    span.Arg("ignored", 1);
    EXPECT_FALSE(span.active());
  }
  EXPECT_EQ(Tracer::Global().event_count(), 0u);
  // The dynamic-name guard pattern: with tracing off, the name string is
  // never even built.
  bool name_built = false;
  TraceSpan dynamic;
  if (TracingEnabled()) {
    name_built = true;
    dynamic = TraceSpan(std::string("unit.dynamic"), "test");
  }
  EXPECT_FALSE(name_built);
}

TEST_F(TraceTest, EnableClearsThePreviousSession) {
  { TraceSpan span("unit.first_session", "test"); }
  EXPECT_EQ(Tracer::Global().event_count(), 1u);
  Tracer::Global().Enable();
  EXPECT_EQ(Tracer::Global().event_count(), 0u);
  { TraceSpan span("unit.second_session", "test"); }
  const auto events = Tracer::Global().Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "unit.second_session");
}

TEST_F(TraceTest, ArgsRenderIntoTheEvent) {
  {
    TraceSpan span("unit.args", "test");
    span.Arg("rows", 128);
    span.Arg("round", 7);
  }
  const auto events = Tracer::Global().Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].args, "\"rows\":128,\"round\":7");
}

TEST_F(TraceTest, ThreadsGetDistinctDenseTids) {
  { TraceSpan span("unit.main_thread", "test"); }
  std::thread other([] { TraceSpan span("unit.other_thread", "test"); });
  other.join();
  const auto events = Tracer::Global().Snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_NE(events[0].tid, events[1].tid);
  for (const auto& event : events) {
    EXPECT_GT(event.tid, 0);
    EXPECT_LE(event.tid, 64) << "tids are small and dense, not OS ids";
  }
}

TEST_F(TraceTest, MovedFromSpanDoesNotDoubleRecord) {
  {
    TraceSpan span;
    span = TraceSpan("unit.moved", "test");
    TraceSpan stolen(std::move(span));
  }
  const auto events = Tracer::Global().Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "unit.moved");
}

TEST_F(TraceTest, JsonHasChromeTraceShape) {
  {
    TraceSpan span("unit.json \"quoted\"", "test");
    span.Arg("n", 3);
  }
  const std::string json = Tracer::Global().ToJson();
  EXPECT_EQ(json.find("{\"traceEvents\":["), 0u);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos)
      << "process_name metadata event";
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos)
      << "complete event per span";
  EXPECT_NE(json.find("unit.json \\\"quoted\\\""), std::string::npos)
      << "names are JSON-escaped";
  EXPECT_NE(json.find("\"args\":{\"n\":3}"), std::string::npos);
}

TEST_F(TraceTest, WriteJsonRoundTripsThroughTheFilesystem) {
  { TraceSpan span("unit.file", "test"); }
  const std::string path = ::testing::TempDir() + "/trace_test_out.json";
  ASSERT_TRUE(Tracer::Global().WriteJson(path).ok());
  const auto text = ReadFileToString(path);
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text->find("unit.file"), std::string::npos);
}

TEST_F(TraceTest, PerThreadCapDropsAndCountsOverflow) {
  Counter* dropped =
      MetricsRegistry::Global().GetCounter("trace.dropped_events");
  Tracer::Global().SetMaxEventsPerThread(5);
  for (int i = 0; i < 12; ++i) {
    TraceSpan span("unit.capped", "test");
  }
  EXPECT_EQ(Tracer::Global().event_count(), 5u);
  EXPECT_EQ(Tracer::Global().dropped_events(), 7);
  EXPECT_EQ(dropped->Value(), 7);
  // A new session resets the dropped count along with the buffers.
  Tracer::Global().Enable();
  EXPECT_EQ(Tracer::Global().dropped_events(), 0);
  { TraceSpan span("unit.after_reset", "test"); }
  EXPECT_EQ(Tracer::Global().event_count(), 1u);
  Tracer::Global().SetMaxEventsPerThread(0);  // Restore: unbounded.
}

TEST_F(TraceTest, UncappedSessionDropsNothing) {
  Tracer::Global().SetMaxEventsPerThread(0);
  for (int i = 0; i < 100; ++i) {
    TraceSpan span("unit.uncapped", "test");
  }
  EXPECT_EQ(Tracer::Global().event_count(), 100u);
  EXPECT_EQ(Tracer::Global().dropped_events(), 0);
}

TEST_F(TraceTest, CostAttributionAnnotatesSpans) {
  Tracer::Global().SetCostAttribution(true);
  Tracer::Global().Enable();  // Fresh session under attribution.
  {
    TraceSpan span("unit.costed", "test");
    // Deterministic allocation signal: the span must see exactly the
    // bytes tracked on its own thread during its lifetime.
    TrackAlloc(AllocCategory::kCheckpoint, 2048);
    volatile double sink = 0;  // A little CPU so cpu_us is well-defined.
    for (int i = 0; i < 50000; ++i) sink = sink + i * 0.5;
  }
  const auto events = Tracer::Global().Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_GE(events[0].cpu_us, 0);
  EXPECT_EQ(events[0].alloc_bytes, 2048);
  // The costs render into the event args and the aggregated table.
  const std::string json = Tracer::Global().ToJson();
  EXPECT_NE(json.find("\"cpu_us\":"), std::string::npos);
  EXPECT_NE(json.find("\"alloc_bytes\":2048"), std::string::npos);
  const std::string table = Tracer::Global().CostTableJson(10);
  ASSERT_FALSE(table.empty());
  auto parsed = ParseJson(table);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue* by_cpu = parsed->Find("by_cpu");
  const JsonValue* by_bytes = parsed->Find("by_bytes");
  ASSERT_NE(by_cpu, nullptr);
  ASSERT_NE(by_bytes, nullptr);
  ASSERT_EQ(by_bytes->array_items().size(), 1u);
  const JsonValue& row = by_bytes->array_items()[0];
  EXPECT_EQ(row.StringOr("name", ""), "unit.costed");
  EXPECT_EQ(row.NumberOr("count", -1), 1);
  EXPECT_EQ(row.NumberOr("alloc_bytes", -1), 2048);
  Tracer::Global().SetCostAttribution(false);
}

TEST_F(TraceTest, WithoutAttributionSpansCarryNoCosts) {
  Tracer::Global().SetCostAttribution(false);
  { TraceSpan span("unit.uncosted", "test"); }
  const auto events = Tracer::Global().Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].cpu_us, -1);
  EXPECT_EQ(events[0].alloc_bytes, -1);
  EXPECT_EQ(Tracer::Global().ToJson().find("\"cpu_us\":"),
            std::string::npos);
  EXPECT_TRUE(Tracer::Global().CostTableJson(10).empty());
}

TEST_F(TraceTest, RecentSpanRingKeepsLastNamesOldestFirst) {
  Tracer::Global().EnableRecentSpans(3);
  for (int i = 0; i < 5; ++i) {
    TraceSpan span("unit.ring_" + std::to_string(i), "test");
  }
  const std::vector<std::string> names = Tracer::Global().RecentSpanNames();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "unit.ring_2");
  EXPECT_EQ(names[1], "unit.ring_3");
  EXPECT_EQ(names[2], "unit.ring_4");
  Tracer::Global().EnableRecentSpans(0);
  EXPECT_TRUE(Tracer::Global().RecentSpanNames().empty());
}

}  // namespace
}  // namespace mysawh
