// Tests for the telemetry layer: the counter/gauge registry (including its
// reset contract), RP_SPAN's trace events and their Chrome trace-event JSON
// serialization, and peak-RSS sampling.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "util/json.hpp"
#include "util/obs_context.hpp"
#include "util/telemetry.hpp"

namespace rp {
namespace {

using telemetry::Registry;

TEST(TelemetryRegistry, CountersAccumulate) {
  Registry& reg = Registry::instance();
  reg.reset();
  RP_COUNT("test.alpha", 1);
  RP_COUNT("test.alpha", 2);
  RP_COUNT("test.beta", 5);
  EXPECT_EQ(reg.counter_value("test.alpha"), 3);
  EXPECT_EQ(reg.counter_value("test.beta"), 5);
  EXPECT_EQ(reg.counter_value("test.never_touched"), 0);
}

TEST(TelemetryRegistry, GaugesKeepLastValue) {
  Registry& reg = Registry::instance();
  reg.reset();
  RP_GAUGE("test.gauge", 1.5);
  RP_GAUGE("test.gauge", 2.5);
  EXPECT_DOUBLE_EQ(reg.gauge_value("test.gauge"), 2.5);
}

TEST(TelemetryRegistry, ResetZeroesButKeepsSlotAddresses) {
  Registry& reg = Registry::instance();
  reg.reset();
  telemetry::Counter& slot = reg.counter("test.stable");
  slot.value = 7;
  RP_GAUGE("test.g", 3.0);
  reg.reset();
  EXPECT_EQ(reg.counter_value("test.stable"), 0);
  EXPECT_DOUBLE_EQ(reg.gauge_value("test.g"), 0.0);
  // The slot reference from before the reset still works — this is what
  // makes the RP_COUNT static-pointer caching safe across flow runs.
  slot.value += 4;
  EXPECT_EQ(reg.counter_value("test.stable"), 4);
}

TEST(TelemetryRegistry, SnapshotsAreNameSorted) {
  Registry& reg = Registry::instance();
  reg.reset();
  RP_COUNT("test.zz", 1);
  RP_COUNT("test.aa", 1);
  const auto snap = reg.counters();
  ASSERT_GE(snap.size(), 2u);
  for (std::size_t i = 1; i < snap.size(); ++i) EXPECT_LT(snap[i - 1].first, snap[i].first);
}

TEST(TelemetryTrace, TracingOffSpansRecordNoTraceEvent) {
  telemetry::stop_trace();
  EXPECT_FALSE(telemetry::trace_enabled());
  const std::size_t before = telemetry::trace_events().size();
  { RP_SPAN("should_not_record"); }
  EXPECT_EQ(telemetry::trace_events().size(), before);
}

TEST(TelemetryTrace, SpansNestAndSerialize) {
  telemetry::start_trace();
  {
    RP_SPAN("outer");
    {
      RP_SPAN("inner");
    }
  }
  telemetry::stop_trace();

  const auto& events = telemetry::trace_events();
  ASSERT_EQ(events.size(), 2u);
  // Children close first, so "inner" is recorded before "outer", named by
  // its composed path.
  EXPECT_EQ(events[0].name, "outer/inner");
  EXPECT_EQ(events[1].name, "outer");
  EXPECT_EQ(events[0].depth, 1);
  EXPECT_EQ(events[1].depth, 0);
  // Containment: inner's interval sits within outer's.
  EXPECT_GE(events[0].ts_us, events[1].ts_us);
  EXPECT_LE(events[0].ts_us + events[0].dur_us,
            events[1].ts_us + events[1].dur_us + 1e-6);

  // The serialized buffer is valid Chrome trace-event JSON: the two spans
  // plus the lane-naming metadata rows (thread_name / thread_sort_index).
  const JsonValue doc = json_parse(telemetry::trace_json());
  ASSERT_TRUE(doc.is_object());
  const JsonValue& tev = doc.at("traceEvents");
  ASSERT_TRUE(tev.is_array());
  std::size_t spans = 0, meta = 0;
  for (const JsonValue& e : tev.arr) {
    EXPECT_TRUE(e.at("name").is_string());
    if (e.at("ph").str == "M") {
      ++meta;
      continue;
    }
    ++spans;
    EXPECT_EQ(e.at("ph").str, "X");
    EXPECT_TRUE(e.at("ts").is_number());
    EXPECT_TRUE(e.at("dur").is_number());
    EXPECT_GE(e.at("dur").num, 0.0);
    EXPECT_EQ(e.at("tid").num, 0.0);  // main-thread spans ride lane 0
  }
  EXPECT_EQ(spans, 2u);
  EXPECT_GE(meta, 1u);
}

TEST(TelemetryTrace, CategoryFollowsTheEventNotTheLane) {
  // Worker 0 is the submitting thread, so its pool chunks ride lane 0 next
  // to the spans; they are still category "pool", and spans stay "flow".
  telemetry::start_trace();
  {
    RP_SPAN("stage");
    telemetry::emit_span("pool/chunk", 0, 10, 0);
    telemetry::emit_span("pool/chunk", 0, 10, 1);
  }
  telemetry::stop_trace();
  const JsonValue doc = json_parse(telemetry::trace_json());
  int chunks = 0, spans = 0;
  for (const JsonValue& e : doc.at("traceEvents").arr) {
    if (e.at("ph").str == "M") continue;
    if (e.at("name").str == "pool/chunk") {
      ++chunks;
      EXPECT_EQ(e.at("cat").str, "pool") << "chunk on lane " << e.at("tid").num;
    } else {
      ++spans;
      EXPECT_EQ(e.at("cat").str, "flow") << e.at("name").str;
    }
  }
  EXPECT_EQ(chunks, 2);
  EXPECT_EQ(spans, 1);
}

TEST(TelemetryTrace, StartClearsPreviousBuffer) {
  telemetry::start_trace();
  { RP_SPAN("first_session"); }
  telemetry::start_trace();
  { RP_SPAN("second_session"); }
  telemetry::stop_trace();
  ASSERT_EQ(telemetry::trace_events().size(), 1u);
  EXPECT_EQ(telemetry::trace_events()[0].name, "second_session");
}

TEST(TelemetryTrace, WriteProducesParsableFile) {
  namespace fs = std::filesystem;
  const fs::path path = fs::temp_directory_path() / "rp_test_trace.json";
  telemetry::start_trace();
  { RP_SPAN("span \"with\" quotes\n"); }
  telemetry::stop_trace();
  ASSERT_TRUE(telemetry::write_trace_json(path.string()));

  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  const JsonValue doc = json_parse(ss.str());
  bool found = false;
  for (const JsonValue& e : doc.at("traceEvents").arr)
    found = found || (e.at("ph").str == "X" &&
                      e.at("name").str == "span \"with\" quotes\n");
  EXPECT_TRUE(found);
  fs::remove(path);
}

TEST(TelemetryRss, PeakRssIsPositiveOnSupportedPlatforms) {
#if defined(__unix__) || defined(__APPLE__)
  EXPECT_GT(telemetry::peak_rss_kb(), 0);
#else
  GTEST_SKIP() << "peak RSS not sampled on this platform";
#endif
}

}  // namespace
}  // namespace rp
