// Unit & property tests for the util substrate: geometry, RNG, grids,
// prefix sums, strings, timers, JSON, logging.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>
#include <set>
#include <thread>

#include "util/geometry.hpp"
#include "util/grid.hpp"
#include "util/json.hpp"
#include "util/logger.hpp"
#include "util/obs_context.hpp"
#include "util/rng.hpp"
#include "util/str.hpp"
#include "util/timer.hpp"

namespace rp {
namespace {

// ---------------- geometry ----------------

TEST(Geometry, PointArithmetic) {
  const Point a{1, 2}, b{3, 5};
  EXPECT_EQ((a + b), (Point{4, 7}));
  EXPECT_EQ((b - a), (Point{2, 3}));
  EXPECT_EQ((a * 2.0), (Point{2, 4}));
  EXPECT_DOUBLE_EQ(manhattan(a, b), 5.0);
  EXPECT_DOUBLE_EQ(dist2(a, b), 13.0);
}

TEST(Geometry, IntervalBasics) {
  const Interval i{2, 6};
  EXPECT_DOUBLE_EQ(i.length(), 4.0);
  EXPECT_TRUE(i.contains(2.0));
  EXPECT_TRUE(i.contains(6.0));
  EXPECT_FALSE(i.contains(6.5));
  EXPECT_DOUBLE_EQ(i.overlap({4, 10}), 2.0);
  EXPECT_DOUBLE_EQ(i.overlap({7, 10}), 0.0);
  EXPECT_DOUBLE_EQ(i.clamp(0.0), 2.0);
  EXPECT_DOUBLE_EQ(i.clamp(9.0), 6.0);
  EXPECT_TRUE((Interval{3, 3}).empty());
}

TEST(Geometry, RectBasics) {
  const Rect r{0, 0, 4, 3};
  EXPECT_DOUBLE_EQ(r.area(), 12.0);
  EXPECT_EQ(r.center(), (Point{2, 1.5}));
  EXPECT_TRUE(r.contains(Point{4, 3}));
  EXPECT_FALSE(r.contains(Point{4.01, 3}));
  EXPECT_TRUE(r.contains(Rect{1, 1, 2, 2}));
  EXPECT_FALSE(r.contains(Rect{1, 1, 5, 2}));
}

TEST(Geometry, RectOverlapIsStrict) {
  const Rect a{0, 0, 2, 2};
  const Rect b{2, 0, 4, 2};  // touching edge
  EXPECT_FALSE(a.overlaps(b));
  EXPECT_DOUBLE_EQ(a.overlap_area(b), 0.0);
  const Rect c{1, 1, 3, 3};
  EXPECT_TRUE(a.overlaps(c));
  EXPECT_DOUBLE_EQ(a.overlap_area(c), 1.0);
}

TEST(Geometry, RectCoverAndIntersect) {
  const Rect a{0, 0, 2, 2}, b{1, -1, 3, 1};
  EXPECT_EQ(a.cover(b), (Rect{0, -1, 3, 2}));
  EXPECT_EQ(a.intersect(b), (Rect{1, 0, 2, 1}));
  EXPECT_EQ(Rect::empty_bbox().cover(a), a);
}

TEST(Geometry, RectExpandShift) {
  const Rect a{1, 1, 3, 3};
  EXPECT_EQ(a.expand(1), (Rect{0, 0, 4, 4}));
  EXPECT_EQ(a.shifted(2, -1), (Rect{3, 0, 5, 2}));
}

TEST(Geometry, BBoxHalfPerimeter) {
  BBox bb;
  EXPECT_TRUE(bb.empty());
  EXPECT_DOUBLE_EQ(bb.half_perimeter(), 0.0);
  bb.add({0, 0});
  bb.add({3, 4});
  bb.add({1, 1});
  EXPECT_DOUBLE_EQ(bb.half_perimeter(), 7.0);
}

// ---------------- rng ----------------

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = r.uniform(2.0, 5.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(Rng, BelowCoversRange) {
  Rng r(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(r.below(7));
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_EQ(*seen.rbegin(), 6u);
}

TEST(Rng, RangeInclusive) {
  Rng r(13);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(r.range(-2, 2));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, NormalMoments) {
  Rng r(17);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = r.normal();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng r(19);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto w = v;
  r.shuffle(w);
  std::sort(w.begin(), w.end());
  EXPECT_EQ(v, w);
}

TEST(Rng, SplitStreamsIndependent) {
  Rng r(23);
  Rng c1 = r.split();
  Rng c2 = r.split();
  EXPECT_NE(c1.next_u64(), c2.next_u64());
}

// ---------------- grid ----------------

TEST(Grid2D, BasicAccess) {
  Grid2D<int> g(3, 2, 5);
  EXPECT_EQ(g.nx(), 3);
  EXPECT_EQ(g.ny(), 2);
  EXPECT_EQ(g.at(2, 1), 5);
  g.at(1, 0) = 9;
  EXPECT_EQ(g(1, 0), 9);
  g.fill(0);
  EXPECT_EQ(g(1, 0), 0);
}

TEST(GridMap, IndexOfCoordinates) {
  GridMap m(Rect{0, 0, 100, 50}, 10, 5);
  EXPECT_DOUBLE_EQ(m.bin_w(), 10.0);
  EXPECT_DOUBLE_EQ(m.bin_h(), 10.0);
  EXPECT_EQ(m.ix_of(0.0), 0);
  EXPECT_EQ(m.ix_of(9.99), 0);
  EXPECT_EQ(m.ix_of(10.0), 1);
  EXPECT_EQ(m.ix_of(99.99), 9);
  EXPECT_EQ(m.ix_of(150.0), 9);   // clamped
  EXPECT_EQ(m.iy_of(-5.0), 0);    // clamped
}

TEST(GridMap, BinRectRoundTrip) {
  GridMap m(Rect{10, 20, 110, 120}, 4, 4);
  const Rect r = m.bin_rect(1, 2);
  EXPECT_EQ(m.ix_of(r.center().x), 1);
  EXPECT_EQ(m.iy_of(r.center().y), 2);
}

TEST(GridMap, RasterizeConservesArea) {
  GridMap m(Rect{0, 0, 64, 64}, 8, 8);
  const Rect r{3.5, 10.25, 27.75, 30.5};
  double total = 0.0;
  m.rasterize(r, [&](int, int, double a) { total += a; });
  EXPECT_NEAR(total, r.area(), 1e-9);
}

TEST(GridMap, RasterizeClipsToDie) {
  GridMap m(Rect{0, 0, 10, 10}, 2, 2);
  const Rect r{-5, -5, 5, 5};
  double total = 0.0;
  m.rasterize(r, [&](int, int, double a) { total += a; });
  EXPECT_NEAR(total, 25.0, 1e-9);  // only the on-die quarter
}

TEST(PrefixSum2D, MatchesBruteForce) {
  Rng rng(31);
  Grid2D<double> g(13, 9);
  for (int iy = 0; iy < 9; ++iy)
    for (int ix = 0; ix < 13; ++ix) g(ix, iy) = rng.uniform();
  PrefixSum2D ps(g);
  for (int trial = 0; trial < 50; ++trial) {
    int x0 = static_cast<int>(rng.below(13)), x1 = static_cast<int>(rng.below(13));
    int y0 = static_cast<int>(rng.below(9)), y1 = static_cast<int>(rng.below(9));
    if (x0 > x1) std::swap(x0, x1);
    if (y0 > y1) std::swap(y0, y1);
    double brute = 0.0;
    for (int iy = y0; iy <= y1; ++iy)
      for (int ix = x0; ix <= x1; ++ix) brute += g(ix, iy);
    EXPECT_NEAR(ps.sum(x0, y0, x1, y1), brute, 1e-9);
  }
}

TEST(PrefixSum2D, OutOfRangeClamps) {
  Grid2D<double> g(2, 2, 1.0);
  PrefixSum2D ps(g);
  EXPECT_DOUBLE_EQ(ps.sum(-5, -5, 10, 10), 4.0);
  EXPECT_DOUBLE_EQ(ps.sum(3, 3, 5, 5), 0.0);
}

// ---------------- str ----------------

TEST(Str, TrimAndSplit) {
  EXPECT_EQ(trim("  a b \t\r\n"), "a b");
  EXPECT_EQ(trim(""), "");
  const auto t = split("  a\tbb  c ", " \t");
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t[0], "a");
  EXPECT_EQ(t[1], "bb");
  EXPECT_EQ(t[2], "c");
}

TEST(Str, StartsEndsWith) {
  EXPECT_TRUE(starts_with("foobar", "foo"));
  EXPECT_FALSE(starts_with("fo", "foo"));
  EXPECT_TRUE(ends_with("a.nodes", ".nodes"));
  EXPECT_FALSE(ends_with("nodes", ".nodes"));
}

TEST(Str, IEquals) {
  EXPECT_TRUE(iequals("NumNodes", "numnodes"));
  EXPECT_FALSE(iequals("NumNodes", "numnode"));
}

TEST(Str, Numbers) {
  EXPECT_DOUBLE_EQ(to_double(" 3.5 "), 3.5);
  EXPECT_EQ(to_long("-42"), -42);
  EXPECT_THROW(to_double("abc"), std::runtime_error);
  EXPECT_THROW(to_long("1.5"), std::runtime_error);
}

TEST(Str, HierComponents) {
  const auto c = hier_components("top/alu0/add/u1");
  ASSERT_EQ(c.size(), 4u);
  EXPECT_EQ(c[0], "top");
  EXPECT_EQ(c[3], "u1");
  EXPECT_TRUE(hier_components("").empty());
  EXPECT_EQ(hier_components("flat").size(), 1u);
}

TEST(Str, CommonPrefixDepth) {
  EXPECT_EQ(common_prefix_depth("a/b/c", "a/b/d"), 2);
  EXPECT_EQ(common_prefix_depth("a/b/c", "a/x/d"), 1);
  EXPECT_EQ(common_prefix_depth("a", "a"), 0);       // leaves only
  EXPECT_EQ(common_prefix_depth("x/c", "y/c"), 0);
}

// ---------------- json ----------------

TEST(Json, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("back\\slash"), "back\\\\slash");
  EXPECT_EQ(json_escape("tab\there"), "tab\\there");
  EXPECT_EQ(json_escape(std::string_view("nul\x01", 4)), "nul\\u0001");
}

TEST(Json, WriterProducesWellFormedDocument) {
  JsonWriter w;
  w.begin_object();
  w.kv("name", "de\"sign\n");
  w.kv("count", 42);
  w.kv("ratio", 0.125);
  w.kv("flag", true);
  w.key("none").null();
  w.key("list").begin_array().value(1).value(2).value(3).end_array();
  w.key("nested").begin_object().kv("x", -7).end_object();
  w.end_object();
  EXPECT_EQ(w.str(),
            "{\"name\":\"de\\\"sign\\n\",\"count\":42,\"ratio\":0.125,\"flag\":true,"
            "\"none\":null,\"list\":[1,2,3],\"nested\":{\"x\":-7}}");
}

TEST(Json, WriterRoundTripsThroughParser) {
  JsonWriter w(2);  // pretty-printing must not change the parsed value
  w.begin_object();
  w.kv("str", "line1\nline2\t\"quoted\" \\ done");
  w.kv("big", 6.02214076e23);
  w.kv("tiny", -1.5e-300);
  w.kv("neg", std::int64_t{-9007199254740993});
  w.key("arr").begin_array().value(false).null().value("x").end_array();
  w.end_object();

  const JsonValue v = json_parse(w.str());
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.at("str").str, "line1\nline2\t\"quoted\" \\ done");
  EXPECT_DOUBLE_EQ(v.at("big").num, 6.02214076e23);
  EXPECT_DOUBLE_EQ(v.at("tiny").num, -1.5e-300);
  EXPECT_DOUBLE_EQ(v.at("neg").num, -9007199254740993.0);
  ASSERT_EQ(v.at("arr").arr.size(), 3u);
  EXPECT_EQ(v.at("arr").arr[0].kind, JsonValue::Kind::Bool);
  EXPECT_TRUE(v.at("arr").arr[1].is_null());
  EXPECT_EQ(v.at("arr").arr[2].str, "x");
}

TEST(Json, NonFiniteNumbersBecomeNull) {
  JsonWriter w;
  w.begin_array();
  w.value(std::nan(""));
  w.value(std::numeric_limits<double>::infinity());
  w.end_array();
  const JsonValue v = json_parse(w.str());
  ASSERT_EQ(v.arr.size(), 2u);
  EXPECT_TRUE(v.arr[0].is_null());
  EXPECT_TRUE(v.arr[1].is_null());
}

TEST(Json, ParserRejectsMalformedInput) {
  EXPECT_THROW(json_parse("{"), std::runtime_error);
  EXPECT_THROW(json_parse("{\"a\":}"), std::runtime_error);
  EXPECT_THROW(json_parse("[1,2] trailing"), std::runtime_error);
  EXPECT_THROW(json_parse("\"unterminated"), std::runtime_error);
  EXPECT_THROW(json_parse("nul"), std::runtime_error);
}

TEST(Json, ParserHandlesUnicodeEscapes) {
  const JsonValue v = json_parse("\"a\\u00e9\\u0041\"");
  EXPECT_EQ(v.str, "a\xc3\xa9"  "A");
}

// ---------------- logger ----------------

TEST(Logger, EnvVarOverridesSetLevel) {
  const LogLevel before = Logger::level();
  setenv("RP_LOG_LEVEL", "error", 1);
  Logger::init_from_env();
  EXPECT_EQ(Logger::level(), LogLevel::Error);
  Logger::set_level(LogLevel::Debug);  // ignored while the override is active
  EXPECT_EQ(Logger::level(), LogLevel::Error);
  unsetenv("RP_LOG_LEVEL");
  Logger::init_from_env();
  Logger::set_level(before);  // override released: programmatic control again
  EXPECT_EQ(Logger::level(), before);
}

TEST(Logger, EnvVarAcceptsNumericLevels) {
  setenv("RP_LOG_LEVEL", "4", 1);
  Logger::init_from_env();
  EXPECT_EQ(Logger::level(), LogLevel::Silent);
  unsetenv("RP_LOG_LEVEL");
  Logger::init_from_env();
  Logger::set_level(LogLevel::Error);  // quiet for the rest of the suite
}

// ---------------- timer ----------------

TEST(StageTimes, AccumulatesByName) {
  StageTimes st;
  st.add("gp", 1.5);
  st.add("legal", 0.5);
  st.add("gp", 0.5);
  EXPECT_DOUBLE_EQ(st.get("gp"), 2.0);
  EXPECT_DOUBLE_EQ(st.get("legal"), 0.5);
  EXPECT_DOUBLE_EQ(st.get("missing"), 0.0);
  EXPECT_DOUBLE_EQ(st.total(), 2.5);
  EXPECT_NE(st.report().find("gp"), std::string::npos);
}

TEST(StageTimes, NestedSpansComposePaths) {
  obs::ObsContext ctx;
  obs::ScopedBind bind(&ctx);
  {
    RP_SPAN("gp");
    EXPECT_EQ(ctx.span_path(), "gp");
    {
      RP_SPAN("level2");
      RP_SPAN("solve");
      EXPECT_EQ(ctx.span_path(), "gp/level2/solve");
    }
    EXPECT_EQ(ctx.span_path(), "gp");
  }
  EXPECT_EQ(ctx.span_path(), "");
  const StageTimes& st = ctx.stage_times();
  EXPECT_GT(st.get("gp"), 0.0);
  EXPECT_GT(st.get("gp/level2"), 0.0);
  EXPECT_GT(st.get("gp/level2/solve"), 0.0);
  EXPECT_DOUBLE_EQ(st.get("level2"), 0.0);  // only the full path is recorded
  // Children are inside their parents: the roots-only total is the gp time.
  EXPECT_DOUBLE_EQ(st.total(), st.get("gp"));
  EXPECT_GE(st.get("gp"), st.get("gp/level2"));
}

TEST(StageTimes, TreeReportIndentsChildren) {
  StageTimes st;
  st.add("gp", 2.0);
  st.add("gp/level1", 1.5);
  st.add("gp/level1/solve", 1.0);
  st.add("legal", 0.5);
  const std::string rep = st.report();
  EXPECT_NE(rep.find("gp"), std::string::npos);
  EXPECT_NE(rep.find("\n  level1"), std::string::npos);
  EXPECT_NE(rep.find("\n    solve"), std::string::npos);
  EXPECT_NE(rep.find("total"), std::string::npos);
  // Flat total counts roots only — no double counting of nested time.
  EXPECT_DOUBLE_EQ(st.total(), 2.5);
}

TEST(StageTimes, ImplicitParentSumsChildren) {
  StageTimes st;
  st.add("gp/levelA", 1.0);  // no explicit "gp" entry
  st.add("gp/levelB", 2.0);
  const std::string rep = st.report();
  EXPECT_NE(rep.find("gp"), std::string::npos);
  EXPECT_NE(rep.find("3.00s"), std::string::npos);  // synthesized parent sum
}

TEST(StageTimes, SinceReadsGrowthUnderPrefix) {
  StageTimes st;
  st.add("estimate", 0.5);  // earlier work, not added to again
  st.add("global/level0", 1.0);
  const StageTimes before = st;
  st.add("global/clustering", 0.25);
  st.add("global/level0", 2.0);
  st.add("global", 3.5);
  st.add("legal", 0.75);
  const StageTimes gp = st.since(before, "global");
  ASSERT_EQ(gp.entries().size(), 2u);
  EXPECT_DOUBLE_EQ(gp.get("clustering"), 0.25);
  EXPECT_DOUBLE_EQ(gp.get("level0"), 2.0);  // only what grew since `before`
  const StageTimes all = st.since(before, "");
  EXPECT_DOUBLE_EQ(all.get("global"), 3.5);
  EXPECT_DOUBLE_EQ(all.get("legal"), 0.75);
  EXPECT_DOUBLE_EQ(all.get("estimate"), 0.0);  // untouched since `before`
  EXPECT_DOUBLE_EQ(all.total(), 4.25);
}

TEST(StageTimes, SpanRecordsDepthAndTraceOnlyWhenTracing) {
  obs::ObsContext ctx;
  obs::ScopedBind bind(&ctx);
  { RP_SPAN("untraced"); }
  EXPECT_TRUE(ctx.trace().events().empty());  // tracing off: no trace event
  EXPECT_GT(ctx.stage_times().get("untraced"), 0.0);  // ...but still timed
  ctx.trace().start();
  {
    RP_SPAN("a");
    RP_SPAN("b");
  }
  ctx.trace().stop();
  const auto& ev = ctx.trace().events();
  ASSERT_EQ(ev.size(), 2u);
  EXPECT_EQ(ev[0].name, "a/b");
  EXPECT_EQ(ev[0].depth, 1);
  EXPECT_EQ(ev[1].name, "a");
  EXPECT_EQ(ev[1].depth, 0);
}

TEST(StageTimesDeathTest, SpanClosedOnAnotherThreadAsserts) {
  EXPECT_DEATH(
      {
        obs::ObsContext ctx;
        obs::ScopedBind bind(&ctx);
        auto* span = new obs::Span("moved");
        std::thread([span] { delete span; }).join();
      },
      "different thread");
}

TEST(StageTimes, FlatReportKeepsLegacyShape) {
  StageTimes st;
  st.add("gp", 1.5);
  st.add("gp/level0", 1.0);
  const std::string flat = st.report_flat();
  EXPECT_NE(flat.find("gp=1.50s"), std::string::npos);
  EXPECT_EQ(flat.find("level0"), std::string::npos);
  EXPECT_NE(flat.find("total=1.50s"), std::string::npos);
}

TEST(Timer, MeasuresNonNegative) {
  Timer t;
  EXPECT_GE(t.seconds(), 0.0);
}

// Parameterized property sweep: rasterization conserves area for many rect
// shapes and grid resolutions.
class RasterizeSweep : public ::testing::TestWithParam<int> {};

TEST_P(RasterizeSweep, AreaConserved) {
  const int bins = GetParam();
  GridMap m(Rect{0, 0, 97, 61}, bins, bins);
  Rng rng(1000 + bins);
  for (int i = 0; i < 40; ++i) {
    const double x0 = rng.uniform(0, 90), y0 = rng.uniform(0, 55);
    const Rect r{x0, y0, x0 + rng.uniform(0.01, 7), y0 + rng.uniform(0.01, 6)};
    double total = 0.0;
    m.rasterize(r, [&](int, int, double a) { total += a; });
    EXPECT_NEAR(total, r.intersect(m.die()).area(), 1e-9) << "bins=" << bins;
  }
}

INSTANTIATE_TEST_SUITE_P(Grids, RasterizeSweep, ::testing::Values(1, 2, 3, 7, 16, 64));

}  // namespace
}  // namespace rp
