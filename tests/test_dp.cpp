// Detailed placement: the Hungarian solver, legality preservation, HPWL
// monotonicity, individual move types, and congestion-aware mode.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>

#include "db/validate.hpp"
#include "dp/detailed.hpp"
#include "dp/hungarian.hpp"
#include "gen/generator.hpp"
#include "legal/legalizer.hpp"
#include "legal/macro_legalizer.hpp"
#include "route/estimator.hpp"
#include "util/logger.hpp"
#include "util/rng.hpp"

namespace rp {
namespace {

// ---------------- hungarian ----------------

TEST(Hungarian, IdentityOnDiagonalMatrix) {
  // Cheapest assignment of a matrix with cheap diagonal is the identity.
  const std::vector<double> cost{1, 10, 10, 10, 1, 10, 10, 10, 1};
  const auto a = hungarian(cost, 3);
  EXPECT_EQ(a, (std::vector<int>{0, 1, 2}));
  EXPECT_DOUBLE_EQ(assignment_cost(cost, 3, a), 3.0);
}

TEST(Hungarian, FindsCrossAssignment) {
  // row0 prefers col1, row1 prefers col0.
  const std::vector<double> cost{10, 1, 1, 10};
  const auto a = hungarian(cost, 2);
  EXPECT_EQ(a, (std::vector<int>{1, 0}));
}

TEST(Hungarian, MatchesBruteForceOnRandom) {
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = 2 + static_cast<int>(rng.below(4));  // up to 5
    std::vector<double> cost(static_cast<std::size_t>(n) * n);
    for (auto& c : cost) c = rng.uniform(0, 100);
    const auto a = hungarian(cost, n);
    // Valid permutation?
    std::vector<bool> used(static_cast<std::size_t>(n), false);
    for (const int j : a) {
      ASSERT_GE(j, 0);
      ASSERT_LT(j, n);
      ASSERT_FALSE(used[static_cast<std::size_t>(j)]);
      used[static_cast<std::size_t>(j)] = true;
    }
    // Brute force optimum.
    std::vector<int> perm(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) perm[static_cast<std::size_t>(i)] = i;
    double best = 1e300;
    do {
      best = std::min(best, assignment_cost(cost, n, perm));
    } while (std::next_permutation(perm.begin(), perm.end()));
    EXPECT_NEAR(assignment_cost(cost, n, a), best, 1e-9) << "trial " << trial;
  }
}

TEST(Hungarian, HandlesSizeOne) {
  const auto a = hungarian({7.0}, 1);
  EXPECT_EQ(a, (std::vector<int>{0}));
}

// ---------------- detailed placer ----------------

class DpTest : public ::testing::Test {
 protected:
  void SetUp() override { Logger::set_level(LogLevel::Error); }

  /// Generated benchmark taken through GP-less legalization: random spread
  /// positions, macros parked & frozen, then Abacus.
  Design legalized_fixture(std::uint64_t seed) {
    Design d = generate_benchmark(tiny_spec(seed));
    legalize_macros(d);
    freeze_macros(d);
    AbacusLegalizer lg;
    lg.run(d);
    return d;
  }
};

TEST_F(DpTest, PreservesLegality) {
  Design d = legalized_fixture(31);
  ASSERT_TRUE(check_legality(d).ok());
  DetailedPlaceOptions opt;
  opt.passes = 2;
  DetailedPlacer dp(opt);
  dp.run(d);
  const LegalityReport rep = check_legality(d);
  EXPECT_TRUE(rep.ok()) << (rep.messages.empty() ? "" : rep.messages[0].c_str());
}

TEST_F(DpTest, ImprovesHpwl) {
  Design d = legalized_fixture(31);
  DetailedPlacer dp;
  const DetailedPlaceStats st = dp.run(d);
  EXPECT_LT(st.hpwl_after, st.hpwl_before);
  EXPECT_NEAR(st.hpwl_after, d.hpwl(), 1e-6);
  EXPECT_GT(st.swaps + st.relocations + st.reorders + st.ism_moves, 0);
}

TEST_F(DpTest, EachMoveTypeAloneIsSafeAndNotHarmful) {
  for (int kind = 0; kind < 3; ++kind) {
    Design d = legalized_fixture(33);
    const double before = d.hpwl();
    DetailedPlaceOptions opt;
    opt.passes = 1;
    opt.enable_global_swap = kind == 0;
    opt.enable_reorder = kind == 1;
    opt.enable_ism = kind == 2;
    DetailedPlacer dp(opt);
    const DetailedPlaceStats st = dp.run(d);
    EXPECT_LE(st.hpwl_after, before + 1e-6) << "kind " << kind;
    EXPECT_TRUE(check_legality(d).ok()) << "kind " << kind;
  }
}

TEST_F(DpTest, DeterministicForSeed) {
  Design a = legalized_fixture(34);
  Design b = legalized_fixture(34);
  DetailedPlaceOptions opt;
  opt.seed = 9;
  DetailedPlacer dpa(opt), dpb(opt);
  dpa.run(a);
  dpb.run(b);
  EXPECT_DOUBLE_EQ(a.hpwl(), b.hpwl());
}

TEST_F(DpTest, CongestionAwareModeAvoidsHotTiles) {
  Design d = legalized_fixture(35);
  // Build a congestion map, run congestion-aware DP, and verify the number
  // of cells inside >100%-utilization tiles does not increase.
  RoutingGrid rg(d, true);
  estimate_probabilistic(d, rg);
  const Grid2D<double> cong = rg.tile_congestion();
  const GridMap map = rg.map();
  const auto hot_cells = [&](const Design& dd) {
    int n = 0;
    for (const CellId c : dd.movable_cells()) {
      const Point p = dd.cell_center(c);
      if (cong(map.ix_of(p.x), map.iy_of(p.y)) > 1.0) ++n;
    }
    return n;
  };
  const int before = hot_cells(d);
  DetailedPlaceOptions opt;
  opt.congestion_weight = 200 * d.row_height();
  DetailedPlacer dp(opt);
  dp.set_congestion(map, cong);
  dp.run(d);
  EXPECT_LE(hot_cells(d), before);
  EXPECT_TRUE(check_legality(d).ok());
}

TEST_F(DpTest, CongestionAwareCrossCheckedRunMatchesRecompute) {
  // RP_CHECK_INCREMENTAL=1 arms the evaluator's reference: every cached and
  // trialed cost is checked bit for bit against a from-scratch recompute
  // (an abort on the first mismatch), and the final total against
  // Design::hpwl(). Congestion-aware, so the trials carry the congestion
  // term as in the flow's DP.
  Design d = legalized_fixture(35);
  RoutingGrid rg(d, true);
  estimate_probabilistic(d, rg);
  DetailedPlaceOptions opt;
  opt.congestion_weight = 2 * d.row_height();
  DetailedPlacer dp(opt);
  dp.set_congestion(rg.map(), rg.tile_congestion());
  ::setenv("RP_CHECK_INCREMENTAL", "1", 1);
  const DetailedPlaceStats st = dp.run(d);
  ::unsetenv("RP_CHECK_INCREMENTAL");
  EXPECT_GT(st.relocations + st.swaps + st.ism_moves, 0);
  EXPECT_EQ(st.hpwl_after, d.hpwl());
  EXPECT_TRUE(check_legality(d).ok());
}

TEST_F(DpTest, RespectsFences) {
  BenchmarkSpec s = tiny_spec(36);
  s.num_fence_regions = 1;
  Design d = generate_benchmark(s);
  legalize_macros(d);
  freeze_macros(d);
  AbacusLegalizer lg;
  lg.run(d);
  ASSERT_EQ(check_legality(d).region_violations, 0);
  DetailedPlacer dp;
  dp.run(d);
  EXPECT_EQ(check_legality(d).region_violations, 0);
}

TEST_F(DpTest, ZeroPassesIsNoOp) {
  Design d = legalized_fixture(37);
  const double before = d.hpwl();
  DetailedPlaceOptions opt;
  opt.passes = 0;
  DetailedPlacer dp(opt);
  const DetailedPlaceStats st = dp.run(d);
  EXPECT_DOUBLE_EQ(st.hpwl_after, before);
  EXPECT_DOUBLE_EQ(d.hpwl(), before);
}

/// Parameterized pass-count sweep: more passes never hurt HPWL.
class DpPassSweep : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override { Logger::set_level(LogLevel::Error); }
};

TEST_P(DpPassSweep, MonotoneImprovement) {
  Design d = generate_benchmark(tiny_spec(38));
  legalize_macros(d);
  freeze_macros(d);
  AbacusLegalizer lg;
  lg.run(d);
  DetailedPlaceOptions opt;
  opt.passes = GetParam();
  DetailedPlacer dp(opt);
  const DetailedPlaceStats st = dp.run(d);
  EXPECT_LE(st.hpwl_after, st.hpwl_before + 1e-9);
  EXPECT_TRUE(check_legality(d).ok());
}

INSTANTIATE_TEST_SUITE_P(Passes, DpPassSweep, ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace rp
