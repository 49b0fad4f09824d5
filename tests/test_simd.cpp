// SIMD dispatch + incremental evaluation identity tests.
//
// The contracts under test are bitwise, not approximate:
//  * every kernel in the simd::Ops table produces the same bits at every
//    dispatch level (scalar vs AVX2/NEON when the host has them);
//  * wirelength/density evaluations are identical for RP_SIMD off vs auto,
//    at any thread count, and value() then gradient() reproduces eval() for
//    every model and the placement objective;
//  * IncrementalEval's trial_move/trial_swap match mutate-and-measure
//    exactly, and a long committed-move session never drifts from
//    Design::hpwl();
//  * the per-thread wirelength scratch survives re-use on a problem with a
//    larger max net degree (regression for the stale-capacity bug).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "gen/generator.hpp"
#include "model/density.hpp"
#include "model/incremental.hpp"
#include "model/objective.hpp"
#include "model/problem.hpp"
#include "model/wirelength.hpp"
#include "util/logger.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace rp {
namespace {

std::vector<double> random_vec(std::size_t n, Rng& rng, double lo, double hi) {
  std::vector<double> v(n);
  for (double& x : v) x = rng.uniform(lo, hi);
  return v;
}

/// Restore level + thread count after each test regardless of outcome.
struct DispatchGuard {
  ~DispatchGuard() {
    simd::set_from_string("auto");
    parallel::set_num_threads(1);
  }
};

// ------------------------------------------------------------ ops table

TEST(SimdOps, VectorTableMatchesScalarBitwise) {
  DispatchGuard guard;
  const simd::Ops& sc = simd::scalar_ops();
  const simd::Ops* tables[] = {simd::avx2_ops(), simd::neon_ops()};
  Rng rng(7);

  bool any = false;
  for (const simd::Ops* vt : tables) {
    if (vt == nullptr) continue;
    any = true;
    // Sizes straddling the 4-lane block boundary and the tail.
    for (const std::size_t n : {1u, 3u, 4u, 5u, 8u, 31u, 64u, 1000u, 1023u}) {
      const auto x = random_vec(n, rng, -700.0, 0.0);
      const auto y = random_vec(n, rng, -50.0, 50.0);
      std::vector<double> a(n), b(n);

      EXPECT_EQ(sc.sum(x.data(), n), vt->sum(x.data(), n));
      EXPECT_EQ(sc.dot(x.data(), y.data(), n), vt->dot(x.data(), y.data(), n));
      EXPECT_EQ(sc.abs_max(y.data(), n), vt->abs_max(y.data(), n));
      EXPECT_EQ(sc.pr_num(x.data(), y.data(), n),
                vt->pr_num(x.data(), y.data(), n));
      double mn1 = 0, mx1 = 0, mn2 = 0, mx2 = 0;
      sc.minmax(y.data(), n, &mn1, &mx1);
      vt->minmax(y.data(), n, &mn2, &mx2);
      EXPECT_EQ(mn1, mn2);
      EXPECT_EQ(mx1, mx2);

      sc.affine(y.data(), n, 1.5, -0.25, a.data());
      vt->affine(y.data(), n, 1.5, -0.25, b.data());
      EXPECT_EQ(a, b);
      sc.exp_nonpos(x.data(), n, a.data());
      vt->exp_nonpos(x.data(), n, b.data());
      EXPECT_EQ(a, b);
      sc.neg(y.data(), n, a.data());
      vt->neg(y.data(), n, b.data());
      EXPECT_EQ(a, b);

      a = y;
      b = y;
      sc.axpy(0.75, x.data(), n, a.data());
      vt->axpy(0.75, x.data(), n, b.data());
      EXPECT_EQ(a, b);
      sc.axpy_out(y.data(), -2.0, x.data(), n, a.data());
      vt->axpy_out(y.data(), -2.0, x.data(), n, b.data());
      EXPECT_EQ(a, b);
      a = y;
      b = y;
      sc.cg_dir(x.data(), 0.5, a.data(), n);
      vt->cg_dir(x.data(), 0.5, b.data(), n);
      EXPECT_EQ(a, b);

      const auto ep = random_vec(n, rng, 0.0, 1.0);
      const auto em = random_vec(n, rng, 0.0, 1.0);
      sc.lse_grad(ep.data(), em.data(), n, 0.3, 0.7, a.data());
      vt->lse_grad(ep.data(), em.data(), n, 0.3, 0.7, b.data());
      EXPECT_EQ(a, b);
      sc.wa_grad(y.data(), ep.data(), em.data(), n, 40.0, -40.0, 0.25, 0.3,
                 0.7, a.data());
      vt->wa_grad(y.data(), ep.data(), em.data(), n, 40.0, -40.0, 0.25, 0.3,
                  0.7, b.data());
      EXPECT_EQ(a, b);

      sc.bell_row(-3.0, 0.37, n, 1.0, 2.0, 0.5, 0.25, a.data());
      vt->bell_row(-3.0, 0.37, n, 1.0, 2.0, 0.5, 0.25, b.data());
      EXPECT_EQ(a, b);
      sc.bell_deriv_row(-3.0, 0.37, n, 1.0, 2.0, 0.5, 0.25, a.data());
      vt->bell_deriv_row(-3.0, 0.37, n, 1.0, 2.0, 0.5, 0.25, b.data());
      EXPECT_EQ(a, b);
    }
  }
  if (!any) GTEST_SKIP() << "host has no vector unit compiled in";
}

// ------------------------------------------- model identity across levels

TEST(SimdModels, WirelengthAndDensityIdenticalAcrossLevelsAndThreads) {
  DispatchGuard guard;
  Logger::set_level(LogLevel::Warn);
  const Design d = generate_benchmark(small_spec(42));
  PlaceProblem p = make_problem(d);
  DensityConfig cfg;

  struct Result {
    double lse, wa, dens;
    std::vector<double> g;
  };
  auto run = [&](const char* level, int threads) {
    simd::set_from_string(level);
    parallel::set_num_threads(threads);
    const auto lse = make_wirelength_model("LSE", 4.0);
    const auto wa = make_wirelength_model("WA", 4.0);
    DensityModel dm(p, cfg);
    Result r;
    std::vector<double> gx(p.nodes.size(), 0.0), gy(p.nodes.size(), 0.0);
    r.lse = lse->eval(p, gx, gy);
    r.g = gx;
    r.g.insert(r.g.end(), gy.begin(), gy.end());
    std::fill(gx.begin(), gx.end(), 0.0);
    std::fill(gy.begin(), gy.end(), 0.0);
    r.wa = wa->eval(p, gx, gy);
    r.g.insert(r.g.end(), gx.begin(), gx.end());
    r.g.insert(r.g.end(), gy.begin(), gy.end());
    std::fill(gx.begin(), gx.end(), 0.0);
    std::fill(gy.begin(), gy.end(), 0.0);
    r.dens = dm.eval(p, gx, gy);
    r.g.insert(r.g.end(), gx.begin(), gx.end());
    r.g.insert(r.g.end(), gy.begin(), gy.end());
    return r;
  };

  const Result ref = run("off", 1);
  EXPECT_TRUE(std::isfinite(ref.lse));
  EXPECT_TRUE(std::isfinite(ref.wa));
  for (const char* level : {"off", "auto"}) {
    for (const int threads : {1, 2, 4}) {
      const Result r = run(level, threads);
      EXPECT_EQ(ref.lse, r.lse) << level << " t=" << threads;
      EXPECT_EQ(ref.wa, r.wa) << level << " t=" << threads;
      EXPECT_EQ(ref.dens, r.dens) << level << " t=" << threads;
      EXPECT_EQ(ref.g, r.g) << level << " t=" << threads;
    }
  }
}

TEST(SimdModels, ValueThenGradientEqualsEval) {
  // The CG line search values its trials and takes the gradient only at the
  // accepted one. On a FRESH instance (no state left by an eval), value()
  // then gradient() must give eval()'s value and every gradient entry bit
  // for bit, at every dispatch level and pool width.
  DispatchGuard guard;
  Logger::set_level(LogLevel::Warn);
  PlaceProblem p = make_problem(generate_benchmark(small_spec(42)));
  const std::size_t nn = p.nodes.size();
  DensityConfig cfg;
  const auto same_bits = [](double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; };
  const auto same_vec = [](const std::vector<double>& a, const std::vector<double>& b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
  };

  for (const char* level : {"off", "auto"}) {
    for (const int threads : {1, 2, 4}) {
      simd::set_from_string(level);
      parallel::set_num_threads(threads);
      const std::string at = std::string(level) + " t=" + std::to_string(threads);

      for (const char* name : {"LSE", "WA"}) {
        const auto fused = make_wirelength_model(name, 4.0);
        const auto split = make_wirelength_model(name, 4.0);
        std::vector<double> fx(nn, 0.0), fy(nn, 0.0), sx(nn, 0.0), sy(nn, 0.0);
        const double fv = fused->eval(p, fx, fy);
        const double sv = split->value(p);
        split->gradient(sx, sy);
        EXPECT_TRUE(same_bits(fv, sv)) << name << " value " << at;
        EXPECT_TRUE(same_vec(fx, sx)) << name << " gx " << at;
        EXPECT_TRUE(same_vec(fy, sy)) << name << " gy " << at;
      }

      {
        DensityModel fused(p, cfg), split(p, cfg);
        std::vector<double> fx(nn, 0.0), fy(nn, 0.0), sx(nn, 0.0), sy(nn, 0.0);
        const double fv = fused.eval(p, fx, fy);
        const double sv = split.value(p);
        split.gradient(p, sx, sy);
        EXPECT_NE(fv, 0.0) << "density penalty must be live for this check";
        EXPECT_TRUE(same_bits(fv, sv)) << "density value " << at;
        EXPECT_TRUE(same_vec(fx, sx)) << "density gx " << at;
        EXPECT_TRUE(same_vec(fy, sy)) << "density gy " << at;
      }

      for (const double lambda : {0.0, 0.37}) {
        WaWirelength wl_f(4.0), wl_s(4.0);
        DensityModel dm_f(p, cfg), dm_s(p, cfg);
        PlacementObjective fused(p, wl_f, dm_f), split(p, wl_s, dm_s);
        fused.set_lambda(lambda);
        split.set_lambda(lambda);
        const std::vector<double> z = fused.pack();
        std::vector<double> fg(z.size()), sg(z.size());
        const double fv = fused.eval(z, fg);
        const double sv = split.value(z);
        split.gradient(sg);
        EXPECT_TRUE(same_bits(fv, sv)) << "objective value, lambda " << lambda << " " << at;
        EXPECT_TRUE(same_vec(fg, sg)) << "objective gradient, lambda " << lambda << " " << at;
      }
    }
  }
}

// -------------------------------- scratch re-use across problem shapes

TEST(SimdModels, ScratchSurvivesLargerMaxDegreeProblem) {
  DispatchGuard guard;
  Logger::set_level(LogLevel::Warn);
  // Same model instance, small problem first, then one whose max net degree
  // is larger — the reused per-thread scratch must regrow (regression: a
  // stale capacity sized to the first problem indexed out of bounds).
  const Design d_small = generate_benchmark(tiny_spec(5));
  const Design d_large = generate_benchmark(small_spec(42));
  PlaceProblem ps = make_problem(d_small);
  PlaceProblem pl = make_problem(d_large);
  ASSERT_GT(NetlistCsr::from_problem(pl).max_net_degree,
            NetlistCsr::from_problem(ps).max_net_degree);

  parallel::set_num_threads(2);
  const auto reused = make_wirelength_model("WA", 4.0);
  std::vector<double> gx(ps.nodes.size(), 0.0), gy(ps.nodes.size(), 0.0);
  reused->eval(ps, gx, gy);

  gx.assign(pl.nodes.size(), 0.0);
  gy.assign(pl.nodes.size(), 0.0);
  const double got = reused->eval(pl, gx, gy);

  const auto fresh = make_wirelength_model("WA", 4.0);
  std::vector<double> fx(pl.nodes.size(), 0.0), fy(pl.nodes.size(), 0.0);
  const double want = fresh->eval(pl, fx, fy);
  EXPECT_EQ(want, got);
  EXPECT_EQ(fx, gx);
  EXPECT_EQ(fy, gy);
}

// ----------------------------------------------------- incremental eval

TEST(IncrementalEval, TotalMatchesDesignHpwl) {
  Logger::set_level(LogLevel::Warn);
  const Design d = generate_benchmark(small_spec(11));
  IncrementalEval inc(d);
  EXPECT_EQ(d.hpwl(), inc.total_cost());
}

TEST(IncrementalEval, RandomMovesMatchFullRecompute) {
  Logger::set_level(LogLevel::Warn);
  Design d = generate_benchmark(small_spec(23));
  IncrementalEval inc(d);
  inc.set_cross_check(true);  // every trial self-verifies against recompute
  Rng rng(99);
  const std::vector<CellId>& movable = d.movable_cells();
  ASSERT_FALSE(movable.empty());

  auto nets_cost_full = [&](std::span<const NetId> nets) {
    double s = 0.0;
    for (const NetId n : nets) s += d.net(n).weight * d.net_hpwl(n);
    return s;
  };

  std::vector<NetId> uni;
  for (int iter = 0; iter < 1000; ++iter) {
    const CellId c = movable[rng.below(movable.size())];
    if (iter % 3 == 2) {
      // Swap trial vs mutate-and-measure.
      const CellId o = movable[rng.below(movable.size())];
      if (o == c) continue;
      inc.union_nets(c, o, uni);
      const double got = inc.trial_swap(c, o, uni);
      const Point pc = d.cell(c).pos, po = d.cell(o).pos;
      d.cell(c).pos = po;
      d.cell(o).pos = pc;
      const double want = nets_cost_full(uni);
      if (iter % 6 == 2) {
        // Commit the swap.
        inc.refresh_nets(uni);
      } else {
        d.cell(c).pos = pc;
        d.cell(o).pos = po;
      }
      EXPECT_EQ(want, got) << "swap iter " << iter;
    } else {
      // Single-cell move trial vs mutate-and-measure.
      const Point target{rng.uniform(d.die().lx, d.die().hx - d.cell(c).w),
                         rng.uniform(d.die().ly, d.die().hy - d.cell(c).h)};
      const double got = inc.trial_move(c, target);
      const Point old = d.cell(c).pos;
      d.cell(c).pos = target;
      const double want = nets_cost_full(inc.cell_nets(c));
      if (iter % 2 == 0) {
        inc.refresh_cell(c);  // commit
      } else {
        d.cell(c).pos = old;  // reject
      }
      EXPECT_EQ(want, got) << "move iter " << iter;
    }
  }
  // After ~hundreds of committed moves, no drift from the ground truth.
  EXPECT_EQ(d.hpwl(), inc.total_cost());
}

TEST(IncrementalEval, OccupancyMoveMatchesRebuild) {
  Logger::set_level(LogLevel::Warn);
  Design d = generate_benchmark(small_spec(31));
  const GridMap map(d.die(), 32, 32);
  IncrementalEval inc(d);
  inc.build_occupancy(map);
  Rng rng(5);
  const std::vector<CellId>& movable = d.movable_cells();

  for (int iter = 0; iter < 200; ++iter) {
    const CellId c = movable[rng.below(movable.size())];
    if (d.cell(c).kind != CellKind::StdCell) continue;
    const Point target{rng.uniform(d.die().lx, d.die().hx - d.cell(c).w),
                       rng.uniform(d.die().ly, d.die().hy - d.cell(c).h)};
    const Point old = d.cell(c).pos;
    d.cell(c).pos = target;
    inc.occupancy_move(c, old, target);
  }

  IncrementalEval fresh(d);
  fresh.build_occupancy(map);
  const auto& got = inc.occupancy();
  const auto& want = fresh.occupancy();
  ASSERT_EQ(want.data().size(), got.data().size());
  for (std::size_t i = 0; i < want.data().size(); ++i)
    EXPECT_NEAR(want.data()[i], got.data()[i], 1e-9) << "bin " << i;
}

}  // namespace
}  // namespace rp
