// Nonlinear CG solver: convergence on standard test functions, trust-radius
// semantics, degenerate inputs, and the line search's cost model (trials
// are valued, only accepted steps get a gradient).

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "fused_objective.hpp"
#include "solver/cg.hpp"

namespace rp {
namespace {

TEST(Cg, MinimizesSphere) {
  // f = Σ (x_i - i)²
  std::vector<double> z(8, 0.0);
  CgOptions opt;
  opt.max_iters = 200;
  opt.trust_radius = 0.5;
  const auto res = minimize_cg(
      fused([](std::span<const double> x, std::span<double> g) {
        double f = 0;
        for (std::size_t i = 0; i < x.size(); ++i) {
          const double d = x[i] - static_cast<double>(i);
          f += d * d;
          g[i] = 2 * d;
        }
        return f;
      }),
      z, opt);
  EXPECT_LT(res.f, 1e-6);
  for (std::size_t i = 0; i < z.size(); ++i) EXPECT_NEAR(z[i], static_cast<double>(i), 1e-3);
}

TEST(Cg, MinimizesIllConditionedQuadratic) {
  // f = x² + 100 y²
  std::vector<double> z{10.0, 10.0};
  CgOptions opt;
  opt.max_iters = 500;
  opt.trust_radius = 0.5;
  opt.f_rel_tol = 1e-14;
  const auto res = minimize_cg(
      fused([](std::span<const double> x, std::span<double> g) {
        g[0] = 2 * x[0];
        g[1] = 200 * x[1];
        return x[0] * x[0] + 100 * x[1] * x[1];
      }),
      z, opt);
  EXPECT_LT(res.f, 1e-3);
}

TEST(Cg, RosenbrockMakesProgress) {
  std::vector<double> z{-1.2, 1.0};
  CgOptions opt;
  opt.max_iters = 2000;
  opt.trust_radius = 0.05;
  opt.f_rel_tol = 1e-16;
  const auto rosen = [](std::span<const double> x, std::span<double> g) {
    const double a = 1 - x[0];
    const double b = x[1] - x[0] * x[0];
    g[0] = -2 * a - 400 * x[0] * b;
    g[1] = 200 * b;
    return a * a + 100 * b * b;
  };
  const auto res = minimize_cg(fused(rosen), z, opt);
  EXPECT_LT(res.f, 0.1);  // hard function; big reduction from 24.2 suffices
}

TEST(Cg, RespectsTrustRadiusPerStep) {
  // With a single gradient evaluation recorded, the first step must move no
  // coordinate more than trust_radius.
  std::vector<double> z{0.0, 0.0};
  std::vector<std::vector<double>> seen;
  CgOptions opt;
  opt.max_iters = 1;
  opt.trust_radius = 0.25;
  minimize_cg(
      fused([&](std::span<const double> x, std::span<double> g) {
        seen.emplace_back(x.begin(), x.end());
        g[0] = -8;  // pulls +x hard
        g[1] = -1;
        return -(8 * x[0] + x[1]);
      }),
      z, opt);
  for (const auto& x : seen) {
    EXPECT_LE(std::abs(x[0]), 0.25 + 1e-12);
    EXPECT_LE(std::abs(x[1]), 0.25 + 1e-12);
  }
}

TEST(Cg, ConvergedFlagOnFlatFunction) {
  std::vector<double> z{1.0, 2.0};
  CgOptions opt;
  opt.max_iters = 10;
  const auto res = minimize_cg(
      fused([](std::span<const double>, std::span<double> g) {
        g[0] = g[1] = 0.0;
        return 42.0;
      }),
      z, opt);
  EXPECT_TRUE(res.converged);
  EXPECT_DOUBLE_EQ(res.f, 42.0);
  EXPECT_DOUBLE_EQ(z[0], 1.0);
}

TEST(Cg, StopsOnSmallRelativeChange) {
  std::vector<double> z{100.0};
  CgOptions opt;
  opt.max_iters = 10000;
  opt.trust_radius = 1e-9;  // tiny steps: relative-change stop must fire
  const auto res = minimize_cg(
      fused([](std::span<const double> x, std::span<double> g) {
        g[0] = 2 * x[0];
        return x[0] * x[0];
      }),
      z, opt);
  EXPECT_TRUE(res.converged);
  EXPECT_LT(res.iters, 100);
}

TEST(Cg, BacktracksOnOvershoot) {
  // Narrow valley: full trust step overshoots; solver must still descend.
  std::vector<double> z{3.0};
  CgOptions opt;
  opt.max_iters = 60;
  opt.trust_radius = 2.9;  // deliberately coarse
  const auto res = minimize_cg(
      fused([](std::span<const double> x, std::span<double> g) {
        g[0] = 4 * x[0] * x[0] * x[0];
        return x[0] * x[0] * x[0] * x[0];
      }),
      z, opt);
  EXPECT_LT(res.f, 81.0);  // f(3)=81; must have improved
  EXPECT_LT(std::abs(z[0]), 3.0);
}

TEST(Cg, GradientOnlyAtAcceptedSteps) {
  // f = x⁴ from x = 3 with a coarse trust radius: the full step overshoots,
  // so the line search backtracks. Log every call and replay the line
  // search's acceptance rule over the log.
  struct Call {
    bool grad;
    double f;
  };
  std::vector<Call> log;
  double x = 0.0;  // point of the last value() call
  const CgObjective f{[&](std::span<const double> z) {
                        x = z[0];
                        const double v = x * x * x * x;
                        log.push_back({false, v});
                        return v;
                      },
                      [&](std::span<double> g) {
                        g[0] = 4 * x * x * x;
                        log.push_back({true, 0.0});
                      }};
  std::vector<double> z{3.0};
  CgOptions opt;
  opt.max_iters = 60;
  opt.trust_radius = 2.9;
  const CgResult res = minimize_cg(f, z, opt);

  ASSERT_GE(log.size(), 2u);
  ASSERT_FALSE(log[0].grad);
  ASSERT_TRUE(log[1].grad);  // the start point gets its gradient
  double fz = log[0].f;
  int values = 1, gradients = 1, accepted = 0, rejected = 0;
  std::vector<double> trials;
  for (std::size_t i = 2; i < log.size(); ++i) {
    if (!log[i].grad) {
      ++values;
      trials.push_back(log[i].f);
      continue;
    }
    // A gradient closes one line search: its last trial was accepted and
    // every earlier trial of it was rejected as uphill.
    ++gradients;
    ASSERT_FALSE(trials.empty()) << "gradient() without a trial at call " << i;
    ASSERT_LE(trials.size(), static_cast<std::size_t>(opt.max_backtracks + 1));
    for (std::size_t t = 0; t + 1 < trials.size(); ++t) {
      EXPECT_GT(trials[t], fz) << "a downhill trial was rejected";
      ++rejected;
    }
    EXPECT_TRUE(trials.back() <= fz ||
                trials.size() == static_cast<std::size_t>(opt.max_backtracks + 1));
    fz = trials.back();
    ++accepted;
    trials.clear();
  }
  EXPECT_TRUE(trials.empty()) << "a line search ended without its gradient";
  EXPECT_GT(rejected, 0) << "the objective must force backtracks";
  EXPECT_EQ(gradients, accepted + 1);
  EXPECT_EQ(values, accepted + rejected + 1);  // once per trial, plus the start
  EXPECT_GE(accepted, res.iters - 1);  // the last iteration may stop on ||d||
  EXPECT_LE(accepted, res.iters);
  EXPECT_EQ(fz, res.f);
}

}  // namespace
}  // namespace rp
