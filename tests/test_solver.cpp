// Nonlinear CG solver: convergence on standard test functions, trust-radius
// semantics, degenerate inputs, and the line search's cost model (trials
// are valued, only accepted steps get a gradient).

#include <gtest/gtest.h>

#include <algorithm>
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

/// One objective call of a logged solve: a value (with its f) or a gradient.
struct Call {
  bool grad;
  double f;
};

/// Minimize f = x⁴ from x = 3, logging every objective call.
CgResult solve_x4(const CgOptions& opt, std::vector<Call>& log) {
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
  return minimize_cg(f, z, opt);
}

/// A logged solve's line searches, replayed with the solver's acceptance
/// rule.
struct Replay {
  int values = 0, gradients = 0, accepted = 0, rejected = 0;
  double f_prev = 0.0;     ///< Objective before the last accepted step.
  double f = 0.0;          ///< Objective after it.
  bool open_tail = false;  ///< The final line search got no gradient.
};

/// Close one line search: its last trial was accepted and every earlier
/// trial of it was rejected as uphill.
void close_search(std::vector<double>& trials, const CgOptions& opt, Replay* r) {
  ASSERT_FALSE(trials.empty());
  ASSERT_LE(trials.size(), static_cast<std::size_t>(opt.max_backtracks + 1));
  for (std::size_t t = 0; t + 1 < trials.size(); ++t) {
    EXPECT_GT(trials[t], r->f) << "a downhill trial was rejected";
    ++r->rejected;
  }
  EXPECT_TRUE(trials.back() <= r->f ||
              trials.size() == static_cast<std::size_t>(opt.max_backtracks + 1));
  r->f_prev = r->f;
  r->f = trials.back();
  ++r->accepted;
  trials.clear();
}

/// A gradient closes the line search before it; trials after the last
/// gradient form the final line search, whose step ended the solve.
void replay(const std::vector<Call>& log, const CgOptions& opt, Replay* r) {
  ASSERT_GE(log.size(), 2u);
  ASSERT_FALSE(log[0].grad);
  ASSERT_TRUE(log[1].grad);  // the start point gets its gradient
  r->values = r->gradients = 1;
  r->f = log[0].f;
  std::vector<double> trials;
  for (std::size_t i = 2; i < log.size(); ++i) {
    if (!log[i].grad) {
      ++r->values;
      trials.push_back(log[i].f);
      continue;
    }
    ASSERT_FALSE(trials.empty()) << "gradient() without a trial at call " << i;
    ++r->gradients;
    ASSERT_NO_FATAL_FAILURE(close_search(trials, opt, r));
  }
  if (!trials.empty()) {
    r->open_tail = true;
    ASSERT_NO_FATAL_FAILURE(close_search(trials, opt, r));
  }
}

TEST(Cg, GradientOnlyAtAcceptedSteps) {
  // A coarse trust radius makes the full step overshoot, so the line search
  // backtracks. Every trial is valued; only an accepted step that the solve
  // continues from gets a gradient.
  CgOptions opt;
  opt.max_iters = 60;
  opt.trust_radius = 2.9;
  std::vector<Call> log;
  const CgResult res = solve_x4(opt, log);
  Replay r;
  ASSERT_NO_FATAL_FAILURE(replay(log, opt, &r));
  EXPECT_GT(r.rejected, 0) << "the objective must force backtracks";
  EXPECT_EQ(r.values, r.accepted + r.rejected + 1);  // once per trial, plus the start
  EXPECT_GE(r.accepted, res.iters - 1);  // the last iteration may stop on ||d||
  EXPECT_LE(r.accepted, res.iters);
  // The start's gradient, then one per step the solve continued from: a
  // solve that ended on a step (not on ||d||) left that step without one.
  EXPECT_EQ(r.gradients, res.iters);
  EXPECT_EQ(r.open_tail, r.accepted == res.iters);
  EXPECT_EQ(r.f, res.f);
}

TEST(Cg, RelativeChangeStopTakesNoFinalGradient) {
  CgOptions opt;
  opt.max_iters = 60;
  opt.trust_radius = 2.9;
  opt.f_rel_tol = 1e-2;
  std::vector<Call> log;
  const CgResult res = solve_x4(opt, log);
  Replay r;
  ASSERT_NO_FATAL_FAILURE(replay(log, opt, &r));
  // The solve stopped on the relative change of its last accepted step...
  EXPECT_TRUE(res.converged);
  EXPECT_LT(res.iters, opt.max_iters);
  EXPECT_LE(std::abs(r.f_prev - r.f), opt.f_rel_tol * std::max(1.0, std::abs(r.f_prev)));
  // ...and that step's line search is not closed by a gradient.
  EXPECT_TRUE(r.open_tail);
  EXPECT_EQ(r.accepted, res.iters);
  EXPECT_EQ(r.gradients, res.iters);
  EXPECT_EQ(r.values, r.accepted + r.rejected + 1);
  EXPECT_EQ(r.f, res.f);
}

TEST(Cg, MaxItersStopTakesNoFinalGradient) {
  CgOptions opt;
  opt.max_iters = 3;
  opt.trust_radius = 2.9;
  opt.f_rel_tol = 0.0;  // only an exactly repeated value would stop early
  std::vector<Call> log;
  const CgResult res = solve_x4(opt, log);
  Replay r;
  ASSERT_NO_FATAL_FAILURE(replay(log, opt, &r));
  EXPECT_FALSE(res.converged);
  EXPECT_EQ(res.iters, opt.max_iters);
  EXPECT_TRUE(r.open_tail);
  EXPECT_EQ(r.accepted, opt.max_iters);
  EXPECT_EQ(r.gradients, opt.max_iters);  // the start's, then after steps 1 and 2
  EXPECT_EQ(r.values, r.accepted + r.rejected + 1);
  EXPECT_EQ(r.f, res.f);
}

}  // namespace
}  // namespace rp
