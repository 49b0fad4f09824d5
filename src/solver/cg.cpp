#include "solver/cg.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"
#include "util/error.hpp"
#include "util/logger.hpp"
#include "util/obs_context.hpp"
#include "util/parallel.hpp"
#include "util/profiler.hpp"
#include "util/simd.hpp"
#include "util/telemetry.hpp"

namespace rp {

namespace {

// Vector kernels routed through the deterministic pool: chunk-ordered
// reductions, so every thread count produces the same bits. Inside each
// chunk the dispatched simd kernels run (util/simd.hpp) — scalar and
// vector levels share one summation tree, so RP_SIMD does not change the
// bits either. The grain keeps small systems (coarse levels, tests) on the
// inline fast path.
constexpr std::size_t kVecGrain = 4096;

double inf_norm(const std::vector<double>& v) {
  return parallel::parallel_reduce(
      v.size(), kVecGrain, 0.0,
      [&](std::size_t b, std::size_t e, int) {
        return simd::ops().abs_max(v.data() + b, e - b);
      },
      [](double a, double b) { return std::max(a, b); });
}

double dot(const std::vector<double>& a, const std::vector<double>& b) {
  return parallel::parallel_reduce(
      a.size(), kVecGrain, 0.0,
      [&](std::size_t bg, std::size_t e, int) {
        return simd::ops().dot(a.data() + bg, b.data() + bg, e - bg);
      },
      [](double x, double y) { return x + y; });
}

/// z_trial = z + alpha * d  (element-parallel).
void axpy_into(std::vector<double>& out, const std::vector<double>& z, double alpha,
               const std::vector<double>& d) {
  parallel::parallel_for(out.size(), kVecGrain, [&](std::size_t b, std::size_t e, int) {
    simd::ops().axpy_out(z.data() + b, alpha, d.data() + b, e - b, out.data() + b);
  });
}

}  // namespace

CgResult minimize_cg(const CgObjective& f, std::vector<double>& z, const CgOptions& opt) {
  RP_ASSERT(!z.empty(), "minimize_cg on empty vector");
  RP_PROFILE_REGION("kernel/cg");
  const std::size_t n = z.size();
  std::vector<double> g(n), g_prev(n), d(n), z_trial(n);

  CgResult res;
  double fz = f.value(z);
  f.gradient(g);
  res.f = fz;
  parallel::parallel_for(n, kVecGrain, [&](std::size_t b, std::size_t e, int) {
    simd::ops().neg(g.data() + b, e - b, d.data() + b);
  });

  for (int it = 0; it < opt.max_iters; ++it) {
    res.iters = it + 1;
    const double dmax = inf_norm(d);
    if (dmax < opt.grad_tol) {
      res.converged = true;
      break;
    }
    // Scale so the largest coordinate moves exactly trust_radius.
    double alpha = opt.trust_radius / dmax;
    double f_new = 0.0;
    bool accepted = false;
    for (int bt = 0; bt <= opt.max_backtracks; ++bt) {
      axpy_into(z_trial, z, alpha, d);
      f_new = f.value(z_trial);
      if (f_new <= fz || bt == opt.max_backtracks) {
        accepted = true;
        break;
      }
      alpha *= 0.5;
    }
    if (!accepted) break;
    z.swap(z_trial);

    const double f_prev = fz;
    fz = f_new;
    res.f = fz;
    if (std::abs(f_prev - fz) <= opt.f_rel_tol * std::max(1.0, std::abs(f_prev))) {
      res.converged = true;
      break;
    }
    // The last iteration stops here: no further step needs a direction.
    if (it + 1 == opt.max_iters) break;

    // The accepted trial is the point valued last: finish its gradient.
    g_prev.swap(g);
    f.gradient(g);

    // Polak–Ribière+ with automatic restart (β clamped at 0).
    const double num = parallel::parallel_reduce(
        n, kVecGrain, 0.0,
        [&](std::size_t b, std::size_t e, int) {
          return simd::ops().pr_num(g.data() + b, g_prev.data() + b, e - b);
        },
        [](double x, double y) { return x + y; });
    const double den = dot(g_prev, g_prev);
    const double beta = den > 0 ? std::max(0.0, num / den) : 0.0;
    const double gd = parallel::parallel_reduce(
        n, kVecGrain, 0.0,
        [&](std::size_t b, std::size_t e, int) {
          const simd::Ops& ops = simd::ops();
          ops.cg_dir(g.data() + b, beta, d.data() + b, e - b);
          return ops.dot(g.data() + b, d.data() + b, e - b);
        },
        [](double x, double y) { return x + y; });
    // Safeguard: if not a descent direction, restart with steepest descent.
    if (gd >= 0.0) {
      parallel::parallel_for(n, kVecGrain, [&](std::size_t b, std::size_t e, int) {
        simd::ops().neg(g.data() + b, e - b, d.data() + b);
      });
    }
  }
  RP_COUNT("solver.cg_calls", 1);
  RP_COUNT("solver.cg_iters", res.iters);
  return res;
}

namespace {

bool all_finite(const std::vector<double>& v) {
  // Deterministic early-exit scan on the calling thread; the guard must not
  // perturb pool chunking (results are compared bitwise across thread counts).
  for (const double x : v)
    if (!std::isfinite(x)) return false;
  return true;
}

}  // namespace

CgResult minimize_cg_guarded(const CgObjective& f, std::vector<double>& z,
                             const CgOptions& opt) {
  const std::vector<double> last_good = z;  // snapshot before the solve
  CgResult res = minimize_cg(f, z, opt);
  if (all_finite(z) && std::isfinite(res.f)) return res;

  // Graceful degradation: restore the last-good coordinates, halve the step
  // (trust radius), and give the solve one more chance.
  const std::string stage = obs::current().span_path();
  RP_WARN("numeric guard [%s]: non-finite coordinates after CG; restoring "
          "last-good state and retrying with halved trust radius",
          stage.c_str());
  RP_COUNT("guard.nonfinite_detected", 1);
  RP_COUNT("guard.retries", 1);
  {
    obs::Event e = obs::events().make(obs::EventKind::Guard,
                                      ("cg.retry:" + stage).c_str());
    e.i0 = 1;  // retry number (single-retry policy)
    e.d0 = opt.trust_radius * 0.5;
    obs::events().emit(e);
  }
  z = last_good;
  CgOptions degraded = opt;
  degraded.trust_radius = opt.trust_radius * 0.5;
  res = minimize_cg(f, z, degraded);
  if (all_finite(z) && std::isfinite(res.f)) return res;

  z = last_good;  // leave the caller with usable coordinates
  RP_COUNT("guard.aborts", 1);
  {
    obs::Event e = obs::events().make(obs::EventKind::Guard,
                                      ("cg.abort:" + stage).c_str());
    obs::events().emit(e);
  }
  throw Error(ErrorCode::NumericError,
              "non-finite coordinates/objective survived restore-and-retry",
              "cg.cpp:guard", stage);
}

}  // namespace rp
