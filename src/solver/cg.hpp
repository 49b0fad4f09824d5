#pragma once
// Nonlinear conjugate gradient (Polak–Ribière+), the inner solver of the
// analytical global placer.
//
// Instead of an exact line search (expensive: every evaluation costs a full
// wirelength + density pass), the step follows this placer family's scheme:
// the step size is chosen so the LARGEST single-coordinate move equals a
// trust radius (typically one density-bin width), with backtracking only if
// the objective increases. PR+ restarts (β clamped at 0) keep directions
// descent-safe under this inexact search.
//
// Cost model. The objective is a pair: value(z) evaluates f at z and keeps
// what the gradient needs; gradient(g) finishes ∇f at the point valued
// LAST. The backtracking loop only values its trials — a rejected trial
// costs the value pass alone — and gradient() runs once at the start of a
// solve and once per accepted step that the solve continues from (the
// accepted trial is always the one valued last); the step that ends the
// solve, on f_rel_tol or at max_iters, needs no gradient. A solve of k ≥ 1
// iterations with t trials in all therefore costs t + 1 value passes and k
// gradient passes.

#include <functional>
#include <span>
#include <vector>

namespace rp {

struct CgOptions {
  int max_iters = 100;
  double trust_radius = 1.0;      ///< Max per-coordinate displacement per step.
  double grad_tol = 1e-6;         ///< Stop when ||g||∞ < grad_tol.
  double f_rel_tol = 1e-7;        ///< Stop on tiny relative objective change.
  int max_backtracks = 6;         ///< Halvings before accepting uphill drift.
};

struct CgResult {
  double f = 0.0;       ///< Final objective value.
  int iters = 0;        ///< Iterations actually performed.
  bool converged = false;
};

/// The objective as a value/gradient pair (see the cost model above):
/// value(z) returns f(z); gradient(g) fills g (same size as z) with ∇f at
/// the z of the most recent value() call.
struct CgObjective {
  std::function<double(std::span<const double>)> value;
  std::function<void(std::span<double>)> gradient;
};

/// Minimize starting from z (updated in place).
CgResult minimize_cg(const CgObjective& f, std::vector<double>& z, const CgOptions& opt);

/// minimize_cg with numeric guard rails: if the solve leaves any NaN/Inf in
/// z, restore the last-good z, halve the trust radius, and retry ONCE; a
/// second non-finite result restores z and throws rp::Error(NumericError).
/// The stage of the error, the warning and the guard events is the current
/// context's open span path ("global/level2", "global/level0/routability"),
/// a stage_times key; each retry and abort bumps the context's
/// guard.retries / guard.aborts counters. Bitwise-deterministic: the guard
/// only inspects values the solve produced.
CgResult minimize_cg_guarded(const CgObjective& f, std::vector<double>& z,
                             const CgOptions& opt);

}  // namespace rp
