#include "model/wirelength.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "util/assert.hpp"
#include "util/parallel.hpp"
#include "util/profiler.hpp"
#include "util/simd.hpp"
#include "util/telemetry.hpp"

namespace rp {

namespace {

constexpr std::size_t kNetGrain = 64;    ///< Nets per chunk (min).
constexpr std::size_t kNodeGrain = 2048; ///< Nodes per gather chunk (min).

/// Fill s.ep = exp((c - mx)·ig) and s.em = exp((mn - c)·ig) through the
/// dispatched batch kernels. Exp arguments are staged in s.arg so the
/// vector exp consumes a contiguous block; every argument is <= 0 by
/// construction (c - mx <= 0 and -(c - mn) <= 0 exactly).
void exp_both_sides(const double* c, std::size_t un, double mn, double mx,
                    double ig, WlThreadScratch& s) {
  const simd::Ops& ops = simd::ops();
  ops.affine(c, un, -mx, ig, s.arg.data());
  ops.exp_nonpos(s.arg.data(), un, s.ep.data());
  ops.affine(c, un, -mn, -ig, s.arg.data());
  ops.exp_nonpos(s.arg.data(), un, s.em.data());
}

/// One axis of one net under LSE over c[0..n). Returns the net's smoothed
/// extent and writes dWL/d(pin coordinate) per pin into dc.
double lse_axis(const double* c, int n, double gamma, double* dc, WlThreadScratch& s) {
  const auto un = static_cast<std::size_t>(n);
  const simd::Ops& ops = simd::ops();
  s.ensure(un);
  double mn, mx;
  ops.minmax(c, un, &mn, &mx);
  exp_both_sides(c, un, mn, mx, 1.0 / gamma, s);
  const double sp = ops.sum(s.ep.data(), un);
  const double sm = ops.sum(s.em.data(), un);
  ops.lse_grad(s.ep.data(), s.em.data(), un, 1.0 / sp, 1.0 / sm, dc);
  return (mx - mn) + gamma * (std::log(sp) + std::log(sm));
}

/// One axis of one net under WA.
double wa_axis(const double* c, int n, double gamma, double* dc, WlThreadScratch& s) {
  const auto un = static_cast<std::size_t>(n);
  const simd::Ops& ops = simd::ops();
  s.ensure(un);
  double mn, mx;
  ops.minmax(c, un, &mn, &mx);
  const double ig = 1.0 / gamma;
  exp_both_sides(c, un, mn, mx, ig, s);
  const double sp = ops.sum(s.ep.data(), un);
  const double sm = ops.sum(s.em.data(), un);
  const double wsp = ops.dot(c, s.ep.data(), un);
  const double wsm = ops.dot(c, s.em.data(), un);
  const double xmax = wsp / sp;  // smoothed max
  const double xmin = wsm / sm;  // smoothed min
  // d(xmax)/dci = e_i (1 + (c_i - xmax)·ig) / sp ; analogously for xmin.
  ops.wa_grad(c, s.ep.data(), s.em.data(), un, xmax, xmin, ig, 1.0 / sp,
              1.0 / sm, dc);
  return xmax - xmin;
}

/// Parallel net-chunk value pass. Every net writes its per-pin gradients
/// into csr.pin_gx/pin_gy (each pin written by exactly one chunk) while its
/// exps are live; the value is reduced in fixed chunk order — bitwise
/// independent of the thread count.
template <typename AxisFn>
double value_csr(const PlaceProblem& p, NetlistCsr& c,
                 std::vector<WlThreadScratch>& scratch, double gamma, AxisFn&& axis) {
  RP_PROFILE_REGION("kernel/wirelength");
  c.gather_coords(p);
  const auto nets = static_cast<std::size_t>(c.num_nets);
  return parallel::parallel_reduce(
      nets, kNetGrain, 0.0,
      [&](std::size_t b, std::size_t e, int worker) -> double {
        WlThreadScratch& s = scratch[static_cast<std::size_t>(worker)];
        double part = 0.0;
        for (std::size_t n = b; n < e; ++n) {
          const int off = c.net_offset[n];
          const int deg = c.net_offset[n + 1] - off;
          double* dgx = c.pin_gx.data() + off;
          double* dgy = c.pin_gy.data() + off;
          if (deg < 2) {
            for (int i = 0; i < deg; ++i) dgx[i] = dgy[i] = 0.0;
            continue;
          }
          const double w = c.net_weight[n];
          part += w * axis(c.pin_cx.data() + off, deg, gamma, dgx, s);
          part += w * axis(c.pin_cy.data() + off, deg, gamma, dgy, s);
          if (w != 1.0)
            for (int i = 0; i < deg; ++i) {
              dgx[i] *= w;
              dgy[i] *= w;
            }
        }
        return part;
      },
      [](double a, double b) { return a + b; });
}

}  // namespace

NetlistCsr& WirelengthModel::prepare(const PlaceProblem& p) const {
  if (!csr_valid_ || csr_.num_nodes != p.num_nodes() ||
      csr_.num_nets != p.num_nets() ||
      csr_.num_pins != static_cast<int>(p.pins.size())) {
    csr_ = NetlistCsr::from_problem(p);
    csr_valid_ = true;
  }
  const auto threads = static_cast<std::size_t>(parallel::num_threads());
  if (scratch_.size() < threads) scratch_.resize(threads);
  // Pre-size every slot to the largest net so steady-state evals never
  // reallocate; the per-net ensure() in the axis kernels stays as the
  // defensive backstop (a larger design on a reused pool must never index
  // a stale capacity).
  for (auto& s : scratch_) s.ensure(static_cast<std::size_t>(csr_.max_net_degree));
  RP_COUNT("parallel.wl_evals", 1);
  return csr_;
}

double WirelengthModel::eval(const PlaceProblem& p, std::span<double> gx,
                             std::span<double> gy) const {
  const double v = value(p);
  gradient(gx, gy);
  return v;
}

void WirelengthModel::gradient(std::span<double> gx, std::span<double> gy) const {
  RP_ASSERT(csr_valid_, "wirelength gradient() without a value()");
  const NetlistCsr& c = csr_;
  if (gx.size() != static_cast<std::size_t>(c.num_nodes) ||
      gy.size() != static_cast<std::size_t>(c.num_nodes))
    throw std::runtime_error("wirelength gradient: span size mismatch");
  RP_PROFILE_REGION("kernel/wirelength_grad");
  // Per node, sum its pins' slots in ascending pin order — the order a
  // sequential walk over nets would accumulate them.
  parallel::parallel_for(
      static_cast<std::size_t>(c.num_nodes), kNodeGrain,
      [&](std::size_t b, std::size_t e, int) {
        for (std::size_t v = b; v < e; ++v) {
          const int k0 = c.node_pin_offset[v];
          const int k1 = c.node_pin_offset[v + 1];
          double sx = 0.0, sy = 0.0;
          for (int k = k0; k < k1; ++k) {
            const auto pin = static_cast<std::size_t>(c.node_pin[static_cast<std::size_t>(k)]);
            sx += c.pin_gx[pin];
            sy += c.pin_gy[pin];
          }
          gx[v] += sx;
          gy[v] += sy;
        }
      });
}

double LseWirelength::value(const PlaceProblem& p) const {
  return value_csr(p, prepare(p), scratch(), gamma_, lse_axis);
}

double WaWirelength::value(const PlaceProblem& p) const {
  return value_csr(p, prepare(p), scratch(), gamma_, wa_axis);
}

std::unique_ptr<WirelengthModel> make_wirelength_model(const std::string& name,
                                                       double gamma) {
  if (name == "LSE" || name == "lse") return std::make_unique<LseWirelength>(gamma);
  if (name == "WA" || name == "wa") return std::make_unique<WaWirelength>(gamma);
  throw std::runtime_error("unknown wirelength model '" + name + "'");
}

}  // namespace rp
