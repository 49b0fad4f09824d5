#include "model/density.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/assert.hpp"
#include "util/parallel.hpp"
#include "util/profiler.hpp"
#include "util/simd.hpp"
#include "util/telemetry.hpp"

namespace rp {

namespace {

// Pass-1/rasterization chunking: few, fat chunks — every chunk owns a full
// scratch bin grid, so the cap bounds the extra memory at kGridChunkCap
// grids regardless of thread count.
constexpr std::size_t kNodeGrain = 256;
constexpr int kGridChunkCap = 8;
constexpr std::size_t kBinGrain = 4096;

/// One axis of the bell-shaped potential.
///   d1 = w/2 + bin, d2 = w/2 + 2·bin
///   p(d) = 1 - a·d²        for |d| ≤ d1      a = 1/(d1·d2)
///        = b·(|d| - d2)²   for d1 < |d| ≤ d2  b = 1/(bin·d2)
///        = 0               beyond
/// C1-continuous at d1 and d2 by construction.
struct Bell {
  double d1, d2, a, b;

  Bell(double w, double bin) {
    d1 = w / 2 + bin;
    d2 = w / 2 + 2 * bin;
    a = 1.0 / (d1 * d2);
    b = 1.0 / (bin * d2);
  }
  double value(double dx) const {
    const double d = std::abs(dx);
    if (d <= d1) return 1.0 - a * d * d;
    if (d <= d2) {
      const double t = d - d2;
      return b * t * t;
    }
    return 0.0;
  }
  /// d p / d dx (signed).
  double deriv(double dx) const {
    const double d = std::abs(dx);
    const double sign = dx >= 0 ? 1.0 : -1.0;
    if (d <= d1) return -2.0 * a * d * sign;
    if (d <= d2) return 2.0 * b * (d - d2) * sign;
    return 0.0;
  }
};

}  // namespace

int auto_bin_count(int num_movable) {
  int target = static_cast<int>(std::sqrt(std::max(1, num_movable)));
  int n = 8;
  while (n < target && n < 1024) n *= 2;
  return n;
}

DensityModel::DensityModel(const PlaceProblem& p, const DensityConfig& cfg) {
  int movable = 0;
  for (const auto& n : p.nodes)
    if (!n.fixed) ++movable;
  const int nx = cfg.nx > 0 ? cfg.nx : auto_bin_count(movable);
  const int ny = cfg.ny > 0 ? cfg.ny : auto_bin_count(movable);
  grid_ = GridMap(p.die, nx, ny);
  xc_.resize(static_cast<std::size_t>(nx));
  yc_.resize(static_cast<std::size_t>(ny));
  for (int ix = 0; ix < nx; ++ix) xc_[static_cast<std::size_t>(ix)] = grid_.bin_center(ix, 0).x;
  for (int iy = 0; iy < ny; ++iy) yc_[static_cast<std::size_t>(iy)] = grid_.bin_center(0, iy).y;
  target_density_ = cfg.target_density;
  scale_ = Grid2D<double>(nx, ny, 1.0);
  dens_ = Grid2D<double>(nx, ny, 0.0);
  resid_ = Grid2D<double>(nx, ny, 0.0);
  rebuild_fixed(p);
}

void DensityModel::rebuild_fixed(const PlaceProblem& p) {
  fixed_area_ = Grid2D<double>(grid_.nx(), grid_.ny(), 0.0);
  for (int v = 0; v < p.num_nodes(); ++v) {
    const auto& n = p.nodes[static_cast<std::size_t>(v)];
    if (!n.fixed) continue;
    const double cx = p.x[static_cast<std::size_t>(v)];
    const double cy = p.y[static_cast<std::size_t>(v)];
    const Rect r{cx - n.w / 2, cy - n.h / 2, cx + n.w / 2, cy + n.h / 2};
    grid_.rasterize(r, [&](int ix, int iy, double a) { fixed_area_(ix, iy) += a; });
  }
  rebuild_capacity();
}

void DensityModel::rebuild_capacity() {
  cap_ = Grid2D<double>(grid_.nx(), grid_.ny(), 0.0);
  const double ba = grid_.bin_area();
  for (int iy = 0; iy < grid_.ny(); ++iy)
    for (int ix = 0; ix < grid_.nx(); ++ix) {
      const double free_area = std::max(0.0, ba - fixed_area_(ix, iy));
      cap_(ix, iy) = target_density_ * free_area * scale_(ix, iy);
    }
}

void DensityModel::apply_capacity_scale(const Grid2D<double>& scale) {
  RP_ASSERT(scale.nx() == grid_.nx() && scale.ny() == grid_.ny(),
            "capacity scale grid size mismatch");
  scale_ = scale;
  rebuild_capacity();
}

double DensityModel::eval(const PlaceProblem& p, std::span<double> gx,
                          std::span<double> gy) {
  const double penalty = value(p);
  gradient(p, gx, gy);
  return penalty;
}

double DensityModel::value(const PlaceProblem& p) {
  RP_PROFILE_REGION("kernel/density");
  const int nx = grid_.nx(), ny = grid_.ny();
  const double bw = grid_.bin_w(), bh = grid_.bin_h();
  const auto nn = static_cast<std::size_t>(p.num_nodes());
  RP_COUNT("parallel.density_evals", 1);

  // Pass 1: accumulate smoothed density, one scratch grid per node chunk;
  // the per-node normalization c_v is cached for pass 2. The x-axis bell is
  // sampled once per node into a per-worker row buffer (bins are uniform,
  // so the sample points are d0 + i·(-bin_w)) and applied row-wise with
  // the dispatched sum/axpy kernels — Grid2D rows are contiguous in ix.
  csum_.resize(nn);
  const auto workers = static_cast<std::size_t>(parallel::num_threads());
  if (row_scratch_.size() < workers) row_scratch_.resize(workers);
  const parallel::ChunkPlan plan = parallel::plan_chunks(nn, kNodeGrain, kGridChunkCap);
  if (static_cast<int>(chunk_dens_.size()) < plan.count)
    chunk_dens_.resize(static_cast<std::size_t>(plan.count));
  parallel::ThreadPool::instance().run(plan, [&](int ci, int worker) {
    const simd::Ops& ops = simd::ops();
    RowScratch& sc = row_scratch_[static_cast<std::size_t>(worker)];
    sc.ensure(static_cast<std::size_t>(nx));
    Grid2D<double>& g = chunk_dens_[static_cast<std::size_t>(ci)];
    if (g.nx() != nx || g.ny() != ny) g = Grid2D<double>(nx, ny, 0.0);
    else g.fill(0.0);
    for (std::size_t uv = plan.begin(ci); uv < plan.end(ci); ++uv) {
      csum_[uv] = 0.0;
      const auto& n = p.nodes[uv];
      if (n.fixed) continue;
      const double cx = p.x[uv];
      const double cy = p.y[uv];
      const Bell bx(n.w, bw), by(n.h, bh);
      const int ix0 = std::max(0, grid_.ix_of(cx - bx.d2) - 1);
      const int ix1 = std::min(nx - 1, grid_.ix_of(cx + bx.d2) + 1);
      const int iy0 = std::max(0, grid_.iy_of(cy - by.d2) - 1);
      const int iy1 = std::min(ny - 1, grid_.iy_of(cy + by.d2) + 1);
      const auto rw = static_cast<std::size_t>(ix1 - ix0 + 1);
      ops.bell_row(cx - xc_[static_cast<std::size_t>(ix0)], -bw, rw, bx.d1,
                   bx.d2, bx.a, bx.b, sc.px.data());
      const double row_sum = ops.sum(sc.px.data(), rw);
      double s = 0.0;
      for (int iy = iy0; iy <= iy1; ++iy) {
        const double py = by.value(cy - yc_[static_cast<std::size_t>(iy)]);
        if (py == 0.0) continue;
        s += py * row_sum;
      }
      if (s <= 0.0) continue;
      const double cv = n.area() * p.inflate[uv] / s;
      csum_[uv] = cv;
      for (int iy = iy0; iy <= iy1; ++iy) {
        const double py = by.value(cy - yc_[static_cast<std::size_t>(iy)]);
        if (py == 0.0) continue;
        ops.axpy(cv * py, sc.px.data(), rw, &g(ix0, iy));
      }
    }
  });

  // Reduce chunk grids into dens_ (per bin, ascending chunk order).
  const std::size_t bins = dens_.size();
  if (plan.count == 0) dens_.fill(0.0);
  parallel::parallel_for(bins, kBinGrain, [&](std::size_t b, std::size_t e, int) {
    for (std::size_t i = b; i < e; ++i) {
      double s = 0.0;
      for (int ci = 0; ci < plan.count; ++ci) s += chunk_dens_[static_cast<std::size_t>(ci)].data()[i];
      dens_.data()[i] = s;
    }
  });

  // Residuals and penalty value (chunk-ordered reduction over bins).
  const double penalty = parallel::parallel_reduce(
      bins, kBinGrain, 0.0,
      [&](std::size_t b, std::size_t e, int) -> double {
        double part = 0.0;
        for (std::size_t i = b; i < e; ++i) {
          const double r = std::max(0.0, dens_.data()[i] - cap_.data()[i]);
          resid_.data()[i] = r;
          part += r * r;
        }
        return part;
      },
      [](double a, double b) { return a + b; });
  return penalty;
}

void DensityModel::gradient(const PlaceProblem& p, std::span<double> gx,
                            std::span<double> gy) {
  const auto nn = static_cast<std::size_t>(p.num_nodes());
  RP_ASSERT(csum_.size() == nn, "density gradient() without a value() on this problem");
  if (gx.size() != nn || gy.size() != nn)
    throw std::runtime_error("density gradient: span size mismatch");
  RP_PROFILE_REGION("kernel/density_grad");
  const int nx = grid_.nx(), ny = grid_.ny();
  const double bw = grid_.bin_w(), bh = grid_.bin_h();
  const auto workers = static_cast<std::size_t>(parallel::num_threads());
  if (row_scratch_.size() < workers) row_scratch_.resize(workers);

  // Pass 2: gradients.  dN/dx_v = Σ_b 2·R_b · c_v · px'(cx-xb) · py.
  // Embarrassingly parallel: every node writes only its own gradient slot.
  // Row-wise like pass 1: sample px/px' once per node, then one dot product
  // against the contiguous residual row per iy.
  parallel::parallel_for(nn, kNodeGrain, [&](std::size_t b, std::size_t e, int worker) {
    const simd::Ops& ops = simd::ops();
    RowScratch& sc = row_scratch_[static_cast<std::size_t>(worker)];
    sc.ensure(static_cast<std::size_t>(nx));
    for (std::size_t uv = b; uv < e; ++uv) {
      const auto& n = p.nodes[uv];
      if (n.fixed || csum_[uv] == 0.0) continue;
      const double cx = p.x[uv];
      const double cy = p.y[uv];
      const Bell bx(n.w, bw), by(n.h, bh);
      const int ix0 = std::max(0, grid_.ix_of(cx - bx.d2) - 1);
      const int ix1 = std::min(nx - 1, grid_.ix_of(cx + bx.d2) + 1);
      const int iy0 = std::max(0, grid_.iy_of(cy - by.d2) - 1);
      const int iy1 = std::min(ny - 1, grid_.iy_of(cy + by.d2) + 1);
      const auto rw = static_cast<std::size_t>(ix1 - ix0 + 1);
      const double d0 = cx - xc_[static_cast<std::size_t>(ix0)];
      ops.bell_row(d0, -bw, rw, bx.d1, bx.d2, bx.a, bx.b, sc.px.data());
      ops.bell_deriv_row(d0, -bw, rw, bx.d1, bx.d2, bx.a, bx.b, sc.dpx.data());
      const double cv = csum_[uv];
      double dgx = 0.0, dgy = 0.0;
      for (int iy = iy0; iy <= iy1; ++iy) {
        const double dy = cy - yc_[static_cast<std::size_t>(iy)];
        const double py = by.value(dy);
        const double dpy = by.deriv(dy);
        const double* rrow = &resid_(ix0, iy);
        dgx += ((2.0 * cv) * py) * ops.dot(rrow, sc.dpx.data(), rw);
        dgy += ((2.0 * cv) * dpy) * ops.dot(rrow, sc.px.data(), rw);
      }
      gx[uv] += dgx;
      gy[uv] += dgy;
    }
  });
}

Grid2D<double> DensityModel::rasterized_density(const PlaceProblem& p) const {
  Grid2D<double> g(grid_.nx(), grid_.ny(), 0.0);
  const auto nn = static_cast<std::size_t>(p.num_nodes());
  const parallel::ChunkPlan plan = parallel::plan_chunks(nn, kNodeGrain, kGridChunkCap);
  std::vector<Grid2D<double>> partial(static_cast<std::size_t>(plan.count));
  parallel::ThreadPool::instance().run(plan, [&](int ci, int) {
    Grid2D<double>& pg = partial[static_cast<std::size_t>(ci)];
    pg = Grid2D<double>(grid_.nx(), grid_.ny(), 0.0);
    for (std::size_t uv = plan.begin(ci); uv < plan.end(ci); ++uv) {
      const auto& n = p.nodes[uv];
      if (n.fixed) continue;
      const double cx = p.x[uv];
      const double cy = p.y[uv];
      const double infl = std::sqrt(p.inflate[uv]);
      const double w = n.w * infl, h = n.h * infl;
      const Rect r{cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2};
      grid_.rasterize(r, [&](int ix, int iy, double a) { pg(ix, iy) += a; });
    }
  });
  parallel::parallel_for(g.size(), kBinGrain, [&](std::size_t b, std::size_t e, int) {
    for (std::size_t i = b; i < e; ++i) {
      double s = 0.0;
      for (int ci = 0; ci < plan.count; ++ci) s += partial[static_cast<std::size_t>(ci)].data()[i];
      g.data()[i] = s;
    }
  });
  return g;
}

double DensityModel::overflow(const PlaceProblem& p) const {
  RP_PROFILE_REGION("kernel/density_overflow");
  const Grid2D<double> g = rasterized_density(p);
  double over = 0.0, area = 0.0;
  for (int iy = 0; iy < grid_.ny(); ++iy)
    for (int ix = 0; ix < grid_.nx(); ++ix)
      over += std::max(0.0, g(ix, iy) - cap_(ix, iy));
  for (const auto& n : p.nodes)
    if (!n.fixed) area += n.area();
  return area > 0 ? over / area : 0.0;
}

}  // namespace rp
