#include "route/estimator.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/obs_context.hpp"
#include "util/parallel.hpp"
#include "util/telemetry.hpp"

namespace rp {

const std::vector<std::pair<int, int>>& net_topology(const Point* pts, int k,
                                                     TopologyScratch& s) {
  s.seg.clear();
  if (k < 2) return s.seg;
  if (k == 2) {
    s.seg.emplace_back(0, 1);
    return s.seg;
  }
  const auto uk = static_cast<std::size_t>(k);
  if (k > 128) {
    // Degenerate huge nets (clock/reset): chain pins sorted by x+y. Linear,
    // and close enough for congestion purposes.
    s.ord.resize(uk);
    for (int i = 0; i < k; ++i) s.ord[static_cast<std::size_t>(i)] = i;
    std::sort(s.ord.begin(), s.ord.end(), [&](int a, int b) {
      const auto& pa = pts[static_cast<std::size_t>(a)];
      const auto& pb = pts[static_cast<std::size_t>(b)];
      return pa.x + pa.y < pb.x + pb.y;
    });
    for (int i = 0; i + 1 < k; ++i)
      s.seg.emplace_back(s.ord[static_cast<std::size_t>(i)],
                         s.ord[static_cast<std::size_t>(i + 1)]);
    return s.seg;
  }
  // Prim with Manhattan distances.
  s.in.assign(uk, false);
  s.dist.assign(uk, std::numeric_limits<double>::infinity());
  s.from.assign(uk, 0);
  s.in[0] = true;
  for (int j = 1; j < k; ++j)
    s.dist[static_cast<std::size_t>(j)] = manhattan(pts[0], pts[static_cast<std::size_t>(j)]);
  for (int added = 1; added < k; ++added) {
    int best = -1;
    double bd = std::numeric_limits<double>::infinity();
    for (int j = 0; j < k; ++j) {
      if (!s.in[static_cast<std::size_t>(j)] && s.dist[static_cast<std::size_t>(j)] < bd) {
        bd = s.dist[static_cast<std::size_t>(j)];
        best = j;
      }
    }
    s.in[static_cast<std::size_t>(best)] = true;
    s.seg.emplace_back(s.from[static_cast<std::size_t>(best)], best);
    for (int j = 0; j < k; ++j) {
      if (s.in[static_cast<std::size_t>(j)]) continue;
      const double nd = manhattan(pts[static_cast<std::size_t>(best)],
                                  pts[static_cast<std::size_t>(j)]);
      if (nd < s.dist[static_cast<std::size_t>(j)]) {
        s.dist[static_cast<std::size_t>(j)] = nd;
        s.from[static_cast<std::size_t>(j)] = best;
      }
    }
  }
  return s.seg;
}

std::vector<std::pair<int, int>> net_topology(const std::vector<Point>& pts) {
  TopologyScratch s;
  return net_topology(pts.data(), static_cast<int>(pts.size()), s);
}

Grid2D<double> rudy_map(const Design& d, const GridMap& grid) {
  Grid2D<double> g(grid.nx(), grid.ny(), 0.0);
  for (NetId n = 0; n < d.num_nets(); ++n) {
    if (d.net(n).degree() < 2) continue;
    Rect bb = d.net_bbox(n);
    // Degenerate (collinear) boxes still consume wiring width ~ one tile.
    bb.hx = std::max(bb.hx, bb.lx + grid.bin_w());
    bb.hy = std::max(bb.hy, bb.ly + grid.bin_h());
    const double demand = (bb.width() + bb.height()) / bb.area();
    grid.rasterize(bb, [&](int ix, int iy, double a) { g(ix, iy) += demand * a; });
  }
  return g;
}

namespace {

constexpr std::size_t kNetGrain = 128;  ///< Nets per chunk (min).
constexpr int kGridChunkCap = 8;        ///< Max per-chunk demand-grid pairs.
constexpr std::size_t kEdgeGrain = 4096;

/// Deposit one track of demand (weight w) on the straight horizontal run of
/// tiles y=iy, x in [x0, x1) boundaries.
void add_h_run(Grid2D<double>& h, int iy, int x0, int x1, double w) {
  for (int ix = std::min(x0, x1); ix < std::max(x0, x1); ++ix) h(ix, iy) += w;
}
void add_v_run(Grid2D<double>& v, int ix, int y0, int y1, double w) {
  for (int iy = std::min(y0, y1); iy < std::max(y0, y1); ++iy) v(ix, iy) += w;
}

/// Per-thread working set for one estimator chunk.
struct EstScratch {
  std::vector<Point> pts;
  TopologyScratch topo;
};

}  // namespace

void estimate_probabilistic(const Design& d, NetlistCsr& csr, RoutingGrid& rg) {
  RP_COUNT("route.estimates", 1);
  RP_SPAN("estimate");
  rg.clear_usage();
  const GridMap& m = rg.map();
  csr.gather_coords(d);

  const auto nets = static_cast<std::size_t>(csr.num_nets);
  const parallel::ChunkPlan plan = parallel::plan_chunks(nets, kNetGrain, kGridChunkCap);
  if (plan.count == 0) return;
  RP_COUNT("parallel.route_chunks", plan.count);

  std::vector<Grid2D<double>> hpart(static_cast<std::size_t>(plan.count));
  std::vector<Grid2D<double>> vpart(static_cast<std::size_t>(plan.count));
  std::vector<EstScratch> scratch(static_cast<std::size_t>(parallel::num_threads()));

  parallel::ThreadPool::instance().run(plan, [&](int ci, int worker) {
    Grid2D<double>& hg = hpart[static_cast<std::size_t>(ci)];
    Grid2D<double>& vg = vpart[static_cast<std::size_t>(ci)];
    hg = Grid2D<double>(rg.nx() - 1, rg.ny(), 0.0);
    vg = Grid2D<double>(rg.nx(), rg.ny() - 1, 0.0);
    EstScratch& es = scratch[static_cast<std::size_t>(worker)];
    for (std::size_t n = plan.begin(ci); n < plan.end(ci); ++n) {
      const int off = csr.net_offset[n];
      const int deg = csr.net_offset[n + 1] - off;
      if (deg < 2) continue;
      es.pts.resize(static_cast<std::size_t>(deg));
      for (int i = 0; i < deg; ++i) {
        const auto pi = static_cast<std::size_t>(off + i);
        es.pts[static_cast<std::size_t>(i)] = {csr.pin_cx[pi], csr.pin_cy[pi]};
      }
      for (const auto& [a, b] : net_topology(es.pts.data(), deg, es.topo)) {
        const Point pa = es.pts[static_cast<std::size_t>(a)];
        const Point pb = es.pts[static_cast<std::size_t>(b)];
        const int x0 = m.ix_of(pa.x), y0 = m.iy_of(pa.y);
        const int x1 = m.ix_of(pb.x), y1 = m.iy_of(pb.y);
        if (x0 == x1 && y0 == y1) continue;
        if (y0 == y1) {
          add_h_run(hg, y0, x0, x1, 1.0);
        } else if (x0 == x1) {
          add_v_run(vg, x0, y0, y1, 1.0);
        } else {
          // Two L-shapes, probability 0.5 each.
          add_h_run(hg, y0, x0, x1, 0.5);  // horizontal first
          add_v_run(vg, x1, y0, y1, 0.5);
          add_v_run(vg, x0, y0, y1, 0.5);  // vertical first
          add_h_run(hg, y1, x0, x1, 0.5);
        }
      }
    }
  });

  // Reduce per-chunk demand into the grid (per edge, ascending chunk order).
  Grid2D<double>& hu = rg.h_use_grid();
  Grid2D<double>& vu = rg.v_use_grid();
  parallel::parallel_for(hu.size(), kEdgeGrain, [&](std::size_t b, std::size_t e, int) {
    for (std::size_t i = b; i < e; ++i) {
      double s = 0.0;
      for (int ci = 0; ci < plan.count; ++ci) s += hpart[static_cast<std::size_t>(ci)].data()[i];
      hu.data()[i] = s;
    }
  });
  parallel::parallel_for(vu.size(), kEdgeGrain, [&](std::size_t b, std::size_t e, int) {
    for (std::size_t i = b; i < e; ++i) {
      double s = 0.0;
      for (int ci = 0; ci < plan.count; ++ci) s += vpart[static_cast<std::size_t>(ci)].data()[i];
      vu.data()[i] = s;
    }
  });
}

void estimate_probabilistic(const Design& d, RoutingGrid& rg) {
  NetlistCsr csr = NetlistCsr::from_design(d);
  estimate_probabilistic(d, csr, rg);
}

}  // namespace rp
