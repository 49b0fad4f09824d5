#include "route/router.hpp"

#include <algorithm>
#include <cmath>
#include <queue>

#include "route/estimator.hpp"
#include "util/assert.hpp"
#include "util/logger.hpp"
#include "util/obs_context.hpp"
#include "util/telemetry.hpp"

namespace rp {

GlobalRouter::GlobalRouter(RoutingGrid& grid, RouterOptions opt)
    : grid_(grid), opt_(opt), h_base_((grid.nx() - 1) * grid.ny()) {
  history_.assign(static_cast<std::size_t>(grid.num_h_edges() + grid.num_v_edges()), 0.0);
}

double GlobalRouter::edge_overuse(int e) const {
  if (is_h(e)) {
    const int ix = e % (grid_.nx() - 1), iy = e / (grid_.nx() - 1);
    return std::max(0.0, grid_.h_use(ix, iy) + 1.0 - grid_.h_cap(ix, iy));
  }
  const int r = e - h_base_;
  const int ix = r % grid_.nx(), iy = r / grid_.nx();
  return std::max(0.0, grid_.v_use(ix, iy) + 1.0 - grid_.v_cap(ix, iy));
}

double GlobalRouter::edge_cost(int e) const {
  double len, cap;
  if (is_h(e)) {
    const int ix = e % (grid_.nx() - 1), iy = e / (grid_.nx() - 1);
    len = grid_.tile_w();
    cap = grid_.h_cap(ix, iy);
  } else {
    const int r = e - h_base_;
    const int ix = r % grid_.nx(), iy = r / grid_.nx();
    len = grid_.tile_h();
    cap = grid_.v_cap(ix, iy);
  }
  double c = len * (1.0 + history_[static_cast<std::size_t>(e)]) *
             (1.0 + pres_fac_ * edge_overuse(e));
  if (cap < 1e-6) c *= opt_.blocked_penalty;
  return c;
}

void GlobalRouter::add_edge_usage(int e, double tracks) {
  if (is_h(e)) {
    const int ix = e % (grid_.nx() - 1), iy = e / (grid_.nx() - 1);
    grid_.add_h(ix, iy, tracks);
  } else {
    const int r = e - h_base_;
    const int ix = r % grid_.nx(), iy = r / grid_.nx();
    grid_.add_v(ix, iy, tracks);
  }
}

double GlobalRouter::route_segment(const Segment& s, std::vector<int>& path, int margin) {
  const int nx = grid_.nx(), ny = grid_.ny();
  const int bx0 = std::max(0, std::min(s.x0, s.x1) - margin);
  const int bx1 = std::min(nx - 1, std::max(s.x0, s.x1) + margin);
  const int by0 = std::max(0, std::min(s.y0, s.y1) - margin);
  const int by1 = std::min(ny - 1, std::max(s.y0, s.y1) + margin);
  const int bw = bx1 - bx0 + 1, bh = by1 - by0 + 1;
  const auto local = [&](int ix, int iy) { return (iy - by0) * bw + (ix - bx0); };

  const double min_pitch = std::min(grid_.tile_w(), grid_.tile_h());
  const auto heur = [&](int ix, int iy) {
    return (std::abs(ix - s.x1) + std::abs(iy - s.y1)) * min_pitch;
  };

  constexpr double kInf = 1e300;
  std::vector<double> dist(static_cast<std::size_t>(bw) * bh, kInf);
  std::vector<int> came_edge(static_cast<std::size_t>(bw) * bh, -1);
  using QE = std::pair<double, int>;  // (f = g + h, local tile)
  std::priority_queue<QE, std::vector<QE>, std::greater<>> open;
  dist[static_cast<std::size_t>(local(s.x0, s.y0))] = 0.0;
  open.emplace(heur(s.x0, s.y0), local(s.x0, s.y0));

  const int goal = local(s.x1, s.y1);
  while (!open.empty()) {
    const auto [f, u] = open.top();
    open.pop();
    const int ux = bx0 + u % bw, uy = by0 + u / bw;
    const double g = dist[static_cast<std::size_t>(u)];
    if (f > g + heur(ux, uy) + 1e-12) continue;  // stale entry
    if (u == goal) break;
    struct Nb {
      int ix, iy, edge;
    };
    const Nb nbs[4] = {
        {ux - 1, uy, ux > bx0 ? h_id(ux - 1, uy) : -1},
        {ux + 1, uy, ux < bx1 ? h_id(ux, uy) : -1},
        {ux, uy - 1, uy > by0 ? v_id(ux, uy - 1) : -1},
        {ux, uy + 1, uy < by1 ? v_id(ux, uy) : -1},
    };
    for (const auto& nb : nbs) {
      if (nb.edge < 0) continue;
      const int vl = local(nb.ix, nb.iy);
      const double ng = g + edge_cost(nb.edge);
      if (ng < dist[static_cast<std::size_t>(vl)]) {
        dist[static_cast<std::size_t>(vl)] = ng;
        came_edge[static_cast<std::size_t>(vl)] = nb.edge;
        open.emplace(ng + heur(nb.ix, nb.iy), vl);
      }
    }
  }

  if (dist[static_cast<std::size_t>(goal)] >= kInf) return -1.0;  // unreachable (shouldn't happen)
  // Walk back from goal to start via stored edges.
  double length = 0.0;
  int cx = s.x1, cy = s.y1;
  while (!(cx == s.x0 && cy == s.y0)) {
    const int e = came_edge[static_cast<std::size_t>(local(cx, cy))];
    RP_ASSERT(e >= 0, "router backtrace broke");
    path.push_back(e);
    if (is_h(e)) {
      const int ix = e % (grid_.nx() - 1), iy = e / (grid_.nx() - 1);
      length += grid_.tile_w();
      // Edge connects (ix,iy)-(ix+1,iy); figure out which side we came from.
      cx = (cx == ix + 1 && cy == iy) ? ix : ix + 1;
      cy = iy;
    } else {
      const int r = e - h_base_;
      const int ix = r % grid_.nx(), iy = r / grid_.nx();
      length += grid_.tile_h();
      cy = (cy == iy + 1 && cx == ix) ? iy : iy + 1;
      cx = ix;
    }
  }
  return length;
}

RouteStats GlobalRouter::route(const Design& d) {
  RP_SPAN("route");
  const GridMap& m = grid_.map();
  grid_.clear_usage();
  pres_fac_ = opt_.pres_fac_init;

  // Build segments from net MSTs (pin positions snapped to tiles).
  std::vector<Segment> segs;
  std::vector<Point> pts;
  for (NetId n = 0; n < d.num_nets(); ++n) {
    const Net& net = d.net(n);
    if (net.degree() < 2) continue;
    pts.clear();
    for (const PinId p : net.pins) pts.push_back(d.pin_pos(p));
    for (const auto& [a, b] : net_topology(pts)) {
      Segment s;
      s.x0 = m.ix_of(pts[static_cast<std::size_t>(a)].x);
      s.y0 = m.iy_of(pts[static_cast<std::size_t>(a)].y);
      s.x1 = m.ix_of(pts[static_cast<std::size_t>(b)].x);
      s.y1 = m.iy_of(pts[static_cast<std::size_t>(b)].y);
      s.net = n;
      if (s.x0 == s.x1 && s.y0 == s.y1) continue;
      segs.push_back(s);
    }
  }

  std::vector<std::vector<int>> paths(segs.size());
  RouteStats stats;
  stats.segments = static_cast<int>(segs.size());
  RP_COUNT("route.segments", stats.segments);

  // Initial routing pass.
  for (std::size_t i = 0; i < segs.size(); ++i) {
    route_segment(segs[i], paths[i], opt_.bbox_margin);
    for (const int e : paths[i]) add_edge_usage(e, 1.0);
  }

  for (int it = 1; it <= opt_.max_iterations; ++it) {
    obs::check_interrupt();  // SIGINT/SIGTERM: unwind between rip-up rounds
    stats.iterations = it;
    RP_COUNT("route.ripup_rounds", 1);
    // Identify overflowed edges; bump history.
    std::vector<char> edge_over(history_.size(), 0);
    int over_edges = 0;
    for (std::size_t e = 0; e < history_.size(); ++e) {
      // overuse without the +1 lookahead:
      double use, cap;
      const int ei = static_cast<int>(e);
      if (is_h(ei)) {
        const int ix = ei % (grid_.nx() - 1), iy = ei / (grid_.nx() - 1);
        use = grid_.h_use(ix, iy);
        cap = grid_.h_cap(ix, iy);
      } else {
        const int r = ei - h_base_;
        const int ix = r % grid_.nx(), iy = r / grid_.nx();
        use = grid_.v_use(ix, iy);
        cap = grid_.v_cap(ix, iy);
      }
      if (use > cap + 1e-9) {
        edge_over[e] = 1;
        ++over_edges;
        history_[e] += opt_.hist_incr * (use - cap) / std::max(1.0, cap);
      }
    }
    if (over_edges == 0) break;
    if (it == opt_.max_iterations) break;  // out of budget; report as-is

    // Rip up & reroute segments using overflowed edges.
    pres_fac_ *= opt_.pres_fac_mult;
    const int margin = opt_.bbox_margin + it * opt_.bbox_grow_per_iter;
    int rerouted = 0;
    for (std::size_t i = 0; i < segs.size(); ++i) {
      bool bad = false;
      for (const int e : paths[i]) {
        if (edge_over[static_cast<std::size_t>(e)]) {
          bad = true;
          break;
        }
      }
      if (!bad) continue;
      for (const int e : paths[i]) add_edge_usage(e, -1.0);
      paths[i].clear();
      route_segment(segs[i], paths[i], margin);
      for (const int e : paths[i]) add_edge_usage(e, 1.0);
      ++rerouted;
    }
    RP_COUNT("route.segments_rerouted", rerouted);
    RP_DEBUG("router iter %d: %d overflowed edges, %d segments rerouted", it, over_edges,
             rerouted);
  }

  stats.wirelength = grid_.used_wirelength();
  stats.total_overflow = grid_.total_overflow();
  stats.max_utilization = grid_.max_utilization();
  int over_edges = 0;
  for (const double u : grid_.edge_utilizations())
    if (u > 1.0 + 1e-9) ++over_edges;
  stats.overflowed_edges = over_edges;
  // Blocked (≈zero-capacity) edges are excluded from utilization stats but
  // any usage forced through them is still overflow — hence the
  // total_overflow term, not just the edge count.
  stats.overflow_free = over_edges == 0 && stats.total_overflow <= 1e-9;
  return stats;
}

}  // namespace rp
