// util/parallel + model/netlist_csr: the determinism contract. Every test
// that matters here asserts BITWISE equality of kernel outputs across
// different pool sizes — the property the snapshot/report gates rely on.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <numeric>
#include <vector>

#include "fused_objective.hpp"
#include "gen/generator.hpp"
#include "model/density.hpp"
#include "model/netlist_csr.hpp"
#include "model/problem.hpp"
#include "model/wirelength.hpp"
#include "route/estimator.hpp"
#include "solver/cg.hpp"
#include "util/logger.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace rp {
namespace {

/// Restore the global pool size on scope exit so tests don't leak state.
struct PoolGuard {
  int saved = parallel::num_threads();
  ~PoolGuard() { parallel::set_num_threads(saved); }
};

TEST(ChunkPlan, CoversRangeWithoutOverlap) {
  for (const std::size_t n : {0UL, 1UL, 7UL, 64UL, 1000UL, 123457UL}) {
    const parallel::ChunkPlan plan = parallel::plan_chunks(n, 64);
    std::size_t covered = 0;
    for (int c = 0; c < plan.count; ++c) {
      EXPECT_EQ(plan.begin(c), covered);
      EXPECT_LE(plan.begin(c), plan.end(c));
      covered = plan.end(c);
    }
    EXPECT_EQ(covered, n);
  }
}

TEST(ChunkPlan, IndependentOfThreadCount) {
  // The plan is a pure function of (n, grain, cap) — no thread-count input
  // even exists in the signature; pin the layout so a refactor that sneaks
  // one in breaks loudly.
  const parallel::ChunkPlan p = parallel::plan_chunks(1000, 100);
  EXPECT_EQ(p.count, 10);
  EXPECT_EQ(p.begin(0), 0u);
  EXPECT_EQ(p.end(9), 1000u);
  EXPECT_EQ(parallel::plan_chunks(50, 100).count, 1);
  EXPECT_EQ(parallel::plan_chunks(0, 100).count, 0);
  EXPECT_EQ(parallel::plan_chunks(1000000, 1, 64).count, 64);
}

TEST(ThreadPool, ParallelForTouchesEveryIndexOnce) {
  PoolGuard guard;
  for (const int threads : {1, 2, 4}) {
    parallel::set_num_threads(threads);
    std::vector<std::atomic<int>> hits(1000);
    parallel::parallel_for(hits.size(), 8, [&](std::size_t b, std::size_t e, int w) {
      EXPECT_GE(w, 0);
      EXPECT_LT(w, parallel::num_threads());
      for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, ReduceBitwiseIdenticalAcrossThreadCounts) {
  PoolGuard guard;
  // Values with wildly different magnitudes, so association order matters.
  Rng rng(42);
  std::vector<double> v(100000);
  for (double& x : v) x = rng.uniform(-1.0, 1.0) * std::pow(10.0, rng.uniform(-12.0, 12.0));

  const auto sum = [&] {
    return parallel::parallel_reduce(
        v.size(), 1024, 0.0,
        [&](std::size_t b, std::size_t e, int) {
          double s = 0.0;
          for (std::size_t i = b; i < e; ++i) s += v[i];
          return s;
        },
        [](double a, double b) { return a + b; });
  };
  parallel::set_num_threads(1);
  const double s1 = sum();
  for (const int threads : {2, 3, 8}) {
    parallel::set_num_threads(threads);
    for (int rep = 0; rep < 5; ++rep) {
      const double st = sum();
      EXPECT_EQ(std::memcmp(&s1, &st, sizeof s1), 0)
          << "threads=" << threads << " rep=" << rep;
    }
  }
}

TEST(ThreadPool, NestedRegionsRunInline) {
  PoolGuard guard;
  parallel::set_num_threads(4);
  std::vector<double> out(64, 0.0);
  parallel::parallel_for(8, 1, [&](std::size_t b, std::size_t e, int) {
    for (std::size_t i = b; i < e; ++i)
      parallel::parallel_for(8, 1, [&](std::size_t b2, std::size_t e2, int) {
        for (std::size_t j = b2; j < e2; ++j) out[i * 8 + j] = static_cast<double>(i * 8 + j);
      });
  });
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], static_cast<double>(i));
}

PlaceProblem test_problem() {
  Logger::set_level(LogLevel::Error);
  BenchmarkSpec spec = small_spec(17);
  spec.num_std_cells = 600;
  return make_problem(generate_benchmark(spec));
}

TEST(NetlistCsr, MatchesProblemStructure) {
  const PlaceProblem p = test_problem();
  const NetlistCsr c = NetlistCsr::from_problem(p);
  ASSERT_EQ(c.num_nets, p.num_nets());
  ASSERT_EQ(c.num_pins, static_cast<int>(p.pins.size()));
  for (int n = 0; n < c.num_nets; ++n) {
    EXPECT_EQ(c.net_offset[static_cast<std::size_t>(n)], p.nets[static_cast<std::size_t>(n)].pin_begin);
    EXPECT_EQ(c.net_degree(n), p.nets[static_cast<std::size_t>(n)].degree());
  }
  // node->pin incidence: every pin appears exactly once, under its node,
  // in ascending pin order.
  std::vector<int> seen(static_cast<std::size_t>(c.num_pins), 0);
  for (int v = 0; v < c.num_nodes; ++v) {
    int prev = -1;
    for (int k = c.node_pin_offset[static_cast<std::size_t>(v)];
         k < c.node_pin_offset[static_cast<std::size_t>(v) + 1]; ++k) {
      const int pin = c.node_pin[static_cast<std::size_t>(k)];
      EXPECT_GT(pin, prev) << "pins not ascending for node " << v;
      prev = pin;
      EXPECT_EQ(c.pin_node[static_cast<std::size_t>(pin)], v);
      ++seen[static_cast<std::size_t>(pin)];
    }
  }
  for (const int s : seen) EXPECT_EQ(s, 1);
}

TEST(NetlistCsr, DesignGatherMatchesPinPos) {
  Logger::set_level(LogLevel::Error);
  const Design d = generate_benchmark(small_spec(23));
  NetlistCsr c = NetlistCsr::from_design(d);
  c.gather_coords(d);
  int i = 0;
  for (NetId n = 0; n < d.num_nets(); ++n)
    for (const PinId pid : d.net(n).pins) {
      const Point pos = d.pin_pos(pid);
      EXPECT_EQ(c.pin_cx[static_cast<std::size_t>(i)], pos.x);
      EXPECT_EQ(c.pin_cy[static_cast<std::size_t>(i)], pos.y);
      ++i;
    }
  EXPECT_EQ(i, c.num_pins);
}

/// Evaluate a kernel at several pool widths and require bit-identical
/// value + gradients.
template <typename EvalFn>
void expect_bitwise_across_threads(const EvalFn& eval_at) {
  PoolGuard guard;
  parallel::set_num_threads(1);
  const auto [v1, gx1, gy1] = eval_at();
  for (const int threads : {2, 4, 7}) {
    parallel::set_num_threads(threads);
    const auto [vt, gxt, gyt] = eval_at();
    EXPECT_EQ(std::memcmp(&v1, &vt, sizeof v1), 0) << "value differs, threads=" << threads;
    ASSERT_EQ(gx1.size(), gxt.size());
    EXPECT_EQ(std::memcmp(gx1.data(), gxt.data(), gx1.size() * sizeof(double)), 0)
        << "gx differs, threads=" << threads;
    EXPECT_EQ(std::memcmp(gy1.data(), gyt.data(), gy1.size() * sizeof(double)), 0)
        << "gy differs, threads=" << threads;
  }
}

/// `split(sx, sy)` runs a model's value() then gradient() into zeroed sx/sy
/// and returns the value: it must reproduce eval()'s value and gradient bit
/// for bit (the split the CG line search relies on).
template <typename SplitFn>
void expect_split_equals_eval(double v, const std::vector<double>& gx,
                              const std::vector<double>& gy, const SplitFn& split,
                              const char* what) {
  std::vector<double> sx(gx.size(), 0.0), sy(gy.size(), 0.0);
  const double sv = split(sx, sy);
  EXPECT_EQ(std::memcmp(&v, &sv, sizeof v), 0) << what << ": value differs from eval()";
  EXPECT_EQ(std::memcmp(gx.data(), sx.data(), gx.size() * sizeof(double)), 0) << what;
  EXPECT_EQ(std::memcmp(gy.data(), sy.data(), gy.size() * sizeof(double)), 0) << what;
}

TEST(ParallelKernels, WirelengthBitwiseAcrossThreads) {
  const PlaceProblem p = test_problem();
  for (const char* model : {"LSE", "WA"}) {
    const auto wl = make_wirelength_model(model, 4.0);
    expect_bitwise_across_threads([&] {
      std::vector<double> gx(p.nodes.size(), 0.0), gy(p.nodes.size(), 0.0);
      const double v = wl->eval(p, gx, gy);
      expect_split_equals_eval(v, gx, gy, [&](auto& sx, auto& sy) {
        const double sv = wl->value(p);
        wl->gradient(sx, sy);
        return sv;
      }, model);
      return std::tuple(v, gx, gy);
    });
  }
}

TEST(ParallelKernels, DensityBitwiseAcrossThreads) {
  const PlaceProblem p = test_problem();
  DensityConfig cfg;
  DensityModel dm(p, cfg);
  expect_bitwise_across_threads([&] {
    std::vector<double> gx(p.nodes.size(), 0.0), gy(p.nodes.size(), 0.0);
    const double v = dm.eval(p, gx, gy);
    expect_split_equals_eval(v, gx, gy, [&](auto& sx, auto& sy) {
      const double sv = dm.value(p);
      dm.gradient(p, sx, sy);
      return sv;
    }, "density");
    return std::tuple(v, gx, gy);
  });
}

TEST(ParallelKernels, EstimatorBitwiseAcrossThreads) {
  PoolGuard guard;
  Logger::set_level(LogLevel::Error);
  const Design d = generate_benchmark(small_spec(31));
  parallel::set_num_threads(1);
  RoutingGrid g1(d, true);
  estimate_probabilistic(d, g1);
  for (const int threads : {2, 5}) {
    parallel::set_num_threads(threads);
    RoutingGrid gt(d, true);
    estimate_probabilistic(d, gt);
    EXPECT_EQ(std::memcmp(g1.h_use_grid().data().data(), gt.h_use_grid().data().data(),
                          g1.h_use_grid().size() * sizeof(double)), 0)
        << "h demand differs, threads=" << threads;
    EXPECT_EQ(std::memcmp(g1.v_use_grid().data().data(), gt.v_use_grid().data().data(),
                          g1.v_use_grid().size() * sizeof(double)), 0)
        << "v demand differs, threads=" << threads;
  }
}

TEST(ParallelKernels, CgBitwiseAcrossThreads) {
  PoolGuard guard;
  // A positive-definite quadratic large enough to leave the inline path.
  const std::size_t n = 20000;
  std::vector<double> target(n);
  Rng rng(9);
  for (double& t : target) t = rng.uniform(-5.0, 5.0);
  const CgObjective f = fused([&](std::span<const double> z, std::span<double> g) {
    double v = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double e = z[i] - target[i];
      g[i] = 2.0 * e;
      v += e * e;
    }
    return v;
  });
  CgOptions opt;
  opt.max_iters = 25;
  opt.trust_radius = 0.5;

  parallel::set_num_threads(1);
  std::vector<double> z1(n, 0.0);
  const CgResult r1 = minimize_cg(f, z1, opt);
  for (const int threads : {3, 6}) {
    parallel::set_num_threads(threads);
    std::vector<double> zt(n, 0.0);
    const CgResult rt = minimize_cg(f, zt, opt);
    EXPECT_EQ(r1.iters, rt.iters);
    EXPECT_EQ(std::memcmp(&r1.f, &rt.f, sizeof r1.f), 0);
    EXPECT_EQ(std::memcmp(z1.data(), zt.data(), n * sizeof(double)), 0)
        << "solution differs, threads=" << threads;
  }
}

TEST(ParallelKernels, WirelengthGradientMatchesFiniteDifference) {
  // The CSR/parallel rewrite must still be a correct gradient, not just a
  // deterministic one.
  PoolGuard guard;
  parallel::set_num_threads(3);
  PlaceProblem p = test_problem();
  const auto wl = make_wirelength_model("WA", 6.0);
  std::vector<double> gx(p.nodes.size(), 0.0), gy(p.nodes.size(), 0.0);
  wl->eval(p, gx, gy);
  const double h = 1e-5;
  int checked = 0;
  for (int v = 0; v < p.num_nodes() && checked < 5; ++v) {
    if (p.nodes[static_cast<std::size_t>(v)].fixed) continue;
    const double x0 = p.x[static_cast<std::size_t>(v)];
    p.x[static_cast<std::size_t>(v)] = x0 + h;
    const double fp = wl->value(p);
    p.x[static_cast<std::size_t>(v)] = x0 - h;
    const double fm = wl->value(p);
    p.x[static_cast<std::size_t>(v)] = x0;
    const double fd = (fp - fm) / (2 * h);
    EXPECT_NEAR(gx[static_cast<std::size_t>(v)], fd,
                1e-4 * std::max(1.0, std::abs(fd)));
    ++checked;
  }
  EXPECT_EQ(checked, 5);
}

}  // namespace
}  // namespace rp
