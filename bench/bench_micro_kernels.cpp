// Micro-benchmarks of the flow's hot kernels: bell-shaped density
// evaluation, the probabilistic congestion estimator, the global router,
// legalization, and the hierarchy-aware clustering pass. These back the
// runtime-breakdown discussion and guard against performance regressions.
//
// The *Threads benchmarks sweep the pool size over 1/2/4/8 for each parallel
// kernel, and a custom main() additionally emits machine-readable speedup
// rows ({"schema":"kernel_speedup",...} JSONL) into $RP_BENCH_JSON so the
// perf-trajectory tooling can track parallel scaling alongside flow metrics.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <vector>

#include "cluster/multilevel.hpp"
#include "core/flow.hpp"
#include "gen/generator.hpp"
#include "legal/legalizer.hpp"
#include "legal/macro_legalizer.hpp"
#include "model/density.hpp"
#include "model/incremental.hpp"
#include "model/wirelength.hpp"
#include "route/estimator.hpp"
#include "route/router.hpp"
#include "util/logger.hpp"
#include "util/obs_context.hpp"
#include "util/parallel.hpp"
#include "util/simd.hpp"

namespace {

const rp::Design& bench_design() {
  static const rp::Design d = [] {
    rp::Logger::set_level(rp::LogLevel::Error);
    return rp::generate_benchmark(rp::small_spec(99));
  }();
  return d;
}

void BM_DensityEval(benchmark::State& state) {
  using namespace rp;
  PlaceProblem p = make_problem(bench_design());
  DensityConfig cfg;
  DensityModel dm(p, cfg);
  std::vector<double> gx(p.nodes.size()), gy(p.nodes.size());
  for (auto _ : state) {
    std::fill(gx.begin(), gx.end(), 0.0);
    std::fill(gy.begin(), gy.end(), 0.0);
    benchmark::DoNotOptimize(dm.eval(p, gx, gy));
  }
  state.SetItemsProcessed(state.iterations() * p.num_nodes());
}
BENCHMARK(BM_DensityEval);

void BM_DensityOverflow(benchmark::State& state) {
  using namespace rp;
  PlaceProblem p = make_problem(bench_design());
  DensityConfig cfg;
  DensityModel dm(p, cfg);
  for (auto _ : state) benchmark::DoNotOptimize(dm.overflow(p));
  state.SetItemsProcessed(state.iterations() * p.num_nodes());
}
BENCHMARK(BM_DensityOverflow);

void BM_ProbabilisticEstimate(benchmark::State& state) {
  using namespace rp;
  const Design& d = bench_design();
  RoutingGrid grid(d, true);
  for (auto _ : state) {
    estimate_probabilistic(d, grid);
    benchmark::DoNotOptimize(grid.total_overflow());
  }
  state.SetItemsProcessed(state.iterations() * d.num_nets());
}
BENCHMARK(BM_ProbabilisticEstimate);

void BM_RudyMap(benchmark::State& state) {
  using namespace rp;
  const Design& d = bench_design();
  const GridMap map(d.die(), 64, 64);
  for (auto _ : state) benchmark::DoNotOptimize(rudy_map(d, map));
  state.SetItemsProcessed(state.iterations() * d.num_nets());
}
BENCHMARK(BM_RudyMap);

void BM_GlobalRoute(benchmark::State& state) {
  using namespace rp;
  const Design& d = bench_design();
  for (auto _ : state) {
    RoutingGrid grid(d, true);
    GlobalRouter router(grid);
    benchmark::DoNotOptimize(router.route(d));
  }
  state.SetItemsProcessed(state.iterations() * d.num_nets());
}
BENCHMARK(BM_GlobalRoute);

void BM_AbacusLegalize(benchmark::State& state) {
  using namespace rp;
  for (auto _ : state) {
    state.PauseTiming();
    Design d = generate_benchmark(small_spec(99));
    legalize_macros(d);
    freeze_macros(d);
    state.ResumeTiming();
    AbacusLegalizer lg;
    benchmark::DoNotOptimize(lg.run(d));
  }
  state.SetItemsProcessed(state.iterations() * bench_design().num_movable());
}
BENCHMARK(BM_AbacusLegalize)->Unit(benchmark::kMillisecond);

void BM_TetrisLegalize(benchmark::State& state) {
  using namespace rp;
  for (auto _ : state) {
    state.PauseTiming();
    Design d = generate_benchmark(small_spec(99));
    legalize_macros(d);
    freeze_macros(d);
    state.ResumeTiming();
    TetrisLegalizer lg;
    benchmark::DoNotOptimize(lg.run(d));
  }
  state.SetItemsProcessed(state.iterations() * bench_design().num_movable());
}
BENCHMARK(BM_TetrisLegalize)->Unit(benchmark::kMillisecond);

void BM_ClusteringPass(benchmark::State& state) {
  using namespace rp;
  const Design& d = bench_design();
  ClusterOptions opt;
  opt.target_nodes = 200;
  for (auto _ : state) {
    Multilevel ml(d, opt);
    benchmark::DoNotOptimize(ml.num_levels());
  }
  state.SetItemsProcessed(state.iterations() * d.num_cells());
}
BENCHMARK(BM_ClusteringPass)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------- threaded

void BM_WirelengthEvalThreads(benchmark::State& state) {
  using namespace rp;
  parallel::set_num_threads(static_cast<int>(state.range(0)));
  PlaceProblem p = make_problem(bench_design());
  const auto wl = make_wirelength_model("WA", 4.0);
  std::vector<double> gx(p.nodes.size()), gy(p.nodes.size());
  for (auto _ : state) {
    std::fill(gx.begin(), gx.end(), 0.0);
    std::fill(gy.begin(), gy.end(), 0.0);
    benchmark::DoNotOptimize(wl->eval(p, gx, gy));
  }
  state.SetItemsProcessed(state.iterations() * p.num_nets());
  parallel::set_num_threads(1);
}
BENCHMARK(BM_WirelengthEvalThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_DensityEvalThreads(benchmark::State& state) {
  using namespace rp;
  parallel::set_num_threads(static_cast<int>(state.range(0)));
  PlaceProblem p = make_problem(bench_design());
  DensityConfig cfg;
  DensityModel dm(p, cfg);
  std::vector<double> gx(p.nodes.size()), gy(p.nodes.size());
  for (auto _ : state) {
    std::fill(gx.begin(), gx.end(), 0.0);
    std::fill(gy.begin(), gy.end(), 0.0);
    benchmark::DoNotOptimize(dm.eval(p, gx, gy));
  }
  state.SetItemsProcessed(state.iterations() * p.num_nodes());
  parallel::set_num_threads(1);
}
BENCHMARK(BM_DensityEvalThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_ProbabilisticEstimateThreads(benchmark::State& state) {
  using namespace rp;
  parallel::set_num_threads(static_cast<int>(state.range(0)));
  const Design& d = bench_design();
  NetlistCsr csr = NetlistCsr::from_design(d);
  RoutingGrid grid(d, true);
  for (auto _ : state) {
    estimate_probabilistic(d, csr, grid);
    benchmark::DoNotOptimize(grid.total_overflow());
  }
  state.SetItemsProcessed(state.iterations() * d.num_nets());
  parallel::set_num_threads(1);
}
BENCHMARK(BM_ProbabilisticEstimateThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// ------------------------------------------------------- speedup JSONL rows

/// Seconds per call, doubling the batch until the measurement is >= 50 ms.
double time_kernel(const std::function<void()>& fn) {
  fn();  // warm caches and lazy setup
  for (int iters = 1;; iters *= 2) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) fn();
    const double sec = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - t0).count();
    if (sec >= 0.05 || iters >= (1 << 22)) return sec / iters;
  }
}

/// Median (lower-of-middle-two for even sizes); 0.0 on an empty sample.
double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = (v.size() - 1) / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  return v[mid];
}

/// An interleaved off/on comparison of full-flow wall times.
struct OverheadPairs {
  double off_sec = 1e300;  ///< Fastest flow with the feature off.
  double on_sec = 1e300;   ///< Fastest flow with it on.
  double ratio = 0.0;      ///< Median of the per-pair on/off ratios: the gated value.
  double ci = 0.0;         ///< Half-width of the median's ~95% confidence interval.
  int pairs = 0;
};

/// Half-width of a distribution-free ~95% confidence interval of the median:
/// half the gap between the order statistics n/2 ± 0.98·√n.
double median_ci_half_width(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  const double d = 0.98 * std::sqrt(n);
  const auto lo = static_cast<std::size_t>(std::max(0.0, std::floor(n / 2 - d)));
  const auto hi = static_cast<std::size_t>(std::min(n - 1, std::ceil(n / 2 + d)));
  return (v[hi] - v[lo]) / 2;
}

/// The overhead gates' absolute limit is 1.02, so the gated median must be
/// known to well under 2%. On a shared host the per-pair ratio of two
/// identical tiny flows spreads by ±1% in quiet stretches and ±5-10% in busy
/// ones, and a 4x longer flow does not narrow it (the noise comes in bursts
/// of seconds). So the gate samples pairs until the median's ~95% confidence
/// interval is within ±0.75%, at least 16 pairs and at most 80.
constexpr int kMinOverheadPairs = 16;
constexpr int kMaxOverheadPairs = 80;
constexpr double kOverheadCi = 0.0075;

/// Time `flow_sec(on)` for both arms in adjacent pairs at one thread. The
/// median of PER-PAIR ratios, not a ratio of per-arm minima: a ratio of
/// minima inherits the jitter of whichever arm got luckier, while adjacent
/// off/on runs share machine state, so their ratio cancels host drift, and
/// the median shrugs off single hiccups while staying centered on the true
/// overhead. Which arm runs first alternates, so monotone drift (thermal,
/// frequency scaling) biases as many pairs down as up.
template <typename Fn>
OverheadPairs measure_overhead(Fn&& flow_sec) {
  rp::parallel::set_num_threads(1);
  OverheadPairs r;
  std::vector<double> ratios;
  flow_sec(false);  // warm caches and lazy setup before timing either arm
  while (r.pairs < kMaxOverheadPairs) {
    const bool on_first = (r.pairs & 1) != 0;
    const double first = flow_sec(on_first);
    const double second = flow_sec(!on_first);
    const double off = on_first ? second : first;
    const double on = on_first ? first : second;
    r.off_sec = std::min(r.off_sec, off);
    r.on_sec = std::min(r.on_sec, on);
    ratios.push_back(on / off);
    ++r.pairs;
    // Stop only after an even count: as many on-first pairs as off-first.
    if (r.pairs >= kMinOverheadPairs && (r.pairs & 1) == 0 &&
        median_ci_half_width(ratios) <= kOverheadCi)
      break;
  }
  r.ratio = median_of(ratios);
  r.ci = median_ci_half_width(ratios);
  return r;
}

/// Sweep each parallel kernel over 1/2/4/8 threads; print a table and, when
/// $RP_BENCH_JSON is set, append one JSONL row per (kernel, threads) pair.
void emit_speedup_rows() {
  using namespace rp;
  PlaceProblem p = make_problem(bench_design());
  const Design& d = bench_design();
  const auto wl = make_wirelength_model("WA", 4.0);
  DensityConfig cfg;
  DensityModel dm(p, cfg);
  NetlistCsr csr = NetlistCsr::from_design(d);
  RoutingGrid grid(d, true);
  std::vector<double> gx(p.nodes.size()), gy(p.nodes.size());

  struct Kernel {
    const char* name;
    std::function<void()> fn;
  };
  const Kernel kernels[] = {
      {"wirelength_wa", [&] {
         std::fill(gx.begin(), gx.end(), 0.0);
         std::fill(gy.begin(), gy.end(), 0.0);
         benchmark::DoNotOptimize(wl->eval(p, gx, gy));
       }},
      {"density", [&] {
         std::fill(gx.begin(), gx.end(), 0.0);
         std::fill(gy.begin(), gy.end(), 0.0);
         benchmark::DoNotOptimize(dm.eval(p, gx, gy));
       }},
      {"congestion", [&] {
         estimate_probabilistic(d, csr, grid);
         benchmark::DoNotOptimize(grid.total_overflow());
       }},
  };

  const char* json_path = std::getenv("RP_BENCH_JSON");
  std::ofstream json;
  if (json_path != nullptr && json_path[0] != '\0')
    json.open(json_path, std::ios::app);

  std::printf("\nparallel kernel scaling (hardware threads: %d)\n",
              parallel::hardware_threads());
  std::printf("%-16s %8s %14s %10s\n", "kernel", "threads", "sec/iter", "speedup");
  for (const Kernel& k : kernels) {
    double t1 = 0.0;
    for (const int threads : {1, 2, 4, 8}) {
      parallel::set_num_threads(threads);
      const double t = time_kernel(k.fn);
      if (threads == 1) t1 = t;
      const double speedup = t > 0.0 ? t1 / t : 0.0;
      std::printf("%-16s %8d %14.3e %9.2fx\n", k.name, threads, t, speedup);
      if (json.is_open())
        json << "{\"schema\":\"kernel_speedup\",\"kernel\":\"" << k.name
             << "\",\"threads\":" << threads << ",\"sec_per_iter\":" << t
             << ",\"speedup_vs_1\":" << speedup << "}\n";
    }
  }
  parallel::set_num_threads(1);
}

// ------------------------------------------------- SIMD speedup JSONL rows

/// Time the vectorizable kernels with dispatch forced off (scalar) and back
/// on auto, single-threaded so the ratio isolates the vector win. Appends
/// {"schema":"simd_speedup",...} rows keyed kernel.simd.<name>.t1.* by
/// bench_trend.py, which floors speedup_vs_off at 1.0 (dispatch must never
/// make a kernel slower than the scalar path it replaces).
void emit_simd_speedup_rows() {
  using namespace rp;
  parallel::set_num_threads(1);
  // Realistic mixed-size fanout (the suite's default avg degree of 3.4
  // leaves the per-net exp batches tail-dominated; multi-pin nets are where
  // the vector lanes fill up).
  BenchmarkSpec spec = medium_spec(99);
  spec.avg_net_degree = 8.0;
  spec.max_net_degree = 48;
  const Design d = generate_benchmark(spec);
  PlaceProblem p = make_problem(d);
  const auto wl = make_wirelength_model("WA", 4.0);
  DensityConfig cfg;
  DensityModel dm(p, cfg);
  std::vector<double> gx(p.nodes.size()), gy(p.nodes.size());
  // CG-style BLAS loop: the solver's per-iteration axpy/dot pattern on
  // vectors the size of the placement problem.
  std::vector<double> vx(p.nodes.size(), 1.0), vy(p.nodes.size(), 2.0);

  struct Kernel {
    const char* name;
    std::function<void()> fn;
  };
  const Kernel kernels[] = {
      {"wirelength_wa", [&] {
         std::fill(gx.begin(), gx.end(), 0.0);
         std::fill(gy.begin(), gy.end(), 0.0);
         benchmark::DoNotOptimize(wl->eval(p, gx, gy));
       }},
      {"density", [&] {
         std::fill(gx.begin(), gx.end(), 0.0);
         std::fill(gy.begin(), gy.end(), 0.0);
         benchmark::DoNotOptimize(dm.eval(p, gx, gy));
       }},
      {"cg_blas", [&] {
         const simd::Ops& ops = simd::ops();
         ops.axpy(0.5, vx.data(), vy.size(), vy.data());
         benchmark::DoNotOptimize(ops.dot(vx.data(), vy.data(), vy.size()));
       }},
  };

  const char* json_path = std::getenv("RP_BENCH_JSON");
  std::ofstream json;
  if (json_path != nullptr && json_path[0] != '\0')
    json.open(json_path, std::ios::app);

  std::printf("\nsimd kernel speedup (host: %s, threads: 1)\n",
              simd::level_name(simd::resolve("auto")));
  std::printf("%-16s %14s %14s %10s\n", "kernel", "scalar s/iter",
              "simd s/iter", "speedup");
  for (const Kernel& k : kernels) {
    // Interleave the arms (off/auto/off/auto...) so host drift on a shared
    // box hits both equally; min-of-reps discards preempted windows.
    double t_off = 1e300, t_auto = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
      simd::set_from_string("off");
      t_off = std::min(t_off, time_kernel(k.fn));
      simd::set_from_string("auto");
      t_auto = std::min(t_auto, time_kernel(k.fn));
    }
    const double speedup = t_auto > 0.0 ? t_off / t_auto : 0.0;
    std::printf("%-16s %14.3e %14.3e %9.2fx\n", k.name, t_off, t_auto, speedup);
    if (json.is_open())
      json << "{\"schema\":\"simd_speedup\",\"kernel\":\"" << k.name
           << "\",\"threads\":1,\"off_sec\":" << t_off
           << ",\"auto_sec\":" << t_auto
           << ",\"speedup_vs_off\":" << speedup << "}\n";
  }
  simd::set_from_string("auto");
}

// ---------------------------------------- DP candidate-eval JSONL row

/// Cost of scoring one detailed-placement candidate move: the pre-PR-8
/// mutate-and-measure path (write the position, walk every pin of every net
/// on the cell, restore) vs IncrementalEval::trial_move (cached boxes,
/// second extremes, no mutation). Appends a {"schema":"dp_candidate_speedup"}
/// row keyed kernel.dp_candidate_eval.t1.speedup_vs_full.
void emit_dp_candidate_rows() {
  using namespace rp;
  // Higher-fanout design than the kernel suite's: the full path is
  // O(Σ degree of the cell's nets) per candidate while the incremental one
  // is O(#nets), so realistic mixed-size fanout is where the gap lives.
  BenchmarkSpec spec = medium_spec(99);
  spec.avg_net_degree = 8.0;
  spec.max_net_degree = 48;
  Design d = generate_benchmark(spec);
  IncrementalEval inc(d);
  const std::vector<CellId>& movable = d.movable_cells();
  constexpr int kBatch = 1024;

  // Deterministic candidate list: each sampled cell nudged by a cell-width.
  std::vector<std::pair<CellId, Point>> cand;
  cand.reserve(kBatch);
  for (int i = 0; i < kBatch; ++i) {
    const CellId c = movable[static_cast<std::size_t>(i * 7) % movable.size()];
    const Cell& k = d.cell(c);
    cand.emplace_back(c, Point{k.pos.x + k.w, k.pos.y});
  }

  double sink = 0.0;
  std::vector<NetId> nets;
  // The old cost per candidate: collect + dedupe the cell's nets, measure
  // the before cost, mutate, measure again, restore. (The incremental path
  // amortizes the collection into construction and the before cost into one
  // cached sum per cell, so its per-candidate cost is trial_move alone.)
  const auto full_eval = [&] {
    for (const auto& [c, target] : cand) {
      nets.clear();
      for (const PinId pin : d.cell(c).pins) nets.push_back(d.pin(pin).net);
      std::sort(nets.begin(), nets.end());
      nets.erase(std::unique(nets.begin(), nets.end()), nets.end());
      double before = 0.0;
      for (const NetId n : nets) before += d.net(n).weight * d.net_hpwl(n);
      const Point old = d.cell(c).pos;
      d.cell(c).pos = target;
      double after = 0.0;
      for (const NetId n : nets) after += d.net(n).weight * d.net_hpwl(n);
      d.cell(c).pos = old;
      sink += before - after;
    }
  };
  const auto inc_eval = [&] {
    for (const auto& [c, target] : cand) sink += inc.trial_move(c, target);
  };
  double full_sec = 1e300, inc_sec = 1e300;
  for (int rep = 0; rep < 3; ++rep) {  // interleaved arms, min-of-reps
    full_sec = std::min(full_sec, time_kernel(full_eval));
    inc_sec = std::min(inc_sec, time_kernel(inc_eval));
  }
  full_sec /= kBatch;
  inc_sec /= kBatch;
  benchmark::DoNotOptimize(sink);
  const double speedup = inc_sec > 0.0 ? full_sec / inc_sec : 0.0;

  std::printf("\ndp candidate evaluation (per move trial)\n");
  std::printf("  full re-eval          %8.1f ns\n", full_sec * 1e9);
  std::printf("  incremental delta     %8.1f ns  (%.2fx)\n", inc_sec * 1e9,
              speedup);

  const char* json_path = std::getenv("RP_BENCH_JSON");
  if (json_path != nullptr && json_path[0] != '\0') {
    std::ofstream json(json_path, std::ios::app);
    if (json.is_open())
      json << "{\"schema\":\"dp_candidate_speedup\",\"threads\":1"
           << ",\"full_sec\":" << full_sec
           << ",\"incremental_sec\":" << inc_sec
           << ",\"speedup_vs_full\":" << speedup << "}\n";
  }
}

// ----------------------------------------------- event-bus overhead JSONL row

/// Measure the observability event bus (PR 7): raw emit cost into the ring,
/// emit cost with an open NDJSON stream, and — the number that matters — the
/// wall-time ratio of a full flow with the progress stream on vs off. The
/// contract is <2% flow overhead; bench_trend.py gates "overhead_ratio" as
/// an absolute limit (> 1.02 fails), not as a baseline-relative metric.
void emit_event_bus_rows() {
  using namespace rp;

  // Raw emit: ring buffer only (the always-on cost every run pays).
  obs::EventBus ring_bus;
  constexpr int kBatch = 4096;
  const double ring_sec = time_kernel([&] {
    for (int i = 0; i < kBatch; ++i) {
      obs::Event e = ring_bus.make(obs::EventKind::GpIter, "bench");
      e.i1 = i;
      e.d0 = 1.0 + i;
      ring_bus.emit(e);
    }
  }) / kBatch;

  // Streamed emit: ring + NDJSON serialization + write() per event.
  obs::EventBus stream_bus;
  double stream_sec = 0.0;
  if (stream_bus.open_stream("/dev/null")) {
    stream_sec = time_kernel([&] {
      for (int i = 0; i < kBatch; ++i) {
        obs::Event e = stream_bus.make(obs::EventKind::GpIter, "bench");
        e.i1 = i;
        e.d0 = 1.0 + i;
        stream_bus.emit(e);
      }
    }) / kBatch;
    stream_bus.close_stream();
  }

  // Full-flow wall time, stream off vs on. The tiny design keeps a pair
  // under a second; each flow places a fresh copy of it.
  const Design tiny = generate_benchmark(tiny_spec(17));
  auto flow_sec = [&tiny](bool stream) {
    auto ctx = std::make_shared<obs::ObsContext>();
    if (stream) ctx->events().open_stream("/dev/null");
    obs::ScopedBind bind(ctx.get());
    Design d = tiny;
    FlowOptions opt = routability_driven_options();
    opt.obs = ctx;
    PlacementFlow flow(opt);
    const auto t0 = std::chrono::steady_clock::now();
    flow.run(d);
    return std::chrono::duration<double>(
        std::chrono::steady_clock::now() - t0).count();
  };
  const OverheadPairs pairs = measure_overhead(flow_sec);

  const double events_per_sec = ring_sec > 0.0 ? 1.0 / ring_sec : 0.0;
  std::printf("\nevent bus overhead\n");
  std::printf("  emit (ring only)      %8.1f ns/event (%.2e events/sec)\n",
              ring_sec * 1e9, events_per_sec);
  std::printf("  emit (NDJSON stream)  %8.1f ns/event\n", stream_sec * 1e9);
  std::printf("  flow stream off/on    %.3fs / %.3fs (ratio %.4f ± %.4f, %d pairs)\n",
              pairs.off_sec, pairs.on_sec, pairs.ratio, pairs.ci, pairs.pairs);

  const char* json_path = std::getenv("RP_BENCH_JSON");
  if (json_path != nullptr && json_path[0] != '\0') {
    std::ofstream json(json_path, std::ios::app);
    if (json.is_open())
      json << "{\"schema\":\"event_bus_overhead\""
           << ",\"events_per_sec\":" << events_per_sec
           << ",\"emit_ns\":" << ring_sec * 1e9
           << ",\"emit_streamed_ns\":" << stream_sec * 1e9
           << ",\"flow_off_sec\":" << pairs.off_sec
           << ",\"flow_on_sec\":" << pairs.on_sec
           << ",\"overhead_ratio\":" << pairs.ratio << "}\n";
  }
}

// ------------------------------- resource-sampler overhead JSONL row

/// Measure the resource timeline sampler (util/resource_sampler.hpp): full
/// flow wall time with the background sampler off vs on at the default
/// 25 ms tick, in interleaved pairs like the event-bus gate.
/// The contract is <2% flow overhead; bench_trend.py gates the emitted
/// "overhead_ratio" with the same absolute <= 1.02 ceiling.
void emit_resource_sampler_rows() {
  using namespace rp;

  long long samples_taken = 0;
  const Design tiny = generate_benchmark(tiny_spec(17));
  auto flow_sec = [&samples_taken, &tiny](bool sample) {
    auto ctx = std::make_shared<obs::ObsContext>();
    if (sample) ctx->sampler().start(obs::ResourceSampler::Options{});
    obs::ScopedBind bind(ctx.get());
    Design d = tiny;
    FlowOptions opt = routability_driven_options();
    opt.obs = ctx;
    PlacementFlow flow(opt);
    const auto t0 = std::chrono::steady_clock::now();
    flow.run(d);
    const double sec = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - t0).count();
    if (sample) {
      ctx->sampler().stop();
      samples_taken = ctx->sampler().summary().samples_taken;
    }
    return sec;
  };
  const OverheadPairs pairs = measure_overhead(flow_sec);

  std::printf("\nresource sampler overhead (%d ms tick)\n",
              obs::ResourceSampler::kDefaultTickMs);
  std::printf("  flow sampler off/on   %.3fs / %.3fs (ratio %.4f ± %.4f, %d pairs, "
              "%lld samples last run)\n",
              pairs.off_sec, pairs.on_sec, pairs.ratio, pairs.ci, pairs.pairs,
              samples_taken);

  const char* json_path = std::getenv("RP_BENCH_JSON");
  if (json_path != nullptr && json_path[0] != '\0') {
    std::ofstream json(json_path, std::ios::app);
    if (json.is_open())
      json << "{\"schema\":\"resource_sampler_overhead\""
           << ",\"tick_ms\":" << obs::ResourceSampler::kDefaultTickMs
           << ",\"samples_taken\":" << samples_taken
           << ",\"flow_off_sec\":" << pairs.off_sec
           << ",\"flow_on_sec\":" << pairs.on_sec
           << ",\"overhead_ratio\":" << pairs.ratio << "}\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  emit_speedup_rows();
  emit_simd_speedup_rows();
  emit_dp_candidate_rows();
  emit_event_bus_rows();
  emit_resource_sampler_rows();
  return 0;
}
