// Single-process placement benchmark harness (see perfbench/README.md).
//
//   perfbench_harness prepare --workload W --dir D [--design-seed K]
//       Untimed pre-setup: generate the workload's design and write it as
//       Bookshelf into D. Runs in its own process so the measured process
//       only ever reads files.
//   perfbench_harness run --workload W --dir D --seed N --seconds S --trace 0|1
//       trace 0: time read_bookshelf (setup_s) and PlacementFlow::run
//       (flow_s, cpu_s) at 1 thread, a fixed number of times, and check
//       legality and in-process quality reproduction.
//       trace 1: one untraced reference flow, then a replay of the flow
//       stage by stage through each layer's public entry point under an
//       outside timer, with pool profiling on, at 1 thread and again at
//       kPoolThreads; both replays must reproduce the reference quality
//       exactly.
//   perfbench_harness selfcheck
//       Replay vs PlacementFlow::run on tiny_spec(), both flow variants,
//       and the flow at 2 threads vs 1.
//
// `run` prints every metric by name on stderr and, as the last stdout line,
// a JSON object {correct, attempted, failed, metrics, quality_key, quality};
// perfbench/run.py checks the quality against the workload's other runs.

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "cluster/multilevel.hpp"
#include "core/flow.hpp"
#include "db/bookshelf.hpp"
#include "gen/generator.hpp"
#include "model/density.hpp"
#include "model/problem.hpp"
#include "model/wirelength.hpp"
#include "route/estimator.hpp"
#include "route/routegrid.hpp"
#include "util/logger.hpp"
#include "util/obs_context.hpp"
#include "util/parallel.hpp"
#include "util/profiler.hpp"
#include "util/telemetry.hpp"
#include "util/timer.hpp"

namespace {

using namespace rp;

// ----------------------------------------------------------------- workloads

struct Workload {
  const char* name;
  const char* design;        ///< paper_suite() entry.
  std::uint64_t design_seed; ///< The suite's own seed.
  bool routability;          ///< routability_driven_options() vs wirelength_driven_options().
  /// Typical PlacementFlow::run wall time at 1 thread on a 4-vCPU x86
  /// host. A run places the design floor(--seconds / this) times (at least
  /// once): a fixed amount of work for a given --seconds, whatever the host
  /// speed.
  double nominal_flow_s;
};

// Why these two: README.md, "Workloads". Held-out design seeds for
// checking a later claim on an input it was not tuned on: README.md.
const Workload kWorkloads[] = {
    {"hier-congested", "rdp-s1-hier", 1000, true, 5.0},
    {"flat-wirelength", "rdp-s2-flat", 1001, false, 2.5},
};

/// Untraced runs place at 1 thread, so their times follow the host's CPU
/// speed and not the scheduler. The traced run also places at this many
/// threads, for the thread-count determinism check and the pool metrics.
constexpr int kPoolThreads = 2;

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads)
    if (name == w.name) return &w;
  return nullptr;
}

BenchmarkSpec workload_spec(const Workload& w, std::uint64_t design_seed) {
  for (BenchmarkSpec s : paper_suite()) {
    if (s.name != w.design) continue;
    s.seed = design_seed;
    return s;
  }
  std::fprintf(stderr, "paper_suite() has no entry '%s'\n", w.design);
  std::exit(2);
}

FlowOptions workload_options(const Workload& w) {
  return w.routability ? routability_driven_options() : wirelength_driven_options();
}

// ------------------------------------------------------------------ metrics

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    list_.push_back({name, value, unit});
  }
  const std::vector<Metric>& list() const { return list_; }

 private:
  std::vector<Metric> list_;
};

/// The four contest quality figures; gated bit for bit.
struct Quality {
  double hpwl = 0.0;
  double scaled_hpwl = 0.0;
  double rc = 0.0;
  double overflow = 0.0;
  double peak_util = 0.0;  ///< Max routed edge utilization, in %.

  bool operator==(const Quality&) const = default;
};

Quality quality_of(const EvalResult& e) {
  return {e.hpwl, e.scaled_hpwl, e.congestion.rc, e.congestion.total_overflow,
          100.0 * e.congestion.peak_utilization};
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& t) { return static_cast<double>(t.tv_sec) + 1e-6 * t.tv_usec; };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

/// VmHWM (peak resident set) of this process in MB.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  return 0.0;
}

/// Results of timed-only computations land here, so they are not optimized away.
volatile double g_sink = 0.0;

/// Host drift probe: a fixed integer kernel that touches no placer code.
/// `seed` fills its buffer; the work is the same for every seed.
double calib_ms(std::uint64_t seed) {
  std::vector<std::uint64_t> buf(1 << 15);
  std::uint64_t s = seed;
  for (std::uint64_t& b : buf) {
    s += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = s;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    b = z ^ (z >> 27);
  }
  double best = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    Timer t;
    std::uint64_t acc = seed;
    for (int pass = 0; pass < 256; ++pass)
      for (std::size_t i = 0; i < buf.size(); ++i) {
        acc = (acc ^ buf[i]) * 0x2545F4914F6CDD1Dull;
        acc = (acc << 13 | acc >> 51) + i;
        buf[i] = acc;
      }
    const double ms = 1e3 * t.seconds();
    g_sink = static_cast<double>(acc);
    if (rep == 0 || ms < best) best = ms;
  }
  return best;
}

std::filesystem::path aux_path(const std::filesystem::path& dir, const Workload& w) {
  return dir / (std::string(w.design) + ".aux");
}

// ---------------------------------------------------------------- replay

/// Outcome of a stage-by-stage replay of PlacementFlow::run.
struct Replay {
  EvalResult eval;
  double total_s = 0.0;  ///< Σ of the timed flow-stage calls.
  Metrics layers;
  Metrics pool;  ///< pool.* metrics, meaningful at more than 1 thread.
};

std::int64_t counter(const obs::ObsContext& ctx, const char* name) {
  return ctx.registry().counter_value(name);
}

/// Spearman rank correlation (average ranks for ties).
double spearman(const std::vector<double>& a, const std::vector<double>& b) {
  auto ranks = [](const std::vector<double>& v) {
    std::vector<std::size_t> idx(v.size());
    std::iota(idx.begin(), idx.end(), 0);
    std::sort(idx.begin(), idx.end(),
              [&](std::size_t i, std::size_t j) { return v[i] < v[j] || (v[i] == v[j] && i < j); });
    std::vector<double> r(v.size());
    for (std::size_t i = 0; i < idx.size();) {
      std::size_t j = i;
      while (j + 1 < idx.size() && v[idx[j + 1]] == v[idx[i]]) ++j;
      for (std::size_t k = i; k <= j; ++k) r[idx[k]] = 0.5 * static_cast<double>(i + j);
      i = j + 1;
    }
    return r;
  };
  const std::vector<double> ra = ranks(a), rb = ranks(b);
  const double n = static_cast<double>(a.size());
  const double mean = 0.5 * (n - 1.0);
  double sab = 0.0, saa = 0.0, sbb = 0.0;
  for (std::size_t i = 0; i < ra.size(); ++i) {
    sab += (ra[i] - mean) * (rb[i] - mean);
    saa += (ra[i] - mean) * (ra[i] - mean);
    sbb += (rb[i] - mean) * (rb[i] - mean);
  }
  return saa > 0.0 && sbb > 0.0 ? sab / std::sqrt(saa * sbb) : 0.0;
}

/// Minimum wall time of `reps` calls of fn, in ms.
template <typename Fn>
double min_ms(int reps, Fn&& fn) {
  double best = 0.0;
  for (int i = 0; i < reps; ++i) {
    Timer t;
    fn();
    const double ms = 1e3 * t.seconds();
    if (i == 0 || ms < best) best = ms;
  }
  return best;
}

constexpr int kMaxGpLevels = 5;  ///< gp.level<k>_* metrics reported for k < this.

/// Replays PlacementFlow::run (core/flow.cpp) on `d` stage by stage through
/// the layers' public calls, timing each from outside and reading the
/// counters and pool profile the program publishes. Must stay in step with
/// flow.cpp: `selfcheck` and every traced run compare its quality with
/// PlacementFlow::run bit for bit.
Replay replay_flow(Design& d, const FlowOptions& opt) {
  if (opt.legalizer != "abacus" || opt.skip_dp || opt.skip_eval || !opt.snapshot.dir.empty()) {
    std::fprintf(stderr, "replay_flow covers the default abacus/DP/eval flow only\n");
    std::exit(2);
  }
  obs::ObsContext ctx;
  obs::ScopedBind bind(&ctx);
  profiler::set_enabled(true);
  parallel::reset_pool_profile();

  Replay r;
  Metrics& m = r.layers;
  auto timed = [&](auto&& fn) {
    Timer t;
    fn();
    const double s = t.seconds();
    r.total_s += s;
    return s;
  };

  // cluster: the level stack GP builds first, through its own entry point.
  // A probe outside the flow (GP builds its own), so not part of total_s.
  int levels = 0, coarsest_nodes = 0;
  Timer cluster_timer;
  {
    const Multilevel ml(d, opt.gp.cluster);
    levels = ml.num_levels();
    coarsest_nodes = ml.level(ml.top()).prob.num_nodes();
  }
  const double cluster_s = cluster_timer.seconds();

  // gp
  GlobalPlacer gp(opt.gp);
  GpStats gs;
  const double gp_s = timed([&] { gs = gp.run(d); });
  const PlaceProblem gp_exit = make_problem(d);

  // legal
  MacroLegalizeStats ms;
  const double macro_s = timed([&] {
    ms = legalize_macros(d, opt.macro_legal);
    freeze_macros(d);
  });
  LegalizeStats ls;
  const double legal_s = timed([&] { ls = AbacusLegalizer(opt.legal).run(d); });
  const double legal_hpwl = d.hpwl();

  // route estimate feeding DP, then dp
  double estimate_s = 0.0, dp_s = 0.0;
  DetailedPlaceStats ds;
  if (opt.congestion_aware_dp) {
    RoutingGrid rg(d, true);
    estimate_s = timed([&] { estimate_probabilistic(d, rg); });
    DetailedPlaceOptions dpo = opt.dp;
    dpo.congestion_weight =
        opt.dp_congestion_weight > 0.0 ? opt.dp_congestion_weight : 2.0 * d.row_height();
    DetailedPlacer dp(dpo);
    dp.set_congestion(rg.map(), rg.tile_congestion());
    dp_s = timed([&] { ds = dp.run(d); });
  } else {
    dp_s = timed([&] { ds = DetailedPlacer(opt.dp).run(d); });
  }

  // eval (routed on a grid we keep, for the estimator agreement below)
  RoutingGrid eval_grid(d, true);
  const double eval_s = timed([&] { r.eval = evaluate_placement(d, opt.eval, eval_grid); });

  // Counters and the pool profile, before the model probes below add to them.
  const std::int64_t cg_iters = counter(ctx, "solver.cg_iters");
  const std::int64_t wl_evals = counter(ctx, "parallel.wl_evals");
  const std::int64_t segments = counter(ctx, "route.segments");
  const parallel::PoolProfile pool = parallel::pool_profile();
  profiler::set_enabled(false);

  RoutingGrid est_grid(d, true);
  estimate_probabilistic(d, est_grid);
  const double rank_corr =
      spearman(est_grid.tile_congestion().data(), eval_grid.tile_congestion().data());

  // model: one evaluation on the finest-level problem at GP-exit positions.
  DensityConfig dc;
  dc.target_density = opt.gp.target_density;
  DensityModel dens(gp_exit, dc);
  auto wl = make_wirelength_model(
      opt.gp.wl_model,
      opt.gp.gamma_final_bins * std::max(dens.grid().bin_w(), dens.grid().bin_h()));
  std::vector<double> gx(gp_exit.nodes.size()), gy(gp_exit.nodes.size());
  const double wl_eval_ms = min_ms(5, [&] { g_sink = wl->eval(gp_exit, gx, gy); });
  const double wl_value_ms = min_ms(5, [&] { g_sink = wl->value(gp_exit); });
  const double dens_eval_ms = min_ms(5, [&] { g_sink = dens.eval(gp_exit, gx, gy); });

  // ---- per-layer metrics, by module
  m.add("db.cells", d.num_cells(), "count");
  m.add("db.nets", d.num_nets(), "count");
  m.add("db.pins", d.num_pins(), "count");

  m.add("cluster.build_s", cluster_s, "s");
  m.add("cluster.levels", levels, "count");
  m.add("cluster.coarsest_nodes", coarsest_nodes, "count");

  const StageTimes& gt = gp.times();
  m.add("gp.s", gp_s, "s");
  // The routability rounds run inside the finest level's stage.
  m.add("gp.routability_s", gt.get("level0/routability"), "s");
  m.add("gp.outer_iters", counter(ctx, "gp.outer_iters"), "count");
  int reheat_outers = 0;
  for (const GpTracePoint& p : gp.trace()) reheat_outers += p.level < 0 ? 1 : 0;
  for (int k = 0; k < kMaxGpLevels; ++k) {
    const std::string lk = "gp.level" + std::to_string(k);
    int outers = 0;
    double exit_overflow = 0.0;
    for (const GpTracePoint& p : gp.trace())
      if (p.level == k) {
        ++outers;
        exit_overflow = p.overflow;
      }
    m.add(lk + "_s", gt.get("level" + std::to_string(k)), "s");
    m.add(lk + "_outers", outers, "count");
    m.add(lk + "_exit_overflow", exit_overflow, "ratio");
  }
  m.add("gp.reheat_outers", reheat_outers, "count");
  m.add("gp.final_overflow", gs.final_overflow, "ratio");
  m.add("gp.hpwl", gs.final_hpwl, "dbu");
  m.add("gp.inflation_rounds", gs.inflation_rounds, "count");
  m.add("gp.mean_inflation", gs.mean_inflation, "ratio");

  m.add("solver.cg_iters", cg_iters, "count");
  m.add("solver.cg_calls", counter(ctx, "solver.cg_calls"), "count");
  m.add("solver.wl_evals", wl_evals, "count");
  m.add("solver.evals_per_iter", cg_iters > 0 ? static_cast<double>(wl_evals) / cg_iters : 0.0,
        "ratio");
  m.add("solver.guard_retries", counter(ctx, "guard.retries"), "count");

  m.add("model.wl_eval_ms", wl_eval_ms, "ms");
  m.add("model.wl_value_ms", wl_value_ms, "ms");
  m.add("model.density_eval_ms", dens_eval_ms, "ms");

  m.add("route.estimate_ms", 1e3 * estimate_s, "ms");
  m.add("route.estimate_rank_corr", rank_corr, "ratio");
  m.add("route.eval_s", eval_s, "s");
  m.add("route.overflow", r.eval.congestion.total_overflow, "tracks");
  m.add("route.ripup_rounds", counter(ctx, "route.ripup_rounds"), "count");
  m.add("route.reroute_ratio",
        segments > 0 ? static_cast<double>(counter(ctx, "route.segments_rerouted")) / segments
                     : 0.0,
        "ratio");

  m.add("legal.macro_s", macro_s, "s");
  m.add("legal.s", legal_s, "s");
  m.add("legal.hpwl_factor", gs.final_hpwl > 0.0 ? legal_hpwl / gs.final_hpwl : 0.0, "ratio");
  m.add("legal.avg_disp_rows", ls.avg_disp() / d.row_height(), "rows");
  m.add("legal.max_disp_rows", ls.max_disp / d.row_height(), "rows");
  m.add("legal.failed", ls.failed + ms.failed, "count");

  m.add("dp.s", dp_s, "s");
  m.add("dp.hpwl_gain", ds.improvement(), "ratio");
  m.add("dp.swaps", static_cast<double>(ds.swaps), "count");
  m.add("dp.relocations", static_cast<double>(ds.relocations), "count");
  m.add("dp.reorders", static_cast<double>(ds.reorders), "count");
  m.add("dp.ism_moves", static_cast<double>(ds.ism_moves), "count");
  m.add("dp.passes", counter(ctx, "dp.passes"), "count");

  double busy_ns = 0.0, wait_ns = 0.0;
  for (const parallel::WorkerProfile& wp : pool.workers) {
    busy_ns += static_cast<double>(wp.busy_ns);
    wait_ns += static_cast<double>(wp.wait_ns);
  }
  r.pool.add("pool.regions", static_cast<double>(pool.regions), "count");
  r.pool.add("pool.regions_per_cg_iter",
             cg_iters > 0 ? static_cast<double>(pool.regions) / cg_iters : 0.0, "ratio");
  r.pool.add("pool.efficiency_mean", pool.efficiency_mean, "ratio");
  r.pool.add("pool.chunk_us_mean", pool.chunk_hist.mean_us(), "us");
  r.pool.add("pool.wait_share", busy_ns + wait_ns > 0.0 ? wait_ns / (busy_ns + wait_ns) : 0.0,
             "ratio");

  m.add("flow.gp_share", gp_s / r.total_s, "ratio");
  m.add("flow.eval_share", eval_s / r.total_s, "ratio");
  return r;
}

// ------------------------------------------------------------------ output

void print_metrics(const Metrics& m) {
  for (const Metric& x : m.list())
    std::fprintf(stderr, "  %-28s %.6g %s\n", x.name.c_str(), x.value, x.unit.c_str());
}

std::string quality_key(const Workload& w, std::uint64_t design_seed) {
  return std::string(w.design) + "-" + std::to_string(design_seed) +
         (w.routability ? "-routability" : "-wirelength");
}

void print_result(int attempted, int failed, const Metrics& m, const std::string& key,
                  const Quality& q) {
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, \"metrics\": {",
              failed == 0 ? "true" : "false", attempted, failed);
  const char* sep = "";
  for (const Metric& x : m.list()) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep, x.name.c_str(), x.value,
                x.unit.c_str());
    sep = ", ";
  }
  std::printf("}, \"quality_key\": \"%s\", \"quality\": {\"hpwl\": \"%a\", "
              "\"scaled_hpwl\": \"%a\", \"rc\": \"%a\", \"overflow\": \"%a\", \"peak_util\": \"%a\"}}\n",
              key.c_str(), q.hpwl, q.scaled_hpwl, q.rc, q.overflow, q.peak_util);
  std::fflush(stdout);
}

// ------------------------------------------------------------------- modes

struct Args {
  std::string mode;
  std::string workload;
  std::filesystem::path dir;
  std::uint64_t seed = 1;
  std::optional<std::uint64_t> design_seed;
  double seconds = 10.0;
  int trace = 0;
};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_harness prepare --workload W --dir D [--design-seed K]\n"
               "       perfbench_harness run --workload W --dir D --seed N --seconds S "
               "--trace 0|1 [--design-seed K]\n"
               "       perfbench_harness selfcheck\n");
  return 2;
}

int cmd_prepare(const Workload& w, const Args& a) {
  const std::uint64_t seed = a.design_seed.value_or(w.design_seed);
  const Design d = generate_benchmark(workload_spec(w, seed));
  write_bookshelf(d, a.dir, w.design);
  std::fprintf(stderr, "prepared %s (seed %" PRIu64 ") in %s\n", w.design, seed,
               a.dir.c_str());
  return 0;
}

/// Timed parses before each placement and after the last; setup_s is the
/// median of all of them, so it samples the host across the whole run.
/// flow_s and cpu_s are medians over the run's placements for the same
/// reason: the host's speed drifts over tens of seconds.
constexpr int kParsesPerGroup = 5;

int cmd_run(const Workload& w, const Args& a) {
  const std::uint64_t design_seed = a.design_seed.value_or(w.design_seed);
  const std::filesystem::path aux = aux_path(a.dir, w);
  parallel::set_num_threads(1);
  const double calib_start = calib_ms(a.seed);

  int attempted = 0, failed = 0;
  std::vector<double> parse_s;
  // One group of timed parses; returns the last design parsed.
  auto timed_parses = [&] {
    Design last;
    for (int i = 0; i < kParsesPerGroup; ++i) {
      last = Design();
      Timer t;
      last = read_bookshelf(aux);
      parse_s.push_back(t.seconds());
    }
    return last;
  };
  read_bookshelf(aux);  // untimed warm-up: page cache and allocator

  const FlowOptions opt = workload_options(w);
  std::vector<double> flow_s, cpu_s;
  std::optional<Quality> q0;
  auto run_flow = [&](Design& design) {
    const double c0 = cpu_seconds();
    Timer t;
    const FlowResult r = PlacementFlow(opt).run(design);
    flow_s.push_back(t.seconds());
    cpu_s.push_back(cpu_seconds() - c0);
    ++attempted;
    std::fprintf(stderr, "flow %d: %.3f s wall, %.3f s cpu\n", attempted, flow_s.back(),
                 cpu_s.back());
    const Quality q = quality_of(r.eval);
    if (!q0) q0 = q;
    if (!r.eval.legality.ok() || !(q == *q0)) {
      ++failed;
      std::fprintf(stderr, "FAILED flow run %d: legal=%d hpwl=%a (first run %a)\n", attempted,
                   r.eval.legality.ok() ? 1 : 0, q.hpwl, q0->hpwl);
    }
  };

  Metrics m;
  if (a.trace == 0) {
    const int flows = std::max(1, static_cast<int>(a.seconds / w.nominal_flow_s));
    for (int i = 0; i < flows; ++i) {
      Design d = timed_parses();
      run_flow(d);
    }
    timed_parses();
    m.add("setup_s", median(parse_s), "s");
    m.add("flow_s", median(flow_s), "s");
    m.add("cpu_s", median(cpu_s), "s");
    m.add("peak_rss_mb", peak_rss_mb(), "MB");
    m.add("hpwl", q0->hpwl, "dbu");
    m.add("scaled_hpwl", q0->scaled_hpwl, "dbu");
    m.add("rc", q0->rc, "pct");
    m.add("peak_util", q0->peak_util, "pct");
    std::fprintf(stderr, "%s: %zu flow run(s), %zu setup parses\n", w.name, flow_s.size(),
                 parse_s.size());
  } else {
    Design d = timed_parses();
    run_flow(d);
    // Replays at 1 thread and at kPoolThreads; both must reproduce the
    // 1-thread flow, which checks the thread-count determinism contract.
    auto replay = [&](int threads) {
      parallel::set_num_threads(threads);
      Design replayed = read_bookshelf(aux);
      Replay rp = replay_flow(replayed, opt);
      ++attempted;
      const Quality q = quality_of(rp.eval);
      if (!rp.eval.legality.ok() || !(q == *q0)) {
        ++failed;
        std::fprintf(stderr,
                     "FAILED replay at %d thread(s): legal=%d hpwl %a vs flow %a, rc %a vs %a\n",
                     threads, rp.eval.legality.ok() ? 1 : 0, q.hpwl, q0->hpwl, q.rc, q0->rc);
      }
      return rp;
    };
    const Replay rp = replay(1);
    const Replay rp_pool = replay(kPoolThreads);
    m.add("db.parse_s", median(parse_s), "s");
    for (const Metric& x : rp.layers.list()) m.add(x.name, x.value, x.unit);
    for (const Metric& x : rp_pool.pool.list()) m.add(x.name, x.value, x.unit);
    m.add("trace.overhead_ratio", rp.total_s / flow_s.front(), "ratio");
  }
  const double calib_end = calib_ms(a.seed);
  if (a.trace != 0) m.add("host.calib_ms", 0.5 * (calib_start + calib_end), "ms");
  std::fprintf(stderr, "%s (design seed %" PRIu64 ", host calib %.2f -> %.2f ms)\n", w.name,
               design_seed, calib_start, calib_end);
  print_metrics(m);
  print_result(attempted, failed, m, quality_key(w, design_seed), *q0);
  return 0;
}

/// The replay must reproduce PlacementFlow::run exactly, for both flow
/// variants (congestion-aware DP on and off), and the flow must give the
/// same quality at 2 threads as at 1.
int cmd_selfcheck() {
  int failed = 0;
  for (const bool routability : {true, false}) {
    const FlowOptions opt =
        routability ? routability_driven_options() : wirelength_driven_options();
    auto place = [&](int threads) {
      parallel::set_num_threads(threads);
      Design d = generate_benchmark(tiny_spec());
      return quality_of(PlacementFlow(opt).run(d).eval);
    };
    const Quality q2 = place(2);
    const Quality qf = place(1);
    Design d = generate_benchmark(tiny_spec());
    const Replay rp = replay_flow(d, opt);
    const Quality qr = quality_of(rp.eval);
    const bool ok = qf == qr && qf == q2 && rp.eval.legality.ok();
    std::fprintf(stderr,
                 "selfcheck %s: flow hpwl %a rc %a | 2 threads hpwl %a | replay hpwl %a rc %a"
                 " -> %s\n",
                 routability ? "routability" : "wirelength", qf.hpwl, qf.rc, q2.hpwl, qr.hpwl,
                 qr.rc, ok ? "ok" : "MISMATCH");
    failed += ok ? 0 : 1;
  }
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (argc < 2) return usage();
  a.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) return usage();
    const char* v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--dir") a.dir = v;
    else if (k == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else if (k == "--design-seed") a.design_seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") a.seconds = std::strtod(v, nullptr);
    else if (k == "--trace") a.trace = std::atoi(v);
    else return usage();
  }
  Logger::set_level(LogLevel::Warn);
  try {
    if (a.mode == "selfcheck") return cmd_selfcheck();
    const Workload* w = find_workload(a.workload);
    if (w == nullptr || a.dir.empty() || (a.trace != 0 && a.trace != 1)) return usage();
    if (a.mode == "prepare") return cmd_prepare(*w, a);
    if (a.mode == "run") return cmd_run(*w, a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_harness: %s\n", e.what());
    return 1;
  }
  return usage();
}
