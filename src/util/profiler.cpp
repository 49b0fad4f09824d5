#include "util/profiler.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>

#include "util/json.hpp"
#include "util/obs_context.hpp"
#include "util/parallel.hpp"

namespace rp::profiler {

// --------------------------------------------------------------- histogram

const std::uint64_t* LatencyHistogram::edges_ns() {
  // edges[0] = 0, edges[i] ≈ 100 ns * 10^((i-1)/4) for i in 1..kBuckets,
  // built as mantissa * 10^decade with the four per-decade mantissas rounded
  // once — so e[i + 4] == 10 * e[i] holds EXACTLY and bucket_of() works in
  // exact integer arithmetic, reproducible on every platform.
  static const auto kEdges = [] {
    constexpr std::uint64_t kMantissa[4] = {100, 178, 316, 562};  // 100·10^(k/4)
    std::array<std::uint64_t, kBuckets + 1> e{};
    e[0] = 0;
    std::uint64_t decade = 1;
    for (int i = 1; i <= kBuckets; ++i) {
      e[static_cast<std::size_t>(i)] = kMantissa[(i - 1) % 4] * decade;
      if (i % 4 == 0) decade *= 10;
    }
    return e;
  }();
  return kEdges.data();
}

int LatencyHistogram::bucket_of(std::uint64_t ns) {
  const std::uint64_t* e = edges_ns();
  // Binary search for the last edge <= ns (edges are strictly ascending).
  int lo = 0, hi = kBuckets;  // bucket index range; edge index = bucket + 1
  while (lo < hi) {
    const int mid = (lo + hi) / 2;
    if (ns < e[mid + 1]) hi = mid;
    else lo = mid + 1;
  }
  return lo < kBuckets ? lo : kBuckets - 1;  // clamp overflow into the last
}

void LatencyHistogram::record(std::uint64_t ns) {
  ++counts[static_cast<std::size_t>(bucket_of(ns))];
  if (samples == 0 || ns < min_ns) min_ns = ns;
  if (ns > max_ns) max_ns = ns;
  ++samples;
  total_ns += ns;
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  if (other.samples == 0) return;
  for (int b = 0; b < kBuckets; ++b) counts[b] += other.counts[b];
  if (samples == 0 || other.min_ns < min_ns) min_ns = other.min_ns;
  if (other.max_ns > max_ns) max_ns = other.max_ns;
  samples += other.samples;
  total_ns += other.total_ns;
}

void LatencyHistogram::clear() { *this = LatencyHistogram{}; }

double LatencyHistogram::quantile_us(double q) const {
  if (samples == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Target rank in [1, samples]; walk buckets to the one containing it.
  const double rank = std::max(1.0, std::ceil(q * static_cast<double>(samples)));
  std::uint64_t cum = 0;
  for (int b = 0; b < kBuckets; ++b) {
    if (counts[b] == 0) continue;
    if (static_cast<double>(cum + counts[b]) >= rank) {
      const double frac =
          (rank - static_cast<double>(cum)) / static_cast<double>(counts[b]);
      const double lo = bucket_lo_us(b);
      // The last bucket is open-ended; its effective ceiling is the exact max.
      const double hi = b == kBuckets - 1 ? max_us() : bucket_hi_us(b);
      const double v = lo + frac * (std::max(hi, lo) - lo);
      return std::clamp(v, min_us(), max_us());
    }
    cum += counts[b];
  }
  return max_us();
}

// ---------------------------------------------------------------- registry

Profiler::Profiler() {
  // Starts at 1 so a zero-initialized macro cache never matches a profiler.
  static std::atomic<std::uint64_t> counter{0};
  epoch_ = counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

Profiler& Profiler::instance() { return obs::current().profiler(); }

Region& Profiler::region(const std::string& name) { return regions_[name]; }

void Profiler::record(const std::string& name, std::uint64_t ns) {
  regions_[name].hist.record(ns);
}

void Profiler::reset() {
  for (auto& [name, r] : regions_) r.hist.clear();
}

std::vector<std::pair<std::string, const Region*>> Profiler::regions() const {
  std::vector<std::pair<std::string, const Region*>> out;
  out.reserve(regions_.size());
  for (const auto& [name, r] : regions_) out.emplace_back(name, &r);
  return out;
}

// ------------------------------------------------------------------ switch

namespace {
bool g_enabled = false;
}

bool enabled() { return g_enabled; }

void set_enabled(bool on) {
  g_enabled = on;
  parallel::set_pool_profiling(on);
}

bool env_requested() {
  const char* env = std::getenv("RP_PROFILE");
  return env != nullptr && env[0] != '\0' && !(env[0] == '0' && env[1] == '\0');
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ----------------------------------------------------------------- report

namespace {

/// Histogram as JSON: summary quantiles + the non-empty buckets only (the
/// bucket layout is fixed, so sparse emission loses nothing).
void write_histogram(JsonWriter& w, const LatencyHistogram& h) {
  w.begin_object();
  w.kv("samples", static_cast<std::int64_t>(h.samples));
  w.kv("total_ms", h.total_ms());
  w.kv("mean_us", h.mean_us());
  w.kv("min_us", h.min_us());
  w.kv("p50_us", h.quantile_us(0.50));
  w.kv("p95_us", h.quantile_us(0.95));
  w.kv("p99_us", h.quantile_us(0.99));
  w.kv("max_us", h.max_us());
  w.key("buckets").begin_array();
  for (int b = 0; b < LatencyHistogram::kBuckets; ++b) {
    if (h.counts[b] == 0) continue;
    w.begin_object();
    w.kv("lo_us", LatencyHistogram::bucket_lo_us(b));
    w.kv("hi_us", b == LatencyHistogram::kBuckets - 1
                      ? std::max(LatencyHistogram::bucket_hi_us(b), h.max_us())
                      : LatencyHistogram::bucket_hi_us(b));
    w.kv("count", static_cast<std::int64_t>(h.counts[b]));
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

}  // namespace

void write_report_block(JsonWriter& w) {
  w.key("profile").begin_object();
  w.kv("enabled", true);

  w.key("regions").begin_object();
  for (const auto& [name, r] : Profiler::instance().regions()) {
    if (r->hist.samples == 0) continue;
    w.key(name);
    write_histogram(w, r->hist);
  }
  w.end_object();

  const parallel::PoolProfile pool = parallel::pool_profile();
  w.key("pool").begin_object();
  w.kv("threads", static_cast<std::int64_t>(pool.threads));
  w.kv("regions", pool.regions);
  w.kv("wall_ms", pool.wall_ns / 1e6);
  w.kv("busy_ms", pool.busy_ns / 1e6);
  w.kv("efficiency_mean", pool.efficiency_mean);
  w.kv("efficiency_min", pool.efficiency_min);
  w.kv("imbalance_max", pool.imbalance_max);
  w.key("workers").begin_array();
  for (std::size_t i = 0; i < pool.workers.size(); ++i) {
    const parallel::WorkerProfile& wp = pool.workers[i];
    w.begin_object();
    w.kv("worker", static_cast<std::int64_t>(i));
    w.kv("busy_ms", static_cast<double>(wp.busy_ns) / 1e6);
    w.kv("wait_ms", static_cast<double>(wp.wait_ns) / 1e6);
    w.kv("chunks", wp.chunks);
    w.end_object();
  }
  w.end_array();
  w.key("chunk");
  write_histogram(w, pool.chunk_hist);
  w.end_object();

  w.end_object();
}

std::string region_jsonl_rows(const Profiler& p, const std::string& bench,
                              const std::string& flow) {
  if (!enabled()) return {};
  std::string out;
  for (const auto& [name, r] : p.regions()) {
    const LatencyHistogram& h = r->hist;
    if (h.samples == 0) continue;
    JsonWriter w;
    w.begin_object();
    w.kv("schema", "profile_region");
    w.kv("bench", bench);
    w.kv("flow", flow);
    w.kv("region", name);
    w.kv("samples", static_cast<std::int64_t>(h.samples));
    w.kv("total_ms", h.total_ms());
    w.kv("mean_us", h.mean_us());
    w.kv("p50_us", h.quantile_us(0.50));
    w.kv("p95_us", h.quantile_us(0.95));
    w.kv("p99_us", h.quantile_us(0.99));
    w.kv("max_us", h.max_us());
    w.end_object();
    out += w.str();
    out += '\n';
  }
  return out;
}

}  // namespace rp::profiler
