#include "util/parallel.hpp"

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <thread>

#include "util/assert.hpp"
#include "util/telemetry.hpp"

namespace rp::parallel {

ChunkPlan plan_chunks(std::size_t n, std::size_t grain, int max_chunks) {
  ChunkPlan p;
  p.n = n;
  if (n == 0) {
    p.count = 0;
    return p;
  }
  if (grain == 0) grain = 1;
  const std::size_t want = (n + grain - 1) / grain;
  const auto cap = static_cast<std::size_t>(max_chunks < 1 ? 1 : max_chunks);
  p.count = static_cast<int>(want < cap ? want : cap);
  return p;
}

int hardware_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

int resolve_threads(int requested) {
  if (requested > 0) return requested;
  if (const char* env = std::getenv("RP_THREADS"); env != nullptr && env[0] != '\0') {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0) return static_cast<int>(v);
  }
  return hardware_threads();
}

void set_num_threads(int n) { ThreadPool::instance().resize(n < 1 ? 1 : n); }

int num_threads() { return ThreadPool::instance().threads(); }

// ----------------------------------------------------------------- pool

namespace {
/// True while the current thread executes inside a parallel region; nested
/// regions degrade to inline ascending-order execution (same result).
thread_local bool t_in_region = false;

/// Chunk/worker timing switch (profiler::set_enabled routes here). Written
/// on the main thread outside regions; workers observe it via the
/// mutex-published per-job flag, never directly.
bool g_pool_profiling = false;
}  // namespace

void set_pool_profiling(bool on) {
  RP_ASSERT(!t_in_region, "set_pool_profiling from inside a parallel region");
  g_pool_profiling = on;
}

bool pool_profiling() { return g_pool_profiling; }

struct ThreadPool::Impl {
  /// Serializes whole jobs across concurrent submitters (distinct threads
  /// running distinct flows). Held for a job's full lifetime — pooled path
  /// AND profiled inline path (both touch slots[0] / the cumulative
  /// profile). Nested regions never take it (they run inline unprofiled),
  /// so there is no self-deadlock.
  std::mutex submit_m;
  std::mutex m;
  std::condition_variable cv_work;   // workers wait for a job / shutdown
  std::condition_variable cv_done;   // caller waits for job completion
  std::vector<std::thread> workers;  // threads_ - 1 of them
  bool shutdown = false;

  // Current job (valid while job_active). The caller's run() does not return
  // until chunks_done == plan->count AND workers_in_job == 0, so plan/fn and
  // next_chunk stay valid for every worker that entered the job.
  bool job_active = false;
  bool job_instrument = false;  // time chunks into the worker slots
  bool job_trace = false;       // additionally keep per-chunk trace events
  std::uint64_t job_seq = 0;
  const ChunkPlan* plan = nullptr;
  const std::function<void(int, int)>* fn = nullptr;
  std::atomic<int> next_chunk{0};
  int chunks_done = 0;
  int workers_in_job = 0;

  // ---------------------------------------------------------- observability
  // Pre-allocated per-worker region scratch (sized at resize()): each worker
  // writes ONLY its own cacheline-aligned slot while a region runs; the
  // caller folds the slots after the region completes, so no synchronization
  // beyond the existing job handshake is needed.
  struct alignas(64) WorkerSlot {
    std::uint64_t busy_ns = 0;
    std::int64_t chunks = 0;
    profiler::LatencyHistogram hist;  ///< This region's chunk durations.
    struct Ev {
      std::uint64_t start_ns = 0;
      std::uint64_t dur_ns = 0;
    };
    Ev events[kDefaultMaxChunks];  ///< Trace spans (capped; extras dropped).
    int num_events = 0;

    void time_chunk(std::uint64_t start_ns, std::uint64_t dur_ns, bool keep_event) {
      busy_ns += dur_ns;
      ++chunks;
      hist.record(dur_ns);
      if (keep_event && num_events < kDefaultMaxChunks)
        events[num_events++] = {start_ns, dur_ns};
    }
    void clear_region() {
      busy_ns = 0;
      chunks = 0;
      hist.clear();
      num_events = 0;
    }
  };
  std::vector<WorkerSlot> slots;  // size threads_

  // Cumulative profile (main-thread only: fold/snapshot/reset).
  std::vector<WorkerProfile> totals;  // size threads_
  profiler::LatencyHistogram chunk_hist;
  std::int64_t prof_regions = 0;
  double wall_sum_ns = 0.0, busy_sum_ns = 0.0;
  double eff_sum = 0.0, eff_min = 0.0, imb_max = 0.0;

  void reset_profile() {
    for (WorkerProfile& t : totals) t = WorkerProfile{};
    for (WorkerSlot& s : slots) s.clear_region();
    chunk_hist.clear();
    prof_regions = 0;
    wall_sum_ns = busy_sum_ns = eff_sum = 0.0;
    eff_min = imb_max = 0.0;
  }

  /// Fold the per-worker region slots (ascending worker order) into the
  /// cumulative profile and/or the trace buffer, then clear them.
  void fold_region(std::uint64_t wall_ns, int nworkers, bool profile, bool trace) {
    std::uint64_t total_busy = 0, max_busy = 0;
    for (int w = 0; w < nworkers; ++w) {
      WorkerSlot& slot = slots[static_cast<std::size_t>(w)];
      total_busy += slot.busy_ns;
      if (slot.busy_ns > max_busy) max_busy = slot.busy_ns;
      if (profile) {
        WorkerProfile& t = totals[static_cast<std::size_t>(w)];
        t.busy_ns += slot.busy_ns;
        t.wait_ns += wall_ns > slot.busy_ns ? wall_ns - slot.busy_ns : 0;
        t.chunks += slot.chunks;
        chunk_hist.merge(slot.hist);
      }
      if (trace)
        for (int i = 0; i < slot.num_events; ++i)
          telemetry::emit_span("pool/chunk", slot.events[i].start_ns,
                               slot.events[i].dur_ns, w);
      slot.clear_region();
    }
    if (!profile || wall_ns == 0) return;
    ++prof_regions;
    wall_sum_ns += static_cast<double>(wall_ns);
    busy_sum_ns += static_cast<double>(total_busy);
    const double eff = static_cast<double>(total_busy) /
                       (static_cast<double>(nworkers) * static_cast<double>(wall_ns));
    eff_sum += eff;
    if (prof_regions == 1 || eff < eff_min) eff_min = eff;
    const double mean_busy = static_cast<double>(total_busy) / nworkers;
    const double imb = mean_busy > 0.0 ? static_cast<double>(max_busy) / mean_busy : 1.0;
    if (imb > imb_max) imb_max = imb;
  }
};

ThreadPool& ThreadPool::instance() {
  static ThreadPool pool;
  return pool;
}

ThreadPool::ThreadPool() : impl_(new Impl) {
  // Conservative default: single-threaded until the CLI / a test opts in.
  threads_ = 1;
  impl_->slots.resize(1);
  impl_->totals.resize(1);
}

ThreadPool::~ThreadPool() {
  stop_workers();
  delete impl_;
}

void ThreadPool::resize(int threads) {
  RP_ASSERT(!t_in_region, "ThreadPool::resize from inside a parallel region");
  if (threads < 1) threads = 1;
  if (threads == threads_) return;
  stop_workers();
  threads_ = threads;
  // Worker-count-dependent slots are rebuilt, so the cumulative profile
  // restarts from zero (a flow run resets it anyway via reset_pool_profile).
  impl_->slots.assign(static_cast<std::size_t>(threads), Impl::WorkerSlot{});
  impl_->totals.assign(static_cast<std::size_t>(threads), WorkerProfile{});
  start_workers(threads - 1);
}

void ThreadPool::start_workers(int n) {
  impl_->shutdown = false;
  for (int i = 0; i < n; ++i)
    impl_->workers.emplace_back([this, i] { worker_loop(i + 1); });
}

void ThreadPool::stop_workers() {
  {
    std::unique_lock<std::mutex> lk(impl_->m);
    impl_->shutdown = true;
  }
  impl_->cv_work.notify_all();
  for (std::thread& t : impl_->workers) t.join();
  impl_->workers.clear();
  impl_->shutdown = false;
}

void ThreadPool::worker_loop(int worker_id) {
  Impl& s = *impl_;
  std::uint64_t seen_seq = 0;
  for (;;) {
    const ChunkPlan* plan = nullptr;
    const std::function<void(int, int)>* fn = nullptr;
    bool instrument = false;
    bool trace = false;
    {
      std::unique_lock<std::mutex> lk(s.m);
      s.cv_work.wait(lk, [&] { return s.shutdown || (s.job_active && s.job_seq != seen_seq); });
      if (s.shutdown) return;
      seen_seq = s.job_seq;
      plan = s.plan;
      fn = s.fn;
      instrument = s.job_instrument;
      trace = s.job_trace;
      ++s.workers_in_job;
    }
    Impl::WorkerSlot& slot = s.slots[static_cast<std::size_t>(worker_id)];
    t_in_region = true;
    busy_workers_.fetch_add(1, std::memory_order_relaxed);
    int done = 0;
    for (;;) {
      const int c = s.next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (c >= plan->count) break;
      if (instrument) {
        const std::uint64_t t0 = profiler::now_ns();
        (*fn)(c, worker_id);
        slot.time_chunk(t0, profiler::now_ns() - t0, trace);
      } else {
        (*fn)(c, worker_id);
      }
      ++done;
    }
    busy_workers_.fetch_sub(1, std::memory_order_relaxed);
    t_in_region = false;
    {
      std::unique_lock<std::mutex> lk(s.m);
      s.chunks_done += done;
      --s.workers_in_job;
      if (s.chunks_done == plan->count && s.workers_in_job == 0) s.cv_done.notify_all();
    }
  }
}

void ThreadPool::run(const ChunkPlan& plan, const std::function<void(int, int)>& fn) {
  if (plan.count <= 0) return;
  regions_.fetch_add(1, std::memory_order_relaxed);
  chunks_.fetch_add(plan.count, std::memory_order_relaxed);
  // Inline paths: single chunk, single-threaded pool, or nested region.
  // Ascending chunk order keeps results identical to the pooled path.
  if (plan.count == 1 || threads_ == 1 || t_in_region) {
    const bool was_in_region = t_in_region;  // nested: stay flagged on exit
    // Nested regions are already inside a timed chunk — instrumenting them
    // would double-count busy time, so only top-level regions are profiled.
    const bool profile = !was_in_region && g_pool_profiling;
    t_in_region = true;
    // Nested regions are already counted by their enclosing top-level region.
    if (!was_in_region) busy_workers_.fetch_add(1, std::memory_order_relaxed);
    if (profile) {
      std::unique_lock<std::mutex> submit_lk(impl_->submit_m);
      Impl::WorkerSlot& slot = impl_->slots[0];
      const std::uint64_t r0 = profiler::now_ns();
      for (int c = 0; c < plan.count; ++c) {
        const std::uint64_t t0 = profiler::now_ns();
        fn(c, 0);
        slot.time_chunk(t0, profiler::now_ns() - t0, /*keep_event=*/false);
      }
      const std::uint64_t wall = profiler::now_ns() - r0;
      t_in_region = was_in_region;
      impl_->fold_region(wall, /*nworkers=*/1, /*profile=*/true, /*trace=*/false);
    } else {
      for (int c = 0; c < plan.count; ++c) fn(c, 0);
      t_in_region = was_in_region;
    }
    if (!was_in_region) busy_workers_.fetch_sub(1, std::memory_order_relaxed);
    return;
  }
  Impl& s = *impl_;
  // One job at a time: a second submitter blocks here until the first job
  // fully completes (including its profile fold).
  std::unique_lock<std::mutex> submit_lk(s.submit_m);
  const bool trace = telemetry::trace_enabled();
  const bool instrument = g_pool_profiling || trace;
  const std::uint64_t r0 = instrument ? profiler::now_ns() : 0;
  {
    std::unique_lock<std::mutex> lk(s.m);
    s.plan = &plan;
    s.fn = &fn;
    s.next_chunk.store(0, std::memory_order_relaxed);
    s.chunks_done = 0;
    s.job_active = true;
    s.job_instrument = instrument;
    s.job_trace = trace;
    ++s.job_seq;
  }
  s.cv_work.notify_all();
  // The caller is worker 0.
  Impl::WorkerSlot& slot = s.slots[0];
  t_in_region = true;
  busy_workers_.fetch_add(1, std::memory_order_relaxed);
  int done = 0;
  for (;;) {
    const int c = s.next_chunk.fetch_add(1, std::memory_order_relaxed);
    if (c >= plan.count) break;
    if (instrument) {
      const std::uint64_t t0 = profiler::now_ns();
      fn(c, 0);
      slot.time_chunk(t0, profiler::now_ns() - t0, trace);
    } else {
      fn(c, 0);
    }
    ++done;
  }
  busy_workers_.fetch_sub(1, std::memory_order_relaxed);
  t_in_region = false;
  {
    std::unique_lock<std::mutex> lk(s.m);
    s.chunks_done += done;
    s.cv_done.wait(lk, [&] { return s.chunks_done == plan.count && s.workers_in_job == 0; });
    s.job_active = false;
  }
  if (instrument)
    s.fold_region(profiler::now_ns() - r0, threads_, g_pool_profiling, trace);
}

PoolProfile pool_profile() {
  ThreadPool& pool = ThreadPool::instance();
  const ThreadPool::Impl& s = *pool.impl_;
  PoolProfile p;
  p.threads = pool.threads();
  p.regions = s.prof_regions;
  p.wall_ns = s.wall_sum_ns;
  p.busy_ns = s.busy_sum_ns;
  p.efficiency_mean = s.prof_regions > 0 ? s.eff_sum / static_cast<double>(s.prof_regions) : 0.0;
  p.efficiency_min = s.eff_min;
  p.imbalance_max = s.imb_max;
  p.workers = s.totals;
  p.chunk_hist = s.chunk_hist;
  return p;
}

void reset_pool_profile() {
  RP_ASSERT(!t_in_region, "reset_pool_profile from inside a parallel region");
  ThreadPool::Impl& s = *ThreadPool::instance().impl_;
  // Every flow run resets at entry; a concurrent submitter's job (and its
  // profile fold) must not be mid-flight while the slots are cleared.
  std::lock_guard<std::mutex> submit_lk(s.submit_m);
  s.reset_profile();
}

}  // namespace rp::parallel
