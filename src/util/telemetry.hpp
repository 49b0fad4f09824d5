#pragma once
// Telemetry: named counters/gauges and the Chrome trace buffer.
//
// This state is PER-RUN: a Registry and a TraceBuffer are owned by an
// obs::ObsContext (util/obs_context.hpp), and `Registry::instance()`
// resolves to the context bound to the current thread (falling back to a
// process-wide default for code that never binds one).
//
// Two rules keep this layer cheap enough to leave compiled in:
//  * RP_COUNT / RP_GAUGE cache their registry slot per call site in a
//    thread_local stamped with the owning registry's EPOCH (process-unique,
//    minted at registry construction). A cache hit is one compare + one
//    add/store; a context switch changes the epoch and forces re-resolution,
//    so a stale pointer is never dereferenced.
//  * A registry never deallocates slots — reset() zeroes values in place,
//    so cached slot pointers stay valid.
//
// The trace buffer is filled by RP_SPAN (util/obs_context.hpp: one event per
// span, named by its stage path, when tracing is on) and by the thread pool
// (one "pool/chunk" event per chunk, on the worker's lane). It serializes to
// the Chrome trace-event format
// (https://chromium.googlesource.com/catapult → trace_event format), loadable
// in chrome://tracing or https://ui.perfetto.dev.
//
// Like the logger, main-thread-only by contract: pool workers never touch
// the registry; parallel kernels bump counters from the calling thread.
// (Distinct threads bound to DISTINCT contexts may use their own registries
// concurrently — that is the whole point of the per-run design.)

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace rp::telemetry {

struct Counter {
  std::int64_t value = 0;
};
struct Gauge {
  double value = 0.0;
};

/// Registry of named counters and gauges. One per ObsContext.
class Registry {
 public:
  Registry();

  /// The current thread's registry: the bound ObsContext's, else the
  /// process default's. (Kept as `instance()` so call sites read unchanged.)
  static Registry& instance();

  /// Find-or-create. The returned reference stays valid for the registry's
  /// lifetime (reset() zeroes values but never moves slots).
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);

  /// Zero every counter and gauge (slot addresses and epoch preserved).
  void reset();

  /// Process-unique id minted at construction; RP_COUNT/RP_GAUGE compare it
  /// to decide whether their cached slot pointer belongs to this registry.
  std::uint64_t epoch() const { return epoch_; }

  /// Current value, 0 for names never touched.
  std::int64_t counter_value(const std::string& name) const;
  double gauge_value(const std::string& name) const;

  /// Name-sorted snapshots for the run report.
  std::vector<std::pair<std::string, std::int64_t>> counters() const;
  std::vector<std::pair<std::string, double>> gauges() const;

  /// Allocation-free read-only views (the flight recorder walks these from
  /// contexts where allocating is forbidden).
  const std::map<std::string, Counter>& counters_map() const { return counters_; }
  const std::map<std::string, Gauge>& gauges_map() const { return gauges_; }

 private:
  std::map<std::string, Counter> counters_;  ///< Node-based: stable addresses.
  std::map<std::string, Gauge> gauges_;
  std::uint64_t epoch_ = 0;
};

// ------------------------------------------------------------------ trace

/// One complete ("ph":"X") trace event; timestamps in µs since start().
struct TraceEvent {
  std::string name;
  double ts_us = 0.0;
  double dur_us = 0.0;
  int depth = 0;  ///< Span nesting depth at emission (0 = top level).
  int tid = 0;    ///< Trace lane: 0 = main thread, w >= 1 = pool worker w.
};

/// The trace event buffer. One per ObsContext; the free functions below
/// operate on the current context's buffer.
class TraceBuffer {
 public:
  /// Begin collecting (clears any previous buffer, restarts the epoch).
  void start();
  /// Stop collecting (the buffer is kept until the next start()).
  void stop() { on_ = false; }
  bool enabled() const { return on_; }

  const std::vector<TraceEvent>& events() const { return events_; }

  /// Append a complete event on an explicit thread lane. `start_ns` is a
  /// profiler::now_ns() stamp taken on any thread; the CALL must come from
  /// the owning thread (the pool flushes per-worker chunk spans after a
  /// region completes). No-op when off.
  void emit_span(std::string name, std::uint64_t start_ns, std::uint64_t dur_ns,
                 int tid, int depth = 0);

 private:
  bool on_ = false;
  std::uint64_t epoch_ns_ = 0;  ///< profiler::now_ns() at start().
  std::vector<TraceEvent> events_;
};

// Current-context conveniences (historical free-function API; every one
// resolves the bound ObsContext's TraceBuffer).
void start_trace();
void stop_trace();
bool trace_enabled();
const std::vector<TraceEvent>& trace_events();
void emit_span(const char* name, std::uint64_t start_ns, std::uint64_t dur_ns, int tid);

/// Serialize the current context's buffer as Chrome trace-event JSON.
std::string trace_json();
/// Write trace_json() to a file; returns false (and logs) on I/O failure.
bool write_trace_json(const std::string& path);

/// Peak resident-set size of this process in KiB (0 where unsupported).
long peak_rss_kb();

}  // namespace rp::telemetry

// Call-site macros. The thread_local slot cache + epoch stamp make the
// steady-state cost of a counter bump one compare and one pointer-indirect
// add, while remaining correct across ObsContext switches (see Registry::
// epoch). thread_local, not static: two threads on different contexts must
// not share a cache entry.
#define RP_TELEMETRY_CONCAT2(a, b) a##b
#define RP_TELEMETRY_CONCAT(a, b) RP_TELEMETRY_CONCAT2(a, b)

#define RP_COUNT(name, delta)                                                       \
  do {                                                                              \
    static thread_local ::rp::telemetry::Counter* rp_tm_slot_ = nullptr;            \
    static thread_local std::uint64_t rp_tm_epoch_ = 0;                             \
    ::rp::telemetry::Registry& rp_tm_reg_ = ::rp::telemetry::Registry::instance();  \
    if (rp_tm_epoch_ != rp_tm_reg_.epoch()) {                                       \
      rp_tm_slot_ = &rp_tm_reg_.counter(name);                                      \
      rp_tm_epoch_ = rp_tm_reg_.epoch();                                            \
    }                                                                               \
    rp_tm_slot_->value += static_cast<std::int64_t>(delta);                         \
  } while (0)

#define RP_GAUGE(name, v)                                                           \
  do {                                                                              \
    static thread_local ::rp::telemetry::Gauge* rp_tm_slot_ = nullptr;              \
    static thread_local std::uint64_t rp_tm_epoch_ = 0;                             \
    ::rp::telemetry::Registry& rp_tm_reg_ = ::rp::telemetry::Registry::instance();  \
    if (rp_tm_epoch_ != rp_tm_reg_.epoch()) {                                       \
      rp_tm_slot_ = &rp_tm_reg_.gauge(name);                                        \
      rp_tm_epoch_ = rp_tm_reg_.epoch();                                            \
    }                                                                               \
    rp_tm_slot_->value = static_cast<double>(v);                                    \
  } while (0)

