#pragma once
// rp_serve — resident placement-as-a-service daemon.
//
// A PlacementServer listens on a unix-domain socket and runs placement jobs
// in-process: one newline-delimited JSON request per line, one (or more, for
// streaming ops) newline-delimited JSON response lines back. Keeping the
// placer resident buys two things a one-shot `routplace` cannot offer:
//
//  * a DESIGN CACHE — parsed Bookshelf and generated designs are kept
//    keyed by input content hash, so a repeat job skips parsing or
//    generation entirely (job status reports `cache_hit`);
//  * CONCURRENT JOBS on the per-run observability contexts introduced with
//    the re-entrancy work: every job binds its own ObsContext, so counters,
//    events, reports and progress streams never bleed between jobs, and the
//    deterministic thread pool guarantees each job's results are
//    BYTE-IDENTICAL to a standalone `routplace` run with the same flags
//    (serve_smoke.py asserts exactly that).
//
// Wire protocol (schema "rp_serve", v1). Requests are single-line JSON
// objects with an "op":
//
//   {"op":"ping"}                        -> {"type":"pong"}
//   {"op":"stats"}                       -> {"type":"stats", ...}
//   {"op":"submit","job":{...}}          -> {"type":"accepted","job":"j0001"}
//                                           | {"type":"reject","reason":...}
//   {"op":"status","job":"j0001"}        -> {"type":"status", ...}
//   {"op":"wait","job":"j0001"}          -> blocks; {"type":"status", ...}
//   {"op":"run","job":{...}}             -> {"type":"accepted",...}, then —
//                                           when the job asked for
//                                           "progress":true — the job's live
//                                           NDJSON event stream forwarded
//                                           line by line, then a final
//                                           {"type":"result", ...}
//   {"op":"shutdown"}                    -> {"type":"ok"}; stop accepting,
//                                           drain running+queued jobs, exit
//
// A job object carries the same knobs as the routplace command line (keys
// "aux", "gen", "seed", "mode", "rounds", ...; see parse_job_request), and
// is validated THROUGH parse_cli_args, so a job request and a CLI invocation
// can never drift apart. Orchestrator-owned outputs (--out, --report-json,
// --progress-ndjson, ...) are not accepted: every job writes a fixed
// artifact set into its own directory under <work_dir>/jobs/<id>/
// (report.json, out.pl, progress.ndjson, flight.json on error).
//
// Job failures are RESULTS, not connection errors: a finished job's status
// carries the documented exit-code contract lifted to structured form
// (exit_code + sweep_status_name(exit_code) + the report's "error" block),
// exactly like a campaign manifest entry. Admission control is structured
// too: a full queue or a draining server answers {"type":"reject"} with a
// machine-readable reason instead of accepting work it cannot schedule.
//
// Scheduling: `max_jobs` worker threads pull from a FIFO queue, gated by a
// WEIGHTED BUDGET — each job declares "threads" (clamped to the server's
// total), and a job starts only while the sum of running budgets fits the
// total. Results never depend on the budget (the kernels' thread-count
// invariance), so the budget is purely a co-scheduling knob: a heavy job can
// reserve the machine, light jobs can share it.

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/cli.hpp"
#include "db/design.hpp"
#include "util/json.hpp"

namespace rp {

// ----------------------------------------------------------------- requests

/// One placement job, as submitted over the wire (or built directly by
/// tests). `cfg` is produced by parse_cli_args from the request's fields, so
/// job semantics are exactly CLI semantics; orchestration outputs stay empty.
struct JobRequest {
  std::string label;   ///< Free-form client tag, echoed in status lines.
  bool progress = false;  ///< Stream the live NDJSON events over the socket.
  int threads = 1;     ///< Scheduling budget (weight), NOT kernel width;
                       ///< clamped to [1, ServeOptions::thread_budget].
  CliConfig cfg;       ///< Validated flow configuration.
};

/// Parse + validate a wire job object. Unknown keys, wrong value types and
/// anything parse_cli_args would reject all throw Error(ValidationError) —
/// a malformed job is a structured reject, never a crash (the protocol
/// parser runs under ASan/UBSan in CI against hostile inputs).
JobRequest parse_job_request(const JsonValue& job);

// ------------------------------------------------------------- design cache

/// What the cache keeps per distinct input: the parsed design and the
/// ACQUISITION-TIME observability to REPLAY on a hit — a cache hit must
/// leave the job's report and event stream byte-identical to a cold run, so
/// everything the skipped phase would have recorded (parse-repair counters,
/// the generator's probe-estimate counters, the ParseRepair event) is
/// re-applied to the hitting job's context instead of being silently lost.
struct DesignCacheEntry {
  Design design;
  bool bookshelf = false;       ///< Generated inputs replay no parse event.
  std::string parse_label;      ///< "strict" | "lenient".
  std::int64_t repair_total = 0;
  /// Full counter/gauge state of the acquiring job's context, snapshotted
  /// between design acquisition and flow start.
  std::vector<std::pair<std::string, std::int64_t>> pre_counters;
  std::vector<std::pair<std::string, double>> pre_gauges;
};

/// Content-addressed key for a job's input: for Bookshelf, an FNV-1a hash
/// over the .aux file and every file it references (so editing any input
/// file in place misses cleanly) plus the parse mode; for generated input,
/// the generator parameters verbatim. Throws Error(ResourceError) when the
/// .aux file cannot be read — the same failure the parse would report.
std::string design_cache_key(const CliConfig& cfg);

/// Thread-safe LRU cache over DesignCacheEntry, capacity-bounded by entry
/// count (designs dominate the footprint; the operator sizes it via
/// --cache). Entries are shared_ptr-held: eviction never invalidates a
/// running job's copy.
class DesignCache {
 public:
  explicit DesignCache(int capacity) : capacity_(capacity < 0 ? 0 : capacity) {}

  /// nullptr on miss (counts it); moves a hit to the LRU front (counts it).
  std::shared_ptr<const DesignCacheEntry> lookup(const std::string& key);
  /// Insert (or refresh) and evict past capacity. No-op at capacity 0.
  void insert(const std::string& key, std::shared_ptr<const DesignCacheEntry> e);

  struct Stats {
    std::int64_t hits = 0, misses = 0;
    int entries = 0, capacity = 0;
  };
  Stats stats() const;

 private:
  const int capacity_;
  mutable std::mutex mu_;
  std::int64_t hits_ = 0, misses_ = 0;
  std::list<std::string> lru_;  ///< Front = most recent.
  std::map<std::string, std::pair<std::shared_ptr<const DesignCacheEntry>,
                                  std::list<std::string>::iterator>>
      map_;
};

// ----------------------------------------------------------------- statuses

/// A finished (or in-flight) job's structured status: the exit-code contract
/// lifted off the process boundary, mirroring a sweep manifest entry, plus
/// the serve-only `cache_hit` flag (deliberately NOT in the run report — the
/// report stays byte-identical to a one-shot run; whether the parse was
/// cached is service state, not placement state).
struct JobStatusInfo {
  std::string id;
  std::string label;
  std::string state = "done";  ///< "queued" | "running" | "done".
  int exit_code = 0;
  std::string status;          ///< sweep_status_name(exit_code).
  bool cache_hit = false;
  bool legal = false;
  double hpwl = 0.0;
  double scaled_hpwl = 0.0;
  double overflow = 0.0;
  std::string dir;             ///< Artifact directory.
  bool has_error = false;      ///< Report carried an "error" block:
  std::string error_code, error_message, error_where, error_stage;
};

/// One status line (schema "rp_serve" v1); `type` is "status" or "result".
std::string job_status_json(const JobStatusInfo& st, const std::string& type);

/// Execute one job in the CALLING thread on a fresh ObsContext: resolve the
/// design (cache or parse/generate — `cache` may be null), run the flow,
/// write report.json + out.pl (+ flight.json on error) into `job_dir`, and
/// return the structured status (id/label/state left for the caller).
///
/// `progress_fd` >= 0 streams the job's NDJSON events there and CLOSES it on
/// every exit path (the reader relies on EOF); < 0 writes
/// `job_dir`/progress.ndjson instead. Does NOT touch the process-global
/// interrupt flag: a server-wide SIGINT makes every in-flight job unwind
/// with the documented Interrupted contract (exit 7, partial report).
JobStatusInfo execute_serve_job(const JobRequest& req, const std::string& job_dir,
                                DesignCache* cache, int progress_fd = -1);

// ------------------------------------------------------------------- server

struct ServeOptions {
  std::string socket_path;   ///< Unix-domain socket to bind (required).
  std::string work_dir = "rp_serve_work";  ///< Artifacts: <dir>/jobs/<id>/.
  int max_jobs = 2;          ///< Worker threads = max concurrently RUNNING jobs.
  int queue_cap = 8;         ///< Max WAITING jobs; beyond -> structured reject.
  int thread_budget = 0;     ///< Total job-budget pool; 0 = the thread pool's
                             ///< resolved size (jobs co-schedule inside it).
  int cache_capacity = 8;    ///< Design-cache entries; 0 disables caching.
};

class PlacementServer {
 public:
  explicit PlacementServer(const ServeOptions& opt);
  ~PlacementServer();
  PlacementServer(const PlacementServer&) = delete;
  PlacementServer& operator=(const PlacementServer&) = delete;

  /// Create the work directory, bind + listen on the socket, start the
  /// worker threads. Throws Error(ResourceError/ValidationError) on setup
  /// failure. Must be called exactly once, before serve()/submit().
  void start();

  /// Accept loop: runs until shutdown (op or request_stop()) or a process
  /// interrupt (SIGINT/SIGTERM via obs::request_interrupt), then drains all
  /// accepted jobs and joins every thread before returning.
  void serve();

  /// Ask the accept loop to wind down (safe from any thread).
  void request_stop();

  // Direct (socket-less) API: what the connection handlers call, exposed so
  // tests can drive scheduling, admission and caching in-process.
  struct Admission {
    bool accepted = false;
    std::string job_id;   ///< Accepted only.
    std::string reason;   ///< "queue_full" | "shutting_down" (reject only).
    int queued = 0;       ///< Queue depth after the decision.
    int running = 0;
  };
  /// Enqueue a job (takes ownership of `progress_fd` — the job closes it).
  Admission submit(const JobRequest& req, int progress_fd = -1);
  /// Block until `job_id` finishes; false = unknown id.
  bool wait(const std::string& job_id, JobStatusInfo* out);
  /// Snapshot a job's current status; false = unknown id.
  bool status(const std::string& job_id, JobStatusInfo* out) const;
  /// One {"type":"stats"} line: scheduling + cache counters.
  std::string stats_json() const;

  DesignCache& cache() { return cache_; }
  const ServeOptions& options() const { return opt_; }

 private:
  struct Job {
    std::string id;
    JobRequest req;
    int budget = 1;
    int progress_fd = -1;
    std::string dir;
    enum class State { Queued, Running, Done } state = State::Queued;
    JobStatusInfo result;
  };

  void worker_main();
  void handle_connection(int fd);
  int budget_left_locked() const;
  JobStatusInfo snapshot_locked(const Job& j) const;

  ServeOptions opt_;
  DesignCache cache_;
  mutable std::mutex mu_;
  std::condition_variable queue_cv_;  ///< Queue/budget changes -> workers.
  std::condition_variable done_cv_;   ///< Job completion -> wait().
  std::deque<std::shared_ptr<Job>> queue_;
  std::map<std::string, std::shared_ptr<Job>> jobs_;
  int budget_in_use_ = 0;
  int running_ = 0;
  std::uint64_t next_id_ = 1;
  std::int64_t done_count_ = 0;
  bool stop_ = false;
  bool started_ = false;
  int listen_fd_ = -1;
  std::vector<std::thread> workers_;
  std::vector<std::thread> conns_;
  std::set<int> conn_fds_;
};

}  // namespace rp
