#include "core/serve.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/run_report.hpp"
#include "core/sweep.hpp"
#include "db/bookshelf.hpp"
#include "gen/generator.hpp"
#include "util/error.hpp"
#include "util/event_bus.hpp"
#include "util/logger.hpp"
#include "util/obs_context.hpp"
#include "util/parallel.hpp"
#include "util/str.hpp"
#include "util/telemetry.hpp"

namespace fs = std::filesystem;

namespace rp {

namespace {

// ------------------------------------------------------------- cache keying

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t fnv1a(std::uint64_t h, const char* data, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t fnv1a(std::uint64_t h, const std::string& s) {
  return fnv1a(h, s.data(), s.size());
}

/// Whole-file read for hashing. False when the file cannot be opened — the
/// key hashes the absence marker instead and lets the parse report the
/// real error with its file:line context.
bool read_file_bytes(const fs::path& p, std::string* out) {
  std::ifstream in(p, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// --------------------------------------------------- wire-number formatting

/// JSON numbers arrive as doubles; turn one back into the CLI token the user
/// would have typed (integral values lose the ".0" so "--gen 2000" and
/// {"gen":2000} are the same request).
std::string number_token(double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 9.0e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    return buf;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

// ----------------------------------------------------------------- requests

JobRequest parse_job_request(const JsonValue& job) {
  if (!job.is_object())
    throw Error(ErrorCode::ValidationError, "job must be a JSON object", "job");
  JobRequest req;
  std::vector<std::string> args;
  const auto type_error = [](const std::string& key, const char* want) {
    throw Error(ErrorCode::ValidationError,
                "job field '" + key + "' must be " + want, "job");
  };
  for (const auto& [key, v] : job.obj) {
    // Serve-level fields first, then the CLI passthroughs. The flag names
    // match routplace exactly (underscores for dashes) so a job object and
    // a command line can be read side by side.
    if (key == "label") {
      if (!v.is_string()) type_error(key, "a string");
      req.label = v.str;
    } else if (key == "progress") {
      if (v.kind != JsonValue::Kind::Bool) type_error(key, "a bool");
      req.progress = v.b;
    } else if (key == "threads") {
      if (!v.is_number()) type_error(key, "a number");
      if (v.num < 1 || v.num != std::floor(v.num))
        throw Error(ErrorCode::ValidationError,
                    "job field 'threads' must be a positive integer", "job");
      req.threads = static_cast<int>(v.num);
    } else if (key == "aux" || key == "mode" || key == "legalizer" ||
               key == "wl_model") {
      if (!v.is_string()) type_error(key, "a string");
      std::string flag = key;
      for (char& c : flag)
        if (c == '_') c = '-';
      args.push_back("--" + flag);
      args.push_back(v.str);
    } else if (key == "gen" || key == "seed" || key == "supply" ||
               key == "density" || key == "rounds" || key == "inflate_rate" ||
               key == "max_gp_iters" || key == "max_seconds") {
      if (!v.is_number()) type_error(key, "a number");
      std::string flag = key;
      for (char& c : flag)
        if (c == '_') c = '-';
      args.push_back("--" + flag);
      args.push_back(number_token(v.num));
    } else if (key == "lenient" || key == "skip_dp") {
      if (v.kind != JsonValue::Kind::Bool) type_error(key, "a bool");
      if (v.b) args.push_back(key == "lenient" ? "--lenient" : "--skip-dp");
    } else {
      // Everything else is either orchestrator-owned (out, report_json,
      // progress_ndjson, snapshots, simd, sample_resources, ...) or unknown;
      // both are rejected the way rp_sweep rejects reserved spec flags.
      throw Error(ErrorCode::ValidationError,
                  "unknown job field '" + key + "' (outputs and process-wide "
                  "knobs are server-owned)", "job");
    }
  }
  try {
    req.cfg = parse_cli_args(args);
  } catch (const std::exception& e) {
    throw Error(ErrorCode::ValidationError, e.what(), "job");
  }
  return req;
}

// ------------------------------------------------------------- design cache

std::string design_cache_key(const CliConfig& cfg) {
  if (cfg.aux.empty()) {
    char supply[40];
    std::snprintf(supply, sizeof(supply), "%.17g", cfg.track_supply);
    return "gen:" + std::to_string(cfg.gen_cells) + ":s" +
           std::to_string(cfg.seed) + ":su" + supply;
  }
  std::string aux_text;
  if (!read_file_bytes(cfg.aux, &aux_text))
    throw Error(ErrorCode::ResourceError, "cannot open '" + cfg.aux + "'");
  std::uint64_t h = fnv1a(kFnvOffset, aux_text);
  // Hash every file the .aux references, in the same fixed extension order
  // read_bookshelf resolves them (first non-comment line; tokens classified
  // by suffix). An unreadable referenced file hashes a marker: the key still
  // forms, the parse reports the real error.
  std::string nodes, nets, wts, pl, scl, route;
  std::istringstream lines(aux_text);
  std::string line;
  while (std::getline(lines, line)) {
    const std::size_t ns = line.find_first_not_of(" \t\r");
    if (ns == std::string::npos || line[ns] == '#') continue;
    std::istringstream toks(line);
    std::string tok;
    while (toks >> tok) {
      if (ends_with(tok, ".nodes")) nodes = tok;
      else if (ends_with(tok, ".nets")) nets = tok;
      else if (ends_with(tok, ".wts")) wts = tok;
      else if (ends_with(tok, ".pl")) pl = tok;
      else if (ends_with(tok, ".scl")) scl = tok;
      else if (ends_with(tok, ".route")) route = tok;
    }
    break;
  }
  const fs::path dir = fs::path(cfg.aux).parent_path();
  for (const std::string* name : {&nodes, &nets, &wts, &pl, &scl, &route}) {
    h = fnv1a(h, "|");
    if (name->empty()) continue;
    std::string bytes;
    if (read_file_bytes(dir / *name, &bytes))
      h = fnv1a(h, bytes);
    else
      h = fnv1a(h, "<missing>");
  }
  return "aux:" + hex64(h) + (cfg.lenient ? ":lenient" : ":strict");
}

std::shared_ptr<const DesignCacheEntry> DesignCache::lookup(const std::string& key) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = map_.find(key);
  if (it == map_.end()) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  lru_.splice(lru_.begin(), lru_, it->second.second);
  return it->second.first;
}

void DesignCache::insert(const std::string& key,
                         std::shared_ptr<const DesignCacheEntry> e) {
  if (capacity_ == 0) return;
  std::lock_guard<std::mutex> lk(mu_);
  auto it = map_.find(key);
  if (it != map_.end()) {
    it->second.first = std::move(e);
    lru_.splice(lru_.begin(), lru_, it->second.second);
    return;
  }
  lru_.push_front(key);
  map_.emplace(key, std::make_pair(std::move(e), lru_.begin()));
  while (static_cast<int>(map_.size()) > capacity_) {
    map_.erase(lru_.back());
    lru_.pop_back();
  }
}

DesignCache::Stats DesignCache::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return {hits_, misses_, static_cast<int>(map_.size()), capacity_};
}

// ----------------------------------------------------------------- statuses

std::string job_status_json(const JobStatusInfo& st, const std::string& type) {
  JsonWriter w;
  w.begin_object();
  w.kv("schema", "rp_serve");
  w.kv("v", 1);
  w.kv("type", type);
  w.kv("job", st.id);
  if (!st.label.empty()) w.kv("label", st.label);
  w.kv("state", st.state);
  if (st.state == "done") {
    w.kv("exit_code", st.exit_code);
    w.kv("status", st.status);
    w.kv("cache_hit", st.cache_hit);
    w.kv("legal", st.legal);
    w.kv("hpwl", st.hpwl);
    w.kv("scaled_hpwl", st.scaled_hpwl);
    w.kv("overflow", st.overflow);
    w.kv("dir", st.dir);
    if (st.has_error) {
      w.key("error").begin_object();
      w.kv("code", st.error_code);
      w.kv("message", st.error_message);
      if (!st.error_where.empty()) w.kv("where", st.error_where);
      if (!st.error_stage.empty()) w.kv("stage", st.error_stage);
      w.end_object();
    }
  }
  w.end_object();
  return w.str();
}

JobStatusInfo execute_serve_job(const JobRequest& req, const std::string& job_dir,
                                DesignCache* cache, int progress_fd) {
  JobStatusInfo st;
  st.dir = job_dir;
  const CliConfig& cfg = req.cfg;

  std::error_code ec;
  fs::create_directories(job_dir, ec);

  // Fresh per-job observability context, bound for the whole parse → flow →
  // report span — the exact run_cli recipe, minus anything process-global:
  // no clear_interrupt (a daemon-wide SIGINT must drain EVERY job through
  // the Interrupted contract), no crash-context handoff (one global slot
  // cannot name many concurrent jobs), no resource sampler (wall-clock
  // observations are scrubbed from every comparison anyway).
  auto obs_ctx = std::make_shared<obs::ObsContext>();
  obs::ScopedBind obs_bind(obs_ctx.get());
  FlowOptions fopt = cli_flow_options(cfg);
  fopt.obs = obs_ctx;

  const std::string source = cfg.aux.empty() ? "generated" : "bookshelf";
  const std::string parse_mode = cfg.lenient ? "lenient" : "strict";
  const std::string report_path = job_dir + "/report.json";

  if (progress_fd >= 0)
    obs_ctx->events().open_stream("fd:" + std::to_string(progress_fd));
  else
    obs_ctx->events().open_stream(job_dir + "/progress.ndjson");

  const auto finish_stream = [&] {
    obs_ctx->events().close_stream();
    // "fd:N" sinks are inherited, not owned, by the bus; the forwarder on
    // the other end of the pipe relies on EOF, so close our end here.
    if (progress_fd >= 0) ::close(progress_fd);
  };

  const auto fail = [&](const Error& e, const RunReportMeta& meta) {
    obs::Event ev = obs_ctx->events().make(obs::EventKind::RunError, e.code_name());
    ev.i0 = e.exit_code();
    obs_ctx->events().emit(ev);
    finish_stream();
    obs_ctx->events().dump_flight(job_dir + "/flight.json", e.code_name(),
                                  &obs_ctx->registry());
    write_run_report(report_path, meta, fopt, FlowResult{}, RunErrorInfo::from(e));
    st.exit_code = e.exit_code();
    st.status = sweep_status_name(st.exit_code);
    st.has_error = true;
    st.error_code = e.code_name();
    st.error_message = e.message();
    st.error_where = e.where();
    st.error_stage = e.stage();
    return st;
  };

  // Resolve the design: cache, else parse/generate (and populate the cache).
  Design d;
  try {
    const std::string key = design_cache_key(cfg);
    std::shared_ptr<const DesignCacheEntry> entry =
        cache != nullptr ? cache->lookup(key) : nullptr;
    if (entry != nullptr) {
      st.cache_hit = true;
      d = entry->design;
      // Replay the acquisition-time observability a cold run would have
      // produced — parse-repair counters for Bookshelf, the generator's
      // internal probe-estimate counters for --gen — so the report and the
      // event stream are byte-for-byte the same whether or not the cache
      // served the design.
      for (const auto& [name, n] : entry->pre_counters)
        obs_ctx->registry().counter(name).value += n;
      for (const auto& [name, v] : entry->pre_gauges)
        obs_ctx->registry().gauge(name).value = v;
      if (entry->bookshelf) {
        obs::Event ev = obs_ctx->events().make(obs::EventKind::ParseRepair,
                                               entry->parse_label.c_str());
        ev.i0 = entry->repair_total;
        obs_ctx->events().emit(ev);
      }
    } else {
      if (!cfg.aux.empty()) {
        BookshelfOptions bso;
        bso.mode = cfg.lenient ? ParseMode::Lenient : ParseMode::Strict;
        d = read_bookshelf(cfg.aux, bso);
      } else {
        BenchmarkSpec spec = small_spec(cfg.seed);
        spec.num_std_cells = cfg.gen_cells;
        spec.track_supply = cfg.track_supply;
        spec.name = "gen" + std::to_string(cfg.gen_cells);
        d = generate_benchmark(spec);
      }
      if (cache != nullptr) {
        auto fresh = std::make_shared<DesignCacheEntry>();
        fresh->design = d;
        // Snapshot EVERYTHING acquisition recorded on this fresh context —
        // not just parse.repair.*: generate_benchmark runs an internal
        // routability probe that bumps route.* too, and a hit must replay
        // all of it for report parity.
        fresh->pre_counters = obs_ctx->registry().counters();
        fresh->pre_gauges = obs_ctx->registry().gauges();
        if (!cfg.aux.empty()) {
          fresh->bookshelf = true;
          fresh->parse_label = parse_mode;
          for (const auto& [name, v] : fresh->pre_counters)
            if (name.rfind("parse.repair.", 0) == 0) fresh->repair_total += v;
        }
        cache->insert(key, std::move(fresh));
      }
    }
  } catch (const Error& e) {
    RunReportMeta meta;
    meta.design = cfg.aux.empty() ? "gen" + std::to_string(cfg.gen_cells) : cfg.aux;
    meta.source = source;
    meta.mode = cfg.mode;
    if (!cfg.aux.empty()) meta.parse_mode = parse_mode;
    return fail(e, meta);
  }

  RunReportMeta meta =
      make_report_meta(d, source, cfg.mode, cfg.aux.empty() ? cfg.seed : 0);
  if (!cfg.aux.empty()) meta.parse_mode = parse_mode;

  PlacementFlow flow(fopt);
  FlowResult r;
  try {
    r = flow.run(d);
  } catch (const Error& e) {
    return fail(e, meta);
  }

  finish_stream();
  write_run_report(report_path, meta, flow.options(), r);
  write_pl(d, job_dir + "/out.pl");

  st.legal = r.eval.legality.ok();
  st.exit_code = st.legal ? 0 : 1;
  st.status = sweep_status_name(st.exit_code);
  st.hpwl = r.eval.hpwl;
  st.scaled_hpwl = r.eval.scaled_hpwl;
  st.overflow = r.eval.congestion.total_overflow;
  return st;
}

// ------------------------------------------------------------------- server

PlacementServer::PlacementServer(const ServeOptions& opt)
    : opt_(opt), cache_(opt.cache_capacity) {
  if (opt_.max_jobs < 1) opt_.max_jobs = 1;
  if (opt_.queue_cap < 1) opt_.queue_cap = 1;
  if (opt_.thread_budget <= 0) opt_.thread_budget = parallel::num_threads();
  if (opt_.thread_budget < 1) opt_.thread_budget = 1;
}

PlacementServer::~PlacementServer() {
  request_stop();
  queue_cv_.notify_all();
  for (std::thread& t : workers_)
    if (t.joinable()) t.join();
  for (std::thread& t : conns_)
    if (t.joinable()) t.join();
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

void PlacementServer::start() {
  if (started_)
    throw Error(ErrorCode::ValidationError, "server already started");
  if (opt_.socket_path.empty())
    throw Error(ErrorCode::ValidationError, "serve: socket path is required");
  if (opt_.socket_path.size() >= sizeof(sockaddr_un{}.sun_path))
    throw Error(ErrorCode::ValidationError,
                "serve: socket path too long for AF_UNIX ('" +
                    opt_.socket_path + "')");
  std::error_code ec;
  fs::create_directories(fs::path(opt_.work_dir) / "jobs", ec);
  if (ec)
    throw Error(ErrorCode::ResourceError,
                "serve: cannot create work dir '" + opt_.work_dir + "'");

  ::unlink(opt_.socket_path.c_str());  // stale socket from a previous run
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0)
    throw Error(ErrorCode::ResourceError,
                std::string("serve: socket() failed (") + std::strerror(errno) + ")");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, opt_.socket_path.c_str(), sizeof(addr.sun_path) - 1);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0)
    throw Error(ErrorCode::ResourceError,
                "serve: cannot bind '" + opt_.socket_path + "' (" +
                    std::strerror(errno) + ")");
  if (::listen(listen_fd_, 16) < 0)
    throw Error(ErrorCode::ResourceError,
                std::string("serve: listen() failed (") + std::strerror(errno) + ")");

  started_ = true;
  workers_.reserve(static_cast<std::size_t>(opt_.max_jobs));
  for (int i = 0; i < opt_.max_jobs; ++i)
    workers_.emplace_back([this] { worker_main(); });
  RP_INFO("rp_serve: listening on '%s' (%d worker(s), budget %d, queue %d, "
          "cache %d)",
          opt_.socket_path.c_str(), opt_.max_jobs, opt_.thread_budget,
          opt_.queue_cap, opt_.cache_capacity);
}

void PlacementServer::request_stop() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  queue_cv_.notify_all();
}

int PlacementServer::budget_left_locked() const {
  return opt_.thread_budget - budget_in_use_;
}

JobStatusInfo PlacementServer::snapshot_locked(const Job& j) const {
  if (j.state == Job::State::Done) return j.result;
  JobStatusInfo st;
  st.id = j.id;
  st.label = j.req.label;
  st.state = j.state == Job::State::Queued ? "queued" : "running";
  st.dir = j.dir;
  return st;
}

PlacementServer::Admission PlacementServer::submit(const JobRequest& req,
                                                   int progress_fd) {
  Admission adm;
  std::lock_guard<std::mutex> lk(mu_);
  adm.running = running_;
  adm.queued = static_cast<int>(queue_.size());
  if (stop_) {
    adm.reason = "shutting_down";
    if (progress_fd >= 0) ::close(progress_fd);
    return adm;
  }
  if (static_cast<int>(queue_.size()) >= opt_.queue_cap) {
    adm.reason = "queue_full";
    if (progress_fd >= 0) ::close(progress_fd);
    return adm;
  }
  auto job = std::make_shared<Job>();
  char id[16];
  std::snprintf(id, sizeof(id), "j%04llu",
                static_cast<unsigned long long>(next_id_++));
  job->id = id;
  job->req = req;
  job->budget = req.threads < 1 ? 1
              : req.threads > opt_.thread_budget ? opt_.thread_budget
                                                 : req.threads;
  job->progress_fd = progress_fd;
  job->dir = (fs::path(opt_.work_dir) / "jobs" / job->id).string();
  // Create the artifact directory at ADMISSION, not job start: the accepted
  // line tells the client (and the op-"run" tee) the directory exists, and a
  // streaming connection opens its tee there before a worker picks the job
  // up.
  std::error_code ec;
  fs::create_directories(job->dir, ec);
  jobs_[job->id] = job;
  queue_.push_back(job);
  adm.accepted = true;
  adm.job_id = job->id;
  adm.queued = static_cast<int>(queue_.size());
  queue_cv_.notify_all();
  return adm;
}

void PlacementServer::worker_main() {
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lk(mu_);
      queue_cv_.wait(lk, [&] {
        return (stop_ && queue_.empty()) ||
               (!queue_.empty() && queue_.front()->budget <= budget_left_locked());
      });
      // Drain-then-exit: a stopping server still runs everything it
      // admitted (a process-wide interrupt makes those jobs finish fast
      // through the Interrupted contract).
      if (stop_ && queue_.empty()) return;
      job = queue_.front();
      queue_.pop_front();
      job->state = Job::State::Running;
      budget_in_use_ += job->budget;
      ++running_;
    }
    JobStatusInfo st = execute_serve_job(job->req, job->dir, &cache_,
                                         job->progress_fd);
    st.id = job->id;
    st.label = job->req.label;
    st.state = "done";
    {
      std::lock_guard<std::mutex> lk(mu_);
      job->result = st;
      job->state = Job::State::Done;
      budget_in_use_ -= job->budget;
      --running_;
      ++done_count_;
    }
    done_cv_.notify_all();
    queue_cv_.notify_all();
  }
}

bool PlacementServer::wait(const std::string& job_id, JobStatusInfo* out) {
  std::unique_lock<std::mutex> lk(mu_);
  auto it = jobs_.find(job_id);
  if (it == jobs_.end()) return false;
  std::shared_ptr<Job> job = it->second;
  done_cv_.wait(lk, [&] { return job->state == Job::State::Done; });
  *out = job->result;
  return true;
}

bool PlacementServer::status(const std::string& job_id, JobStatusInfo* out) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = jobs_.find(job_id);
  if (it == jobs_.end()) return false;
  *out = snapshot_locked(*it->second);
  return true;
}

std::string PlacementServer::stats_json() const {
  const DesignCache::Stats cs = cache_.stats();
  std::lock_guard<std::mutex> lk(mu_);
  JsonWriter w;
  w.begin_object();
  w.kv("schema", "rp_serve");
  w.kv("v", 1);
  w.kv("type", "stats");
  w.kv("max_jobs", opt_.max_jobs);
  w.kv("queue_cap", opt_.queue_cap);
  w.kv("thread_budget", opt_.thread_budget);
  w.kv("running", running_);
  w.kv("queued", static_cast<int>(queue_.size()));
  w.kv("budget_in_use", budget_in_use_);
  w.kv("done", done_count_);
  w.key("cache").begin_object();
  w.kv("hits", cs.hits);
  w.kv("misses", cs.misses);
  w.kv("entries", cs.entries);
  w.kv("capacity", cs.capacity);
  w.end_object();
  w.end_object();
  return w.str();
}

namespace {

/// One response line out (newline appended). Socket writes go through the
/// EINTR/short-write-safe helper; a dead peer just ends the connection.
bool send_line(int fd, const std::string& line) {
  std::string out = line;
  out.push_back('\n');
  return obs::write_all_fd(fd, out.data(), out.size());
}

std::string simple_line(const char* type) {
  JsonWriter w;
  w.begin_object();
  w.kv("schema", "rp_serve");
  w.kv("v", 1);
  w.kv("type", type);
  w.end_object();
  return w.str();
}

std::string error_line(const std::string& error, const std::string& message) {
  JsonWriter w;
  w.begin_object();
  w.kv("schema", "rp_serve");
  w.kv("v", 1);
  w.kv("type", "error");
  w.kv("error", error);
  w.kv("message", message);
  w.end_object();
  return w.str();
}

std::string admission_line(const PlacementServer::Admission& adm) {
  JsonWriter w;
  w.begin_object();
  w.kv("schema", "rp_serve");
  w.kv("v", 1);
  w.kv("type", adm.accepted ? "accepted" : "reject");
  if (adm.accepted) w.kv("job", adm.job_id);
  else w.kv("reason", adm.reason);
  w.kv("queued", adm.queued);
  w.kv("running", adm.running);
  w.end_object();
  return w.str();
}

/// Newline-delimited reads with EINTR retry and a line cap (a client cannot
/// buffer-bomb the daemon). Returns false on EOF/error/oversize.
class LineReader {
 public:
  explicit LineReader(int fd) : fd_(fd) {}

  bool next(std::string* line) {
    static constexpr std::size_t kMaxLine = 1 << 20;
    for (;;) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        *line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        if (!line->empty() && line->back() == '\r') line->pop_back();
        return true;
      }
      if (buf_.size() > kMaxLine) return false;
      char chunk[4096];
      ssize_t n;
      while ((n = ::read(fd_, chunk, sizeof(chunk))) < 0 && errno == EINTR) {
      }
      if (n <= 0) return false;
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_;
  std::string buf_;
};

}  // namespace

void PlacementServer::handle_connection(int fd) {
  LineReader reader(fd);
  std::string line;
  while (reader.next(&line)) {
    if (line.find_first_not_of(" \t") == std::string::npos) continue;
    std::string op;
    JsonValue doc;
    try {
      doc = json_parse(line);
      if (!doc.is_object() || !doc.has("op") || !doc.at("op").is_string()) {
        send_line(fd, error_line("bad_request", "expected {\"op\": ...}"));
        continue;
      }
      op = doc.at("op").str;
    } catch (const std::exception& e) {
      send_line(fd, error_line("bad_request", e.what()));
      continue;
    }

    if (op == "ping") {
      if (!send_line(fd, simple_line("pong"))) break;
    } else if (op == "stats") {
      if (!send_line(fd, stats_json())) break;
    } else if (op == "status" || op == "wait") {
      if (!doc.has("job") || !doc.at("job").is_string()) {
        send_line(fd, error_line("bad_request", "'" + op + "' needs a job id"));
        continue;
      }
      JobStatusInfo st;
      const bool known = op == "wait" ? wait(doc.at("job").str, &st)
                                      : status(doc.at("job").str, &st);
      if (!known) {
        send_line(fd, error_line("unknown_job", doc.at("job").str));
        continue;
      }
      if (!send_line(fd, job_status_json(st, "status"))) break;
    } else if (op == "submit" || op == "run") {
      JobRequest req;
      try {
        if (!doc.has("job"))
          throw Error(ErrorCode::ValidationError, "'" + op + "' needs a job object");
        req = parse_job_request(doc.at("job"));
      } catch (const Error& e) {
        send_line(fd, error_line("bad_job", e.message()));
        continue;
      }
      const bool stream = op == "run" && req.progress;
      int pipe_fds[2] = {-1, -1};
      if (stream && ::pipe2(pipe_fds, O_CLOEXEC) < 0) {
        send_line(fd, error_line("internal", "pipe() failed"));
        continue;
      }
      const Admission adm = submit(req, stream ? pipe_fds[1] : -1);
      // submit() owns (and on reject closed) the write end from here on.
      if (!adm.accepted) {
        if (stream) ::close(pipe_fds[0]);
        send_line(fd, admission_line(adm));
        continue;
      }
      if (!send_line(fd, admission_line(adm))) {
        if (stream) ::close(pipe_fds[0]);
        break;
      }
      if (op == "submit") {
        continue;  // fire and forget; the client polls status/wait
      }
      if (stream) {
        // Forward the job's live NDJSON events to the client and tee them
        // into the job directory (the file a non-streaming job would have
        // written). This thread is the connection's only writer, so event
        // lines and the final result line never interleave.
        JobStatusInfo peek;
        std::string tee_path;
        if (status(adm.job_id, &peek)) tee_path = peek.dir + "/progress.ndjson";
        std::FILE* tee = tee_path.empty() ? nullptr
                                          : std::fopen(tee_path.c_str(), "w");
        char chunk[4096];
        for (;;) {
          ssize_t n;
          while ((n = ::read(pipe_fds[0], chunk, sizeof(chunk))) < 0 &&
                 errno == EINTR) {
          }
          if (n <= 0) break;
          if (tee != nullptr)
            std::fwrite(chunk, 1, static_cast<std::size_t>(n), tee);
          if (!obs::write_all_fd(fd, chunk, static_cast<std::size_t>(n))) {
            // Client went away mid-stream: keep draining so the job's
            // writes never block, keep the tee as the artifact of record.
          }
        }
        if (tee != nullptr) std::fclose(tee);
        ::close(pipe_fds[0]);
      }
      JobStatusInfo st;
      wait(adm.job_id, &st);
      if (!send_line(fd, job_status_json(st, "result"))) break;
    } else if (op == "shutdown") {
      send_line(fd, simple_line("ok"));
      request_stop();
      break;
    } else {
      send_line(fd, error_line("bad_request", "unknown op '" + op + "'"));
    }
  }
  ::close(fd);
  std::lock_guard<std::mutex> lk(mu_);
  conn_fds_.erase(fd);
}

void PlacementServer::serve() {
  if (!started_)
    throw Error(ErrorCode::ValidationError, "serve() before start()");
  for (;;) {
    if (obs::interrupt_requested()) request_stop();
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (stop_) break;
    }
    pollfd p{listen_fd_, POLLIN, 0};
    const int pr = ::poll(&p, 1, 200);
    if (pr < 0) {
      if (errno == EINTR) continue;
      request_stop();
      break;
    }
    if (pr == 0 || (p.revents & POLLIN) == 0) continue;
    int cfd;
    while ((cfd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC)) < 0 &&
           errno == EINTR) {
    }
    if (cfd < 0) continue;
    {
      std::lock_guard<std::mutex> lk(mu_);
      conn_fds_.insert(cfd);
      conns_.emplace_back([this, cfd] { handle_connection(cfd); });
    }
  }

  // Wind-down. Workers first: they drain the queue (submit already rejects),
  // which unblocks every connection sitting in wait(). Only then nudge idle
  // connections off their blocking read — SHUT_RD leaves in-flight response
  // writes intact — and join them.
  ::close(listen_fd_);
  listen_fd_ = -1;
  queue_cv_.notify_all();
  for (std::thread& t : workers_)
    if (t.joinable()) t.join();
  done_cv_.notify_all();
  std::vector<std::thread> conns;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (int fd : conn_fds_) ::shutdown(fd, SHUT_RD);
    conns.swap(conns_);
  }
  for (std::thread& t : conns)
    if (t.joinable()) t.join();
  ::unlink(opt_.socket_path.c_str());
  RP_INFO("rp_serve: drained (%lld job(s) completed)",
          static_cast<long long>(done_count_));
}

}  // namespace rp
