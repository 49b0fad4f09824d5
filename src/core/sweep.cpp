#include "core/sweep.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <set>

#include "util/error.hpp"
#include "util/json.hpp"
#include "util/logger.hpp"
#include "util/parallel.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>
#define RP_SWEEP_POSIX 1
#endif

namespace rp {

namespace fs = std::filesystem;

namespace {

/// routplace flags a spec may set. Everything else is either unknown or
/// reserved for the orchestrator (output paths, the seed axis).
const std::set<std::string>& allowed_flags() {
  static const std::set<std::string> k = {
      "aux",          "density",     "gen",           "inflate-rate",
      "legalizer",    "lenient",     "max-gp-iters",  "max-seconds",
      "mode",         "profile",     "rounds",        "sample-resources",
      "simd",         "skip-dp",     "strict",        "supply",
      "threads",      "verbose",     "wl-model",
  };
  return k;
}

/// Flags rp_sweep itself owns: letting a spec set them would corrupt the
/// campaign layout (or bypass the seeds array).
const std::set<std::string>& reserved_flags() {
  static const std::set<std::string> k = {
      "out",          "report-json",    "trace-json", "progress-ndjson",
      "flight-json",  "snapshot-dir",   "snapshot-every", "snapshot-svg",
      "seed",         "help",           "map",
  };
  return k;
}

void check_flag(const std::string& flag, const std::string& where) {
  if (reserved_flags().count(flag) > 0)
    throw Error(ErrorCode::ValidationError,
                "campaign spec: flag '" + flag +
                    "' is managed by rp_sweep (output paths and --seed come "
                    "from the orchestrator)",
                where);
  if (allowed_flags().count(flag) == 0)
    throw Error(ErrorCode::ValidationError,
                "campaign spec: unknown routplace flag '" + flag + "'", where);
}

/// Filesystem/cell-id-safe fragment: basename, then every char outside
/// [A-Za-z0-9._+-] becomes '-'; capped so a pathological value cannot blow
/// up directory names.
std::string sanitize_label(const std::string& s) {
  std::string base = s;
  if (const auto pos = base.find_last_of('/'); pos != std::string::npos)
    base = base.substr(pos + 1);
  if (base.empty()) base = "x";
  std::string out;
  out.reserve(base.size());
  for (const char c : base) {
    const bool ok = std::isalnum(static_cast<unsigned char>(c)) != 0 ||
                    c == '.' || c == '_' || c == '+' || c == '-';
    out += ok ? c : '-';
  }
  if (out.size() > 48) out.resize(48);
  return out;
}

/// Shortest decimal that round-trips to exactly `v` (a spec's 0.45 becomes
/// "0.45" on the command line, not "0.45000000000000001").
std::string format_number(double v) {
  if (std::floor(v) == v && std::fabs(v) < 9.0e15)
    return std::to_string(static_cast<long long>(v));
  char buf[40];
  for (int prec = 1; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

AxisValue axis_value_from(const JsonValue& v, const std::string& flag,
                          const std::string& where) {
  AxisValue a;
  switch (v.kind) {
    case JsonValue::Kind::Null:
      a.kind = AxisValue::Kind::Omit;
      a.label = "off";
      return a;
    case JsonValue::Kind::Bool:
      a.kind = v.b ? AxisValue::Kind::Flag : AxisValue::Kind::Omit;
      a.label = v.b ? "on" : "off";
      return a;
    case JsonValue::Kind::Number:
      a.kind = AxisValue::Kind::Value;
      a.text = format_number(v.num);
      a.label = sanitize_label(a.text);
      return a;
    case JsonValue::Kind::String:
      a.kind = AxisValue::Kind::Value;
      a.text = v.str;
      a.label = sanitize_label(v.str);
      return a;
    default:
      throw Error(ErrorCode::ValidationError,
                  "campaign spec: value for '" + flag +
                      "' must be a scalar (string/number/bool/null)",
                  where);
  }
}

void append_args(std::vector<std::string>& args, const std::string& flag,
                 const AxisValue& v) {
  if (v.kind == AxisValue::Kind::Omit) return;
  args.push_back("--" + flag);
  if (v.kind == AxisValue::Kind::Value) args.push_back(v.text);
}

std::string read_text_file(const fs::path& p, bool* ok) {
  *ok = false;
  std::FILE* f = std::fopen(p.string().c_str(), "rb");
  if (f == nullptr) return {};
  std::string out;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  const bool err = std::ferror(f) != 0;
  std::fclose(f);
  if (err) return {};
  *ok = true;
  return out;
}

bool write_text_file(const fs::path& p, const std::string& text) {
  std::FILE* f = std::fopen(p.string().c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  std::fclose(f);
  return ok;
}

SweepSpec parse_sweepspec_impl(const JsonValue& doc, const std::string& where) {
  SweepSpec spec;
  std::set<std::string> base_flags;
  for (const auto& [key, v] : doc.obj) {
    if (key == "name") {
      if (!v.is_string() || v.str.empty())
        throw Error(ErrorCode::ValidationError,
                    "campaign spec: 'name' must be a non-empty string", where);
      spec.name = v.str;
    } else if (key == "base") {
      if (!v.is_object())
        throw Error(ErrorCode::ValidationError,
                    "campaign spec: 'base' must be an object of flag -> value",
                    where);
      for (const auto& [flag, val] : v.obj) {
        check_flag(flag, where);
        base_flags.insert(flag);
        spec.base.emplace_back(flag, axis_value_from(val, flag, where));
      }
    } else if (key == "axes") {
      if (!v.is_object())
        throw Error(ErrorCode::ValidationError,
                    "campaign spec: 'axes' must be an object of flag -> "
                    "[values]",
                    where);
      for (const auto& [flag, vals] : v.obj) {
        check_flag(flag, where);
        if (!vals.is_array() || vals.arr.empty())
          throw Error(ErrorCode::ValidationError,
                      "campaign spec: axis '" + flag +
                          "' must be a non-empty array",
                      where);
        SweepAxis axis;
        axis.flag = flag;
        std::set<std::string> labels;
        for (const JsonValue& val : vals.arr) {
          AxisValue av = axis_value_from(val, flag, where);
          if (!labels.insert(av.label).second)
            throw Error(ErrorCode::ValidationError,
                        "campaign spec: axis '" + flag +
                            "' has two values with the same cell label '" +
                            av.label + "'",
                        where);
          axis.values.push_back(std::move(av));
        }
        spec.axes.push_back(std::move(axis));
      }
    } else if (key == "seeds") {
      if (!v.is_array() || v.arr.empty())
        throw Error(ErrorCode::ValidationError,
                    "campaign spec: 'seeds' must be a non-empty array of "
                    "non-negative integers",
                    where);
      std::set<std::uint64_t> seen;
      for (const JsonValue& s : v.arr) {
        if (!s.is_number() || s.num < 0 || std::floor(s.num) != s.num)
          throw Error(ErrorCode::ValidationError,
                      "campaign spec: seeds must be non-negative integers",
                      where);
        const auto seed = static_cast<std::uint64_t>(s.num);
        if (!seen.insert(seed).second)
          throw Error(ErrorCode::ValidationError,
                      "campaign spec: duplicate seed " + std::to_string(seed) +
                          " (run directories would collide)",
                      where);
        spec.seeds.push_back(seed);
      }
    } else {
      throw Error(ErrorCode::ValidationError,
                  "campaign spec: unknown key '" + key +
                      "' (expected name/base/axes/seeds)",
                  where);
    }
  }
  for (const SweepAxis& ax : spec.axes)
    if (base_flags.count(ax.flag) > 0)
      throw Error(ErrorCode::ValidationError,
                  "campaign spec: flag '" + ax.flag +
                      "' appears in both 'base' and 'axes'",
                  where);
  if (spec.seeds.empty()) spec.seeds.push_back(1);
  return spec;
}

}  // namespace

SweepSpec parse_sweep_spec(const std::string& text, const std::string& where) {
  JsonValue doc;
  try {
    doc = json_parse(text);
  } catch (const std::runtime_error& e) {
    throw Error(ErrorCode::ParseError,
                std::string("campaign spec: ") + e.what(), where);
  }
  if (!doc.is_object())
    throw Error(ErrorCode::ParseError,
                "campaign spec: top level must be a JSON object", where);
  return parse_sweepspec_impl(doc, where);
}

std::vector<SweepRun> expand_grid(const SweepSpec& spec) {
  std::vector<SweepRun> out;
  std::vector<std::size_t> idx(spec.axes.size(), 0);
  for (;;) {
    std::string cell;
    std::vector<std::pair<std::string, std::string>> config;
    for (std::size_t i = 0; i < spec.axes.size(); ++i) {
      const SweepAxis& ax = spec.axes[i];
      const AxisValue& av = ax.values[idx[i]];
      if (!cell.empty()) cell += '_';
      cell += ax.flag + "-" + av.label;
      config.emplace_back(ax.flag, av.label);
    }
    if (cell.empty()) cell = "all";
    for (const std::uint64_t seed : spec.seeds) {
      SweepRun r;
      r.cell = cell;
      r.seed = seed;
      r.id = cell + "__s" + std::to_string(seed);
      r.config = config;
      for (const auto& [flag, av] : spec.base) append_args(r.args, flag, av);
      for (std::size_t i = 0; i < spec.axes.size(); ++i)
        append_args(r.args, spec.axes[i].flag, spec.axes[i].values[idx[i]]);
      r.args.emplace_back("--seed");
      r.args.push_back(std::to_string(seed));
      out.push_back(std::move(r));
    }
    // Odometer, last axis fastest (first axis varies slowest).
    std::size_t k = spec.axes.size();
    while (k > 0) {
      if (++idx[k - 1] < spec.axes[k - 1].values.size()) break;
      idx[k - 1] = 0;
      --k;
    }
    if (k == 0) break;
  }
  return out;
}

std::string sweep_status_name(int exit_code) {
  switch (exit_code) {
    case 0: return "ok";
    case 1: return "not_legal";
    case 2: return "usage_error";
    case 3: return "ParseError";
    case 4: return "ValidationError";
    case 5: return "NumericError";
    case 6: return "ResourceError";
    case 7: return "Interrupted";
    case kSpawnRedirectFailed: return "spawn_redirect_failed";
    case kSpawnExecFailed: return "spawn_exec_failed";
    default: break;
  }
  if (exit_code >= 128) return "signal_" + std::to_string(exit_code - 128);
  return "failed_" + std::to_string(exit_code);
}

namespace {

void write_run_entry(JsonWriter& w, const SweepRunResult& r) {
  w.begin_object();
  w.kv("id", r.run.id);
  w.kv("cell", r.run.cell);
  w.kv("seed", r.run.seed);
  w.kv("dir", "runs/" + r.run.id);
  w.key("config").begin_object();
  for (const auto& [flag, label] : r.run.config) w.kv(flag, label);
  w.end_object();
  w.key("args").begin_array();
  for (const std::string& a : r.run.args) w.value(a);
  w.end_array();
  w.kv("exit_code", static_cast<std::int64_t>(r.exit_code));
  w.kv("status", r.status);
  w.key("artifacts").begin_object();
  w.kv("report", r.has_report);
  w.kv("progress", r.has_progress);
  w.kv("bench", r.has_bench);
  w.kv("flight", r.has_flight);
  w.end_object();
  if (r.has_error) {
    w.key("error").begin_object();
    w.kv("code", r.error_code);
    w.kv("message", r.error_message);
    w.kv("where", r.error_where);
    w.kv("stage", r.error_stage);
    w.end_object();
  }
  w.end_object();
}

}  // namespace

std::string campaign_manifest_json(const SweepSpec& spec,
                                   const std::vector<SweepRunResult>& results,
                                   int indent) {
  // Deliberately NO timestamps, durations, host names, or executed/skipped
  // split: everything here is a pure function of (spec, placer results), so
  // a resumed or repeated campaign rewrites this file byte-identically.
  int ok = 0, failed = 0;
  for (const SweepRunResult& r : results) (r.status == "ok" ? ok : failed)++;
  JsonWriter w(indent);
  w.begin_object();
  w.kv("schema", "rp_campaign");
  w.kv("v", 1);
  w.kv("name", spec.name);
  w.kv("total", static_cast<std::int64_t>(results.size()));
  w.kv("ok", static_cast<std::int64_t>(ok));
  w.kv("failed", static_cast<std::int64_t>(failed));
  w.key("seeds").begin_array();
  for (const std::uint64_t s : spec.seeds) w.value(s);
  w.end_array();
  w.key("base").begin_object();
  for (const auto& [flag, av] : spec.base) w.kv(flag, av.label);
  w.end_object();
  w.key("axes").begin_array();
  for (const SweepAxis& ax : spec.axes) {
    w.begin_object();
    w.kv("flag", ax.flag);
    w.key("labels").begin_array();
    for (const AxisValue& av : ax.values) w.value(av.label);
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.key("runs").begin_array();
  for (const SweepRunResult& r : results) write_run_entry(w, r);
  w.end_array();
  w.end_object();
  return w.str();
}

std::string run_status_json(const SweepRunResult& r) {
  JsonWriter w(2);
  w.begin_object();
  w.kv("schema", "rp_run_status");
  w.kv("v", 1);
  w.kv("id", r.run.id);
  w.kv("exit_code", static_cast<std::int64_t>(r.exit_code));
  w.kv("status", r.status);
  w.key("args").begin_array();
  for (const std::string& a : r.run.args) w.value(a);
  w.end_array();
  w.end_object();
  return w.str();
}

bool run_status_matches(const std::string& status_json_text,
                        const SweepRun& run) {
  try {
    const JsonValue v = json_parse(status_json_text);
    if (!v.is_object()) return false;
    if (!v.has("schema") || v.at("schema").str != "rp_run_status") return false;
    if (!v.has("id") || v.at("id").str != run.id) return false;
    if (!v.has("exit_code") || !v.at("exit_code").is_number()) return false;
    if (!v.has("args") || !v.at("args").is_array()) return false;
    const std::vector<JsonValue>& arr = v.at("args").arr;
    if (arr.size() != run.args.size()) return false;
    for (std::size_t i = 0; i < arr.size(); ++i)
      if (!arr[i].is_string() || arr[i].str != run.args[i]) return false;
    return true;
  } catch (const std::runtime_error&) {
    return false;  // truncated/corrupt status.json: just re-run
  }
}

// ------------------------------------------------------------ orchestration

namespace {

/// Fill a result's artifact/error fields from the run directory.
void finalize_result(SweepRunResult& res, const fs::path& run_dir) {
  res.has_report = fs::exists(run_dir / "report.json");
  res.has_progress = fs::exists(run_dir / "progress.ndjson");
  res.has_bench = fs::exists(run_dir / "bench.jsonl");
  res.has_flight = fs::exists(run_dir / "flight.json");
  if (!res.has_report) return;
  bool ok = false;
  const std::string text = read_text_file(run_dir / "report.json", &ok);
  if (!ok) return;
  try {
    const JsonValue rep = json_parse(text);
    if (!rep.has("error")) return;
    const JsonValue& e = rep.at("error");
    res.has_error = true;
    if (e.has("code")) res.error_code = e.at("code").str;
    if (e.has("message")) res.error_message = e.at("message").str;
    if (e.has("where")) res.error_where = e.at("where").str;
    if (e.has("stage")) res.error_stage = e.at("stage").str;
  } catch (const std::runtime_error&) {
    // A truncated report (crashed child) is itself diagnostic; the manifest
    // still records the exit code.
  }
}

#ifdef RP_SWEEP_POSIX

pid_t spawn_run(const std::string& routplace, const SweepRun& run,
                const fs::path& run_dir) {
  std::vector<std::string> argv_s;
  argv_s.push_back(routplace);
  argv_s.insert(argv_s.end(), run.args.begin(), run.args.end());
  const auto add = [&](const char* flag, const fs::path& p) {
    argv_s.emplace_back(flag);
    argv_s.push_back(p.string());
  };
  add("--out", run_dir / "out.pl");
  add("--report-json", run_dir / "report.json");
  add("--progress-ndjson", run_dir / "progress.ndjson");
  add("--flight-json", run_dir / "flight.json");
  const std::string bench = (run_dir / "bench.jsonl").string();
  const std::string out_log = (run_dir / "stdout.log").string();
  const std::string err_log = (run_dir / "stderr.log").string();

  const pid_t pid = ::fork();
  if (pid != 0) return pid;  // parent (or fork failure, pid < 0)

  // Child: redirect stdio into the run directory, point RP_BENCH_JSON
  // there, exec. Only async-signal-safe-ish calls between fork and exec.
  // A failed redirect is fatal (kSpawnRedirectFailed, distinct from 127 =
  // exec failed): silently inheriting the parent's stdio would interleave
  // this child's output with the orchestrator's own. The originals are
  // closed after dup2 so no stray descriptors leak into the exec'd image.
  const int ofd = ::open(out_log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (ofd < 0 || ::dup2(ofd, 1) < 0) ::_exit(kSpawnRedirectFailed);
  ::close(ofd);
  const int efd = ::open(err_log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (efd < 0 || ::dup2(efd, 2) < 0) ::_exit(kSpawnRedirectFailed);
  ::close(efd);
  ::setenv("RP_BENCH_JSON", bench.c_str(), 1);
  std::vector<char*> argv;
  argv.reserve(argv_s.size() + 1);
  for (std::string& s : argv_s) argv.push_back(s.data());
  argv.push_back(nullptr);
  ::execv(routplace.c_str(), argv.data());
  ::_exit(kSpawnExecFailed);
}

#endif  // RP_SWEEP_POSIX

}  // namespace

SweepOutcome run_campaign(const SweepOptions& opt) {
  bool ok = false;
  const std::string spec_text = read_text_file(opt.spec_path, &ok);
  if (!ok)
    throw Error(ErrorCode::ResourceError,
                "cannot read campaign spec '" + opt.spec_path + "'");
  const SweepSpec spec = parse_sweep_spec(spec_text, opt.spec_path);
  const std::vector<SweepRun> runs = expand_grid(spec);

  SweepOutcome out;
  out.name = spec.name;
  out.results.resize(runs.size());
  for (std::size_t i = 0; i < runs.size(); ++i) out.results[i].run = runs[i];

  if (opt.dry_run) {
    for (SweepRunResult& r : out.results) r.status = "dry_run";
    return out;
  }

#ifndef RP_SWEEP_POSIX
  throw Error(ErrorCode::ResourceError,
              "rp_sweep requires a POSIX host (fork/exec)");
#else
  if (opt.out_dir.empty())
    throw Error(ErrorCode::ValidationError, "campaign directory not set");
  if (!fs::exists(opt.routplace))
    throw Error(ErrorCode::ResourceError,
                "routplace binary not found: '" + opt.routplace + "'");
  const fs::path dir(opt.out_dir);
  std::error_code ec;
  fs::create_directories(dir / "runs", ec);
  if (ec)
    throw Error(ErrorCode::ResourceError,
                "cannot create campaign directory '" + opt.out_dir +
                    "': " + ec.message());

  // Resume pass: a run whose status.json matches its id+args already
  // finished in a previous invocation — adopt its recorded exit code.
  std::vector<std::size_t> todo;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const fs::path run_dir = dir / "runs" / runs[i].id;
    bool read_ok = false;
    const std::string status_text =
        read_text_file(run_dir / "status.json", &read_ok);
    if (read_ok && run_status_matches(status_text, runs[i])) {
      SweepRunResult& res = out.results[i];
      res.skipped = true;
      res.exit_code = static_cast<int>(
          json_parse(status_text).at("exit_code").num);
      res.status = sweep_status_name(res.exit_code);
      finalize_result(res, run_dir);
      ++out.skipped;
      continue;
    }
    todo.push_back(i);
  }

  const int jobs =
      opt.jobs > 0 ? opt.jobs : parallel::hardware_threads();
  struct Child {
    pid_t pid;
    std::size_t idx;
  };
  std::vector<Child> live;
  std::size_t cursor = 0;
  while (cursor < todo.size() || !live.empty()) {
    while (static_cast<int>(live.size()) < jobs && cursor < todo.size()) {
      const std::size_t i = todo[cursor++];
      const fs::path run_dir = dir / "runs" / runs[i].id;
      fs::create_directories(run_dir, ec);
      fs::remove(run_dir / "status.json", ec);  // stale marker, if any
      const pid_t pid = spawn_run(opt.routplace, runs[i], run_dir);
      if (pid < 0)
        throw Error(ErrorCode::ResourceError, "fork() failed mid-campaign");
      RP_INFO("rp_sweep: [%zu/%zu] %s started", cursor + out.skipped,
              runs.size(), runs[i].id.c_str());
      live.push_back({pid, i});
      ++out.executed;
    }
    // Reap the next child. waitpid() can be aborted by ANY signal delivered
    // to this process (a stray SIGUSR1, a debugger attach, a terminal
    // resize...) — EINTR here is routine, not an error, and must not abort
    // an hours-long campaign. ECHILD while we still track live children IS
    // a real error (something else reaped them — our bookkeeping is gone).
    int stat = 0;
    pid_t done = -1;
    while ((done = ::waitpid(-1, &stat, 0)) < 0) {
      if (errno == EINTR) continue;
      throw Error(ErrorCode::ResourceError,
                  std::string("waitpid() failed mid-campaign (") +
                      std::strerror(errno) + ", " +
                      std::to_string(live.size()) + " child(ren) in flight)");
    }
    for (std::size_t c = 0; c < live.size(); ++c) {
      if (live[c].pid != done) continue;
      const std::size_t i = live[c].idx;
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(c));
      int code = -1;
      if (WIFEXITED(stat)) code = WEXITSTATUS(stat);
      else if (WIFSIGNALED(stat)) code = 128 + WTERMSIG(stat);
      SweepRunResult& res = out.results[i];
      res.exit_code = code;
      res.status = sweep_status_name(code);
      const fs::path run_dir = dir / "runs" / runs[i].id;
      finalize_result(res, run_dir);
      if (!write_text_file(run_dir / "status.json",
                           run_status_json(res) + "\n"))
        RP_WARN("rp_sweep: cannot write %s/status.json (resume disabled "
                "for this run)", runs[i].id.c_str());
      RP_INFO("rp_sweep: %s -> %s (exit %d)", runs[i].id.c_str(),
              res.status.c_str(), code);
      break;
    }
  }

  for (const SweepRunResult& r : out.results)
    (r.status == "ok" ? out.ok : out.failed)++;

  const std::string manifest = campaign_manifest_json(spec, out.results);
  if (!write_text_file(dir / "campaign.json", manifest + "\n"))
    throw Error(ErrorCode::ResourceError,
                "cannot write campaign manifest '" +
                    (dir / "campaign.json").string() + "'");
  return out;
#endif
}

}  // namespace rp
