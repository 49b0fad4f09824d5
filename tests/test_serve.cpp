// Placement-service unit tests (core/serve.hpp): the wire-protocol job
// parser (including hostile inputs — this suite runs under ASan/UBSan in
// CI), content-hash cache keying, LRU semantics, the cache-hit replay
// contract (byte-identical reports and event streams vs a cold parse),
// weighted admission control, and concurrent in-process jobs (the TSan
// target). Socket transport end to end is covered by the serve_smoke ctest.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <pthread.h>
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/report_diff.hpp"
#include "core/serve.hpp"
#include "core/sweep.hpp"
#include "db/bookshelf.hpp"
#include "gen/generator.hpp"
#include "util/error.hpp"
#include "util/event_bus.hpp"
#include "util/json.hpp"
#include "util/logger.hpp"

namespace rp {
namespace {

namespace fs = std::filesystem;

fs::path fresh_dir(const char* name) {
  const fs::path dir = fs::temp_directory_path() / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

JobRequest gen_job(int cells, std::uint64_t seed, int rounds = 1) {
  JsonValue job;
  job.kind = JsonValue::Kind::Object;
  auto num = [](double v) {
    JsonValue j;
    j.kind = JsonValue::Kind::Number;
    j.num = v;
    return j;
  };
  job.obj["gen"] = num(cells);
  job.obj["seed"] = num(static_cast<double>(seed));
  job.obj["rounds"] = num(rounds);
  return parse_job_request(job);
}

// -------------------------------------------------------- protocol parsing

TEST(ServeJobParse, MapsFieldsThroughCliValidation) {
  const JsonValue job = json_parse(
      R"({"label":"demo","progress":true,"threads":3,"gen":1234,"seed":9,
          "mode":"wirelength","legalizer":"tetris","rounds":2,"density":0.9,
          "wl_model":"LSE","inflate_rate":0.5,"max_gp_iters":40,
          "max_seconds":1.5,"skip_dp":true,"lenient":true,"supply":0.8})");
  const JobRequest req = parse_job_request(job);
  EXPECT_EQ(req.label, "demo");
  EXPECT_TRUE(req.progress);
  EXPECT_EQ(req.threads, 3);
  EXPECT_EQ(req.cfg.gen_cells, 1234);
  EXPECT_EQ(req.cfg.seed, 9u);
  EXPECT_EQ(req.cfg.mode, "wirelength");
  EXPECT_EQ(req.cfg.legalizer, "tetris");
  EXPECT_EQ(req.cfg.routability_rounds, 2);
  EXPECT_DOUBLE_EQ(req.cfg.target_density, 0.9);
  EXPECT_EQ(req.cfg.wl_model, "LSE");
  EXPECT_DOUBLE_EQ(req.cfg.inflate_rate, 0.5);
  EXPECT_EQ(req.cfg.max_gp_iters, 40);
  EXPECT_DOUBLE_EQ(req.cfg.max_seconds, 1.5);
  EXPECT_TRUE(req.cfg.skip_dp);
  EXPECT_TRUE(req.cfg.lenient);
  EXPECT_DOUBLE_EQ(req.cfg.track_supply, 0.8);
  // Orchestrator-owned outputs must stay unset.
  EXPECT_TRUE(req.cfg.out_pl.empty());
  EXPECT_TRUE(req.cfg.report_json.empty());
  EXPECT_TRUE(req.cfg.progress_ndjson.empty());
}

TEST(ServeJobParse, RejectsAreStructuredValidationErrors) {
  const char* bad[] = {
      R"("just a string")",
      R"({"out":"x.pl"})",               // orchestrator-owned
      R"({"report_json":"r.json"})",     // orchestrator-owned
      R"({"snapshot_dir":"d"})",         // orchestrator-owned
      R"({"simd":"avx2"})",              // process-wide
      R"({"bogus":1})",                  // unknown
      R"({"incremental_eval":false})",   // removed: one DP evaluator
      R"({"gen":"many"})",               // wrong type
      R"({"label":7})",                  // wrong type
      R"({"threads":0})",                // not positive
      R"({"threads":1.5})",              // not integral
      R"({"mode":"fastest"})",           // parse_cli_args rejects
      R"({"density":7})",                // parse_cli_args rejects
      R"({"rounds":-1})",                // parse_cli_args rejects
  };
  for (const char* text : bad) {
    try {
      parse_job_request(json_parse(text));
      FAIL() << "accepted: " << text;
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::ValidationError) << text;
      EXPECT_FALSE(e.message().empty());
    }
  }
}

TEST(ServeJobParse, HostileInputsNeverEscapeTheTaxonomy) {
  // Deterministic garbage-slinging at the parser stack (json_parse +
  // parse_job_request): every outcome must be a clean value or a typed
  // exception — ASan/UBSan runs of this suite turn memory bugs into
  // failures here.
  std::vector<std::string> lines = {
      "", "{", "}", "[", "\"", "{\"op\":", "nul", "{\"gen\":1e999}",
      "{\"gen\":-0.0,\"seed\":18446744073709551615}",
      "{\"label\":\"\\u0000\\uD800\"}",
      "{\"aux\":\"" + std::string(5000, 'x') + "\"}",
      std::string(2000, '['),
  };
  std::uint64_t h = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < 200; ++i) {
    std::string s = "{\"";
    for (int j = 0; j < 24; ++j) {
      h ^= h << 13;
      h ^= h >> 7;
      h ^= h << 17;
      s.push_back(static_cast<char>(' ' + (h % 95)));
    }
    s += "\":1}";
    lines.push_back(s);
  }
  for (const std::string& line : lines) {
    try {
      (void)parse_job_request(json_parse(line));
    } catch (const Error&) {
    } catch (const std::exception&) {  // json_parse's runtime_error
    }
  }
}

// ------------------------------------------------------------ cache keying

TEST(ServeCacheKey, GeneratorKeysAreParameterDistinct) {
  CliConfig a;
  a.gen_cells = 500;
  a.seed = 7;
  CliConfig b = a;
  EXPECT_EQ(design_cache_key(a), design_cache_key(b));
  b.seed = 8;
  EXPECT_NE(design_cache_key(a), design_cache_key(b));
  b = a;
  b.gen_cells = 501;
  EXPECT_NE(design_cache_key(a), design_cache_key(b));
  b = a;
  b.track_supply = 0.9;
  EXPECT_NE(design_cache_key(a), design_cache_key(b));
}

TEST(ServeCacheKey, BookshelfKeyTracksFileContentAndParseMode) {
  const fs::path dir = fresh_dir("rp_serve_key_test");
  Design d = generate_benchmark(tiny_spec(3));
  write_bookshelf(d, dir, "key");
  CliConfig cfg;
  cfg.aux = (dir / "key.aux").string();
  const std::string k1 = design_cache_key(cfg);
  EXPECT_EQ(design_cache_key(cfg), k1);  // stable
  cfg.lenient = true;
  const std::string k2 = design_cache_key(cfg);
  EXPECT_NE(k1, k2);  // parse mode is part of the input
  cfg.lenient = false;
  {
    // Editing a REFERENCED file (not the .aux itself) must miss: the key
    // hashes the whole file set.
    std::ofstream out(dir / "key.pl", std::ios::app);
    out << "\n# touched\n";
  }
  EXPECT_NE(design_cache_key(cfg), k1);
  CliConfig missing;
  missing.aux = (dir / "nope.aux").string();
  EXPECT_THROW(design_cache_key(missing), Error);
  fs::remove_all(dir);
}

TEST(ServeCache, LruEvictsOldestAndCountsHits) {
  DesignCache cache(2);
  auto entry = [] { return std::make_shared<DesignCacheEntry>(); };
  cache.insert("a", entry());
  cache.insert("b", entry());
  EXPECT_NE(cache.lookup("a"), nullptr);  // a is now most-recent
  cache.insert("c", entry());             // evicts b
  EXPECT_EQ(cache.lookup("b"), nullptr);
  EXPECT_NE(cache.lookup("a"), nullptr);
  EXPECT_NE(cache.lookup("c"), nullptr);
  const DesignCache::Stats s = cache.stats();
  EXPECT_EQ(s.hits, 3);
  EXPECT_EQ(s.misses, 1);
  EXPECT_EQ(s.entries, 2);
  EXPECT_EQ(s.capacity, 2);
  DesignCache off(0);
  off.insert("a", entry());
  EXPECT_EQ(off.lookup("a"), nullptr);  // capacity 0 = caching disabled
}

// --------------------------------------------------- cache-hit byte parity

std::vector<std::string> scrubbed_progress(const fs::path& p) {
  // Event payloads are deterministic; seq/t_ms are volatile by contract
  // (util/event_bus.hpp) — drop exactly those, keep everything else.
  std::vector<std::string> out;
  std::istringstream in(slurp(p));
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    JsonValue v = json_parse(line);
    v.obj.erase("seq");
    v.obj.erase("t_ms");
    JsonWriter w;
    w.begin_object();
    for (const auto& [k, val] : v.obj) {
      if (val.is_string()) w.kv(k, val.str);
      else if (val.is_number()) w.kv(k, val.num);
      else if (val.kind == JsonValue::Kind::Bool) w.kv(k, val.b);
      else w.key(k).null();
    }
    w.end_object();
    out.push_back(w.str());
  }
  return out;
}

TEST(ServeExecute, CacheHitIsByteIdenticalToColdParse) {
  const fs::path dir = fresh_dir("rp_serve_hit_test");
  Design d = generate_benchmark(tiny_spec(5));
  write_bookshelf(d, dir, "hit");

  JsonValue job;
  job.kind = JsonValue::Kind::Object;
  job.obj["aux"].kind = JsonValue::Kind::String;
  job.obj["aux"].str = (dir / "hit.aux").string();
  job.obj["rounds"].kind = JsonValue::Kind::Number;
  job.obj["rounds"].num = 1;
  const JobRequest req = parse_job_request(job);

  DesignCache cache(4);
  const JobStatusInfo cold =
      execute_serve_job(req, (dir / "cold").string(), &cache);
  const JobStatusInfo hit =
      execute_serve_job(req, (dir / "hot").string(), &cache);

  EXPECT_FALSE(cold.cache_hit);
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(cold.exit_code, 0) << cold.error_message;
  EXPECT_EQ(hit.exit_code, 0) << hit.error_message;
  EXPECT_EQ(cache.stats().hits, 1);
  EXPECT_EQ(cache.stats().misses, 1);

  // The cached run's artifacts must be indistinguishable from the cold
  // run's: same placement bytes, zero report diff, same event payloads.
  EXPECT_EQ(slurp(dir / "cold" / "out.pl"), slurp(dir / "hot" / "out.pl"));
  const ReportDiffResult diff =
      diff_json_values(json_parse(slurp(dir / "cold" / "report.json")),
                       json_parse(slurp(dir / "hot" / "report.json")),
                       ReportDiffOptions{});
  EXPECT_TRUE(diff.clean()) << diff.format();
  EXPECT_GT(diff.values_compared, 50);
  const auto cold_ev = scrubbed_progress(dir / "cold" / "progress.ndjson");
  const auto hit_ev = scrubbed_progress(dir / "hot" / "progress.ndjson");
  ASSERT_FALSE(cold_ev.empty());
  EXPECT_EQ(cold_ev, hit_ev);
  // cache_hit lives in the SERVE status only, never in the report (the
  // report must not depend on service state).
  EXPECT_EQ(slurp(dir / "hot" / "report.json").find("cache_hit"),
            std::string::npos);
  fs::remove_all(dir);
}

TEST(ServeExecute, GeneratedInputCacheHitReplaysProbeCounters) {
  // generate_benchmark runs an internal routability probe that bumps
  // route.* counters; a cache hit skips generation, so the entry must
  // replay the FULL acquisition-time counter/gauge state — not just
  // parse.repair.* — for the report's counters block to match a cold run.
  const fs::path dir = fresh_dir("rp_serve_gen_hit_test");
  const JobRequest req = gen_job(40, 7);
  DesignCache cache(4);
  const JobStatusInfo cold =
      execute_serve_job(req, (dir / "cold").string(), &cache);
  const JobStatusInfo hit =
      execute_serve_job(req, (dir / "hot").string(), &cache);
  EXPECT_EQ(cold.exit_code, 0) << cold.error_message;
  EXPECT_EQ(hit.exit_code, 0) << hit.error_message;
  EXPECT_FALSE(cold.cache_hit);
  EXPECT_TRUE(hit.cache_hit);

  auto report_counters = [](const fs::path& p) {
    std::map<std::string, double> out;
    const JsonValue v = json_parse(slurp(p));
    const auto it = v.obj.find("counters");
    if (it != v.obj.end())
      for (const auto& [name, c] : it->second.obj) out[name] = c.num;
    return out;
  };
  const auto cold_counters = report_counters(dir / "cold" / "report.json");
  EXPECT_TRUE(cold_counters.count("route.estimates"));
  EXPECT_EQ(cold_counters, report_counters(dir / "hot" / "report.json"));
  EXPECT_EQ(slurp(dir / "cold" / "out.pl"), slurp(dir / "hot" / "out.pl"));
  fs::remove_all(dir);
}

TEST(ServeExecute, FailedJobCarriesTaxonomyStatusAndArtifacts) {
  const fs::path dir = fresh_dir("rp_serve_fail_test");
  {
    std::ofstream out(dir / "bad.aux");
    out << "RowBasedPlacement : bad.nodes bad.nets bad.wts bad.pl bad.scl\n";
  }
  JsonValue job;
  job.kind = JsonValue::Kind::Object;
  job.obj["aux"].kind = JsonValue::Kind::String;
  job.obj["aux"].str = (dir / "bad.aux").string();
  const JobRequest req = parse_job_request(job);
  DesignCache cache(4);
  const JobStatusInfo st = execute_serve_job(req, (dir / "job").string(), &cache);
  EXPECT_NE(st.exit_code, 0);
  EXPECT_TRUE(st.has_error);
  EXPECT_FALSE(st.status.empty());
  EXPECT_EQ(st.status, sweep_status_name(st.exit_code));
  // A failed parse caches nothing.
  EXPECT_EQ(cache.stats().entries, 0);
  // Same artifact contract as a failed one-shot run: report with an "error"
  // block plus the flight dump.
  const std::string report = slurp(dir / "job" / "report.json");
  EXPECT_NE(report.find("\"error\""), std::string::npos);
  EXPECT_NE(report.find(st.error_code), std::string::npos);
  EXPECT_FALSE(slurp(dir / "job" / "flight.json").empty());
  const std::string line = job_status_json(st, "result");
  const JsonValue v = json_parse(line);
  EXPECT_EQ(v.at("type").str, "result");
  EXPECT_EQ(v.at("status").str, st.status);
  EXPECT_EQ(v.at("error").at("code").str, st.error_code);
  fs::remove_all(dir);
}

// -------------------------------------------------------- admission control

TEST(ServeServer, QueueCapAndDrainRejectsAreStructured) {
  // Deliberately NOT started: no workers pull, so the queue fills
  // deterministically.
  ServeOptions opt;
  opt.socket_path = (fs::temp_directory_path() / "rp_adm.sock").string();
  opt.work_dir = (fs::temp_directory_path() / "rp_serve_adm_test").string();
  opt.max_jobs = 1;
  opt.queue_cap = 2;
  opt.thread_budget = 4;
  PlacementServer server(opt);
  const JobRequest req = gen_job(200, 1);
  const auto a1 = server.submit(req);
  const auto a2 = server.submit(req);
  ASSERT_TRUE(a1.accepted);
  ASSERT_TRUE(a2.accepted);
  EXPECT_EQ(a1.job_id, "j0001");
  EXPECT_EQ(a2.job_id, "j0002");
  const auto rej = server.submit(req);
  EXPECT_FALSE(rej.accepted);
  EXPECT_EQ(rej.reason, "queue_full");
  EXPECT_EQ(rej.queued, 2);
  JobStatusInfo st;
  ASSERT_TRUE(server.status("j0001", &st));
  EXPECT_EQ(st.state, "queued");
  EXPECT_FALSE(server.status("nope", &st));
  server.request_stop();
  const auto drain = server.submit(req);
  EXPECT_FALSE(drain.accepted);
  EXPECT_EQ(drain.reason, "shutting_down");
  const JsonValue stats = json_parse(server.stats_json());
  EXPECT_EQ(stats.at("queued").num, 2);
  EXPECT_EQ(stats.at("queue_cap").num, 2);
}

// ------------------------------------------------- concurrent jobs (TSan)

TEST(ServeServer, ConcurrentJobsMatchEachOtherAndReportCacheHits) {
  ScopedLogLevel quiet(LogLevel::Warn);
  const fs::path dir = fresh_dir("rp_serve_conc_test");
  ServeOptions opt;
  opt.socket_path = (dir / "rp.sock").string();
  opt.work_dir = (dir / "work").string();
  opt.max_jobs = 4;
  opt.queue_cap = 16;
  opt.thread_budget = 8;
  opt.cache_capacity = 4;
  PlacementServer server(opt);
  server.start();

  // Four concurrent jobs — two identical pairs, mixed budgets — plus a
  // repeat wave: every pair must agree bit for bit, and the second wave
  // must be all cache hits.
  std::vector<std::string> ids;
  for (int i = 0; i < 4; ++i) {
    JobRequest req = gen_job(250, 11 + (i % 2));
    req.threads = 1 + i;
    const auto adm = server.submit(req);
    ASSERT_TRUE(adm.accepted);
    ids.push_back(adm.job_id);
  }
  std::vector<JobStatusInfo> first(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i)
    ASSERT_TRUE(server.wait(ids[i], &first[i]));
  for (const JobStatusInfo& st : first) {
    EXPECT_EQ(st.exit_code, 0) << st.error_message;
    EXPECT_EQ(st.state, "done");
    EXPECT_TRUE(st.legal);
  }
  EXPECT_EQ(first[0].hpwl, first[2].hpwl);  // same seed -> same result
  EXPECT_EQ(first[1].hpwl, first[3].hpwl);
  EXPECT_EQ(slurp(fs::path(first[0].dir) / "out.pl"),
            slurp(fs::path(first[2].dir) / "out.pl"));

  std::vector<std::string> repeat_ids;
  for (int i = 0; i < 2; ++i) {
    const auto adm = server.submit(gen_job(250, 11 + i));
    ASSERT_TRUE(adm.accepted);
    repeat_ids.push_back(adm.job_id);
  }
  for (std::size_t i = 0; i < repeat_ids.size(); ++i) {
    JobStatusInfo st;
    ASSERT_TRUE(server.wait(repeat_ids[i], &st));
    EXPECT_TRUE(st.cache_hit) << repeat_ids[i];
    EXPECT_EQ(st.hpwl, first[i].hpwl);
  }
  const JsonValue stats = json_parse(server.stats_json());
  EXPECT_EQ(stats.at("done").num, 6);
  // The repeat wave is guaranteed hits; the first wave's identical pairs
  // may have raced lookup-before-insert, which is a legal miss.
  EXPECT_GE(stats.at("cache").at("hits").num, 2);
  server.request_stop();
  fs::remove_all(dir);
}

// ------------------------------------- fd sink robustness (EINTR contract)

TEST(ServeStreams, WriteAllFdSurvivesSignalStormAndFullPipe) {
  // A pipe shrunk to one page, a deliberately slow reader, and a SIGUSR1
  // storm (handler installed WITHOUT SA_RESTART) at the writer: write()
  // must hit both short writes and EINTR, and write_all_fd must deliver
  // every byte in order anyway.
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
#ifdef F_SETPIPE_SZ
  ::fcntl(fds[1], F_SETPIPE_SZ, 4096);
#endif
  struct sigaction sa {};
  sa.sa_handler = [](int) {};
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // no SA_RESTART: write() really returns EINTR
  struct sigaction old {};
  ASSERT_EQ(::sigaction(SIGUSR1, &sa, &old), 0);

  const std::size_t total = 256 * 1024;
  std::string payload(total, '\0');
  for (std::size_t i = 0; i < total; ++i)
    payload[i] = static_cast<char>('a' + (i % 23));

  std::atomic<bool> write_done{false};
  std::atomic<bool> ok{false};
  std::thread writer([&] {
    ok.store(obs::write_all_fd(fds[1], payload.data(), payload.size()));
    write_done.store(true);
    ::close(fds[1]);
  });
  std::thread storm([&] {
    while (!write_done.load()) {
      pthread_kill(writer.native_handle(), SIGUSR1);
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });
  std::string got;
  char buf[512];  // small reads keep the pipe full -> short writes upstream
  for (;;) {
    ssize_t n;
    while ((n = ::read(fds[0], buf, sizeof(buf))) < 0 && errno == EINTR) {
    }
    if (n <= 0) break;
    got.append(buf, static_cast<std::size_t>(n));
    if (got.size() < total / 2)
      std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  writer.join();
  storm.join();
  ::close(fds[0]);
  ::sigaction(SIGUSR1, &old, nullptr);
  EXPECT_TRUE(ok.load());
  EXPECT_EQ(got.size(), total);
  EXPECT_EQ(got, payload);
  // And the documented failure mode: a closed read end is a real error.
  int dead[2];
  ASSERT_EQ(::pipe(dead), 0);
  ::close(dead[0]);
  signal(SIGPIPE, SIG_IGN);
  EXPECT_FALSE(obs::write_all_fd(dead[1], "x", 1));
  ::close(dead[1]);
}

}  // namespace
}  // namespace rp
