// `rp_serve` — the resident placement daemon.
//
//   rp_serve --socket /tmp/rp.sock --dir serve_work --jobs 4
//
// then, from any client that can speak newline-delimited JSON over a unix
// socket (python's socket module, socat, ...):
//
//   {"op":"run","job":{"gen":2000,"seed":7,"rounds":2,"progress":true}}
//
// All daemon logic lives in core/serve.{hpp,cpp} so it is unit-tested;
// this file is flag parsing plus the same signal posture as routplace:
// SIGINT/SIGTERM request a cooperative interrupt — in-flight jobs unwind
// through the Interrupted contract (exit 7, partial reports), the server
// drains and exits cleanly.

#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "core/serve.hpp"
#include "util/error.hpp"
#include "util/logger.hpp"
#include "util/obs_context.hpp"
#include "util/parallel.hpp"
#include "util/str.hpp"

namespace {

const char* kUsage =
    "rp_serve — resident placement-as-a-service daemon\n"
    "\n"
    "usage: rp_serve --socket <path> [options]\n"
    "\n"
    "  --socket <path>   unix-domain socket to listen on (required)\n"
    "  --dir <dir>       work directory; job artifacts land in <dir>/jobs/<id>/\n"
    "                    (default rp_serve_work)\n"
    "  --jobs <n>        max concurrently RUNNING jobs (default 2)\n"
    "  --queue <n>       max WAITING jobs; beyond -> structured reject\n"
    "                    (default 8)\n"
    "  --threads <n>     worker-thread pool size, shared by all jobs; also the\n"
    "                    total per-job scheduling budget (0 = auto: RP_THREADS\n"
    "                    env, else hardware). Results never depend on it\n"
    "  --cache <n>       design-cache capacity in entries; repeat inputs skip\n"
    "                    parsing or generation (0 = off, default 8)\n"
    "  --verbose         debug logging\n"
    "  --help            this text\n"
    "\n"
    "protocol: one JSON object per line; see README 'Running the server'.\n";

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::vector<std::string> args(argv + 1, argv + argc);
    rp::ServeOptions opt;
    int threads = 0;
    bool verbose = false;
    for (std::size_t i = 0; i < args.size(); ++i) {
      const std::string& a = args[i];
      const auto need_value = [&](const std::string& name) {
        if (i + 1 >= args.size())
          throw std::runtime_error("option '" + name + "' needs a value");
        return args[++i];
      };
      if (a == "--socket") opt.socket_path = need_value(a);
      else if (a == "--dir") opt.work_dir = need_value(a);
      else if (a == "--jobs") opt.max_jobs = static_cast<int>(rp::to_long(need_value(a)));
      else if (a == "--queue") opt.queue_cap = static_cast<int>(rp::to_long(need_value(a)));
      else if (a == "--threads") threads = static_cast<int>(rp::to_long(need_value(a)));
      else if (a == "--cache") opt.cache_capacity = static_cast<int>(rp::to_long(need_value(a)));
      else if (a == "--verbose") verbose = true;
      else if (a == "--help" || a == "-h") {
        std::fputs(kUsage, stdout);
        return 0;
      } else {
        throw std::runtime_error("unknown option '" + a + "' (see --help)");
      }
    }
    if (opt.socket_path.empty())
      throw std::runtime_error("--socket is required (see --help)");
    if (opt.max_jobs < 1) throw std::runtime_error("--jobs must be >= 1");
    if (opt.queue_cap < 1) throw std::runtime_error("--queue must be >= 1");
    if (opt.cache_capacity < 0) throw std::runtime_error("--cache must be >= 0");

    rp::Logger::set_level(verbose ? rp::LogLevel::Debug : rp::LogLevel::Info);
    rp::parallel::set_num_threads(rp::parallel::resolve_threads(threads));
    rp::obs::install_crash_handlers(rp::obs::CrashHandlerOptions{});

    rp::PlacementServer server(opt);
    server.start();
    server.serve();
    return rp::obs::interrupt_requested() ? 7 : 0;
  } catch (const rp::Error& e) {
    std::fprintf(stderr, "rp_serve: %s\n", e.what());
    return e.exit_code();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rp_serve: %s\n", e.what());
    return 2;
  }
}
