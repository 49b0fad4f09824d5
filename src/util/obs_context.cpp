#include "util/obs_context.hpp"

#include <atomic>
#include <csignal>
#include <cstring>

#include "util/assert.hpp"
#include "util/error.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#define RP_OBS_POSIX 1
#endif

namespace rp::obs {

namespace {

thread_local ObsContext* t_bound = nullptr;

}  // namespace

ObsContext& process_default() {
  // Leaked on purpose: threads may consult the default context during static
  // destruction (e.g. a crash handler firing while main unwinds).
  static ObsContext* ctx = new ObsContext();
  return *ctx;
}

ObsContext& current() { return t_bound != nullptr ? *t_bound : process_default(); }

void bind(ObsContext* ctx) { t_bound = ctx; }

ObsContext* bound() { return t_bound; }

// ------------------------------------------------------------------- spans

Span::Span(std::string_view name)
    : ctx_(current()),
      parent_len_(ctx_.span_path_.size()),
      owner_(std::this_thread::get_id()) {
  if (parent_len_ > 0) ctx_.span_path_ += '/';
  ctx_.span_path_ += name;
  ++ctx_.span_depth_;
  t0_ns_ = profiler::now_ns();
}

Span::~Span() {
  const std::uint64_t dur_ns = profiler::now_ns() - t0_ns_;
  RP_ASSERT(owner_ == std::this_thread::get_id(),
            "span closed on a different thread than it was opened on");
  const std::string& path = ctx_.span_path_;
  const int depth = --ctx_.span_depth_;
  ctx_.stage_times_.add(path, static_cast<double>(dur_ns) * 1e-9);
  if (ctx_.trace_.enabled())
    ctx_.trace_.emit_span(path, t0_ns_, dur_ns, /*tid=*/0, depth);
  if (profiler::enabled()) ctx_.profiler_.record(path, dur_ns);
  ctx_.span_path_.resize(parent_len_);
}

// ------------------------------------------------------- interrupt support

namespace {

// sig_atomic_t, not std::atomic: written from signal handlers, and the
// C standard blesses exactly this type for that.
volatile std::sig_atomic_t g_interrupt = 0;

}  // namespace

bool interrupt_requested() { return g_interrupt != 0; }
void request_interrupt() { g_interrupt = 1; }
void clear_interrupt() { g_interrupt = 0; }

void check_interrupt() {
  if (g_interrupt != 0)
    throw Error(ErrorCode::Interrupted, "interrupted by signal (SIGINT/SIGTERM)");
}

// ----------------------------------------------------------- signal wiring

namespace {

// Fixed storage readable from a signal handler: no std::string, no locks.
char g_flight_path[512] = {};
std::atomic<ObsContext*> g_crash_ctx{nullptr};

const char* crash_signal_name(int sig) {
  switch (sig) {
    case SIGSEGV: return "SIGSEGV";
    case SIGABRT: return "SIGABRT";
    case SIGFPE: return "SIGFPE";
#ifdef SIGBUS
    case SIGBUS: return "SIGBUS";
#endif
    case SIGINT: return "SIGINT";
    case SIGTERM: return "SIGTERM";
  }
  return "signal";
}

extern "C" void rp_obs_crash_handler(int sig) {
  ObsContext* ctx = g_crash_ctx.load(std::memory_order_acquire);
#ifdef RP_OBS_POSIX
  if (ctx != nullptr && g_flight_path[0] != '\0') {
    // open/write/close are async-signal-safe; dump_flight_fd uses nothing
    // else. Reading the registry maps is best-effort — acceptable for a
    // black box whose alternative is no data at all.
    const int fd = ::open(g_flight_path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      ctx->events().dump_flight_fd(fd, crash_signal_name(sig), &ctx->registry());
      ::close(fd);
    }
  }
#else
  (void)ctx;
#endif
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

extern "C" void rp_obs_interrupt_handler(int sig) {
  if (g_interrupt != 0) {
    // Second Ctrl-C: the user means it. Die with the default action.
    std::signal(sig, SIG_DFL);
    std::raise(sig);
    return;
  }
  g_interrupt = 1;
}

}  // namespace

void install_crash_handlers(const CrashHandlerOptions& opt) {
  const std::size_t n = opt.flight_path.size() < sizeof g_flight_path - 1
                            ? opt.flight_path.size()
                            : sizeof g_flight_path - 1;
  std::memcpy(g_flight_path, opt.flight_path.data(), n);
  g_flight_path[n] = '\0';
  if (opt.handle_crash_signals) {
    std::signal(SIGSEGV, rp_obs_crash_handler);
    std::signal(SIGABRT, rp_obs_crash_handler);
    std::signal(SIGFPE, rp_obs_crash_handler);
#ifdef SIGBUS
    std::signal(SIGBUS, rp_obs_crash_handler);
#endif
  }
  if (opt.handle_interrupt_signals) {
    std::signal(SIGINT, rp_obs_interrupt_handler);
    std::signal(SIGTERM, rp_obs_interrupt_handler);
  }
}

void set_crash_context(ObsContext* ctx) {
  g_crash_ctx.store(ctx, std::memory_order_release);
}

}  // namespace rp::obs
