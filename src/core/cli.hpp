#pragma once
// Command-line driver shared by the `routplace` tool.
//
// Kept in the library (rather than the tool's main.cpp) so the argument
// handling is unit-testable: parse_cli_args() maps argv to a CliConfig, and
// run_cli() executes the full flow against Bookshelf or generated input.

#include <string>
#include <vector>

#include "core/flow.hpp"

namespace rp {

struct CliConfig {
  std::string aux;           ///< Input .aux (Bookshelf). Empty: use generator.
  std::string out_pl;        ///< Output placement file (empty: <design>.rp.pl).
  std::string mode = "routability";  ///< "routability" | "wirelength".
  std::string legalizer = "abacus";  ///< "abacus" | "tetris".
  // Generator fallback when no .aux is given:
  int gen_cells = 2000;
  std::uint64_t seed = 1;
  double track_supply = 1.0;
  // Common knobs:
  double target_density = 1.0;
  int routability_rounds = 3;
  std::string wl_model;      ///< "WA" | "LSE"; empty = the mode's default.
  double inflate_rate = -1.0;  ///< Inflation step per round; < 0 = default.
  int sample_resources_ms = -1;  ///< Resource-sampler tick; 0 = off,
                                 ///< -1 = auto (RP_SAMPLE_MS env, else 25).
  int threads = 0;           ///< 0 = auto (RP_THREADS env, else hardware).
  std::string simd;          ///< "auto"|"off"|"avx2"|"neon"; empty = RP_SIMD env.
  bool lenient = false;      ///< Bookshelf parse mode (false = strict).
  int max_gp_iters = 0;      ///< >0: cap total GP outer iterations (watchdog).
  double max_seconds = 0.0;  ///< >0: GP wall-clock budget in seconds (watchdog).
  bool skip_dp = false;
  bool profile = false;      ///< In-process profiler (also via RP_PROFILE env).
  bool verbose = false;
  bool show_map = false;     ///< Print the ASCII congestion map at the end.
  bool help = false;
  // Telemetry outputs (empty: disabled):
  std::string report_json;   ///< Structured run report (see core/run_report.hpp).
  std::string trace_json;    ///< Chrome trace-event flow trace.
  std::string progress_ndjson;  ///< Live NDJSON event stream: path, "-", "fd:N".
  std::string flight_json;   ///< Flight-recorder dump on error/crash/interrupt.
  // Spatial snapshots (see core/snapshot.hpp):
  std::string snapshot_dir;  ///< Heatmaps + convergence history directory.
  int snapshot_every = 0;    ///< >0: finest-level density map every N outers.
  bool snapshot_svg = false; ///< Also render SVG heatmaps.
};

/// Parse argv (excluding argv[0]). Throws std::runtime_error on unknown or
/// malformed options.
CliConfig parse_cli_args(const std::vector<std::string>& args);

/// Usage text.
std::string cli_usage();

/// Build FlowOptions from a parsed config.
FlowOptions cli_flow_options(const CliConfig& cfg);

/// Execute: load/generate, place, report, write the .pl.
/// Returns a process exit code following the documented contract:
///   0 = legal placement produced, 1 = flow completed but result not legal,
///   2 = CLI usage error, 3 = ParseError, 4 = ValidationError,
///   5 = NumericError, 6 = ResourceError, 7 = Interrupted (SIGINT/SIGTERM
///   acknowledged at a safe point — see util/error.hpp).
/// On an rp::Error the run report (if requested) is still written, with an
/// "error" block recording code/message/where/stage/exit_code, and the
/// flight recorder (if --flight-json is set) is dumped.
///
/// The run observes into its OWN ObsContext (created here, bound for the
/// call, named as the crash handler's dump source), so run_cli is re-entrant
/// with respect to observability state.
int run_cli(const CliConfig& cfg);

}  // namespace rp
