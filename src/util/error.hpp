#pragma once
// Structured error taxonomy for the whole pipeline.
//
// Every fatal condition the placer can hit is classified into one of four
// codes, each mapped to a stable process exit code (the contract CI and
// serving wrappers key on; see README "Error handling & exit codes"):
//
//   code              exit   raised by
//   ParseError          3    Bookshelf reader: malformed/truncated input
//   ValidationError     4    Design::finalize / legality: consistent files
//                            describing an unplaceable or contradictory design
//   NumericError        5    guard rails: NaN/Inf escaping the solver after
//                            the restore-and-retry path was exhausted
//   ResourceError       6    environment: unopenable/unwritable files
//   Interrupted         7    SIGINT/SIGTERM: cooperative cancellation — the
//                            flow polled obs::check_interrupt() and unwound;
//                            a partial run report and flight dump are written
//
// Exit codes 0 (legal placement), 1 (flow completed, placement not legal) and
// 2 (CLI usage error) predate the taxonomy and are unchanged.
//
// An Error carries machine-readable context next to the human message:
// `where` is the failing location — input `file:line` for parse errors, the
// C++ source `file:line` otherwise — and `stage` is the pipeline stage that
// was executing ("parse", "global/level2", "legal", ...). Both land in the run
// report's "error" block so a failed run is diagnosable from the report
// alone. Use RP_THROW for source-located throws; BsReader::fail() builds the
// input-located ParseErrors.

#include <stdexcept>
#include <string>

namespace rp {

enum class ErrorCode {
  ParseError,       ///< Malformed input file.
  ValidationError,  ///< Well-formed input describing an invalid design.
  NumericError,     ///< Non-finite values survived graceful degradation.
  ResourceError,    ///< Files/limits: cannot open, cannot write.
  Interrupted,      ///< SIGINT/SIGTERM acknowledged at a safe point.
};

/// Stable name for a code ("ParseError", ...). Never returns null.
const char* error_code_name(ErrorCode code);

/// Process exit code for a code (3..7; see the table above).
int error_exit_code(ErrorCode code);

/// The one exception type the pipeline throws for classified failures.
/// Derives from std::runtime_error so pre-taxonomy catch sites keep working.
class Error : public std::runtime_error {
 public:
  Error(ErrorCode code, std::string message, std::string where = {},
        std::string stage = {});

  ErrorCode code() const { return code_; }
  const char* code_name() const { return error_code_name(code_); }
  int exit_code() const { return error_exit_code(code_); }

  /// Failing location, "file:line" (input file for ParseError, source
  /// file otherwise). May be empty.
  const std::string& where() const { return where_; }

  /// Pipeline stage executing at throw time; annotated by the flow's catch
  /// sites when the throw site did not know it.
  const std::string& stage() const { return stage_; }
  void set_stage(const std::string& s) { if (stage_.empty()) stage_ = s; }

  /// The message without the "[Code] where:" prefix what() carries.
  const std::string& message() const { return message_; }

 private:
  ErrorCode code_;
  std::string message_;
  std::string where_;
  std::string stage_;
};

namespace detail {
/// "path/to/file.cpp" -> "file.cpp" (keep run reports machine-independent).
std::string_view error_basename(std::string_view path);
}  // namespace detail

}  // namespace rp

/// Throw an rp::Error carrying the C++ source location as `where`.
#define RP_THROW(code, msg)                                             \
  throw ::rp::Error(                                                    \
      (code), (msg),                                                    \
      std::string(::rp::detail::error_basename(__FILE__)) + ":" +      \
          std::to_string(__LINE__))
