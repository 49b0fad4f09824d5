#pragma once
// Wall-clock timing helpers for flow-stage runtime reporting.

#include <chrono>
#include <string>
#include <utility>
#include <vector>

namespace rp {

class Timer {
 public:
  Timer() { reset(); }
  void reset() { start_ = Clock::now(); }
  /// Elapsed wall time in seconds since construction / last reset().
  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Accumulated runtimes by stage path ("global/level0/routability").
///
/// The RP_SPANs of a run (util/obs_context.hpp) add into their context's
/// StageTimes under their composed paths; report() renders the tree, and
/// total() sums only the root stages (a child's time is already inside its
/// parent). add()/get() also work with plain names.
class StageTimes {
 public:
  void add(const std::string& stage, double sec);
  double get(const std::string& stage) const;
  /// Σ over root stages (names without '/'): wall-clock, not double-counted.
  double total() const;
  /// Tree-formatted breakdown, one stage per line, children indented.
  std::string report() const;
  /// Legacy one-line "name=1.23s ... total=…s" form (root stages only).
  std::string report_flat() const;

  /// What was added under `prefix/` ("" = everywhere) since `before`, an
  /// earlier copy of this object: each entry that grew, by how much, with
  /// the prefix stripped. A flow or GP run reads its own breakdown this way
  /// out of a context that also holds earlier work.
  StageTimes since(const StageTimes& before, const std::string& prefix) const;

  const std::vector<std::pair<std::string, double>>& entries() const { return stages_; }

 private:
  std::vector<std::pair<std::string, double>> stages_;
};

}  // namespace rp
