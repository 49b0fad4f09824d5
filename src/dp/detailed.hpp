#pragma once
// Detailed placement: legality-preserving local optimization of a legalized
// standard-cell placement.
//
// Three moves, applied in passes:
//  * GLOBAL SWAP — each cell computes its optimal region (median of its
//    nets' bounding boxes computed without the cell) and tries relocating
//    into a gap there, or swapping with an equal-width cell there, keeping
//    the move only if it lowers the cost.
//  * LOCAL REORDER — sliding window of w consecutive cells in a subrow; all
//    permutations are packed into the window span and the best is kept.
//  * INDEPENDENT-SET MATCHING — small sets of mutually disconnected,
//    equal-width cells are optimally re-assigned to their position slots by
//    a Hungarian solver (net independence makes per-cell costs separable).
//
// Cost = HPWL + congestion_weight × Σ pins-in-congested-tiles: passing a
// congestion map makes every move routability-aware (the flow's final DP
// pass does this; the baseline runs with weight 0).
//
// Relocation, swap and ISM candidates are scored by the incremental delta
// evaluator (model/incremental.hpp) — cached per-net costs for the "before"
// side, O(1)-per-net box updates for trials — without touching the design.
// Its values are bitwise those of a full recompute; RP_CHECK_INCREMENTAL=1
// checks every trial against one. The reorder pass measures permutations by
// moving the window's cells and recomputing its nets.

#include <optional>

#include "db/design.hpp"
#include "util/grid.hpp"
#include "util/rng.hpp"

namespace rp {

struct DetailedPlaceOptions {
  int passes = 2;
  int reorder_window = 3;
  bool enable_global_swap = true;
  bool enable_reorder = true;
  bool enable_ism = true;
  int ism_set_size = 8;
  double congestion_weight = 0.0;  ///< die-units penalty per unit congestion.
  std::uint64_t seed = 1;
};

struct DetailedPlaceStats {
  double hpwl_before = 0.0;
  double hpwl_after = 0.0;
  long swaps = 0;
  long relocations = 0;
  long reorders = 0;
  long ism_moves = 0;
  double improvement() const {
    return hpwl_before > 0 ? (hpwl_before - hpwl_after) / hpwl_before : 0.0;
  }
};

class DetailedPlacer {
 public:
  explicit DetailedPlacer(DetailedPlaceOptions opt = {}) : opt_(opt) {}

  /// Optionally make moves congestion-aware: map must cover the die.
  void set_congestion(GridMap map_geom, Grid2D<double> congestion);

  /// Run on a legalized design; preserves legality.
  DetailedPlaceStats run(Design& d);

 private:
  DetailedPlaceOptions opt_;
  std::optional<GridMap> cong_geom_;
  Grid2D<double> cong_;
};

}  // namespace rp
