#pragma once
// Incremental HPWL evaluation for single-cell moves and swaps.
//
// Detailed placement and legalization evaluate thousands of candidate moves
// per committed move; recomputing every touched net's bounding box from its
// full pin list makes each candidate cost O(Σ degree of nets on the cell).
// This evaluator caches, per net, the box extremes AND the second extremes
// per axis, so trialing one moved pin is O(1) per net: removing a pin at
// the minimum exposes the cached second-minimum (duplicates included), and
// min/max against the pin's new coordinate restores the box.
//
// Bitwise-identity contract (every value equals a full recompute over the
// pin lists with the cell moved — the mutate-and-measure reference):
//  * min/max are exact selection operations, so an incrementally updated
//    extreme is the SAME double a full recompute over the pin list yields.
//  * Cached per-net cost uses the exact expression chain of
//    Design::net_hpwl — max(0, hx-lx) + max(0, hy-ly), times Net::weight —
//    and trial/total sums add per-net terms in ascending-net order, exactly
//    like CostEval's recompute loop and Design::hpwl().
//  * Pin coordinates are always formed as (pos + size/2) + offset, matching
//    Design::pin_pos; trial positions use the identical expression.
// Nets where a moved cell holds several pins (or both cells of a swap) fall
// back to a full recompute of that one net with position overrides — the
// same arithmetic a mutate-and-measure recompute performs.
//
// set_cross_check(true) (or RP_CHECK_INCREMENTAL=1) verifies every cached
// and trialed value against a from-scratch recompute and aborts on the
// first bit mismatch — the reference leg of the determinism gate.

#include <span>
#include <vector>

#include "db/design.hpp"
#include "util/grid.hpp"

namespace rp {

class IncrementalEval {
 public:
  explicit IncrementalEval(const Design& d);

  /// Recompute every net box/cost from current positions.
  void rebuild();

  /// Σ over all nets of cached weight·HPWL, ascending net order — bitwise
  /// equal to Design::hpwl().
  double total_cost() const;

  /// The sorted unique nets touching cell c (precomputed once).
  std::span<const NetId> cell_nets(CellId c) const {
    const auto b = static_cast<std::size_t>(cell_net_off_[static_cast<std::size_t>(c)]);
    const auto e = static_cast<std::size_t>(cell_net_off_[static_cast<std::size_t>(c) + 1]);
    return {cell_net_ids_.data() + b, e - b};
  }

  /// Sorted unique union of two cells' nets, merged into `out` (reused
  /// scratch; no per-call allocation in steady state).
  void union_nets(CellId a, CellId b, std::vector<NetId>& out) const;

  /// Σ cached cost over a sorted net list (the "before" of a candidate).
  double nets_cost(std::span<const NetId> nets) const;

  /// Cost over cell c's nets with c trialed at lower-left `new_ll`
  /// (non-mutating; ascending net order).
  double trial_move(CellId c, Point new_ll) const;

  /// Cost over the net union of a and b with their positions exchanged
  /// (non-mutating; ascending net order). Caller passes the union list so
  /// the "before" sum and this share one merge.
  double trial_swap(CellId a, CellId b, std::span<const NetId> nets) const;

  /// Re-derive the cached boxes of the given nets from current positions
  /// (call after committing any move that touched them). Idempotent.
  void refresh_nets(std::span<const NetId> nets);
  void refresh_cell(CellId c) { refresh_nets(cell_nets(c)); }

  /// Exact per-bin occupancy of movable std cells on a grid — the DP-side
  /// diagnostic counterpart of the density model's rasterization; updated
  /// in O(bins touched) per committed move via occupancy_move().
  void build_occupancy(const GridMap& map);
  const Grid2D<double>& occupancy() const { return occ_; }
  void occupancy_move(CellId c, Point old_ll, Point new_ll);

  void set_cross_check(bool on) { cross_check_ = on; }
  bool cross_check() const { return cross_check_; }

 private:
  struct NetBox {
    double mnx, mxx, mny, mxy;      ///< Box extremes over pin coordinates.
    double mnx2, mxx2, mny2, mxy2;  ///< Second extremes (with multiplicity).
  };
  /// One (cell, net) incidence: the pin offset lets the O(1) path form the
  /// pin's coordinate from a trial center without touching the pin table.
  struct CellNet {
    NetId net;
    Point off;   ///< Pin offset from the cell center (valid when !multi).
    bool multi;  ///< Cell holds >1 pin on this net → per-net full fallback.
  };

  double compute_net(NetId n, NetBox* box) const;
  /// Net cost with up to two cells' centers overridden (full fallback).
  double recompute_override(NetId n, CellId ca, Point ctr_a, CellId cb,
                            Point ctr_b) const;
  double trial_net(const CellNet& e, double w, Point old_ctr, Point new_ctr,
                   CellId c) const;
  void check_trial(double got, NetId n, CellId ca, Point ctr_a, CellId cb,
                   Point ctr_b) const;

  const Design& d_;
  std::vector<double> cost_;    ///< Per net: weight · HPWL (0 for degree < 2).
  std::vector<NetBox> box_;
  std::vector<int> cell_net_off_;     ///< Cell → range in the two arrays below.
  std::vector<NetId> cell_net_ids_;   ///< Sorted unique nets per cell.
  std::vector<CellNet> cell_net_inc_; ///< Parallel incidence records.
  GridMap occ_map_{};
  Grid2D<double> occ_;
  bool has_occ_ = false;
  bool cross_check_ = false;
};

}  // namespace rp
