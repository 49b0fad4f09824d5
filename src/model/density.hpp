#pragma once
// Bin-based density model with the NTUplace bell-shaped potential.
//
// The die is divided into nx × ny bins. Every movable node v spreads its
// (inflated) area over nearby bins through a smooth, C1 "bell" potential
// px(d)·py(d) whose support extends two bins beyond the node edge, normalized
// so the node contributes exactly area(v)·inflate(v) in total. The penalty is
//
//     N(x, y) = Σ_b ( max(0, D_b - C_b) )²
//
// where C_b is the bin capacity: target_density × (bin free area), with the
// free area reduced by exactly-rasterized fixed objects, and optionally
// scaled per-bin (the narrow-channel handler derates channel bins).
//
// overflow() reports the standard total-density-overflow metric computed
// with EXACT rectangle rasterization (not the smoothed potential), so it is
// comparable across bin sizes and placers.

#include <span>

#include "model/problem.hpp"
#include "util/grid.hpp"

namespace rp {

struct DensityConfig {
  int nx = 0;                   ///< 0 = auto (~sqrt of movable count, power of 2).
  int ny = 0;
  double target_density = 1.0;  ///< Allowed area fraction of each bin's free space.
};

class DensityModel {
 public:
  DensityModel(const PlaceProblem& p, const DensityConfig& cfg);

  /// Penalty value; accumulates d(penalty)/dx into gx/gy (movable nodes
  /// only). Exactly value(p) followed by gradient(p, gx, gy).
  double eval(const PlaceProblem& p, std::span<double> gx, std::span<double> gy);

  /// Penalty value alone (pass 1: smoothed density, bin residuals, penalty).
  /// Keeps the per-node normalizations and the residual grid for gradient().
  double value(const PlaceProblem& p);

  /// Pass 2: accumulates d(penalty)/dx into gx/gy at the placement of the
  /// last value() call, from the state that call left (p must still hold
  /// that placement).
  void gradient(const PlaceProblem& p, std::span<double> gx, std::span<double> gy);

  /// Exact total overflow: Σ_b (rasterized_D_b - C_b)^+ / movable area.
  double overflow(const PlaceProblem& p) const;

  /// Exact rasterized movable-density grid (area per bin, incl. inflation).
  Grid2D<double> rasterized_density(const PlaceProblem& p) const;

  const GridMap& grid() const { return grid_; }
  /// Per-bin capacity (free area × target density × scale).
  const Grid2D<double>& capacity() const { return cap_; }

  /// Multiply each bin's capacity by scale(b) in [0,1]; used by the
  /// narrow-channel handler to keep cells out of tight macro channels.
  void apply_capacity_scale(const Grid2D<double>& scale);

  /// Rebuild fixed-area map & capacities (after fixed nodes moved, e.g. when
  /// macros get legalized and frozen).
  void rebuild_fixed(const PlaceProblem& p);

 private:
  GridMap grid_;
  std::vector<double> xc_, yc_;  ///< Bin center coordinates (hot-loop cache).
  double target_density_ = 1.0;
  Grid2D<double> fixed_area_;  ///< Exact fixed-object area per bin.
  Grid2D<double> cap_;         ///< Capacity per bin.
  Grid2D<double> scale_;       ///< External capacity scaling (default 1).
  Grid2D<double> dens_;        ///< Scratch: smoothed density per bin.
  Grid2D<double> resid_;       ///< (D-C)^+ per bin (value → gradient).
  // Parallel pass-1 scratch: one accumulation grid per node CHUNK (chunking
  // depends only on the node count, so the chunk-ordered reduction into
  // dens_ is bitwise identical for any thread count).
  std::vector<Grid2D<double>> chunk_dens_;
  std::vector<double> csum_;   ///< Per-node bell normalization (value → gradient).

  // Per-worker row buffers for the dispatched simd kernels: each node's
  // bell potential (and derivative) is sampled once per grid ROW into these
  // and applied with batched sum/axpy/dot — cache-blocked by construction
  // since Grid2D rows are contiguous in ix.
  struct RowScratch {
    std::vector<double> px, dpx;
    void ensure(std::size_t n) {
      if (px.size() < n) {
        px.resize(n);
        dpx.resize(n);
      }
    }
  };
  std::vector<RowScratch> row_scratch_;

  void rebuild_capacity();
};

/// Choose a bin-grid edge count for n movable objects (power of two,
/// clamped to [8, 1024]).
int auto_bin_count(int num_movable);

}  // namespace rp
