#include "model/objective.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/assert.hpp"
#include "util/profiler.hpp"

namespace rp {

PlacementObjective::PlacementObjective(PlaceProblem& p, WirelengthModel& wl,
                                       DensityModel& dens)
    : p_(p), wl_(wl), dens_(dens) {
  for (int v = 0; v < p.num_nodes(); ++v)
    if (!p.nodes[static_cast<std::size_t>(v)].fixed) movable_.push_back(v);
  gx_.resize(p.nodes.size());
  gy_.resize(p.nodes.size());
}

std::vector<double> PlacementObjective::pack() const {
  std::vector<double> z(static_cast<std::size_t>(dim()));
  const std::size_t m = movable_.size();
  for (std::size_t i = 0; i < m; ++i) {
    z[i] = p_.x[static_cast<std::size_t>(movable_[i])];
    z[m + i] = p_.y[static_cast<std::size_t>(movable_[i])];
  }
  return z;
}

void PlacementObjective::unpack(std::span<const double> z) {
  if (static_cast<int>(z.size()) != dim())
    throw std::runtime_error("objective unpack: dimension mismatch");
  valued_ = false;
  const std::size_t m = movable_.size();
  for (std::size_t i = 0; i < m; ++i) {
    p_.x[static_cast<std::size_t>(movable_[i])] = z[i];
    p_.y[static_cast<std::size_t>(movable_[i])] = z[m + i];
  }
  p_.clamp_to_die();
}

double PlacementObjective::eval(std::span<const double> z, std::span<double> grad) {
  const double f = value(z);
  gradient(grad);
  return f;
}

double PlacementObjective::value(std::span<const double> z) {
  RP_PROFILE_REGION("kernel/objective");
  unpack(z);
  last_wl_ = wl_.value(p_);
  last_density_ = lambda_ != 0.0 ? dens_.value(p_) : 0.0;
  valued_ = true;
  return last_wl_ + lambda_ * last_density_;
}

void PlacementObjective::gradient(std::span<double> grad) {
  RP_ASSERT(valued_, "objective gradient() without a preceding value()");
  RP_PROFILE_REGION("kernel/objective_grad");
  std::fill(gx_.begin(), gx_.end(), 0.0);
  std::fill(gy_.begin(), gy_.end(), 0.0);
  wl_.gradient(gx_, gy_);
  const std::size_t m = movable_.size();
  if (lambda_ != 0.0) {
    // Wirelength gradient packed first, then density added on top with λ.
    dx_.assign(p_.nodes.size(), 0.0);
    dy_.assign(p_.nodes.size(), 0.0);
    dens_.gradient(p_, dx_, dy_);
    for (std::size_t i = 0; i < m; ++i) {
      const auto v = static_cast<std::size_t>(movable_[i]);
      grad[i] = gx_[v] + lambda_ * dx_[v];
      grad[m + i] = gy_[v] + lambda_ * dy_[v];
    }
  } else {
    for (std::size_t i = 0; i < m; ++i) {
      const auto v = static_cast<std::size_t>(movable_[i]);
      grad[i] = gx_[v];
      grad[m + i] = gy_[v];
    }
  }
}

double PlacementObjective::balanced_lambda() {
  std::vector<double> wx(p_.nodes.size(), 0.0), wy(p_.nodes.size(), 0.0);
  std::vector<double> dx(p_.nodes.size(), 0.0), dy(p_.nodes.size(), 0.0);
  wl_.eval(p_, wx, wy);
  dens_.eval(p_, dx, dy);
  double nw = 0.0, nd = 0.0;
  for (const int v : movable_) {
    nw += std::abs(wx[static_cast<std::size_t>(v)]) + std::abs(wy[static_cast<std::size_t>(v)]);
    nd += std::abs(dx[static_cast<std::size_t>(v)]) + std::abs(dy[static_cast<std::size_t>(v)]);
  }
  return nd > 0 ? nw / nd : 1.0;
}

}  // namespace rp
