#pragma once
// Differentiable wirelength models.
//
// HPWL is non-smooth; analytical placement replaces it per net and axis with
// a smooth approximation controlled by a smoothing parameter gamma:
//
//  * LSE (log-sum-exp):   gamma * (log Σ e^{x/γ} + log Σ e^{-x/γ})
//    Classic NTUplace3 model; always an OVER-estimate of HPWL.
//  * WA (weighted-average): Σ x e^{x/γ} / Σ e^{x/γ} - Σ x e^{-x/γ} / Σ e^{-x/γ}
//    (Hsu/Chang model) — an UNDER-estimate with strictly smaller absolute
//    error bound than LSE at the same γ (error ≤ γ·ln n for LSE vs ≤ γ/e·...).
//
// Both implementations subtract the per-net max/min before exponentiating,
// so they are numerically stable for any γ down to ~1e-3 of the die size.
//
// Evaluation is split in two passes so a caller can pay for the value alone:
//  * value(p) runs the per-net exps, returns the model value, and while the
//    exps are live writes each pin's dWL/d(pin coordinate) into the CSR's
//    pin_gx/pin_gy slots (elementwise, cheap; no per-net state is kept);
//  * gradient(gx, gy) is only the node gather of those slots, so it yields
//    the gradient at the placement of the LAST value() call. It ACCUMULATES
//    dWL/dx into gx/gy (callers zero them).
// eval() is exactly value() then gradient(). Gradients flow to every node,
// fixed included; the solver masks fixed nodes.
//
// Both passes are parallel through util/parallel on a CSR flattening of the
// netlist (model/netlist_csr.hpp): each net writes its per-pin gradients
// into pin-owned slots (race-free), the value is reduced in fixed chunk
// order, and the gather sums each node's pins in ascending pin order — so
// results are bitwise identical for any thread count. The CSR view and
// per-thread exp scratch live in the model and are rebuilt only when the
// problem shape (node/pin/net counts) changes; steady-state evals allocate
// nothing.

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "model/netlist_csr.hpp"
#include "model/problem.hpp"

namespace rp {

/// Per-thread exp scratch for one net axis (owned by the model, one slot
/// per pool thread, reused across nets and evals). prepare() sizes every
/// slot to the CSR's max net degree up front; ensure() revalidates at each
/// use so a model evaluated on a larger design through a reused ThreadPool
/// can never index past a stale capacity (the buffers only ever grow).
struct WlThreadScratch {
  std::vector<double> ep;   ///< e^{(c - max)/γ}
  std::vector<double> em;   ///< e^{(min - c)/γ}
  std::vector<double> arg;  ///< exp arguments (batched SIMD input)

  void ensure(std::size_t n) {
    if (ep.size() < n) {
      ep.resize(n);
      em.resize(n);
      arg.resize(n);
    }
  }
};

class WirelengthModel {
 public:
  virtual ~WirelengthModel() = default;
  virtual std::string name() const = 0;
  /// Smoothed wirelength + gradient accumulation: value(p), then
  /// gradient(gx, gy). gx/gy sized num_nodes.
  double eval(const PlaceProblem& p, std::span<double> gx, std::span<double> gy) const;
  /// Value pass: the smoothed wirelength; leaves per-pin gradients for
  /// gradient().
  virtual double value(const PlaceProblem& p) const = 0;
  /// Node gather: accumulates dWL/dx at the last value()'s placement into
  /// gx/gy (sized num_nodes of that problem).
  void gradient(std::span<double> gx, std::span<double> gy) const;

  virtual void set_gamma(double g) { gamma_ = g; }
  double gamma() const { return gamma_; }

 protected:
  double gamma_ = 1.0;

  /// CSR view of p, rebuilt when the problem shape changes; also sizes the
  /// per-thread scratch to the current pool width.
  NetlistCsr& prepare(const PlaceProblem& p) const;
  std::vector<WlThreadScratch>& scratch() const { return scratch_; }

 private:
  mutable NetlistCsr csr_;
  mutable bool csr_valid_ = false;
  mutable std::vector<WlThreadScratch> scratch_;
};

class LseWirelength final : public WirelengthModel {
 public:
  explicit LseWirelength(double gamma = 1.0) { gamma_ = gamma; }
  std::string name() const override { return "LSE"; }
  double value(const PlaceProblem& p) const override;
};

class WaWirelength final : public WirelengthModel {
 public:
  explicit WaWirelength(double gamma = 1.0) { gamma_ = gamma; }
  std::string name() const override { return "WA"; }
  double value(const PlaceProblem& p) const override;
};

std::unique_ptr<WirelengthModel> make_wirelength_model(const std::string& name,
                                                       double gamma);

}  // namespace rp
