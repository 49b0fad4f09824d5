#pragma once
// Test-side adapter: the CG solver takes its objective as a value/gradient
// pair, while small test functions are easiest to write fused, as
// f(z, g) -> value that fills g. fused(f) runs f in value() and keeps the
// gradient it wrote; gradient() hands out the one of the last value() call,
// which is exactly the contract the solver relies on.

#include <algorithm>
#include <memory>
#include <span>
#include <vector>

#include "solver/cg.hpp"

namespace rp {

template <typename F>
CgObjective fused(F f) {
  auto last = std::make_shared<std::vector<double>>();
  return CgObjective{[f, last](std::span<const double> z) {
                       last->resize(z.size());
                       return f(z, std::span<double>(*last));
                     },
                     [last](std::span<double> g) {
                       std::copy(last->begin(), last->end(), g.begin());
                     }};
}

}  // namespace rp
