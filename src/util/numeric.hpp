// Small numerical toolbox: root finding, interpolation, quadrature.
//
// These are the only numerics the rest of the library is allowed to
// hand-roll; everything else goes through matrix/ or waveform/.
#pragma once

#include <cmath>
#include <functional>
#include <optional>
#include <span>
#include <vector>

namespace dn {

/// True when every element is finite (no NaN/Inf). The simulators guard
/// each accepted step with this so numerical blow-ups surface as
/// kNumericError instead of propagating garbage into the report.
inline bool all_finite(std::span<const double> xs) noexcept {
  for (const double x : xs)
    if (!std::isfinite(x)) return false;
  return true;
}

/// Linear interpolation of y(x) through two points. Inline: the waveform
/// algebra calls it once per merged-grid knot.
inline double lerp(double x0, double y0, double x1, double y1, double x) {
  if (x1 == x0) return 0.5 * (y0 + y1);
  return y0 + (y1 - y0) * (x - x0) / (x1 - x0);
}

/// Bisection root finding of f on [lo, hi]; requires a sign change.
/// Returns std::nullopt if f(lo) and f(hi) have the same sign.
std::optional<double> bisect(const std::function<double(double)>& f, double lo,
                             double hi, double xtol = 1e-15, int max_iter = 200);

/// Trapezoidal integral of samples ys over abscissae xs (same length).
double trapz(std::span<const double> xs, std::span<const double> ys);

/// Evenly spaced grid of n points from lo to hi inclusive (n >= 2).
std::vector<double> linspace(double lo, double hi, int n);

}  // namespace dn
