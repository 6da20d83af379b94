#include "util/numeric.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace dn {

bool almost_equal(double a, double b, double rtol, double atol) {
  return std::abs(a - b) <= atol + rtol * std::max(std::abs(a), std::abs(b));
}

double interp1(std::span<const double> xs, std::span<const double> ys, double x) {
  assert(xs.size() == ys.size());
  if (xs.empty()) throw std::invalid_argument("interp1: empty table");
  if (x <= xs.front()) return ys.front();
  if (x >= xs.back()) return ys.back();
  const auto it = std::upper_bound(xs.begin(), xs.end(), x);
  const std::size_t i = static_cast<std::size_t>(it - xs.begin());
  return lerp(xs[i - 1], ys[i - 1], xs[i], ys[i], x);
}

double interp2(std::span<const double> xs, std::span<const double> ys,
               std::span<const double> z, double x, double y) {
  const std::size_t nx = xs.size();
  const std::size_t ny = ys.size();
  if (nx == 0 || ny == 0 || z.size() != nx * ny)
    throw std::invalid_argument("interp2: bad table shape");
  const double xc = std::clamp(x, xs.front(), xs.back());
  const double yc = std::clamp(y, ys.front(), ys.back());
  auto bracket = [](std::span<const double> v, double q) {
    std::size_t i = static_cast<std::size_t>(
        std::upper_bound(v.begin(), v.end(), q) - v.begin());
    if (i == 0) i = 1;
    if (i >= v.size()) i = v.size() - 1;
    return i;
  };
  if (nx == 1 && ny == 1) return z[0];
  if (nx == 1) {
    const std::size_t i = bracket(ys, yc);
    return lerp(ys[i - 1], z[(i - 1)], ys[i], z[i], yc);
  }
  if (ny == 1) {
    const std::size_t j = bracket(xs, xc);
    return lerp(xs[j - 1], z[j - 1], xs[j], z[j], xc);
  }
  const std::size_t j = bracket(xs, xc);
  const std::size_t i = bracket(ys, yc);
  const double z00 = z[(i - 1) * nx + (j - 1)];
  const double z01 = z[(i - 1) * nx + j];
  const double z10 = z[i * nx + (j - 1)];
  const double z11 = z[i * nx + j];
  const double zl = lerp(xs[j - 1], z00, xs[j], z01, xc);
  const double zh = lerp(xs[j - 1], z10, xs[j], z11, xc);
  return lerp(ys[i - 1], zl, ys[i], zh, yc);
}

std::optional<double> bisect(const std::function<double(double)>& f, double lo,
                             double hi, double xtol, int max_iter) {
  double flo = f(lo);
  double fhi = f(hi);
  if (flo == 0.0) return lo;
  if (fhi == 0.0) return hi;
  if ((flo > 0) == (fhi > 0)) return std::nullopt;
  for (int it = 0; it < max_iter && (hi - lo) > xtol; ++it) {
    const double mid = 0.5 * (lo + hi);
    const double fm = f(mid);
    if (fm == 0.0) return mid;
    if ((fm > 0) == (flo > 0)) {
      lo = mid;
      flo = fm;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

double golden_min(const std::function<double(double)>& f, double lo, double hi,
                  double xtol, int max_iter) {
  constexpr double kInvPhi = 0.6180339887498949;
  double a = lo, b = hi;
  double x1 = b - kInvPhi * (b - a);
  double x2 = a + kInvPhi * (b - a);
  double f1 = f(x1), f2 = f(x2);
  for (int it = 0; it < max_iter && (b - a) > xtol; ++it) {
    if (f1 < f2) {
      b = x2;
      x2 = x1;
      f2 = f1;
      x1 = b - kInvPhi * (b - a);
      f1 = f(x1);
    } else {
      a = x1;
      x1 = x2;
      f1 = f2;
      x2 = a + kInvPhi * (b - a);
      f2 = f(x2);
    }
  }
  return 0.5 * (a + b);
}

double trapz(std::span<const double> xs, std::span<const double> ys) {
  assert(xs.size() == ys.size());
  double acc = 0.0;
  for (std::size_t i = 1; i < xs.size(); ++i)
    acc += 0.5 * (ys[i] + ys[i - 1]) * (xs[i] - xs[i - 1]);
  return acc;
}

std::optional<double> newton_fd(const std::function<double(double)>& f, double x0,
                                double h, double ftol, int max_iter) {
  double x = x0;
  for (int it = 0; it < max_iter; ++it) {
    const double fx = f(x);
    if (std::abs(fx) < ftol) return x;
    const double dfdx = (f(x + h) - f(x - h)) / (2 * h);
    if (dfdx == 0.0 || !std::isfinite(dfdx)) return std::nullopt;
    double step = fx / dfdx;
    // Damp huge steps; keeps the iteration inside sane territory.
    const double max_step = 1e3 * h + 0.5 * std::abs(x);
    if (std::abs(step) > max_step) step = std::copysign(max_step, step);
    x -= step;
    if (!std::isfinite(x)) return std::nullopt;
  }
  return std::abs(f(x)) < ftol * 100 ? std::optional<double>(x) : std::nullopt;
}

std::vector<double> linspace(double lo, double hi, int n) {
  if (n < 2) throw std::invalid_argument("linspace: n must be >= 2");
  std::vector<double> v(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) v[static_cast<std::size_t>(i)] = lo + (hi - lo) * i / (n - 1);
  return v;
}

std::vector<double> logspace(double lo, double hi, int n) {
  if (lo <= 0 || hi <= 0) throw std::invalid_argument("logspace: bounds must be > 0");
  if (n < 2) throw std::invalid_argument("logspace: n must be >= 2");
  std::vector<double> v(static_cast<std::size_t>(n));
  const double llo = std::log(lo), lhi = std::log(hi);
  for (int i = 0; i < n; ++i)
    v[static_cast<std::size_t>(i)] = std::exp(llo + (lhi - llo) * i / (n - 1));
  return v;
}

}  // namespace dn
