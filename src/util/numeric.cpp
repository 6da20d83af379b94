#include "util/numeric.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>

namespace dn {

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

double trapz(std::span<const double> xs, std::span<const double> ys) {
  assert(xs.size() == ys.size());
  double acc = 0.0;
  for (std::size_t i = 1; i < xs.size(); ++i)
    acc += 0.5 * (ys[i] + ys[i - 1]) * (xs[i] - xs[i - 1]);
  return acc;
}

std::vector<double> linspace(double lo, double hi, int n) {
  if (n < 2) throw std::invalid_argument("linspace: n must be >= 2");
  std::vector<double> v(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) v[static_cast<std::size_t>(i)] = lo + (hi - lo) * i / (n - 1);
  return v;
}

}  // namespace dn
