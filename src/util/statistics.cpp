#include "util/statistics.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace dn {

double mean(std::span<const double> v) {
  if (v.empty()) return 0.0;
  double acc = 0.0;
  for (double x : v) acc += x;
  return acc / static_cast<double>(v.size());
}

double max_of(std::span<const double> v) {
  if (v.empty()) throw std::invalid_argument("max_of: empty");
  return *std::max_element(v.begin(), v.end());
}

double percentile(std::span<const double> v, double p) {
  if (v.empty()) throw std::invalid_argument("percentile: empty");
  std::vector<double> s(v.begin(), v.end());
  std::sort(s.begin(), s.end());
  const double idx = std::clamp(p, 0.0, 100.0) / 100.0 *
                     static_cast<double>(s.size() - 1);
  const auto lo = static_cast<std::size_t>(idx);
  const auto hi = std::min(lo + 1, s.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return s[lo] * (1.0 - frac) + s[hi] * frac;
}

double median(std::span<const double> v) { return percentile(v, 50.0); }

double rms(std::span<const double> v) {
  if (v.empty()) return 0.0;
  double acc = 0.0;
  for (double x : v) acc += x * x;
  return std::sqrt(acc / static_cast<double>(v.size()));
}

ErrorStats error_stats(std::span<const double> model, std::span<const double> ref) {
  if (model.size() != ref.size())
    throw std::invalid_argument("error_stats: size mismatch");
  ErrorStats st;
  double sum_pct = 0.0, sum_abs = 0.0, sum_signed = 0.0;
  int n_pct = 0;
  for (std::size_t i = 0; i < model.size(); ++i) {
    const double err = model[i] - ref[i];
    sum_abs += std::abs(err);
    sum_signed += err;
    st.worst_abs = std::max(st.worst_abs, std::abs(err));
    if (err < 0) ++st.n_underestimate;
    if (ref[i] != 0.0) {
      const double pct = std::abs(err / ref[i]) * 100.0;
      sum_pct += pct;
      st.worst_abs_pct = std::max(st.worst_abs_pct, pct);
      ++n_pct;
    }
  }
  st.n = static_cast<int>(model.size());
  if (st.n > 0) {
    st.mean_abs = sum_abs / st.n;
    st.mean_signed = sum_signed / st.n;
  }
  if (n_pct > 0) st.mean_abs_pct = sum_pct / n_pct;
  return st;
}

}  // namespace dn
