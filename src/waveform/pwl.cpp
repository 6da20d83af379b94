#include "waveform/pwl.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/numeric.hpp"

namespace dn {

Pwl::Pwl(std::vector<double> times, std::vector<double> values)
    : times_(std::move(times)), values_(std::move(values)) {
  check_invariants();
}

void Pwl::check_invariants() const {
  if (times_.size() != values_.size())
    throw std::invalid_argument("Pwl: times/values size mismatch");
  for (std::size_t i = 1; i < times_.size(); ++i)
    if (!(times_[i] > times_[i - 1]))
      throw std::invalid_argument("Pwl: time axis not strictly increasing");
  for (double t : times_)
    if (!std::isfinite(t)) throw std::invalid_argument("Pwl: non-finite time");
  for (double v : values_)
    if (!std::isfinite(v)) throw std::invalid_argument("Pwl: non-finite value");
}

Pwl Pwl::ramp(double t0, double trans, double low, double high) {
  if (trans <= 0) throw std::invalid_argument("Pwl::ramp: trans must be > 0");
  return Pwl({t0, t0 + trans}, {low, high});
}

Pwl Pwl::constant(double level, double t0, double t1) {
  if (!(t1 > t0)) throw std::invalid_argument("Pwl::constant: t1 <= t0");
  return Pwl({t0, t1}, {level, level});
}

double Pwl::at(double t) const {
  if (times_.empty()) return 0.0;
  if (t <= times_.front()) return values_.front();
  if (t >= times_.back()) return values_.back();
  const auto it = std::upper_bound(times_.begin(), times_.end(), t);
  const std::size_t i = static_cast<std::size_t>(it - times_.begin());
  return lerp(times_[i - 1], values_[i - 1], times_[i], values_[i], t);
}

double Pwl::at_hint(double t, std::size_t& cursor) const {
  if (times_.empty()) return 0.0;
  if (t <= times_.front()) return values_.front();
  if (t >= times_.back()) return values_.back();
  // The containing segment index i satisfies times_[i-1] <= t < times_[i]
  // (exactly upper_bound's answer on a strictly increasing axis).
  std::size_t i = cursor;
  const std::size_t n = times_.size();
  if (i < 1 || i >= n || t < times_[i - 1] || t >= times_[i]) {
    if (i >= 1 && i + 1 < n && t >= times_[i] && t < times_[i + 1]) {
      ++i;  // Monotone stepping: the next segment.
    } else {
      const auto it = std::upper_bound(times_.begin(), times_.end(), t);
      i = static_cast<std::size_t>(it - times_.begin());
    }
  }
  cursor = i;
  return lerp(times_[i - 1], values_[i - 1], times_[i], values_[i], t);
}

namespace {

/// Pwl::at() over raw (times, values) arrays for a non-decreasing sequence
/// of query times. The segment index only moves forward, so a sweep over
/// a grid costs O(grid + knots) instead of a binary search per query.
/// Each query finds the same segment upper_bound would and applies the
/// same boundary clamps and lerp, so every value is bit-identical to at().
/// `times` may repeat a value (a shifted grid whose knots rounded
/// together); the upper_bound segment is still the one found.
class ForwardCursor {
 public:
  ForwardCursor(std::span<const double> times, std::span<const double> values)
      : t_(times), v_(values) {}

  double at(double t) {
    if (t_.empty()) return 0.0;
    if (t <= t_.front()) return v_.front();
    if (t >= t_.back()) return v_.back();
    // t_.front() < t < t_.back(), so the scan stops at a valid i_ <= size-1.
    while (t_[i_] <= t) ++i_;
    return lerp(t_[i_ - 1], v_[i_ - 1], t_[i_], v_[i_], t);
  }

 private:
  std::span<const double> t_, v_;
  std::size_t i_ = 1;  // First knot after the last interior query.
};

/// Sorted union of two non-decreasing time axes in one pass: the output
/// of std::merge followed by std::unique. On a tie the left operand's
/// knot is kept, and repeated values within one axis collapse as well.
std::vector<double> merge_grids(std::span<const double> a,
                                std::span<const double> b) {
  std::vector<double> out;
  out.reserve(a.size() + b.size());
  std::size_t i = 0, j = 0;
  while (i < a.size() || j < b.size()) {
    // std::merge takes from the right only when it is strictly smaller.
    const double t =
        (j == b.size() || (i < a.size() && !(b[j] < a[i]))) ? a[i++] : b[j++];
    if (out.empty() || !(out.back() == t)) out.push_back(t);
  }
  return out;
}

/// `op(a(t), b(t))` at every knot of the merged grid of two non-empty
/// operands, both evaluated with forward cursors.
template <class Op>
Pwl merge_combine(std::span<const double> ta, std::span<const double> va,
                  std::span<const double> tb, std::span<const double> vb,
                  Op op) {
  std::vector<double> grid = merge_grids(ta, tb);
  std::vector<double> vals(grid.size());
  ForwardCursor ca(ta, va), cb(tb, vb);
  for (std::size_t i = 0; i < grid.size(); ++i)
    vals[i] = op(ca.at(grid[i]), cb.at(grid[i]));
  return Pwl(std::move(grid), std::move(vals));
}

}  // namespace

Pwl Pwl::operator+(const Pwl& rhs) const {
  if (empty()) return rhs;
  if (rhs.empty()) return *this;
  return merge_combine(times_, values_, rhs.times_, rhs.values_,
                       [](double a, double b) { return a + b; });
}

Pwl Pwl::add_shifted(const Pwl& rhs, double dt) const {
  if (empty()) return rhs.shifted(dt);
  if (rhs.empty()) return *this;
  // Same additions shifted() would perform, without the values copy or
  // the intermediate Pwl's invariant pass.
  std::vector<double> st(rhs.times_.begin(), rhs.times_.end());
  for (double& t : st) t += dt;
  return merge_combine(times_, values_, st, rhs.values_,
                       [](double a, double b) { return a + b; });
}

Pwl Pwl::operator-(const Pwl& rhs) const {
  if (empty()) return rhs.scaled(-1.0);
  if (rhs.empty()) return *this;
  return merge_combine(times_, values_, rhs.times_, rhs.values_,
                       [](double a, double b) { return a - b; });
}

Pwl Pwl::scaled(double s) const {
  Pwl out = *this;
  for (double& v : out.values_) v *= s;
  return out;
}

Pwl Pwl::shifted(double dt) const {
  Pwl out = *this;
  for (double& t : out.times_) t += dt;
  return out;
}

Pwl Pwl::resampled(double t0, double t1, int n) const {
  if (n < 2) throw std::invalid_argument("Pwl::resampled: n < 2");
  std::vector<double> ts = linspace(t0, t1, n);
  std::vector<double> vs(ts.size());
  // linspace is non-decreasing, so one forward cursor serves the sweep
  // (a reversed or degenerate span is rejected by the constructor below).
  ForwardCursor c(times_, values_);
  for (std::size_t i = 0; i < ts.size(); ++i) vs[i] = c.at(ts[i]);
  return Pwl(std::move(ts), std::move(vs));
}

Pwl Pwl::clipped(double t0, double t1) const {
  if (!(t1 > t0)) throw std::invalid_argument("Pwl::clipped: t1 <= t0");
  std::vector<double> ts, vs;
  ts.push_back(t0);
  vs.push_back(at(t0));
  for (std::size_t i = 0; i < times_.size(); ++i) {
    if (times_[i] > t0 && times_[i] < t1) {
      ts.push_back(times_[i]);
      vs.push_back(values_[i]);
    }
  }
  ts.push_back(t1);
  vs.push_back(at(t1));
  return Pwl(std::move(ts), std::move(vs));
}

std::optional<double> Pwl::crossing(double level, std::optional<bool> rising,
                                    double t_from) const {
  for (std::size_t i = 1; i < times_.size(); ++i) {
    const double v0 = values_[i - 1], v1 = values_[i];
    if (times_[i] < t_from) continue;
    const bool up = v1 > v0;
    if (rising && *rising != up) continue;
    const bool crosses = (v0 - level) * (v1 - level) <= 0.0 && v0 != v1;
    if (!crosses) continue;
    const double tc = times_[i - 1] +
                      (level - v0) / (v1 - v0) * (times_[i] - times_[i - 1]);
    if (tc >= t_from) return tc;
  }
  return std::nullopt;
}

std::optional<double> Pwl::last_crossing(double level,
                                         std::optional<bool> rising) const {
  std::optional<double> found;
  for (std::size_t i = 1; i < times_.size(); ++i) {
    const double v0 = values_[i - 1], v1 = values_[i];
    const bool up = v1 > v0;
    if (rising && *rising != up) continue;
    if ((v0 - level) * (v1 - level) <= 0.0 && v0 != v1)
      found = times_[i - 1] +
              (level - v0) / (v1 - v0) * (times_[i] - times_[i - 1]);
  }
  return found;
}

Pwl::Peak Pwl::peak(double baseline) const {
  Peak p;
  if (empty()) return p;
  double best = -1.0;
  for (std::size_t i = 0; i < times_.size(); ++i) {
    const double dev = std::abs(values_[i] - baseline);
    if (dev > best) {
      best = dev;
      p.t = times_[i];
      p.value = values_[i];
    }
  }
  return p;
}

double Pwl::width_at_fraction(double frac, double baseline) const {
  if (empty()) return 0.0;
  const Peak p = peak(baseline);
  const double level = baseline + frac * (p.value - baseline);
  if (p.value == baseline) return 0.0;
  // Latest crossing at/before the peak (leading edge) and first crossing
  // at/after it (trailing edge).
  std::optional<double> t_lead, t_trail;
  for (std::size_t i = 1; i < times_.size(); ++i) {
    const double v0 = values_[i - 1], v1 = values_[i];
    if ((v0 - level) * (v1 - level) <= 0.0 && v0 != v1) {
      const double tc = times_[i - 1] +
                        (level - v0) / (v1 - v0) * (times_[i] - times_[i - 1]);
      if (tc <= p.t) t_lead = tc;
      if (tc >= p.t && !t_trail) t_trail = tc;
    }
  }
  if (!t_lead || !t_trail) return 0.0;
  return *t_trail - *t_lead;
}

std::optional<double> Pwl::slew(double v_low, double v_high, double lo_frac,
                                double hi_frac) const {
  if (empty()) return std::nullopt;
  const double span = v_high - v_low;
  const double a = v_low + lo_frac * span;
  const double b = v_low + hi_frac * span;
  const bool rising = values_.back() > values_.front();
  const auto ta = crossing(rising ? a : b, rising);
  const auto tb = crossing(rising ? b : a, rising);
  if (!ta || !tb) return std::nullopt;
  return std::abs(*tb - *ta);
}

double Pwl::integral() const {
  return trapz(times_, values_);
}

double Pwl::min_value() const {
  if (empty()) return 0.0;
  return *std::min_element(values_.begin(), values_.end());
}

double Pwl::max_value() const {
  if (empty()) return 0.0;
  return *std::max_element(values_.begin(), values_.end());
}

}  // namespace dn
