#include "core/composite_pulse.hpp"

#include <cmath>
#include <stdexcept>

namespace dn {

namespace {

CompositeAlignment compose(const SuperpositionEngine& eng,
                           double victim_holding_r,
                           const std::vector<double>& shifts,
                           const std::vector<char>* active) {
  CompositeAlignment out;
  out.shifts = shifts;
  if (active) out.active = *active;
  out.at_sink = eng.composite_noise_at_sink(shifts, victim_holding_r, active);
  out.params = measure_pulse(out.at_sink);
  return out;
}

}  // namespace

CompositeAlignment align_aggressor_peaks(const SuperpositionEngine& eng,
                                         double victim_holding_r,
                                         const std::vector<char>* active) {
  const std::size_t n = eng.net().aggressors.size();
  if (n == 0)
    throw std::invalid_argument("align_aggressor_peaks: no aggressors");
  if (active && active->size() != n)
    throw std::invalid_argument("align_aggressor_peaks: wrong mask size");

  // Find each aggressor's peak; anchor everyone on the largest pulse.
  std::vector<double> peak_t(n, 0.0);
  std::size_t anchor = n;
  double anchor_mag = -1.0;
  for (std::size_t k = 0; k < n; ++k) {
    if (active && !(*active)[k]) continue;
    const auto& w =
        eng.aggressor_noise(static_cast<int>(k), victim_holding_r).at_sink;
    const auto pk = w.peak(0.0);
    peak_t[k] = pk.t;
    if (std::abs(pk.value) > anchor_mag) {
      anchor_mag = std::abs(pk.value);
      anchor = k;
    }
  }
  if (anchor == n)
    throw std::invalid_argument("align_aggressor_peaks: no active aggressor");
  std::vector<double> shifts(n, 0.0);
  for (std::size_t k = 0; k < n; ++k) {
    if (active && !(*active)[k]) continue;
    shifts[k] = peak_t[anchor] - peak_t[k];
  }
  return compose(eng, victim_holding_r, shifts, active);
}

CompositeAlignment align_with_skew(const SuperpositionEngine& eng,
                                   double victim_holding_r, int k,
                                   double extra_shift) {
  CompositeAlignment aligned = align_aggressor_peaks(eng, victim_holding_r);
  if (k < 0 || static_cast<std::size_t>(k) >= aligned.shifts.size())
    throw std::out_of_range("align_with_skew: bad aggressor index");
  std::vector<double> shifts = aligned.shifts;
  shifts[static_cast<std::size_t>(k)] += extra_shift;
  return compose(eng, victim_holding_r, shifts, nullptr);
}

}  // namespace dn
