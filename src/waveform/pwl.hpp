// Piecewise-linear voltage waveforms.
//
// Everything the delay-noise flow manipulates — driver transitions, noise
// pulses, superposed "noisy" waveforms — is a Pwl. The class keeps a
// strictly increasing time axis and linearly interpolates between samples;
// outside the sampled range the boundary value is held (signals are assumed
// settled before the first and after the last sample).
#pragma once

#include <optional>
#include <span>
#include <vector>

namespace dn {

class Pwl {
 public:
  Pwl() = default;

  /// From parallel (times, values) arrays; times must be strictly increasing.
  Pwl(std::vector<double> times, std::vector<double> values);

  /// Saturated ramp: `low` before t0, linear to `high` over `trans`, then held.
  /// `trans` is the full 0-100% transition time.
  static Pwl ramp(double t0, double trans, double low, double high);

  /// Constant level (two samples spanning [t0, t1]).
  static Pwl constant(double level, double t0 = 0.0, double t1 = 1.0);

  bool empty() const { return times_.empty(); }
  std::size_t size() const { return times_.size(); }
  std::span<const double> times() const { return times_; }
  std::span<const double> values() const { return values_; }
  double t_begin() const { return times_.front(); }
  double t_end() const { return times_.back(); }

  /// Value at time t (linear interpolation; clamped outside the range).
  double at(double t) const;

  /// at() with a caller-owned segment cursor. Transient stepping
  /// evaluates each source at near-monotone times, so the containing
  /// segment is almost always the cached one or its successor — O(1)
  /// instead of a binary search per call. Any cursor value is safe (it is
  /// validated and re-seeded on miss); results are bit-identical to at().
  double at_hint(double t, std::size_t& cursor) const;

  // -- Algebra (result sampled on the merged time grid) --------------------
  // +, - and add_shifted are one linear merge pass over both time axes;
  // each output value is bit-identical to at(t) of each operand combined
  // at that knot (pinned by the PwlFastPaths tests).
  Pwl operator+(const Pwl& rhs) const;
  /// Fused `*this + rhs.shifted(dt)` without materializing the shifted
  /// copy — one allocation for the shifted grid instead of a full
  /// intermediate Pwl. Bit-identical to the two-step form (pinned by
  /// test): the shifted times are computed with the same additions and
  /// the merge/interpolate pass performs the same operations.
  Pwl add_shifted(const Pwl& rhs, double dt) const;
  Pwl operator-(const Pwl& rhs) const;
  Pwl scaled(double s) const;
  Pwl shifted(double dt) const;           // Time shift (t -> t + dt).

  /// Resamples onto a uniform grid of n points spanning [t0, t1].
  Pwl resampled(double t0, double t1, int n) const;

  /// Clips to [t0, t1], inserting interpolated endpoints.
  Pwl clipped(double t0, double t1) const;

  // -- Measurements ---------------------------------------------------------
  /// First time the waveform crosses `level` moving in direction `rising`
  /// (any direction when `rising` is nullopt), searching from t_from.
  std::optional<double> crossing(double level, std::optional<bool> rising = {},
                                 double t_from = -1e300) const;

  /// Last crossing of `level` (any direction unless `rising` given).
  std::optional<double> last_crossing(double level,
                                      std::optional<bool> rising = {}) const;

  /// Extremum with largest |value - baseline| and its time.
  struct Peak {
    double t = 0.0;
    double value = 0.0;
  };
  Peak peak(double baseline = 0.0) const;

  /// Width of the pulse at `frac` of its peak deviation from baseline
  /// (e.g. frac=0.5 gives the full width at half maximum). Returns 0 when
  /// the waveform never reaches that level.
  double width_at_fraction(double frac, double baseline = 0.0) const;

  /// 10-90% transition time for a monotonic-ish edge between v_low/v_high
  /// (nullopt when the edge never crosses both levels, or is empty).
  std::optional<double> slew(double v_low, double v_high,
                             double lo_frac = 0.1, double hi_frac = 0.9) const;

  /// Integral over the full sampled range.
  double integral() const;

  /// Extremes over the samples (0 for the empty waveform, which behaves
  /// as the zero waveform throughout).
  double min_value() const;
  double max_value() const;

 private:
  void check_invariants() const;
  std::vector<double> times_;
  std::vector<double> values_;
};

}  // namespace dn
