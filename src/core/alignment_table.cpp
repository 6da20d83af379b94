#include "core/alignment_table.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <exception>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "util/metrics.hpp"
#include "util/numeric.hpp"
#include "util/table_store.hpp"
#include "util/thread_pool.hpp"

namespace dn {

namespace {

// 5: every GateParams field of the receiver (4 dropped the MOSFET
// prototypes' type, w and l).
constexpr int kFormatVersion = 5;

}  // namespace

AlignmentTable AlignmentTable::characterize(const GateParams& receiver,
                                            bool victim_rising,
                                            const AlignmentTableSpec& spec,
                                            ThreadPool* pool) {
  if (!(spec.slew_max > spec.slew_min) || !(spec.width_max > spec.width_min) ||
      !(spec.height_max_frac > spec.height_min_frac))
    throw std::invalid_argument("AlignmentTable: degenerate spec ranges");

  AlignmentTable tbl;
  tbl.spec_ = spec;
  tbl.receiver_ = receiver;
  tbl.victim_rising_ = victim_rising;

  const double vdd = receiver.vdd;
  const double slews[2] = {spec.slew_min, spec.slew_max};
  const double widths[2] = {spec.width_min, spec.width_max};
  const double heights[2] = {spec.height_min_frac * vdd,
                             spec.height_max_frac * vdd};

  // One independent exhaustive search per (slew, width, height) corner —
  // the unit of intra-table parallelism. Everything a corner touches is
  // derived from its own indices, so execution order cannot change any
  // corner's value.
  auto corner_value = [&](int si, int wi, int hi) -> double {
    // Canonical noiseless victim transition at the receiver input: a
    // saturated ramp far enough from t=0 for any pulse position.
    const double t_start = 2e-9;
    const Pwl ramp = victim_rising
                         ? Pwl::ramp(t_start, slews[si], 0.0, vdd)
                         : Pwl::ramp(t_start, slews[si], vdd, 0.0);
    // Delay-increasing noise opposes the transition direction.
    const double h = victim_rising ? -heights[hi] : heights[hi];
    const Pwl pulse = triangle_pulse(h, widths[wi], t_start);
    // Constrain the pulse peak to the transition itself: past the
    // settled rail the disturbance is functional noise, and a railed
    // alignment voltage cannot be mapped back onto real transitions.
    // Additionally cap at the [5] level Vdd/2 +- Vn: beyond it the dip
    // cannot reach the receiver threshold, so the "worst delay" there
    // is a re-trigger artifact, not delay noise.
    double t_last = t_start + slews[si];
    const double va_cap =
        victim_rising ? 0.5 * vdd + heights[hi] : 0.5 * vdd - heights[hi];
    if (const auto t_cap = ramp.crossing(va_cap, victim_rising))
      t_last = std::min(t_last, *t_cap);
    AlignmentSearchOptions search = spec.search;
    search.domain = ScanDomain::interval(t_start - 1.5 * widths[wi], t_last);
    const AlignmentResult worst = exhaustive_worst_alignment(
        ramp, pulse, receiver, spec.min_load, victim_rising, search);
    return worst.align_voltage;
  };

  // Corners write disjoint fixed slots; a failed corner parks its
  // exception and the lowest corner index wins the rethrow, so the
  // reported error never depends on completion order. Each corner opens
  // the fill protocol's thread-local scopes on the thread it runs on.
  std::array<std::exception_ptr, 8> errors{};
  const auto run_corner = [&](std::size_t c) {
    FillScope fill_scope;
    const int si = static_cast<int>(c >> 2) & 1;
    const int wi = static_cast<int>(c >> 1) & 1;
    const int hi = static_cast<int>(c) & 1;
    try {
      tbl.va_[si][wi][hi] = corner_value(si, wi, hi);
    } catch (...) {
      errors[c] = std::current_exception();
    }
  };
  if (pool)
    pool->parallel_for(8, run_corner);
  else
    for (std::size_t c = 0; c < 8; ++c) run_corner(c);
  for (const auto& e : errors)
    if (e) std::rethrow_exception(e);
  return tbl;
}

GateTableKey AlignmentTable::key() const {
  return gate_table_key(receiver_, victim_rising_, spec_.search.lte_tol,
                        spec_.search.stale_jacobian_iters);
}

double AlignmentTable::alignment_voltage(int si, int wi, int hi) const {
  if (si < 0 || si > 1 || wi < 0 || wi > 1 || hi < 0 || hi > 1)
    throw std::out_of_range("AlignmentTable::alignment_voltage");
  return va_[si][wi][hi];
}

double AlignmentTable::predict_peak_time(const Pwl& noiseless_sink,
                                         const PulseParams& pulse) const {
  // Bilinear interpolation of the alignment voltage in (width, height) at
  // each slew corner. Clamped — the table corners are the ranges the gate
  // was characterized over.
  const double w =
      std::clamp(pulse.width, spec_.width_min, spec_.width_max);
  const double h_raw = std::abs(pulse.height);
  const double h = std::clamp(h_raw, spec_.height_min_frac * receiver_.vdd,
                              spec_.height_max_frac * receiver_.vdd);
  const double tw = (w - spec_.width_min) / (spec_.width_max - spec_.width_min);
  const double th =
      (h - spec_.height_min_frac * receiver_.vdd) /
      ((spec_.height_max_frac - spec_.height_min_frac) * receiver_.vdd);

  double va_corner[2];
  for (int si = 0; si < 2; ++si) {
    const double v0 = va_[si][0][0] * (1 - th) + va_[si][0][1] * th;
    const double v1 = va_[si][1][0] * (1 - th) + va_[si][1][1] * th;
    va_corner[si] = v0 * (1 - tw) + v1 * tw;
  }

  // Map each corner's alignment voltage to a time on the ACTUAL victim
  // transition (paper: "we can always calculate the alignment time from
  // the alignment voltage and the victim transition time").
  double t_corner[2];
  for (int si = 0; si < 2; ++si) {
    // Clamp the voltage into the waveform's reachable range.
    const double lo = noiseless_sink.min_value();
    const double hi = noiseless_sink.max_value();
    const double margin = 1e-3 * receiver_.vdd;
    const double va = std::clamp(va_corner[si], lo + margin, hi - margin);
    const auto t = noiseless_sink.crossing(va, victim_rising_);
    if (!t)
      throw std::runtime_error(
          "AlignmentTable: victim transition never crosses the alignment "
          "voltage");
    t_corner[si] = *t;
  }

  // Linear interpolation of the alignment TIME in the victim slew.
  const auto slew10_90 = noiseless_sink.slew(
      std::min(noiseless_sink.values().front(), noiseless_sink.values().back()),
      std::max(noiseless_sink.values().front(), noiseless_sink.values().back()));
  const double slew_raw = slew10_90 ? *slew10_90 / 0.8 : spec_.slew_min;
  const double slew = std::clamp(slew_raw, spec_.slew_min, spec_.slew_max);
  static obs::Counter& c_clamped =
      obs::metrics().counter("alignment.table_clamped");
  if (w != pulse.width || h != h_raw || slew != slew_raw) c_clamped.add();
  const double ts =
      (slew - spec_.slew_min) / (spec_.slew_max - spec_.slew_min);
  return t_corner[0] * (1 - ts) + t_corner[1] * ts;
}

void AlignmentTable::save(std::ostream& os) const {
  os.precision(17);
  os << "dnoise-alignment-table " << kFormatVersion << '\n';
  write_gate(os, receiver_);
  os << (victim_rising_ ? 1 : 0) << '\n';
  os << spec_.slew_min << ' ' << spec_.slew_max << ' ' << spec_.width_min
     << ' ' << spec_.width_max << ' ' << spec_.height_min_frac << ' '
     << spec_.height_max_frac << ' ' << spec_.min_load << '\n';
  // The scalar search options: a table characterized under another grid
  // or sim accuracy is a different table. The scan domain is not
  // persisted, so a table loads with an unconstrained one.
  const AlignmentSearchOptions& q = spec_.search;
  os << q.coarse_points << ' ' << q.fine_points << ' ' << q.dt << ' '
     << q.lte_tol << ' ' << q.stale_jacobian_iters << ' '
     << (q.warm_start ? 1 : 0) << '\n';
  for (int si = 0; si < 2; ++si)
    for (int wi = 0; wi < 2; ++wi)
      for (int hi = 0; hi < 2; ++hi) os << va_[si][wi][hi] << ' ';
  os << '\n';
}

AlignmentTable AlignmentTable::load(std::istream& is) {
  std::string magic;
  int version = 0;
  is >> magic >> version;
  if (magic != "dnoise-alignment-table" || version != kFormatVersion)
    throw std::runtime_error("AlignmentTable: unrecognized table file");
  AlignmentTable tbl;
  tbl.receiver_ = read_gate(is);
  int rising = 0;
  is >> rising;
  tbl.victim_rising_ = rising != 0;
  is >> tbl.spec_.slew_min >> tbl.spec_.slew_max >> tbl.spec_.width_min >>
      tbl.spec_.width_max >> tbl.spec_.height_min_frac >>
      tbl.spec_.height_max_frac >> tbl.spec_.min_load;
  AlignmentSearchOptions& q = tbl.spec_.search;
  int warm_start = 0;
  is >> q.coarse_points >> q.fine_points >> q.dt >> q.lte_tol >>
      q.stale_jacobian_iters >> warm_start;
  q.warm_start = warm_start != 0;
  for (int si = 0; si < 2; ++si)
    for (int wi = 0; wi < 2; ++wi)
      for (int hi = 0; hi < 2; ++hi) is >> tbl.va_[si][wi][hi];
  if (!is) throw std::runtime_error("AlignmentTable: corrupt table file");
  return tbl;
}

}  // namespace dn
