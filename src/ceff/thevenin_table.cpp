#include "ceff/thevenin_table.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>

#include "rcnet/net.hpp"
#include "util/trace.hpp"

namespace dn {

namespace {

constexpr double kSlewMin = 10e-12;   // Default slew axis [s].
constexpr double kSlewMax = 1.6e-9;
constexpr double kLoadMin = 0.5e-15;  // Default load axis [F].
constexpr double kLoadMax = 700e-15;
constexpr double kAxisStep = 1.7;     // Ratio of neighboring axis points.
constexpr double kInputStart = 100e-12;  // Characterization input anchor.
constexpr int kFormatVersion = 3;  // 3: the gate and fit options too.

std::vector<double> geometric_axis(double lo, double hi) {
  std::vector<double> axis;
  for (double x = lo; x <= hi; x *= kAxisStep) axis.push_back(x);
  return axis;
}

/// Why `axis` cannot index a table, or nullptr when it can.
const char* axis_error(const std::vector<double>& axis) {
  if (axis.empty()) return "empty";
  for (std::size_t i = 0; i < axis.size(); ++i) {
    if (!std::isfinite(axis[i]) || !(axis[i] > 0.0))
      return "not finite and > 0";
    if (i > 0 && !(axis[i] > axis[i - 1])) return "not strictly increasing";
  }
  return nullptr;
}

/// Interpolation weights of q on `axis`: up to four (index, weight) pairs
/// summing to 1. Inside the axis, the quadratics through the three points
/// either side of q's segment, blended linearly across the segment: the
/// result is continuous, exact at grid points and exact for quadratics,
/// and needs no extra grid points. Off the axis q clamps to the nearest
/// end, or with `extrapolate` runs linearly along the end segment.
struct AxisWeights {
  std::array<std::size_t, 4> idx{};
  std::array<double, 4> w{};
  int n = 0;
  bool off = false;

  void add(std::size_t i, double wi) {
    idx[n] = i;
    w[n++] = wi;
  }
  /// Quadratic through axis[a], axis[a + 1], axis[a + 2], scaled by s.
  void add_quadratic(const std::vector<double>& axis, std::size_t a, double q,
                     double s) {
    for (std::size_t i = a; i < a + 3; ++i) {
      double wi = s;
      for (std::size_t j = a; j < a + 3; ++j)
        if (j != i) wi *= (q - axis[j]) / (axis[i] - axis[j]);
      add(i, wi);
    }
  }
};

AxisWeights axis_weights(const std::vector<double>& axis, double q,
                         bool extrapolate) {
  AxisWeights aw;
  const std::size_t n = axis.size();
  aw.off = q < axis.front() || q > axis.back();
  if (n == 1) {
    aw.add(0, 1.0);
    return aw;
  }
  if (!extrapolate) q = std::clamp(q, axis.front(), axis.back());
  const auto hi = static_cast<std::size_t>(
      std::upper_bound(axis.begin(), axis.end(), q) - axis.begin());
  const std::size_t lo = std::clamp<std::size_t>(hi, 1, n - 1) - 1;
  const double frac = (q - axis[lo]) / (axis[lo + 1] - axis[lo]);
  const bool left = lo >= 1, right = lo + 2 < n;
  if ((aw.off && extrapolate) || (!left && !right)) {
    aw.add(lo, 1.0 - frac);
    aw.add(lo + 1, frac);
  } else if (left && right) {
    AxisWeights l, r;
    l.add_quadratic(axis, lo - 1, q, 1.0 - frac);
    r.add_quadratic(axis, lo, q, frac);
    // Merge the shared points lo and lo + 1 into four weights.
    aw.add(lo - 1, l.w[0]);
    aw.add(lo, l.w[1] + r.w[0]);
    aw.add(lo + 1, l.w[2] + r.w[1]);
    aw.add(lo + 2, r.w[2]);
  } else {
    aw.add_quadratic(axis, left ? lo - 1 : lo, q, 1.0);
  }
  return aw;
}

}  // namespace

const std::vector<double>& TheveninTable::default_slews() {
  static const std::vector<double> axis = geometric_axis(kSlewMin, kSlewMax);
  return axis;
}

const std::vector<double>& TheveninTable::default_loads() {
  static const std::vector<double> axis = geometric_axis(kLoadMin, kLoadMax);
  return axis;
}

TheveninTable TheveninTable::characterize(const GateParams& gate,
                                          bool output_rising,
                                          std::vector<double> slews,
                                          std::vector<double> cloads,
                                          const TheveninFitOptions& fit) {
  if (const char* e = axis_error(slews))
    throw std::invalid_argument(std::string("TheveninTable: slews ") + e);
  if (const char* e = axis_error(cloads))
    throw std::invalid_argument(std::string("TheveninTable: cloads ") + e);

  TheveninTable tbl;
  tbl.rising_ = output_rising;
  tbl.gate_ = gate;
  tbl.fit_ = fit;
  tbl.slews_ = std::move(slews);
  tbl.cloads_ = std::move(cloads);
  const std::size_t nc = tbl.cloads_.size();
  tbl.grid_.resize(tbl.slews_.size() * nc);
  // One GateSim per load, re-driven per slew (bytes of a fresh sim).
  for (std::size_t ci = 0; ci < nc; ++ci) {
    GateSim sim(gate, tbl.cloads_[ci]);
    for (std::size_t si = 0; si < tbl.slews_.size(); ++si) {
      const Pwl vin =
          driver_input_ramp(gate, tbl.slews_[si], output_rising, kInputStart);
      // Stored input-relative.
      tbl.grid_[si * nc + ci] =
          reference_crossings(simulate_reference(sim, vin, fit))
              .shifted(-kInputStart);
    }
  }
  return tbl;
}

const Crossings& TheveninTable::at(std::size_t si, std::size_t ci) const {
  if (si >= slews_.size() || ci >= cloads_.size())
    throw std::out_of_range("TheveninTable::at");
  return grid_[si * cloads_.size() + ci];
}

Crossings TheveninTable::crossings(double input_slew, double cload,
                                   bool* off_grid) const {
  const AxisWeights s = axis_weights(slews_, input_slew, false);
  const AxisWeights c = axis_weights(cloads_, cload, true);
  Crossings out;
  for (int i = 0; i < s.n; ++i)
    for (int j = 0; j < c.n; ++j) {
      const Crossings& g = at(s.idx[i], c.idx[j]);
      const double w = s.w[i] * c.w[j];
      out.t10 += w * g.t10;
      out.t50 += w * g.t50;
      out.t90 += w * g.t90;
    }
  if (off_grid) *off_grid = s.off || c.off;
  return out;
}

TheveninModel TheveninTable::lookup(double input_slew, double cload,
                                    double t_input_start) const {
  static obs::Counter& c_lookups = obs::metrics().counter("ceff.table_lookups");
  static obs::Counter& c_clamped = obs::metrics().counter("ceff.table_clamped");
  bool off_grid = false;
  const Crossings c = crossings(input_slew, cload, &off_grid);
  c_lookups.add();
  if (off_grid) c_clamped.add();
  // Fit the input-relative crossings, then move the model with the input:
  // the model depends on (slew, load) only.
  TheveninModel m = fit_crossings(c, rising_, gate_.vdd, cload);
  m.t0 += t_input_start;
  return m;
}

void TheveninTable::save(std::ostream& os) const {
  os.precision(17);
  os << "dnoise-thevenin-table " << kFormatVersion << '\n';
  write_gate(os, gate_);
  os << (rising_ ? 1 : 0) << ' ' << fit_.lte_tol << ' '
     << fit_.stale_jacobian_iters << '\n';
  os << slews_.size() << ' ' << cloads_.size() << '\n';
  for (double s : slews_) os << s << ' ';
  os << '\n';
  for (double c : cloads_) os << c << ' ';
  os << '\n';
  for (const Crossings& c : grid_)
    os << c.t10 << ' ' << c.t50 << ' ' << c.t90 << '\n';
}

TheveninTable TheveninTable::load(std::istream& is) {
  std::string magic;
  int version = 0;
  is >> magic >> version;
  if (!is || magic != "dnoise-thevenin-table")
    throw std::runtime_error("TheveninTable: unrecognized table file");
  if (version != kFormatVersion)
    throw std::runtime_error("TheveninTable: unsupported format version " +
                             std::to_string(version));
  TheveninTable tbl;
  tbl.gate_ = read_gate(is);
  int rising = 0;
  std::size_t ns = 0, nc = 0;
  is >> rising >> tbl.fit_.lte_tol >> tbl.fit_.stale_jacobian_iters >> ns >>
      nc;
  if (!is || !std::isfinite(tbl.gate_.vdd) || !(tbl.gate_.vdd > 0.0) ||
      ns == 0 || nc == 0 || ns > 10000 || nc > 10000)
    throw std::runtime_error("TheveninTable: corrupt header");
  tbl.rising_ = rising != 0;
  tbl.slews_.resize(ns);
  tbl.cloads_.resize(nc);
  for (auto& s : tbl.slews_) is >> s;
  for (auto& c : tbl.cloads_) is >> c;
  if (!is) throw std::runtime_error("TheveninTable: corrupt table file");
  if (const char* e = axis_error(tbl.slews_))
    throw std::runtime_error(std::string("TheveninTable: slews ") + e);
  if (const char* e = axis_error(tbl.cloads_))
    throw std::runtime_error(std::string("TheveninTable: cloads ") + e);
  tbl.grid_.resize(ns * nc);
  for (Crossings& c : tbl.grid_) {
    is >> c.t10 >> c.t50 >> c.t90;
    if (!is || !std::isfinite(c.t10) || !std::isfinite(c.t50) ||
        !std::isfinite(c.t90))
      throw std::runtime_error("TheveninTable: corrupt table entry");
  }
  return tbl;
}

GateTableKey TheveninTable::key() const {
  return gate_table_key(gate_, rising_, fit_.lte_tol,
                        fit_.stale_jacobian_iters);
}

DriverTableStore& driver_tables() {
  static DriverTableStore* store = new DriverTableStore;
  return *store;
}

const TheveninTable& driver_table(const GateParams& gate, bool output_rising,
                                  const TheveninFitOptions& fit,
                                  DriverTableStore& store) {
  static obs::Counter& c_tables = obs::metrics().counter("thevenin.tables");
  static obs::Histogram& h_seconds =
      obs::metrics().histogram("stage.thevenin.seconds");
  TableFound found{};
  const StatusOr<const TheveninTable*> table = store.get(
      gate_table_key(gate, output_rising, fit.lte_tol,
                     fit.stale_jacobian_iters),
      [&] {
        obs::StageScope stage("thevenin.characterize", "characterize",
                              h_seconds);
        return TheveninTable::characterize(gate, output_rising,
                                           TheveninTable::default_slews(),
                                           TheveninTable::default_loads(),
                                           fit);
      },
      &found);
  if (!table.ok()) raise(table.status());
  if (found == TableFound::kFilled) c_tables.add();
  return **table;
}

}  // namespace dn
