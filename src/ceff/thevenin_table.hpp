// Pre-characterized Thevenin driver tables.
//
// The paper's tool does not fit drivers during analysis: "Thevenin gate
// model parameters (t0, dt, and Rth) are a function of the effective load
// that the driver gate sees" and are precharacterized per cell over an
// (input slew x effective load) grid, then looked up. A table here stores
// the nonlinear reference's 10/50/90% output crossing times, relative to
// the input start, at each grid point. Those are close to affine in load
// (a linear delay model), so they interpolate well where the fitted
// (t0, tr, Rth) do not; a lookup interpolates the crossings and runs the
// 3-crossing fit (ceff/thevenin.*) at the exact load.
//
// driver_tables() holds one table per cell condition for the whole
// process: the C-effective loop of every SuperpositionEngine reads it, so
// each driver cell is simulated once per process, never per net.
#pragma once

#include <iosfwd>
#include <vector>

#include "ceff/thevenin.hpp"
#include "util/table_store.hpp"

namespace dn {

class TheveninTable {
 public:
  /// The store's axes: input slews 10 ps - 1.6 ns and loads 0.5 - 700 fF,
  /// each geometric in x1.7 steps (10 x 14 = 140 reference sims).
  static const std::vector<double>& default_slews();
  static const std::vector<double>& default_loads();

  /// Characterizes `gate` for transitions in direction `output_rising`
  /// over the grid (strictly increasing, finite axes). One nonlinear gate
  /// simulation per grid point.
  static TheveninTable characterize(const GateParams& gate, bool output_rising,
                                    std::vector<double> slews,
                                    std::vector<double> cloads,
                                    const TheveninFitOptions& fit = {});

  /// Reference crossings for (input_slew, cload), relative to the input
  /// start. Inside the grid each axis interpolates over up to four points:
  /// the quadratics through the three points either side of the query's
  /// segment, blended linearly across it (exact at grid points; linear on
  /// a two-point axis). A slew off its axis clamps to the nearest end; a
  /// load past its axis extrapolates linearly from the end segment.
  /// `*off_grid`, when non-null, says whether either happened.
  Crossings crossings(double input_slew, double cload,
                      bool* off_grid = nullptr) const;

  /// The driver model for (input_slew, cload) with the INPUT ramp starting
  /// at t_input_start: fit_crossings on crossings() at exactly `cload`,
  /// then t0 moved by t_input_start, so the rest of the model depends on
  /// (slew, load) only. Counts ceff.table_lookups and ceff.table_clamped.
  TheveninModel lookup(double input_slew, double cload,
                       double t_input_start) const;

  const std::vector<double>& slews() const { return slews_; }
  const std::vector<double>& cloads() const { return cloads_; }
  bool output_rising() const { return rising_; }
  double vdd() const { return gate_.vdd; }
  const GateParams& gate() const { return gate_; }
  const TheveninFitOptions& fit() const { return fit_; }

  /// The table's store key (gate_table_key): its gate, direction and the
  /// reference sims' settings.
  GateTableKey key() const;

  /// Raw grid entry (si-th slew, ci-th load), input-relative.
  const Crossings& at(std::size_t si, std::size_t ci) const;

  /// Persistence (characterize once per library, reload per session). The
  /// record carries the gate and fit options. load() applies
  /// characterize()'s axis checks and rejects non-finite entries and any
  /// format version but the current one.
  void save(std::ostream& os) const;
  static TheveninTable load(std::istream& is);

 private:
  TheveninTable() = default;
  std::vector<double> slews_, cloads_;
  std::vector<Crossings> grid_;  // [si * cloads + ci], input-relative.
  bool rising_ = true;
  GateParams gate_;
  TheveninFitOptions fit_;
};

using DriverTableStore = TableStore<GateTableKey, TheveninTable>;

/// The process-wide store the C-effective loop reads.
DriverTableStore& driver_tables();

/// The table for (gate, output direction, fit) in `store`, filled on the
/// default axes on first use. A failed fill is stored like a table: every
/// call for its key throws the same status.
const TheveninTable& driver_table(const GateParams& gate, bool output_rising,
                                  const TheveninFitOptions& fit,
                                  DriverTableStore& store = driver_tables());

}  // namespace dn
