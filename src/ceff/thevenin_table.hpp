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
// TheveninTableStore holds one table per cell condition for the whole
// process: the C-effective loop of every SuperpositionEngine reads it, so
// each driver cell is simulated once per process, never per net.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <vector>

#include "ceff/thevenin.hpp"

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
  double vdd() const { return vdd_; }

  /// Raw grid entry (si-th slew, ci-th load), input-relative.
  const Crossings& at(std::size_t si, std::size_t ci) const;

  /// Persistence (characterize once per library, reload per session).
  /// load() applies characterize()'s axis checks and rejects non-finite
  /// entries and any format version but the current one.
  void save(std::ostream& os) const;
  static TheveninTable load(std::istream& is);

 private:
  TheveninTable() = default;
  std::vector<double> slews_, cloads_;
  std::vector<Crossings> grid_;  // [si * cloads + ci], input-relative.
  bool rising_ = true;
  double vdd_ = 0.0;
};

/// Thread-safe store of driver tables, one per fill key: every GateParams
/// field, the output direction, and the reference sims' `lte_tol` and
/// `stale_jacobian_iters`. Locking follows CharacterizationCache's two
/// layers: a shared_mutex guards the key -> entry map (entries are never
/// erased, so table references stay valid), and each entry serializes its
/// own fill outside the map lock. The per-entry guard is a mutex plus a
/// published pointer rather than a once_flag, because a fill may throw:
/// std::call_once left by an exception hangs the next call under
/// ThreadSanitizer's pthread_once interceptor.
///
/// A stored table is a pure function of its key: fills run on the
/// default axes with fault injection suspended and outside the caller's
/// deadline, and a fill that throws installs nothing, so the exception
/// reaches the caller and the next request for the key retries.
class TheveninTableStore {
 public:
  TheveninTableStore() = default;
  TheveninTableStore(const TheveninTableStore&) = delete;
  TheveninTableStore& operator=(const TheveninTableStore&) = delete;

  const TheveninTable& table_for(const GateParams& gate, bool output_rising,
                                 const TheveninFitOptions& fit);

 private:
  using Key = std::array<std::uint64_t, 24>;
  static Key key_of(const GateParams& gate, bool output_rising,
                    const TheveninFitOptions& fit);

  struct Entry {
    std::mutex fill_mu;  // Held while filling this key.
    std::unique_ptr<const TheveninTable> table;  // Written under fill_mu.
    std::atomic<const TheveninTable*> ready{nullptr};  // Set after `table`.
  };

  mutable std::shared_mutex mu_;
  std::map<Key, std::unique_ptr<Entry>> entries_;
};

/// The process-wide store the C-effective loop reads.
TheveninTableStore& driver_tables();

}  // namespace dn
