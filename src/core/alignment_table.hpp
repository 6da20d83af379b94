// 8-point alignment pre-characterization (paper Section 3.2).
//
// A naive lookup table over (receiver load, pulse width, pulse height,
// victim edge rate) would need thousands of points. The paper's three
// observations cut this to EIGHT per receiver type:
//   1. Load: small loads are alignment-sensitive, large loads are flat —
//      so characterizing at MINIMUM receiver load is safe for all loads.
//   2. Edge rate: the worst-case alignment measured against the victim's
//      50% crossing is nearly LINEAR in the victim transition time — two
//      slew points suffice, interpolate between.
//   3. Width/height: the worst-case ALIGNMENT VOLTAGE (the noiseless
//      receiver-input voltage at the instant of the pulse peak) is nearly
//      linear in pulse width and height — 2x2 corners suffice.
// Query path (paper verbatim): bilinearly interpolate the alignment
// voltage in (width, height) at each slew corner, map each voltage to a
// time via the actual victim transition, then linearly interpolate that
// time in the slew dimension.
#pragma once

#include <iosfwd>

#include "core/alignment.hpp"

namespace dn {

class ThreadPool;

struct AlignmentTableSpec {
  double slew_min = 60e-12;    // Victim 0-100% transition time at the sink [s].
  double slew_max = 500e-12;
  double width_min = 40e-12;   // Pulse FWHM [s].
  double width_max = 500e-12;
  // Pulse height as a fraction of Vdd. The maximum stays below the
  // functional-noise threshold: pulses that dip the settled victim past
  // the receiver threshold re-trigger the receiver at ANY late alignment,
  // making "worst-case delay" unbounded — that regime is a functional
  // noise failure, not delay noise.
  double height_min_frac = 0.10;
  double height_max_frac = 0.45;
  double min_load = 2e-15;     // Characterization (minimum) receiver load [F].
  AlignmentSearchOptions search{};

  bool operator==(const AlignmentTableSpec&) const = default;
};

class AlignmentTable {
 public:
  /// Pre-characterizes `receiver` for victims transitioning in direction
  /// `victim_rising`: 8 exhaustive alignment searches on canonical ramp +
  /// triangular-pulse stimuli at minimum load.
  ///
  /// `pool` (optional) runs the eight independent corner searches in
  /// parallel — intra-table parallelism so --jobs helps even when a run
  /// has few distinct receiver conditions. The result is deterministic
  /// and identical to the sequential path: every corner computes from
  /// its own inputs alone and writes its own fixed table slot, and on
  /// failure the lowest-index corner's error is reported regardless of
  /// completion order. Every corner search runs inside a FillScope
  /// (util/table_store.hpp) on the thread that runs it: fault injection
  /// suspended and no deadline, so a table is a function of its inputs.
  static AlignmentTable characterize(const GateParams& receiver,
                                     bool victim_rising,
                                     const AlignmentTableSpec& spec = {},
                                     ThreadPool* pool = nullptr);

  /// Predicted worst-case pulse-peak time for the actual victim transition
  /// `noiseless_sink` (victim slew measured internally) and the measured
  /// composite pulse parameters. Slew, width and height are clamped to the
  /// characterized ranges; `alignment.table_clamped` counts the calls that
  /// clamped any of them.
  double predict_peak_time(const Pwl& noiseless_sink,
                           const PulseParams& pulse) const;

  /// Raw table entry (indices 0/1 per dimension: slew, width, height).
  double alignment_voltage(int si, int wi, int hi) const;

  /// Persistence: characterization is expensive (8 exhaustive searches),
  /// so tools save the tables with the library. Text format, versioned;
  /// the record carries every field of the receiver.
  void save(std::ostream& os) const;
  static AlignmentTable load(std::istream& is);

  const AlignmentTableSpec& spec() const { return spec_; }
  bool victim_rising() const { return victim_rising_; }
  const GateParams& receiver() const { return receiver_; }

  /// The table's store key (gate_table_key): its receiver, direction and
  /// the search's sim settings.
  GateTableKey key() const;

 private:
  AlignmentTable() = default;
  AlignmentTableSpec spec_;
  GateParams receiver_;
  bool victim_rising_ = true;
  double va_[2][2][2] = {};  // [slew][width][height] alignment voltage.
};

}  // namespace dn
