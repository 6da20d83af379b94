// CMOS gate primitives built from MOSFETs.
//
// Drivers and receivers in the delay-noise flow are instances of these
// gates. A Gate is a pure description (type + sizing + process);
// instantiate_gate adds its transistors to a Circuit, and GateSim runs the
// small canonical simulation every characterization step needs (gate into
// a lumped load, with or without an injected noise current — paper
// Figure 4).
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "circuit/circuit.hpp"
#include "sim/nonlinear_sim.hpp"
#include "sim/transient.hpp"
#include "util/status.hpp"

namespace dn {

enum class GateType { Inverter, Buffer, Nand2, Nor2 };

/// True when the gate's output transition direction is opposite its input's.
bool gate_inverts(GateType t);

const char* gate_type_name(GateType t);

/// Gate description: type, drive strength, and process parameters.
struct GateParams {
  GateType type = GateType::Inverter;
  double size = 1.0;        // Drive-strength multiplier (X1, X2, ...).
  double vdd = 1.8;         // Supply [V].
  double wn_unit = 1.0e-6;  // X1 NMOS width [m].
  double wp_unit = 2.0e-6;  // X1 PMOS width [m].
  MosfetParams nmos_proto{};  // type/w overridden per device.
  MosfetParams pmos_proto{MosType::Pmos, 1e-6, 0.18e-6, 0.45, 60e-6, 0.08,
                          1.2e-9, 0.9e-9};

  double wn() const { return wn_unit * size; }
  double wp() const { return wp_unit * size; }

  /// Input pin capacitance (gate caps of the devices on one input pin).
  double input_cap() const;

  /// Parasitic output capacitance (drain junctions on the output node).
  double output_parasitic_cap() const;
};

/// Content key of a characterization table for `gate`: the bits of every
/// GateParams field, the transition direction, and the two sim settings
/// that shape any table (the transient `lte_tol` and the chord-Newton
/// `stale_jacobian_iters`). Driver and alignment tables share it.
using GateTableKey = std::array<std::uint64_t, 24>;
GateTableKey gate_table_key(const GateParams& gate, bool rising,
                            double lte_tol, int stale_jacobian_iters);

/// One text line holding every GateParams field at full precision, and
/// its reader (throws std::runtime_error on a corrupt record).
void write_gate(std::ostream& os, const GateParams& gate);
GateParams read_gate(std::istream& is);

/// Adds the gate's transistors to `ckt` between `in` and `out`; `vdd_node`
/// must carry the supply. Unused side inputs of NAND2/NOR2 are tied to
/// their non-controlling values, so the gate behaves as a (possibly
/// inverting) single-input driver along the sensitized path.
void instantiate_gate(Circuit& ckt, const GateParams& gate, NodeId in,
                      NodeId out, NodeId vdd_node);

/// Creates a "vdd" node with an ideal supply source and returns it.
NodeId add_vdd(Circuit& ckt, double vdd);

/// The canonical gate simulation of the flow (paper Figure 4): the gate
/// driving its own lumped `cload` from an ideal input source. The Thevenin
/// fit reference, the receiver evaluations and the Rtr driver sims all run
/// on it.
///
/// The circuit and simulator are built once; each run re-drives the
/// sources through Circuit::set_vsource_waveform/set_isource_waveform. The
/// MNA matrices never depend on source waveforms, the Newton factor state
/// resets per run, and the reused solver's numeric refactor performs
/// arithmetic identical to a fresh factorization (see
/// SolverOptions notes), so every run returns exactly the
/// bytes a freshly built GateSim would (pinned by GateSim.* and
/// AlignmentBatched.*).
///
/// Warm starts: `warm` is a caller-owned DC state. It seeds the run's DC
/// solve when its size fits this circuit, and a successful run overwrites
/// it with its operating point. The caller owns one chain per loop over
/// the same gate; the DC point does not depend on the load (capacitors are
/// open at DC), so a chain may also span GateSims that differ only in
/// `cload`.
///
/// Not copyable or movable (the simulator holds a reference to the
/// circuit) and not thread-safe.
class GateSim {
 public:
  enum class Kind {
    kSingle,    // The gate into `cload`.
    kInjected,  // Plus a current source into the output (Figure 4(b)).
    /// Two copies of the gate on one input and vdd, each into its own
    /// `cload`, the current source on copy 2 only: V1 and V2 of the Rtr
    /// extraction step on one grid, so V2 - V1 carries no grid-mismatch
    /// error and is exactly 0 until the current turns on.
    kPaired,
  };

  GateSim(const GateParams& gate, double cload, Kind kind = Kind::kSingle);
  GateSim(const GateSim&) = delete;
  GateSim& operator=(const GateSim&) = delete;

  /// One transient with input `vin` and, for kInjected/kPaired (required
  /// there, rejected otherwise), the injected current `inject`. Returns
  /// the output waveform; for kPaired, V2 - V1 on the shared grid.
  /// kNumericError on Newton non-convergence.
  StatusOr<Pwl> try_run(const Pwl& vin, const TransientSpec& spec,
                        Vector* warm = nullptr, const Pwl* inject = nullptr);

  const GateParams& gate() const { return gate_; }
  double cload() const { return cload_; }

 private:
  GateParams gate_;
  double cload_ = 0.0;
  Circuit ckt_;
  int in_src_ = -1;
  int inject_src_ = -1;       // -1: no injection source.
  std::vector<NodeId> out_;   // One output per copy.
  std::optional<NonlinearSim> sim_;
};

}  // namespace dn
