// CMOS gate primitives built from MOSFETs.
//
// Drivers and receivers in the delay-noise flow are instances of these
// gates. A Gate is a pure description (type + sizing + process); helpers
// instantiate its transistors into a Circuit, or run the small canonical
// single-gate simulations the characterization steps need (gate into a
// lumped load, with or without an injected noise current — paper Figure 4).
#pragma once

#include <cstdint>
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

/// Adds the gate's transistors to `ckt` between `in` and `out`; `vdd_node`
/// must carry the supply. Unused side inputs of NAND2/NOR2 are tied to
/// their non-controlling values, so the gate behaves as a (possibly
/// inverting) single-input driver along the sensitized path.
void instantiate_gate(Circuit& ckt, const GateParams& gate, NodeId in,
                      NodeId out, NodeId vdd_node);

/// Creates a "vdd" node with an ideal supply source and returns it.
NodeId add_vdd(Circuit& ckt, double vdd);

/// Warm-start cache for repeated canonical gate sims. The characterization
/// loops (alignment scan, a net's receiver evaluations, Ceff/Thevenin
/// fit) simulate the SAME gate topology many times with perturbed
/// waveforms; the DC operating point barely moves between runs, so
/// seeding Newton with the previous solution skips the whole
/// gmin-stepping ladder. The cache is keyed by nothing — the caller owns
/// one per loop over a fixed topology.
struct GateSimCache {
  std::vector<double> dc;  // Previous MNA state; empty = cold.
};

/// Simulates the gate driving a lumped capacitor `cload` with input `vin`.
/// If `inject` is provided, that current is additionally pushed into the
/// output node (paper Figure 4(b)). Returns the output waveform.
/// kNumericError on Newton non-convergence; `warm` (optional) carries the
/// operating point between repeated sims of the same gate/load.
StatusOr<Pwl> try_simulate_gate(const GateParams& gate, const Pwl& vin,
                                double cload, const TransientSpec& spec,
                                const std::optional<Pwl>& inject = std::nullopt,
                                GateSimCache* warm = nullptr);

/// Throwing convenience wrapper around try_simulate_gate (raises the
/// mapped typed exception on failure). Prefer try_simulate_gate in flow
/// code; this remains for contexts that already run under a catch.
Pwl simulate_gate(const GateParams& gate, const Pwl& vin, double cload,
                  const TransientSpec& spec,
                  const std::optional<Pwl>& inject = std::nullopt);

/// Initial output level (t -> -inf) for a given initial input level.
double gate_initial_output(const GateParams& gate, double vin_initial);

/// Batched canonical receiver simulations for alignment probing.
///
/// An alignment search runs dozens of receiver sims that differ ONLY in
/// the input waveform: same gate, same load, same circuit topology, same
/// MNA matrices. try_simulate_gate rebuilds circuit + MnaSystem +
/// NonlinearSim (Jacobian pattern, device batch, solver symbolic
/// analysis) from scratch for every probe; a session builds them once and
/// re-drives the built simulator through each probe waveform via
/// Circuit::set_vsource_waveform.
///
/// Bit-identity contract (pinned by AlignmentBatched tests): each run()
/// returns exactly the bytes the equivalent try_simulate_gate call chain
/// would — the MNA matrices never depend on source waveforms, the Newton
/// factor state is reset per run, and the reused solver's numeric
/// refactor performs arithmetic identical to a fresh factorization (see
/// SolverOptions::small_max_dim notes). Warm-start chaining matches a
/// GateSimCache threaded through sequential try_simulate_gate calls in
/// the same probe order.
///
/// Not thread-safe: one session per search loop, like GateSimCache.
class ReceiverProbeSession {
 public:
  /// Builds the receiver-into-lumped-load circuit once. `warm_start`
  /// chains each probe's DC operating point into the next probe's Newton
  /// seed (the GateSimCache discipline).
  ReceiverProbeSession(const GateParams& gate, double cload, bool warm_start);

  ReceiverProbeSession(const ReceiverProbeSession&) = delete;
  ReceiverProbeSession& operator=(const ReceiverProbeSession&) = delete;

  /// One probe: simulates the session gate with input `vin` under `spec`.
  /// Returns the output waveform, exactly as try_simulate_gate would.
  StatusOr<Pwl> try_run(const Pwl& vin, const TransientSpec& spec);

  /// Probes served so far by this session's shared construction.
  std::uint64_t probes() const { return probes_; }

 private:
  Circuit ckt_;          // Never resized/moved: sim_ holds a reference.
  NodeId out_ = kGround;
  int in_src_ = -1;
  bool warm_start_ = false;
  std::optional<NonlinearSim> sim_;
  Vector dc_;            // Warm-start chain; empty = cold.
  std::uint64_t probes_ = 0;
};

}  // namespace dn
