// Coupled-interconnect data model.
//
// An RcTree is one net's parasitics in local node numbering (node 0 is the
// driver output / root). A CoupledNet bundles the victim net, its receiver,
// its aggressor nets, and the victim<->aggressor coupling capacitances —
// exactly the structure of the paper's Figure 1(a). Builders in core/
// instantiate these into concrete Circuits with the driver model required
// by each step of the superposition flow.
#pragma once

#include <string>
#include <vector>

#include "circuit/circuit.hpp"
#include "devices/gate.hpp"

namespace dn {

struct NetRes {
  int a = 0, b = 0;  // Local node indices.
  double r = 0.0;    // [Ohm]
};

struct NetCap {
  int node = 0;      // Local node index.
  double c = 0.0;    // Grounded capacitance [F].
};

struct RcTree {
  int num_nodes = 1;            // Local nodes 0..num_nodes-1; 0 = root.
  std::vector<NetRes> res;
  std::vector<NetCap> caps;
  int sink = 0;                 // Receiver-input node.

  /// Sum of all grounded capacitance in the tree.
  double total_cap() const;

  /// Validates indices and connectivity from the root; throws on error.
  void validate() const;

  /// Adds the tree's R/C elements to `ckt`, creating fresh nodes named
  /// "<prefix><local index>". Returns local->circuit node mapping.
  std::vector<NodeId> instantiate(Circuit& ckt, const std::string& prefix) const;
};

/// A victim<->aggressor coupling capacitor.
struct Coupling {
  int aggressor = 0;      // Index into CoupledNet::aggressors.
  int aggressor_node = 0; // Local node on that aggressor's tree.
  int victim_node = 0;    // Local node on the victim tree.
  double c = 0.0;         // [F]
};

/// One aggressor: its net, driver, and input stimulus shape. The input is
/// a full-swing ramp whose *timing* is decided by the alignment search; the
/// shape (slew) is fixed per net.
struct AggressorDesc {
  RcTree net;
  GateParams driver;
  double input_slew = 100e-12;  // 0-100% input ramp time [s].
  bool output_rising = true;    // Direction of the aggressor OUTPUT transition.
  double sink_load = 2e-15;     // Receiver pin cap at the aggressor sink [F].
};

struct VictimDesc {
  RcTree net;
  GateParams driver;
  double input_slew = 100e-12;
  bool output_rising = true;    // Direction of the victim OUTPUT transition.
  GateParams receiver;          // Receiver gate at net.sink.
  double receiver_load = 20e-15;  // Lumped cap at the receiver output [F].
};

struct CoupledNet {
  VictimDesc victim;
  std::vector<AggressorDesc> aggressors;
  std::vector<Coupling> couplings;

  void validate() const;

  /// Total coupling capacitance attached to the victim.
  double total_coupling_cap() const;
};

// ---------------------------------------------------------------------------
// Topology builders (the synthetic stand-ins for extracted layout data).
// ---------------------------------------------------------------------------

/// Uniform RC line: `segments` sections of (r_total/segments,
/// c_total/segments), sink at the far end.
RcTree make_line(int segments, double r_total, double c_total);

/// Balanced binary RC tree of given depth; sink at one leaf.
RcTree make_tree(int depth, double r_seg, double c_seg);

/// Parallel-bus coupled net: `lanes` wires of `segments` sections routed
/// side by side; the middle lane is the victim, every other lane an
/// aggressor switching against it. Adjacent lanes couple node-by-node with
/// `cc_adjacent` total per pair; non-adjacent pairs are ignored (second-
/// neighbor coupling is an order of magnitude down in real stacks).
CoupledNet make_bus(int lanes, int segments, double r_total, double c_total,
                    double cc_adjacent);

/// Victim driver input ramp for a desc (falling input for an inverting
/// driver with rising output, etc.), starting at t_start.
Pwl driver_input_ramp(const GateParams& driver, double input_slew,
                      bool output_rising, double t_start);

}  // namespace dn
