// Netlist container: nodes plus R / C / V / I / MOSFET elements.
//
// A Circuit is a cheap value type; the superposition flow (core/) builds a
// fresh Circuit per linear simulation (aggressor switching, victim holding,
// etc.) instead of mutating one shared instance — that keeps each analysis
// step auditable and trivially parallelizable.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "devices/mosfet.hpp"
#include "waveform/pwl.hpp"

namespace dn {

/// Node handle. Node 0 is always ground.
using NodeId = int;
inline constexpr NodeId kGround = 0;

struct Resistor {
  NodeId a = kGround, b = kGround;
  double r = 0.0;
};

struct Capacitor {
  NodeId a = kGround, b = kGround;
  double c = 0.0;
};

/// Independent voltage source (pos relative to neg), PWL-valued in time.
struct VSource {
  NodeId pos = kGround, neg = kGround;
  Pwl v;
};

/// Independent current source injecting i(t) INTO `into` (out of `from`).
struct ISource {
  NodeId into = kGround, from = kGround;
  Pwl i;
};

struct MosfetInst {
  NodeId d = kGround, g = kGround, s = kGround;
  MosfetParams params;
};

class Circuit {
 public:
  /// Creates a fresh anonymous node.
  NodeId add_node();

  /// Gets or creates a named node ("0", "gnd", "GND" alias ground).
  NodeId node(const std::string& name);

  int num_nodes() const { return next_node_; }  // Including ground.

  void add_resistor(NodeId a, NodeId b, double ohms);
  void add_capacitor(NodeId a, NodeId b, double farads);
  /// Returns the source index (usable to read its branch current later).
  int add_vsource(NodeId pos, NodeId neg, Pwl v);
  /// Replaces vsource `k`'s waveform in place. The MNA matrices depend
  /// only on source topology, never on waveforms, so analysis objects
  /// (MnaSystem, NonlinearSim) built on this circuit stay valid — batched
  /// alignment probing re-drives one built simulator through many input
  /// waveforms this way instead of rebuilding circuit + simulator per
  /// probe.
  void set_vsource_waveform(int k, Pwl v);
  /// Returns the source index (for set_isource_waveform).
  int add_isource(NodeId into, NodeId from, Pwl i);
  /// Replaces isource `k`'s waveform in place; the same contract as
  /// set_vsource_waveform (the Rtr extraction re-drives one built driver
  /// simulator through each injected noise current this way).
  void set_isource_waveform(int k, Pwl i);
  void add_mosfet(NodeId d, NodeId g, NodeId s, const MosfetParams& params);

  const std::vector<Resistor>& resistors() const { return resistors_; }
  const std::vector<Capacitor>& capacitors() const { return capacitors_; }
  const std::vector<VSource>& vsources() const { return vsources_; }
  const std::vector<ISource>& isources() const { return isources_; }
  const std::vector<MosfetInst>& mosfets() const { return mosfets_; }

  bool is_linear() const { return mosfets_.empty(); }

 private:
  void check_node(NodeId n) const;
  int next_node_ = 1;  // 0 is ground.
  std::unordered_map<std::string, NodeId> names_;
  std::vector<Resistor> resistors_;
  std::vector<Capacitor> capacitors_;
  std::vector<VSource> vsources_;
  std::vector<ISource> isources_;
  std::vector<MosfetInst> mosfets_;
};

}  // namespace dn
