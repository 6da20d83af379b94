// Resident design model for the analysis daemon.
//
// The per-net analysis flow is victim-centric: a CoupledNet is ONE
// victim's view of the world (its tree, receiver, and the aggressor
// trees coupled to it). A resident server needs the inverse picture — a
// flat set of NETS with coupling EDGES between them — so that a single
// net edit can be mapped to the set of victim views it invalidates: the
// edited net itself plus every victim it appears in as an aggressor.
//
// The Design holds exactly that: nets (each with its driver/receiver
// context) and undirected coupling edges carrying the local node pairs.
// coupled_view(i) lowers net i back into the CoupledNet the analyzers
// consume. Aggressor switching direction is analysis POLICY, not stored
// state: every victim is analyzed against aggressors switching opposite
// to it — the delay-increasing worst case the paper bounds.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "rcnet/net.hpp"
#include "util/json.hpp"
#include "util/status.hpp"

namespace dn::server {

struct DesignNet {
  std::string name;
  RcTree tree;
  GateParams driver;
  GateParams receiver;  // Receiver context when analyzed as victim.
  double input_slew = 100e-12;
  bool output_rising = true;     // Victim transition direction.
  double receiver_load = 20e-15;  // Receiver OUTPUT load (victim role).
  double sink_load = 2e-15;       // Sink pin cap (aggressor role).
  /// False for nets that exist only as aggressor context (e.g. the
  /// aggressors of a loaded SPEF deck): they are never analyzed
  /// themselves but editing them dirties the victims they couple to.
  bool is_victim = true;
};

/// One undirected coupling edge between nets a and b (a < b by
/// convention after normalization), attached at local nodes on each side.
struct DesignCoupling {
  int a = 0, b = 0;
  int a_node = 0, b_node = 0;
  double c = 0.0;
};

class Design {
 public:
  Design() = default;

  /// Synthetic design: `num_nets` random nets (same parameter spread as
  /// random_coupled_net's victims) arranged on a ring where net i couples
  /// to its `neighbors` successors. Every net is a victim, so edits have
  /// real cross-net consequences — the incremental engine's test bed.
  static Design random(std::uint64_t seed, int num_nets, int neighbors);

  /// Loads SPEF decks as disconnected islands: each file contributes its
  /// victim (as an analyzable net) and its aggressors (context-only nets)
  /// plus the file's coupling edges.
  static StatusOr<Design> from_spef_files(
      const std::vector<std::string>& paths);

  std::size_t num_nets() const { return nets_.size(); }
  std::size_t num_couplings() const { return couplings_.size(); }
  const DesignNet& net(int i) const {
    return nets_[static_cast<std::size_t>(i)];
  }

  /// Net index by name; kNotFound when absent.
  StatusOr<int> find(const std::string& name) const;

  /// Indices of nets analyzed as victims, in net order.
  std::vector<int> victims() const;

  /// Distinct nets sharing a coupling edge with net i, ascending.
  std::vector<int> neighbors(int i) const;

  /// Victim views invalidated by an edit of net i: net i itself (if a
  /// victim) plus every victim coupled to it. Ascending, distinct.
  std::vector<int> affected_victims(int i) const;

  /// Net i's victim-centric CoupledNet: aggressors are its neighbors
  /// (ascending net order) switching opposite to it.
  StatusOr<CoupledNet> coupled_view(int i) const;

  /// ECO edits. Each validates fully before mutating (strong guarantee)
  /// and returns kInvalidArgument / kNotFound on bad input.
  Status scale_net(int i, double scale_r, double scale_c);
  Status set_driver_size(int i, double size);

  /// Full-fidelity JSON serialization for the server's durable
  /// snapshots: every field of every net and coupling, doubles rendered
  /// in the json writer's shortest round-trip form so to_json → dump →
  /// parse → from_json reproduces the design bit-identically. from_json
  /// rejects malformed or partial documents as kInvalidArgument without
  /// constructing a half-valid design.
  json::Value to_json() const;
  static StatusOr<Design> from_json(const json::Value& v);

 private:
  std::vector<DesignNet> nets_;
  std::vector<DesignCoupling> couplings_;
};

}  // namespace dn::server
