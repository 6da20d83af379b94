// Gate-level timing graph with arrival windows.
//
// The alignment of aggressor transitions is constrained by the switching
// (arrival) windows computed during timing analysis [1]; and because delay
// noise enlarges those windows, windows and noise must be iterated to a
// fixed point [8][9]. This module provides the window computation; the
// iteration lives in sta/noise_iteration.*.
//
// Model: each node is a net. Primary-input nets carry given arrival
// windows; every other net is driven by exactly one gate whose pin-to-pin
// (+interconnect) delay is a fixed number here — this layer deliberately
// abstracts the electrical analysis, which plugs in through per-net extra
// delays.
#pragma once

#include <string>
#include <vector>

namespace dn {

class TimingGraph {
 public:
  /// Adds a primary input with arrival window [early, late]. Returns net id.
  int add_primary_input(const std::string& name, double early, double late);

  /// Adds an internal net (must be driven by exactly one gate later).
  int add_net(const std::string& name);

  /// Adds a gate driving `output_net` from `input_nets` with base delay
  /// `delay` (same delay for early/late, all inputs).
  void add_gate(int output_net, std::vector<int> input_nets, double delay);

  int net_id(const std::string& name) const;  // Throws if unknown.
  const std::string& net_name(int id) const;
  int num_nets() const { return static_cast<int>(names_.size()); }
  double gate_delay(int output_net) const;  // Throws for PIs.

  struct Windows {
    std::vector<double> early, late;
  };

  /// Computes arrival windows topologically. `extra_late_delay[n]` (may be
  /// empty = all zero) is added to net n's LATE arrival — the hook for
  /// crosstalk delay noise. Throws on cycles or undriven nets.
  Windows compute_windows(const std::vector<double>& extra_late_delay = {}) const;

  /// Marks a net as a timing endpoint with the given required (latest
  /// allowed) arrival time.
  void set_required(int net, double required);

  struct SlackReport {
    std::vector<int> endpoints;   // Nets with a required time.
    std::vector<double> slack;    // required - late arrival, per endpoint.
    double worst_slack = 1e300;
    int worst_endpoint = -1;
  };

  /// Setup slack at every endpoint for the given windows (e.g. the noisy
  /// windows from the [8][9] iteration). Endpoints without requireds are
  /// ignored; throws if none were set.
  SlackReport compute_slack(const Windows& w) const;

 private:
  struct Gate {
    std::vector<int> inputs;
    double delay = 0.0;
  };
  std::vector<std::string> names_;
  std::vector<int> driver_of_;   // Gate index driving net, -1 = PI, -2 = none.
  std::vector<double> pi_early_, pi_late_;  // Indexed by net id (PIs only).
  std::vector<Gate> gates_;
  std::vector<std::pair<int, double>> required_;  // (net, required time).
};

}  // namespace dn
