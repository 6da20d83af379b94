#include <stdexcept>

#include "rcnet/net.hpp"

namespace dn {

double RcTree::total_cap() const {
  double acc = 0.0;
  for (const auto& c : caps) acc += c.c;
  return acc;
}

void RcTree::validate() const {
  if (num_nodes < 1) throw std::invalid_argument("RcTree: no nodes");
  auto check = [&](int n, const char* what) {
    if (n < 0 || n >= num_nodes)
      throw std::invalid_argument(std::string("RcTree: bad node in ") + what);
  };
  check(sink, "sink");
  for (const auto& r : res) {
    check(r.a, "res");
    check(r.b, "res");
    if (r.r <= 0) throw std::invalid_argument("RcTree: non-positive resistance");
  }
  for (const auto& c : caps) {
    check(c.node, "cap");
    if (c.c < 0) throw std::invalid_argument("RcTree: negative capacitance");
  }
  // Connectivity from the root through resistors.
  std::vector<char> seen(static_cast<std::size_t>(num_nodes), 0);
  std::vector<int> stack{0};
  seen[0] = 1;
  while (!stack.empty()) {
    const int n = stack.back();
    stack.pop_back();
    for (const auto& r : res) {
      const int other = (r.a == n) ? r.b : (r.b == n ? r.a : -1);
      if (other >= 0 && !seen[static_cast<std::size_t>(other)]) {
        seen[static_cast<std::size_t>(other)] = 1;
        stack.push_back(other);
      }
    }
  }
  for (int n = 0; n < num_nodes; ++n)
    if (!seen[static_cast<std::size_t>(n)])
      throw std::invalid_argument("RcTree: node unreachable from root: " +
                                  std::to_string(n));
}

std::vector<NodeId> RcTree::instantiate(Circuit& ckt,
                                        const std::string& prefix) const {
  validate();
  std::vector<NodeId> map(static_cast<std::size_t>(num_nodes));
  for (int n = 0; n < num_nodes; ++n)
    map[static_cast<std::size_t>(n)] = ckt.node(prefix + std::to_string(n));
  for (const auto& r : res)
    ckt.add_resistor(map[static_cast<std::size_t>(r.a)],
                     map[static_cast<std::size_t>(r.b)], r.r);
  for (const auto& c : caps)
    if (c.c > 0)
      ckt.add_capacitor(map[static_cast<std::size_t>(c.node)], kGround, c.c);
  return map;
}

void CoupledNet::validate() const {
  victim.net.validate();
  for (const auto& a : aggressors) a.net.validate();
  for (const auto& cc : couplings) {
    if (cc.aggressor < 0 ||
        static_cast<std::size_t>(cc.aggressor) >= aggressors.size())
      throw std::invalid_argument("CoupledNet: bad aggressor index");
    const auto& agg = aggressors[static_cast<std::size_t>(cc.aggressor)];
    if (cc.aggressor_node < 0 || cc.aggressor_node >= agg.net.num_nodes)
      throw std::invalid_argument("CoupledNet: bad aggressor node");
    if (cc.victim_node < 0 || cc.victim_node >= victim.net.num_nodes)
      throw std::invalid_argument("CoupledNet: bad victim node");
    if (cc.c <= 0) throw std::invalid_argument("CoupledNet: bad coupling cap");
  }
}

double CoupledNet::total_coupling_cap() const {
  double acc = 0.0;
  for (const auto& cc : couplings) acc += cc.c;
  return acc;
}

RcTree make_line(int segments, double r_total, double c_total) {
  if (segments < 1) throw std::invalid_argument("make_line: segments < 1");
  RcTree t;
  t.num_nodes = segments + 1;
  const double r = r_total / segments;
  const double c = c_total / segments;
  for (int k = 0; k < segments; ++k) {
    t.res.push_back({k, k + 1, r});
    t.caps.push_back({k + 1, c});
  }
  t.sink = segments;
  return t;
}

RcTree make_tree(int depth, double r_seg, double c_seg) {
  if (depth < 1) throw std::invalid_argument("make_tree: depth < 1");
  // Complete binary tree: node 0 is the root; children of k are 2k+1, 2k+2.
  RcTree t;
  const int n = (1 << (depth + 1)) - 1;
  t.num_nodes = n;
  for (int k = 0; k < (1 << depth) - 1; ++k) {
    t.res.push_back({k, 2 * k + 1, r_seg});
    t.res.push_back({k, 2 * k + 2, r_seg});
  }
  for (int k = 1; k < n; ++k) t.caps.push_back({k, c_seg});
  t.sink = n - 1;  // Right-most leaf.
  return t;
}

CoupledNet make_bus(int lanes, int segments, double r_total, double c_total,
                    double cc_adjacent) {
  if (lanes < 2) throw std::invalid_argument("make_bus: need >= 2 lanes");
  if (lanes % 2 == 0)
    throw std::invalid_argument("make_bus: odd lane count (victim centered)");
  CoupledNet cn;
  cn.victim.net = make_line(segments, r_total, c_total);
  cn.victim.driver = GateParams{GateType::Inverter, 1.0, 1.8};
  cn.victim.output_rising = true;
  cn.victim.receiver = GateParams{GateType::Inverter, 2.0, 1.8};

  const int victim_lane = lanes / 2;
  // Aggressor indices by lane (victim lane skipped).
  for (int lane = 0; lane < lanes; ++lane) {
    if (lane == victim_lane) continue;
    AggressorDesc agg;
    agg.net = make_line(segments, r_total, c_total);
    agg.driver = GateParams{GateType::Inverter, 4.0, 1.8};
    agg.output_rising = false;
    const int k = static_cast<int>(cn.aggressors.size());
    cn.aggressors.push_back(agg);
    // Only lanes adjacent to the victim couple to it.
    if (lane == victim_lane - 1 || lane == victim_lane + 1)
      for (int j = 1; j <= segments; ++j)
        cn.couplings.push_back({k, j, j, cc_adjacent / segments});
  }
  cn.validate();
  return cn;
}

Pwl driver_input_ramp(const GateParams& driver, double input_slew,
                      bool output_rising, double t_start) {
  const bool input_rising =
      gate_inverts(driver.type) ? !output_rising : output_rising;
  return input_rising ? Pwl::ramp(t_start, input_slew, 0.0, driver.vdd)
                      : Pwl::ramp(t_start, input_slew, driver.vdd, 0.0);
}

}  // namespace dn
