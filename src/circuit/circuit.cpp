#include "circuit/circuit.hpp"

#include <stdexcept>

namespace dn {

NodeId Circuit::add_node() { return next_node_++; }

NodeId Circuit::node(const std::string& name) {
  if (name == "0" || name == "gnd" || name == "GND") return kGround;
  const auto it = names_.find(name);
  if (it != names_.end()) return it->second;
  const NodeId id = next_node_++;
  names_.emplace(name, id);
  return id;
}

void Circuit::check_node(NodeId n) const {
  if (n < 0 || n >= next_node_)
    throw std::invalid_argument("Circuit: unknown node id " + std::to_string(n));
}

void Circuit::add_resistor(NodeId a, NodeId b, double ohms) {
  check_node(a);
  check_node(b);
  if (ohms <= 0) throw std::invalid_argument("Circuit: resistance must be > 0");
  resistors_.push_back({a, b, ohms});
}

void Circuit::add_capacitor(NodeId a, NodeId b, double farads) {
  check_node(a);
  check_node(b);
  if (farads < 0) throw std::invalid_argument("Circuit: negative capacitance");
  if (a == b) throw std::invalid_argument("Circuit: capacitor shorted to itself");
  capacitors_.push_back({a, b, farads});
}

int Circuit::add_vsource(NodeId pos, NodeId neg, Pwl v) {
  check_node(pos);
  check_node(neg);
  if (v.empty()) throw std::invalid_argument("Circuit: empty vsource waveform");
  vsources_.push_back({pos, neg, std::move(v)});
  return static_cast<int>(vsources_.size()) - 1;
}

void Circuit::set_vsource_waveform(int k, Pwl v) {
  if (k < 0 || static_cast<std::size_t>(k) >= vsources_.size())
    throw std::invalid_argument("Circuit: bad vsource index");
  if (v.empty()) throw std::invalid_argument("Circuit: empty vsource waveform");
  vsources_[static_cast<std::size_t>(k)].v = std::move(v);
}

int Circuit::add_isource(NodeId into, NodeId from, Pwl i) {
  check_node(into);
  check_node(from);
  if (i.empty()) throw std::invalid_argument("Circuit: empty isource waveform");
  isources_.push_back({into, from, std::move(i)});
  return static_cast<int>(isources_.size()) - 1;
}

void Circuit::set_isource_waveform(int k, Pwl i) {
  if (k < 0 || static_cast<std::size_t>(k) >= isources_.size())
    throw std::invalid_argument("Circuit: bad isource index");
  if (i.empty()) throw std::invalid_argument("Circuit: empty isource waveform");
  isources_[static_cast<std::size_t>(k)].i = std::move(i);
}

void Circuit::add_mosfet(NodeId d, NodeId g, NodeId s, const MosfetParams& params) {
  check_node(d);
  check_node(g);
  check_node(s);
  mosfets_.push_back({d, g, s, params});
}

}  // namespace dn
