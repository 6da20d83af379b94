#include "sta/timing_graph.hpp"

#include <algorithm>
#include <stdexcept>

namespace dn {

int TimingGraph::add_primary_input(const std::string& name, double early,
                                   double late) {
  if (late < early)
    throw std::invalid_argument("TimingGraph: window late < early");
  const int id = add_net(name);
  driver_of_[static_cast<std::size_t>(id)] = -1;
  pi_early_[static_cast<std::size_t>(id)] = early;
  pi_late_[static_cast<std::size_t>(id)] = late;
  return id;
}

int TimingGraph::add_net(const std::string& name) {
  for (const auto& n : names_)
    if (n == name)
      throw std::invalid_argument("TimingGraph: duplicate net '" + name + "'");
  names_.push_back(name);
  driver_of_.push_back(-2);
  pi_early_.push_back(0.0);
  pi_late_.push_back(0.0);
  return static_cast<int>(names_.size()) - 1;
}

void TimingGraph::add_gate(int output_net, std::vector<int> input_nets,
                           double delay) {
  if (output_net < 0 || output_net >= num_nets())
    throw std::invalid_argument("TimingGraph: bad output net");
  if (driver_of_[static_cast<std::size_t>(output_net)] != -2)
    throw std::invalid_argument("TimingGraph: net already driven");
  if (input_nets.empty())
    throw std::invalid_argument("TimingGraph: gate without inputs");
  for (int in : input_nets)
    if (in < 0 || in >= num_nets())
      throw std::invalid_argument("TimingGraph: bad input net");
  if (delay < 0) throw std::invalid_argument("TimingGraph: negative delay");
  gates_.push_back({std::move(input_nets), delay});
  driver_of_[static_cast<std::size_t>(output_net)] =
      static_cast<int>(gates_.size()) - 1;
}

int TimingGraph::net_id(const std::string& name) const {
  for (std::size_t i = 0; i < names_.size(); ++i)
    if (names_[i] == name) return static_cast<int>(i);
  throw std::out_of_range("TimingGraph: unknown net '" + name + "'");
}

const std::string& TimingGraph::net_name(int id) const {
  return names_.at(static_cast<std::size_t>(id));
}

double TimingGraph::gate_delay(int output_net) const {
  const int g = driver_of_.at(static_cast<std::size_t>(output_net));
  if (g < 0) throw std::invalid_argument("TimingGraph: net has no gate");
  return gates_[static_cast<std::size_t>(g)].delay;
}

void TimingGraph::set_required(int net, double required) {
  if (net < 0 || net >= num_nets())
    throw std::invalid_argument("TimingGraph: bad endpoint net");
  for (auto& [n, r] : required_) {
    if (n == net) {
      r = required;
      return;
    }
  }
  required_.emplace_back(net, required);
}

TimingGraph::SlackReport TimingGraph::compute_slack(const Windows& w) const {
  if (required_.empty())
    throw std::runtime_error("TimingGraph: no endpoints with required times");
  if (w.late.size() != static_cast<std::size_t>(num_nets()))
    throw std::invalid_argument("TimingGraph: windows size mismatch");
  SlackReport rep;
  for (const auto& [net, req] : required_) {
    const double slack = req - w.late[static_cast<std::size_t>(net)];
    rep.endpoints.push_back(net);
    rep.slack.push_back(slack);
    if (slack < rep.worst_slack) {
      rep.worst_slack = slack;
      rep.worst_endpoint = net;
    }
  }
  return rep;
}

TimingGraph::Windows TimingGraph::compute_windows(
    const std::vector<double>& extra_late_delay) const {
  const std::size_t n = names_.size();
  if (!extra_late_delay.empty() && extra_late_delay.size() != n)
    throw std::invalid_argument("TimingGraph: extra delay size mismatch");

  Windows w;
  w.early.assign(n, 0.0);
  w.late.assign(n, 0.0);
  std::vector<char> done(n, 0);
  std::vector<char> visiting(n, 0);

  // Iterative DFS evaluation (post-order) with cycle detection.
  std::vector<int> stack;
  auto extra = [&](std::size_t i) {
    return extra_late_delay.empty() ? 0.0 : extra_late_delay[i];
  };
  for (int root = 0; root < static_cast<int>(n); ++root) {
    if (done[static_cast<std::size_t>(root)]) continue;
    stack.push_back(root);
    while (!stack.empty()) {
      const int net = stack.back();
      const std::size_t ni = static_cast<std::size_t>(net);
      if (done[ni]) {
        stack.pop_back();
        continue;
      }
      const int g = driver_of_[ni];
      if (g == -2)
        throw std::runtime_error("TimingGraph: net '" + names_[ni] +
                                 "' is undriven");
      if (g == -1) {
        w.early[ni] = pi_early_[ni];
        w.late[ni] = pi_late_[ni];
        done[ni] = 1;
        stack.pop_back();
        continue;
      }
      const Gate& gate = gates_[static_cast<std::size_t>(g)];
      bool ready = true;
      for (int in : gate.inputs) {
        if (!done[static_cast<std::size_t>(in)]) {
          if (visiting[static_cast<std::size_t>(in)])
            throw std::runtime_error("TimingGraph: combinational cycle at '" +
                                     names_[static_cast<std::size_t>(in)] + "'");
          visiting[ni] = 1;
          stack.push_back(in);
          ready = false;
        }
      }
      if (!ready) continue;
      double e = 1e300, l = -1e300;
      for (int in : gate.inputs) {
        e = std::min(e, w.early[static_cast<std::size_t>(in)]);
        l = std::max(l, w.late[static_cast<std::size_t>(in)]);
      }
      w.early[ni] = e + gate.delay;
      w.late[ni] = l + gate.delay + extra(ni);
      done[ni] = 1;
      visiting[ni] = 0;
      stack.pop_back();
    }
  }
  return w;
}

}  // namespace dn
