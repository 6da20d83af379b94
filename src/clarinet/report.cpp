#include "clarinet/report.hpp"

#include <ostream>
#include <sstream>

#include "util/units.hpp"

namespace dn {

DelayNoiseReport DelayNoiseReport::from(const CoupledNet& net,
                                        const DelayNoiseResult& r,
                                        std::string name) {
  using namespace dn::units;
  DelayNoiseReport rep;
  rep.net_name = std::move(name);
  rep.victim_driver = gate_type_name(net.victim.driver.type);
  rep.victim_driver_size = net.victim.driver.size;
  rep.victim_segments = net.victim.net.num_nodes - 1;
  rep.victim_rising = net.victim.output_rising;
  rep.num_aggressors = net.aggressors.size();
  rep.coupling_total_ff = net.total_coupling_cap() / fF;
  rep.rth_ohm = r.rth;
  rep.holding_r_ohm = r.holding_r;
  rep.rtr_iterations = r.rtr_iterations;
  rep.pulse_height_v = r.composite.params.height;
  rep.pulse_width_ps = r.composite.params.width / ps;
  rep.peak_time_ps = r.alignment.t_peak / ps;
  rep.align_voltage_v = r.alignment.align_voltage;
  rep.input_delay_noise_ps = r.input_delay_noise() / ps;
  rep.delay_noise_ps = r.delay_noise() / ps;
  rep.degradations = r.degradations;
  return rep;
}

void DelayNoiseReport::to_text(std::ostream& os) const {
  os << "delay-noise report";
  if (!net_name.empty()) os << " [" << net_name << "]";
  os << "\n";
  os << "  victim: " << victim_driver << "X" << victim_driver_size
     << " driving " << victim_segments << "-segment net, "
     << (victim_rising ? "rising" : "falling") << " transition\n";
  os << "  aggressors: " << num_aggressors << ", total coupling "
     << coupling_total_ff << " fF\n";
  os << "  victim driver: Rth = " << rth_ohm
     << " Ohm, transient holding R = " << holding_r_ohm << " Ohm ("
     << rtr_iterations << " Rtr iterations)\n";
  os << "  composite noise pulse: height " << pulse_height_v << " V, width "
     << pulse_width_ps << " ps\n";
  os << "  worst-case alignment: pulse peak at " << peak_time_ps
     << " ps (alignment voltage " << align_voltage_v << " V)\n";
  os << "  interconnect delay noise: " << input_delay_noise_ps << " ps\n";
  os << "  combined (receiver output) delay noise: " << delay_noise_ps
     << " ps\n";
  if (!fidelity_tier.empty())
    os << "  fidelity: decided by " << fidelity_tier << "\n";
  for (const auto& d : degradations) {
    os << "  degraded: " << degrade_kind_name(d.kind);
    if (d.count > 1) os << " (x" << d.count << ")";
    os << ": " << d.detail << "\n";
  }
}

std::string DelayNoiseReport::to_text() const {
  std::ostringstream os;
  to_text(os);
  return os.str();
}

json::Value DelayNoiseReport::to_json_value() const {
  json::Object o;
  o["schema_version"] = kReportSchemaVersion;
  o["net"] = net_name;
  o["victim_driver"] = victim_driver;
  o["victim_driver_size"] = victim_driver_size;
  o["victim_segments"] = victim_segments;
  o["victim_rising"] = victim_rising;
  o["aggressors"] = num_aggressors;
  o["coupling_total_ff"] = coupling_total_ff;
  o["rth_ohm"] = rth_ohm;
  o["holding_r_ohm"] = holding_r_ohm;
  o["rtr_iterations"] = rtr_iterations;
  o["pulse_height_v"] = pulse_height_v;
  o["pulse_width_ps"] = pulse_width_ps;
  o["peak_time_ps"] = peak_time_ps;
  o["align_voltage_v"] = align_voltage_v;
  o["input_delay_noise_ps"] = input_delay_noise_ps;
  o["delay_noise_ps"] = delay_noise_ps;
  if (!fidelity_tier.empty()) o["fidelity_tier"] = fidelity_tier;
  if (!degradations.empty()) {
    json::Array steps;
    for (const Degradation& d : degradations) {
      json::Object step;
      step["kind"] = degrade_kind_name(d.kind);
      step["detail"] = d.detail;
      if (d.count > 1) step["count"] = d.count;
      steps.emplace_back(std::move(step));
    }
    o["degradations"] = std::move(steps);
  }
  return json::Value(std::move(o));
}

void DelayNoiseReport::to_json(std::ostream& os) const {
  to_json_value().dump(os);
}

std::string DelayNoiseReport::to_json() const { return to_json_value().dump(); }

}  // namespace dn
