#include "devices/gate.hpp"

#include <stdexcept>

#include "sim/nonlinear_sim.hpp"

namespace dn {

bool gate_inverts(GateType t) { return t != GateType::Buffer; }

const char* gate_type_name(GateType t) {
  switch (t) {
    case GateType::Inverter: return "INV";
    case GateType::Buffer: return "BUF";
    case GateType::Nand2: return "NAND2";
    case GateType::Nor2: return "NOR2";
  }
  return "?";
}

double GateParams::input_cap() const {
  // One NMOS + one PMOS gate hang on each input pin for all supported types
  // (only the sensitized pin matters here).
  return (wn() + wp()) * nmos_proto.cg_per_m;
}

double GateParams::output_parasitic_cap() const {
  // Drain junction caps on the output node: one N + one P for an inverter;
  // series/parallel stacks are close enough to the same for our purposes.
  return wn() * nmos_proto.cj_per_m + wp() * pmos_proto.cj_per_m;
}

namespace {

MosfetParams nmos_of(const GateParams& g, double w_mult = 1.0) {
  MosfetParams p = g.nmos_proto;
  p.type = MosType::Nmos;
  p.w = g.wn() * w_mult;
  return p;
}

MosfetParams pmos_of(const GateParams& g, double w_mult = 1.0) {
  MosfetParams p = g.pmos_proto;
  p.type = MosType::Pmos;
  p.w = g.wp() * w_mult;
  return p;
}

void add_inverter(Circuit& ckt, const GateParams& g, NodeId in, NodeId out,
                  NodeId vdd, double w_mult = 1.0) {
  ckt.add_mosfet(out, in, kGround, nmos_of(g, w_mult));
  ckt.add_mosfet(out, in, vdd, pmos_of(g, w_mult));
}

}  // namespace

void instantiate_gate(Circuit& ckt, const GateParams& gate, NodeId in,
                      NodeId out, NodeId vdd_node) {
  switch (gate.type) {
    case GateType::Inverter:
      add_inverter(ckt, gate, in, out, vdd_node);
      return;
    case GateType::Buffer: {
      // Two inverters; the first is a quarter of the output stage.
      const NodeId mid = ckt.add_node();
      add_inverter(ckt, gate, in, mid, vdd_node, 0.25);
      add_inverter(ckt, gate, mid, out, vdd_node);
      return;
    }
    case GateType::Nand2: {
      // Series NMOS stack (side input tied high = conducting), parallel
      // PMOS (side device off). NMOS widths doubled to offset the stack.
      const NodeId mid = ckt.add_node();
      ckt.add_mosfet(out, in, mid, nmos_of(gate, 2.0));
      ckt.add_mosfet(mid, vdd_node, kGround, nmos_of(gate, 2.0));  // Gate at vdd.
      ckt.add_mosfet(out, in, vdd_node, pmos_of(gate));
      // Side PMOS gate tied high -> off; contributes junction load only.
      ckt.add_mosfet(out, vdd_node, vdd_node, pmos_of(gate));
      return;
    }
    case GateType::Nor2: {
      // Series PMOS stack (side input tied low = conducting), parallel NMOS.
      const NodeId mid = ckt.add_node();
      ckt.add_mosfet(mid, kGround, vdd_node, pmos_of(gate, 2.0));  // Gate at gnd.
      ckt.add_mosfet(out, in, mid, pmos_of(gate, 2.0));
      ckt.add_mosfet(out, in, kGround, nmos_of(gate));
      // Side NMOS gate tied low -> off; contributes junction load only.
      ckt.add_mosfet(out, kGround, kGround, nmos_of(gate));
      return;
    }
  }
  throw std::invalid_argument("instantiate_gate: unknown gate type");
}

NodeId add_vdd(Circuit& ckt, double vdd) {
  const NodeId n = ckt.node("vdd");
  ckt.add_vsource(n, kGround, Pwl::constant(vdd));
  return n;
}

StatusOr<Pwl> try_simulate_gate(const GateParams& gate, const Pwl& vin,
                                double cload, const TransientSpec& spec,
                                const std::optional<Pwl>& inject,
                                GateSimCache* warm) {
  Circuit ckt;
  const NodeId vdd = add_vdd(ckt, gate.vdd);
  const NodeId in = ckt.node("in");
  const NodeId out = ckt.node("out");
  ckt.add_vsource(in, kGround, vin);
  instantiate_gate(ckt, gate, in, out, vdd);
  if (cload > 0) ckt.add_capacitor(out, kGround, cload);
  if (inject) ckt.add_isource(out, kGround, *inject);
  NonlinearSim sim(ckt);
  const Vector* hint =
      (warm && warm->dc.size() == sim.mna().dim()) ? &warm->dc : nullptr;
  auto res = sim.try_run(spec, {.dc_hint = hint});
  if (!res.ok()) return res.status();
  if (warm) warm->dc = res->initial_state();
  return res->waveform(out);
}

Pwl simulate_gate(const GateParams& gate, const Pwl& vin, double cload,
                  const TransientSpec& spec, const std::optional<Pwl>& inject) {
  auto res = try_simulate_gate(gate, vin, cload, spec, inject);
  if (!res.ok()) raise(res.status());
  return std::move(res).value();
}

ReceiverProbeSession::ReceiverProbeSession(const GateParams& gate,
                                           double cload, bool warm_start)
    : warm_start_(warm_start) {
  // Element order matches try_simulate_gate exactly, so the assembled MNA
  // system (and therefore every simulated byte) is identical.
  const NodeId vdd = add_vdd(ckt_, gate.vdd);
  const NodeId in = ckt_.node("in");
  out_ = ckt_.node("out");
  in_src_ = ckt_.add_vsource(in, kGround, Pwl::constant(0.0));
  instantiate_gate(ckt_, gate, in, out_, vdd);
  if (cload > 0) ckt_.add_capacitor(out_, kGround, cload);
  sim_.emplace(ckt_);
}

StatusOr<Pwl> ReceiverProbeSession::try_run(const Pwl& vin,
                                            const TransientSpec& spec) {
  ckt_.set_vsource_waveform(in_src_, vin);
  const Vector* hint =
      (warm_start_ && dc_.size() == sim_->mna().dim()) ? &dc_ : nullptr;
  auto res = sim_->try_run(spec, {.dc_hint = hint});
  if (!res.ok()) return res.status();
  if (warm_start_) dc_ = res->initial_state();
  ++probes_;
  return res->waveform(out_);
}

double gate_initial_output(const GateParams& gate, double vin_initial) {
  const bool in_high = vin_initial > 0.5 * gate.vdd;
  const bool out_high = gate_inverts(gate.type) ? !in_high : in_high;
  return out_high ? gate.vdd : 0.0;
}

}  // namespace dn
