#include "devices/gate.hpp"

#include <bit>
#include <istream>
#include <ostream>
#include <stdexcept>

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

GateTableKey gate_table_key(const GateParams& g, bool rising, double lte_tol,
                            int stale_jacobian_iters) {
  // A field added to either struct must join the key and the record.
  static_assert(sizeof(MosfetParams) == 8 * sizeof(double));
  static_assert(sizeof(GateParams) ==
                5 * sizeof(double) + 2 * sizeof(MosfetParams));
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  GateTableKey k{};
  std::size_t i = 0;
  k[i++] = static_cast<std::uint64_t>(g.type);
  for (const double x : {g.size, g.vdd, g.wn_unit, g.wp_unit}) k[i++] = bits(x);
  for (const MosfetParams* p : {&g.nmos_proto, &g.pmos_proto}) {
    k[i++] = static_cast<std::uint64_t>(p->type);
    for (const double x :
         {p->w, p->l, p->vt, p->kp, p->lambda, p->cg_per_m, p->cj_per_m})
      k[i++] = bits(x);
  }
  k[i++] = rising ? 1 : 0;
  k[i++] = bits(lte_tol);
  k[i++] = static_cast<std::uint64_t>(stale_jacobian_iters);
  return k;
}

void write_gate(std::ostream& os, const GateParams& g) {
  os.precision(17);
  os << static_cast<int>(g.type) << ' ' << g.size << ' ' << g.vdd << ' '
     << g.wn_unit << ' ' << g.wp_unit;
  for (const MosfetParams* p : {&g.nmos_proto, &g.pmos_proto})
    os << ' ' << static_cast<int>(p->type) << ' ' << p->w << ' ' << p->l
       << ' ' << p->vt << ' ' << p->kp << ' ' << p->lambda << ' '
       << p->cg_per_m << ' ' << p->cj_per_m;
  os << '\n';
}

GateParams read_gate(std::istream& is) {
  GateParams g;
  int type = 0;
  is >> type >> g.size >> g.vdd >> g.wn_unit >> g.wp_unit;
  bool valid = type >= 0 && type <= static_cast<int>(GateType::Nor2);
  g.type = static_cast<GateType>(type);
  for (MosfetParams* p : {&g.nmos_proto, &g.pmos_proto}) {
    int mos_type = 0;
    is >> mos_type >> p->w >> p->l >> p->vt >> p->kp >> p->lambda >>
        p->cg_per_m >> p->cj_per_m;
    valid = valid && (mos_type == 0 || mos_type == 1);
    p->type = static_cast<MosType>(mos_type);
  }
  if (!is || !valid) throw std::runtime_error("corrupt gate record");
  return g;
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

GateSim::GateSim(const GateParams& gate, double cload, Kind kind)
    : gate_(gate), cload_(cload) {
  const NodeId vdd = add_vdd(ckt_, gate.vdd);
  const NodeId in = ckt_.node("in");
  in_src_ = ckt_.add_vsource(in, kGround, Pwl::constant(0.0));
  const int copies = kind == Kind::kPaired ? 2 : 1;
  for (int c = 0; c < copies; ++c) {
    out_.push_back(ckt_.add_node());
    instantiate_gate(ckt_, gate, in, out_.back(), vdd);
    if (cload > 0) ckt_.add_capacitor(out_.back(), kGround, cload);
  }
  if (kind != Kind::kSingle)
    inject_src_ = ckt_.add_isource(out_.back(), kGround, Pwl::constant(0.0));
  sim_.emplace(ckt_);
}

StatusOr<Pwl> GateSim::try_run(const Pwl& vin, const TransientSpec& spec,
                               Vector* warm, const Pwl* inject) {
  if ((inject != nullptr) != (inject_src_ >= 0))
    throw std::invalid_argument(
        "GateSim: an injected current is required exactly when the sim "
        "was built with an injection source");
  ckt_.set_vsource_waveform(in_src_, vin);
  if (inject) ckt_.set_isource_waveform(inject_src_, *inject);
  const Vector* hint =
      (warm && warm->size() == sim_->mna().dim()) ? warm : nullptr;
  auto run = sim_->try_run(spec, {.dc_hint = hint});
  if (!run.ok()) return run.status();
  if (warm) *warm = run->initial_state();
  if (out_.size() == 1) return run->waveform(out_[0]);
  std::vector<double> dv(run->num_points());
  for (std::size_t k = 0; k < dv.size(); ++k)
    dv[k] = run->v(out_[1], k) - run->v(out_[0], k);
  return Pwl(run->time(), std::move(dv));
}

}  // namespace dn
