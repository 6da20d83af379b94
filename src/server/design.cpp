#include "server/design.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>

#include "rcnet/random_nets.hpp"
#include "rcnet/spef.hpp"
#include "util/rng.hpp"

namespace dn::server {

namespace {

GateParams gate_of(GateType type, double size, double vdd) {
  GateParams g;
  g.type = type;
  g.size = size;
  g.vdd = vdd;
  return g;
}

Status bad_index(int i, std::size_t n) {
  return Status::InvalidArgument("design: net index " + std::to_string(i) +
                                 " out of range (have " + std::to_string(n) +
                                 " nets)");
}

}  // namespace

Design Design::random(std::uint64_t seed, int num_nets, int neighbors) {
  Design d;
  Rng rng(seed);
  const RandomNetConfig cfg{};

  // Phase 1: the nets, sampled with the same parameter spread as
  // random_coupled_net's victims. Two-phase generation keeps a net's
  // parameters independent of the coupling topology.
  d.nets_.reserve(static_cast<std::size_t>(num_nets));
  for (int i = 0; i < num_nets; ++i) {
    DesignNet n;
    n.name = "n" + std::to_string(i);
    const int seg = rng.uniform_int(cfg.min_segments, cfg.max_segments);
    n.tree = make_line(seg, rng.log_uniform(cfg.r_total_min, cfg.r_total_max),
                       rng.log_uniform(cfg.c_total_min, cfg.c_total_max));
    n.driver = gate_of(
        GateType::Inverter,
        cfg.victim_sizes[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<int>(cfg.victim_sizes.size()) - 1))],
        cfg.vdd);
    n.receiver = gate_of(
        GateType::Inverter,
        cfg.receiver_sizes[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<int>(cfg.receiver_sizes.size()) - 1))],
        cfg.vdd);
    n.input_slew = rng.uniform(cfg.slew_min, cfg.slew_max);
    n.output_rising = rng.chance(0.5);
    n.receiver_load = rng.log_uniform(cfg.rcv_load_min, cfg.rcv_load_max);
    n.sink_load = rng.uniform(2e-15, 8e-15);
    n.is_victim = true;
    d.nets_.push_back(std::move(n));
  }

  // Phase 2: ring couplings — net i to its `neighbors` successors, caps
  // distributed along the overlap of interior nodes.
  std::set<std::pair<int, int>> seen;
  for (int i = 0; i < num_nets; ++i) {
    for (int k = 1; k <= neighbors; ++k) {
      const int j = (i + k) % num_nets;
      if (j == i) continue;
      const auto pair = std::minmax(i, j);
      if (!seen.insert({pair.first, pair.second}).second) continue;
      const double cc_pair =
          d.nets_[static_cast<std::size_t>(i)].tree.total_cap() *
          rng.uniform(0.2, 0.6);
      const int seg_i = d.nets_[static_cast<std::size_t>(i)].tree.num_nodes - 1;
      const int seg_j = d.nets_[static_cast<std::size_t>(j)].tree.num_nodes - 1;
      const int overlap = std::max(1, std::min(seg_i, seg_j));
      for (int t = 1; t <= overlap; ++t)
        d.couplings_.push_back(
            {pair.first, pair.second, t, t, cc_pair / overlap});
    }
  }
  return d;
}

StatusOr<Design> Design::from_spef_files(
    const std::vector<std::string>& paths) {
  Design d;
  for (const auto& path : paths) {
    StatusOr<CoupledNet> loaded = try_read_spef_file(path);
    if (!loaded.ok()) return loaded.status();
    const CoupledNet& cn = *loaded;
    const int base = static_cast<int>(d.nets_.size());

    DesignNet victim;
    victim.name = path;
    victim.tree = cn.victim.net;
    victim.driver = cn.victim.driver;
    victim.receiver = cn.victim.receiver;
    victim.input_slew = cn.victim.input_slew;
    victim.output_rising = cn.victim.output_rising;
    victim.receiver_load = cn.victim.receiver_load;
    victim.is_victim = true;
    d.nets_.push_back(std::move(victim));

    for (std::size_t k = 0; k < cn.aggressors.size(); ++k) {
      const AggressorDesc& agg = cn.aggressors[k];
      DesignNet an;
      an.name = path + "#a" + std::to_string(k);
      an.tree = agg.net;
      an.driver = agg.driver;
      an.input_slew = agg.input_slew;
      an.output_rising = agg.output_rising;
      an.sink_load = agg.sink_load;
      an.is_victim = false;  // Context only: never analyzed itself.
      d.nets_.push_back(std::move(an));
    }
    for (const Coupling& cc : cn.couplings)
      d.couplings_.push_back({base, base + 1 + cc.aggressor, cc.victim_node,
                              cc.aggressor_node, cc.c});
  }
  return d;
}

StatusOr<int> Design::find(const std::string& name) const {
  for (std::size_t i = 0; i < nets_.size(); ++i)
    if (nets_[i].name == name) return static_cast<int>(i);
  return Status::NotFound("design: no net named \"" + name + "\"");
}

std::vector<int> Design::victims() const {
  std::vector<int> out;
  for (std::size_t i = 0; i < nets_.size(); ++i)
    if (nets_[i].is_victim) out.push_back(static_cast<int>(i));
  return out;
}

std::vector<int> Design::neighbors(int i) const {
  std::vector<int> out;
  for (const DesignCoupling& cc : couplings_) {
    if (cc.a == i) out.push_back(cc.b);
    if (cc.b == i) out.push_back(cc.a);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<int> Design::affected_victims(int i) const {
  std::vector<int> out;
  if (nets_[static_cast<std::size_t>(i)].is_victim) out.push_back(i);
  for (const int j : neighbors(i))
    if (nets_[static_cast<std::size_t>(j)].is_victim) out.push_back(j);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

StatusOr<CoupledNet> Design::coupled_view(int i) const {
  if (i < 0 || static_cast<std::size_t>(i) >= nets_.size())
    return bad_index(i, nets_.size());
  const DesignNet& v = nets_[static_cast<std::size_t>(i)];

  CoupledNet cn;
  cn.victim.net = v.tree;
  cn.victim.driver = v.driver;
  cn.victim.receiver = v.receiver;
  cn.victim.input_slew = v.input_slew;
  cn.victim.output_rising = v.output_rising;
  cn.victim.receiver_load = v.receiver_load;

  const std::vector<int> nbrs = neighbors(i);
  for (std::size_t k = 0; k < nbrs.size(); ++k) {
    const DesignNet& an = nets_[static_cast<std::size_t>(nbrs[k])];
    AggressorDesc agg;
    agg.net = an.tree;
    agg.driver = an.driver;
    agg.input_slew = an.input_slew;
    // Policy, not stored state: aggressors oppose the victim — the
    // delay-increasing worst case.
    agg.output_rising = !v.output_rising;
    agg.sink_load = an.sink_load;
    cn.aggressors.push_back(std::move(agg));
  }
  for (const DesignCoupling& cc : couplings_) {
    int other = -1, victim_node = 0, aggressor_node = 0;
    if (cc.a == i) {
      other = cc.b;
      victim_node = cc.a_node;
      aggressor_node = cc.b_node;
    } else if (cc.b == i) {
      other = cc.a;
      victim_node = cc.b_node;
      aggressor_node = cc.a_node;
    } else {
      continue;
    }
    const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), other);
    cn.couplings.push_back({static_cast<int>(it - nbrs.begin()),
                            aggressor_node, victim_node, cc.c});
  }
  try {
    cn.validate();
  } catch (const std::exception& e) {
    return Status::InvalidArgument("design: net \"" + v.name +
                                   "\" has an inconsistent view: " + e.what());
  }
  return cn;
}

Status Design::scale_net(int i, double scale_r, double scale_c) {
  if (i < 0 || static_cast<std::size_t>(i) >= nets_.size())
    return bad_index(i, nets_.size());
  if (!(std::isfinite(scale_r) && scale_r > 0) ||
      !(std::isfinite(scale_c) && scale_c > 0))
    return Status::InvalidArgument(
        "design: scale factors must be finite and > 0");
  RcTree& tree = nets_[static_cast<std::size_t>(i)].tree;
  for (NetRes& r : tree.res) r.r *= scale_r;
  for (NetCap& c : tree.caps) c.c *= scale_c;
  return Status::Ok();
}

Status Design::set_driver_size(int i, double size) {
  if (i < 0 || static_cast<std::size_t>(i) >= nets_.size())
    return bad_index(i, nets_.size());
  if (!(std::isfinite(size) && size > 0))
    return Status::InvalidArgument("design: driver size must be > 0");
  nets_[static_cast<std::size_t>(i)].driver.size = size;
  return Status::Ok();
}

namespace {

json::Value mosfet_to_json(const MosfetParams& p) {
  json::Array a;
  a.emplace_back(static_cast<int>(p.type));
  a.emplace_back(p.w);
  a.emplace_back(p.l);
  a.emplace_back(p.vt);
  a.emplace_back(p.kp);
  a.emplace_back(p.lambda);
  a.emplace_back(p.cg_per_m);
  a.emplace_back(p.cj_per_m);
  return json::Value(std::move(a));
}

Status mosfet_from_json(const json::Value& v, MosfetParams& out,
                        const char* what) {
  if (!v.is_array() || v.as_array().size() != 8)
    return Status::InvalidArgument(std::string(what) +
                                   " must be an 8-element array");
  const json::Array& a = v.as_array();
  for (const json::Value& e : a)
    if (!e.is_number())
      return Status::InvalidArgument(std::string(what) +
                                     " elements must be numbers");
  StatusOr<int> type = a[0].require_int("mosfet type");
  if (!type.ok()) return type.status();
  if (*type != static_cast<int>(MosType::Nmos) &&
      *type != static_cast<int>(MosType::Pmos))
    return Status::InvalidArgument(std::string(what) +
                                   " has unknown mosfet type");
  out.type = static_cast<MosType>(*type);
  out.w = a[1].as_number();
  out.l = a[2].as_number();
  out.vt = a[3].as_number();
  out.kp = a[4].as_number();
  out.lambda = a[5].as_number();
  out.cg_per_m = a[6].as_number();
  out.cj_per_m = a[7].as_number();
  return Status::Ok();
}

json::Value gate_to_json(const GateParams& g) {
  json::Object o;
  o["type"] = static_cast<int>(g.type);
  o["size"] = g.size;
  o["vdd"] = g.vdd;
  o["wn_unit"] = g.wn_unit;
  o["wp_unit"] = g.wp_unit;
  o["nmos"] = mosfet_to_json(g.nmos_proto);
  o["pmos"] = mosfet_to_json(g.pmos_proto);
  return json::Value(std::move(o));
}

Status gate_from_json(const json::Value& v, GateParams& out,
                      const char* what) {
  if (!v.is_object())
    return Status::InvalidArgument(std::string(what) + " must be an object");
  const json::Value* f = v.find("type");
  StatusOr<int> type = f ? f->require_int("gate type") : StatusOr<int>(
      Status::InvalidArgument(std::string(what) + " missing type"));
  if (!type.ok()) return type.status();
  if (*type < 0 || *type > static_cast<int>(GateType::Nor2))
    return Status::InvalidArgument(std::string(what) + " has unknown type");
  out.type = static_cast<GateType>(*type);
  const struct { const char* key; double* dst; } nums[] = {
      {"size", &out.size},
      {"vdd", &out.vdd},
      {"wn_unit", &out.wn_unit},
      {"wp_unit", &out.wp_unit},
  };
  for (const auto& [key, dst] : nums) {
    const json::Value* n = v.find(key);
    if (!n)
      return Status::InvalidArgument(std::string(what) + " missing " + key);
    StatusOr<double> d = n->require_number(key);
    if (!d.ok()) return d.status();
    *dst = *d;
  }
  const json::Value* nm = v.find("nmos");
  const json::Value* pm = v.find("pmos");
  if (!nm || !pm)
    return Status::InvalidArgument(std::string(what) +
                                   " missing mosfet prototypes");
  Status s = mosfet_from_json(*nm, out.nmos_proto, "nmos");
  if (!s.ok()) return s;
  return mosfet_from_json(*pm, out.pmos_proto, "pmos");
}

json::Value tree_to_json(const RcTree& t) {
  json::Object o;
  o["num_nodes"] = t.num_nodes;
  o["sink"] = t.sink;
  json::Array res;
  for (const NetRes& r : t.res) {
    json::Array e;
    e.emplace_back(r.a);
    e.emplace_back(r.b);
    e.emplace_back(r.r);
    res.emplace_back(std::move(e));
  }
  o["res"] = json::Value(std::move(res));
  json::Array caps;
  for (const NetCap& c : t.caps) {
    json::Array e;
    e.emplace_back(c.node);
    e.emplace_back(c.c);
    caps.emplace_back(std::move(e));
  }
  o["caps"] = json::Value(std::move(caps));
  return json::Value(std::move(o));
}

/// An integral index in [0, count): the document comes from outside
/// (requests, snapshots), and casting an arbitrary double to int is
/// undefined behavior.
StatusOr<int> checked_index(const json::Value& v, const char* what,
                            int count) {
  StatusOr<int> i = v.require_int(what);
  if (!i.ok()) return i.status();
  if (*i < 0 || *i >= count)
    return Status::InvalidArgument(std::string(what) + " " +
                                   std::to_string(*i) + " out of range [0, " +
                                   std::to_string(count) + ")");
  return *i;
}

Status tree_from_json(const json::Value& v, RcTree& out) {
  if (!v.is_object())
    return Status::InvalidArgument("tree must be an object");
  const json::Value* nn = v.find("num_nodes");
  const json::Value* sink = v.find("sink");
  const json::Value* res = v.find("res");
  const json::Value* caps = v.find("caps");
  if (!nn || !sink || !res || !caps || !res->is_array() || !caps->is_array())
    return Status::InvalidArgument("tree missing num_nodes/sink/res/caps");
  StatusOr<int> n = nn->require_int("num_nodes");
  if (!n.ok()) return n.status();
  if (*n < 1) return Status::InvalidArgument("tree num_nodes must be >= 1");
  out.num_nodes = *n;
  StatusOr<int> s = checked_index(*sink, "tree sink", *n);
  if (!s.ok()) return s.status();
  out.sink = *s;
  out.res.clear();
  for (const json::Value& e : res->as_array()) {
    if (!e.is_array() || e.as_array().size() != 3 ||
        !e.as_array()[2].is_number())
      return Status::InvalidArgument("tree res entries must be [a,b,r]");
    const json::Array& a = e.as_array();
    StatusOr<int> na = checked_index(a[0], "tree res node", *n);
    if (!na.ok()) return na.status();
    StatusOr<int> nb = checked_index(a[1], "tree res node", *n);
    if (!nb.ok()) return nb.status();
    out.res.push_back({*na, *nb, a[2].as_number()});
  }
  out.caps.clear();
  for (const json::Value& e : caps->as_array()) {
    if (!e.is_array() || e.as_array().size() != 2 ||
        !e.as_array()[1].is_number())
      return Status::InvalidArgument("tree caps entries must be [node,c]");
    const json::Array& a = e.as_array();
    StatusOr<int> node = checked_index(a[0], "tree caps node", *n);
    if (!node.ok()) return node.status();
    out.caps.push_back({*node, a[1].as_number()});
  }
  return Status::Ok();
}

}  // namespace

json::Value Design::to_json() const {
  json::Object doc;
  json::Array nets;
  for (const DesignNet& n : nets_) {
    json::Object o;
    o["name"] = n.name;
    o["tree"] = tree_to_json(n.tree);
    o["driver"] = gate_to_json(n.driver);
    o["receiver"] = gate_to_json(n.receiver);
    o["input_slew"] = n.input_slew;
    o["output_rising"] = n.output_rising;
    o["receiver_load"] = n.receiver_load;
    o["sink_load"] = n.sink_load;
    o["is_victim"] = n.is_victim;
    nets.emplace_back(std::move(o));
  }
  doc["nets"] = json::Value(std::move(nets));
  json::Array couplings;
  for (const DesignCoupling& cc : couplings_) {
    json::Array e;
    e.emplace_back(cc.a);
    e.emplace_back(cc.b);
    e.emplace_back(cc.a_node);
    e.emplace_back(cc.b_node);
    e.emplace_back(cc.c);
    couplings.emplace_back(std::move(e));
  }
  doc["couplings"] = json::Value(std::move(couplings));
  return json::Value(std::move(doc));
}

StatusOr<Design> Design::from_json(const json::Value& v) {
  if (!v.is_object())
    return Status::InvalidArgument("design document must be an object");
  const json::Value* nets = v.find("nets");
  const json::Value* couplings = v.find("couplings");
  if (!nets || !nets->is_array() || !couplings || !couplings->is_array())
    return Status::InvalidArgument(
        "design document missing nets/couplings arrays");

  Design d;
  for (const json::Value& nv : nets->as_array()) {
    if (!nv.is_object())
      return Status::InvalidArgument("design net must be an object");
    DesignNet n;
    const json::Value* name = nv.find("name");
    if (!name)
      return Status::InvalidArgument("design net missing name");
    StatusOr<std::string> ns = name->require_string("net name");
    if (!ns.ok()) return ns.status();
    n.name = std::move(*ns);

    const json::Value* tree = nv.find("tree");
    if (!tree) return Status::InvalidArgument("design net missing tree");
    Status s = tree_from_json(*tree, n.tree);
    if (!s.ok()) return s;
    const json::Value* driver = nv.find("driver");
    const json::Value* receiver = nv.find("receiver");
    if (!driver || !receiver)
      return Status::InvalidArgument("design net missing driver/receiver");
    s = gate_from_json(*driver, n.driver, "driver");
    if (!s.ok()) return s;
    s = gate_from_json(*receiver, n.receiver, "receiver");
    if (!s.ok()) return s;

    const struct { const char* key; double* dst; } nums[] = {
        {"input_slew", &n.input_slew},
        {"receiver_load", &n.receiver_load},
        {"sink_load", &n.sink_load},
    };
    for (const auto& [key, dst] : nums) {
      const json::Value* f = nv.find(key);
      if (!f)
        return Status::InvalidArgument(std::string("design net missing ") +
                                       key);
      StatusOr<double> num = f->require_number(key);
      if (!num.ok()) return num.status();
      *dst = *num;
    }
    const struct { const char* key; bool* dst; } bools[] = {
        {"output_rising", &n.output_rising},
        {"is_victim", &n.is_victim},
    };
    for (const auto& [key, dst] : bools) {
      const json::Value* f = nv.find(key);
      if (!f)
        return Status::InvalidArgument(std::string("design net missing ") +
                                       key);
      StatusOr<bool> b = f->require_bool(key);
      if (!b.ok()) return b.status();
      *dst = *b;
    }
    d.nets_.push_back(std::move(n));
  }

  for (const json::Value& cv : couplings->as_array()) {
    if (!cv.is_array() || cv.as_array().size() != 5)
      return Status::InvalidArgument(
          "design coupling must be [a,b,a_node,b_node,c]");
    const json::Array& a = cv.as_array();
    if (!a[4].is_number())
      return Status::InvalidArgument(
          "design coupling elements must be numbers");
    const auto n = static_cast<int>(d.nets_.size());
    StatusOr<int> na = checked_index(a[0], "design coupling net", n);
    if (!na.ok()) return na.status();
    StatusOr<int> nb = checked_index(a[1], "design coupling net", n);
    if (!nb.ok()) return nb.status();
    StatusOr<int> a_node = checked_index(a[2], "design coupling node",
                                      d.nets_[*na].tree.num_nodes);
    if (!a_node.ok()) return a_node.status();
    StatusOr<int> b_node = checked_index(a[3], "design coupling node",
                                      d.nets_[*nb].tree.num_nodes);
    if (!b_node.ok()) return b_node.status();
    d.couplings_.push_back({*na, *nb, *a_node, *b_node, a[4].as_number()});
  }
  return d;
}

}  // namespace dn::server
