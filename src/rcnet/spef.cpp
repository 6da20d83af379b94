#include "rcnet/spef.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "util/fault_injection.hpp"
#include "util/trace.hpp"

namespace dn {

namespace {

constexpr double kPs = 1e-12;
constexpr double kFf = 1e-15;

const char* type_token(GateType t) {
  switch (t) {
    case GateType::Inverter: return "INV";
    case GateType::Buffer: return "BUF";
    case GateType::Nand2: return "NAND2";
    case GateType::Nor2: return "NOR2";
  }
  return "INV";
}

GateType parse_type(const std::string& s) {
  if (s == "INV") return GateType::Inverter;
  if (s == "BUF") return GateType::Buffer;
  if (s == "NAND2") return GateType::Nand2;
  if (s == "NOR2") return GateType::Nor2;
  throw std::runtime_error("spef: unknown gate type '" + s + "'");
}

std::string node_ref(const std::string& net, int idx) {
  return net + ":" + std::to_string(idx);
}

void write_net_block(std::ostream& os, const std::string& name,
                     const RcTree& tree,
                     const std::vector<std::string>& coupling_lines = {}) {
  os << "*SINK " << tree.sink << "\n";
  os << "*CAP\n";
  for (const auto& c : tree.caps)
    os << node_ref(name, c.node) << " " << c.c / kFf << "\n";
  for (const auto& line : coupling_lines) os << line << "\n";
  os << "*RES\n";
  for (const auto& r : tree.res)
    os << node_ref(name, r.a) << " " << node_ref(name, r.b) << " " << r.r
       << "\n";
}

}  // namespace

void write_spef(std::ostream& os, const CoupledNet& net,
                const std::string& design) {
  net.validate();
  os.precision(12);  // Values must survive a round trip.
  os << "*SPEF \"dnoise-subset-1\"\n";
  os << "*DESIGN " << design << "\n";
  os << "*T_UNIT 1 PS\n*C_UNIT 1 FF\n*R_UNIT 1 OHM\n\n";

  const auto& v = net.victim;
  os << "*D_NET victim *VICTIM\n";
  os << "*DRIVER " << type_token(v.driver.type) << " " << v.driver.size << " "
     << v.input_slew / kPs << " " << (v.output_rising ? "RISE" : "FALL")
     << "\n";
  os << "*RECEIVER " << type_token(v.receiver.type) << " " << v.receiver.size
     << " " << v.receiver_load / kFf << "\n";
  // Victim block carries the coupling caps inside its *CAP section.
  std::vector<std::string> coupling_lines;
  for (const auto& cc : net.couplings) {
    std::ostringstream line;
    line.precision(12);
    line << node_ref("victim", cc.victim_node) << " "
         << node_ref("agg" + std::to_string(cc.aggressor), cc.aggressor_node)
         << " " << cc.c / kFf;
    coupling_lines.push_back(line.str());
  }
  write_net_block(os, "victim", v.net, coupling_lines);
  os << "*END\n\n";

  for (std::size_t k = 0; k < net.aggressors.size(); ++k) {
    const auto& a = net.aggressors[k];
    os << "*D_NET agg" << k << " *AGGRESSOR\n";
    os << "*DRIVER " << type_token(a.driver.type) << " " << a.driver.size
       << " " << a.input_slew / kPs << " "
       << (a.output_rising ? "RISE" : "FALL") << "\n";
    os << "*SINKLOAD " << a.sink_load / kFf << "\n";
    write_net_block(os, "agg" + std::to_string(k), a.net);
    os << "*END\n\n";
  }
}

namespace {

/// OOM guard: a node index names a slot of a dense num_nodes-sized
/// allocation downstream, so one forged "victim:999999999999" token must
/// not turn into gigabytes of zeros. Generous: real extracted nets in
/// this subset stay below a few thousand nodes.
constexpr int kMaxNodeIndex = 1000000;

/// A token plus where it came from, so every parse error names the exact
/// spot ("spef:12:7: ...") instead of making the user bisect the deck.
struct Token {
  std::string text;
  int line = 0;  // 1-based.
  int col = 0;   // 1-based.
};

[[noreturn]] void fail_at(int line, int col, const std::string& msg) {
  throw std::runtime_error("spef:" + std::to_string(line) + ":" +
                           std::to_string(col) + ": " + msg);
}

[[noreturn]] void fail_at(const Token& t, const std::string& msg) {
  fail_at(t.line, t.col, msg);
}

struct Tokenizer {
  explicit Tokenizer(std::istream& is) {
    std::string line;
    int lineno = 0;
    while (std::getline(is, line)) {
      ++lineno;
      const auto slash = line.find("//");
      if (slash != std::string::npos) line.erase(slash);
      std::size_t i = 0;
      while (i < line.size()) {
        while (i < line.size() &&
               std::isspace(static_cast<unsigned char>(line[i])))
          ++i;
        const std::size_t start = i;
        while (i < line.size() &&
               !std::isspace(static_cast<unsigned char>(line[i])))
          ++i;
        if (i > start)
          tokens.push_back({line.substr(start, i - start), lineno,
                            static_cast<int>(start) + 1});
      }
      end_line = lineno;
      end_col = static_cast<int>(line.size()) + 1;
    }
  }
  bool done() const { return pos >= tokens.size(); }
  const Token& peek() const {
    if (done()) fail_at(end_line, end_col, "unexpected end of input");
    return tokens[pos];
  }
  Token next() {
    Token t = peek();
    ++pos;
    return t;
  }
  double next_number() {
    const Token t = next();
    try {
      std::size_t used = 0;
      const double v = std::stod(t.text, &used);
      if (used != t.text.size()) throw std::invalid_argument(t.text);
      // stod accepts "inf"/"nan" spellings; a deck carrying them would
      // poison every downstream solve, so reject at the gate.
      if (!std::isfinite(v)) fail_at(t, "non-finite number '" + t.text + "'");
      return v;
    } catch (const std::out_of_range&) {
      fail_at(t, "number out of range '" + t.text + "'");
    } catch (const std::invalid_argument&) {
      fail_at(t, "expected a number, got '" + t.text + "'");
    }
  }
  /// A bounded non-negative integer (node index, sink). Rejects the
  /// floating-point spellings next_number() would accept: an index must
  /// be digits only, and static_cast<int>(1e300) is UB we never reach.
  int next_index() {
    const Token t = next();
    return parse_index(t, t.text);
  }
  static int parse_index(const Token& at, const std::string& digits) {
    if (digits.empty() || digits.size() > 7 ||
        !std::all_of(digits.begin(), digits.end(), [](char c) {
          return std::isdigit(static_cast<unsigned char>(c));
        }))
      fail_at(at, "bad node index '" + digits + "'");
    const int v = std::stoi(digits);  // <= 7 digits: cannot overflow int.
    if (v > kMaxNodeIndex) fail_at(at, "node index too large '" + digits + "'");
    return v;
  }
  void expect(const std::string& what) {
    const Token t = next();
    if (t.text != what)
      fail_at(t, "expected '" + what + "', got '" + t.text + "'");
  }
  std::vector<Token> tokens;
  std::size_t pos = 0;
  int end_line = 0;
  int end_col = 1;
};

struct NodeRef {
  std::string net;
  int idx;
};

NodeRef parse_node(const Token& tok) {
  const auto colon = tok.text.find(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= tok.text.size())
    fail_at(tok, "bad node reference '" + tok.text + "'");
  NodeRef r;
  r.net = tok.text.substr(0, colon);
  r.idx = Tokenizer::parse_index(tok, tok.text.substr(colon + 1));
  return r;
}

struct RawCoupling {
  NodeRef a, b;
  double c;
};

struct RawNet {
  bool is_victim = false;
  GateParams driver;
  double input_slew = 0.0;
  bool output_rising = true;
  GateParams receiver;
  double receiver_load = 0.0;
  double sink_load = 2e-15;
  RcTree tree;
  int max_node = 0;
};

}  // namespace

namespace {

// The throwing parser core; the public entry points wrap it.
CoupledNet parse_spef(std::istream& is) {
  Tokenizer tz(is);
  // Chaos probe: a corrupted extraction deck. Keyed by a hash of the
  // token stream so whether a given deck "corrupts" is a pure function
  // of (spec, seed, content) — identical at any job count.
  if (fault::enabled()) {
    std::uint64_t key = 0;
    for (const auto& t : tz.tokens)
      for (const char c : t.text)
        key = fault::mix64(key ^ static_cast<unsigned char>(c));
    if (fault::should_fail(fault::Site::kSpefParse, key))
      throw std::runtime_error("injected fault: corrupted spef deck");
  }
  tz.expect("*SPEF");
  {
    const Token dialect = tz.next();
    if (dialect.text != "\"dnoise-subset-1\"")
      fail_at(dialect, "unsupported dialect");
  }
  std::map<std::string, RawNet> nets;
  std::vector<std::string> order;
  std::vector<RawCoupling> couplings;

  while (!tz.done()) {
    const Token tok = tz.next();
    if (tok.text == "*DESIGN") {
      tz.next();
    } else if (tok.text == "*T_UNIT" || tok.text == "*C_UNIT" ||
               tok.text == "*R_UNIT") {
      tz.next_number();
      tz.next();
    } else if (tok.text == "*D_NET") {
      const Token name_tok = tz.next();
      const std::string& name = name_tok.text;
      if (nets.count(name)) fail_at(name_tok, "duplicate net '" + name + "'");
      RawNet rn;
      const Token kind = tz.next();
      if (kind.text == "*VICTIM") rn.is_victim = true;
      else if (kind.text != "*AGGRESSOR")
        fail_at(kind, "expected *VICTIM/*AGGRESSOR");

      enum class Section { None, Cap, Res } section = Section::None;
      while (true) {
        const Token t = tz.next();
        if (t.text == "*END") break;
        if (t.text == "*DRIVER") {
          rn.driver.type = parse_type(tz.next().text);
          rn.driver.size = tz.next_number();
          rn.input_slew = tz.next_number() * kPs;
          const Token edge = tz.next();
          if (edge.text == "RISE") rn.output_rising = true;
          else if (edge.text == "FALL") rn.output_rising = false;
          else fail_at(edge, "expected RISE/FALL");
        } else if (t.text == "*RECEIVER") {
          rn.receiver.type = parse_type(tz.next().text);
          rn.receiver.size = tz.next_number();
          rn.receiver_load = tz.next_number() * kFf;
        } else if (t.text == "*SINKLOAD") {
          rn.sink_load = tz.next_number() * kFf;
        } else if (t.text == "*SINK") {
          rn.tree.sink = tz.next_index();
        } else if (t.text == "*CAP") {
          section = Section::Cap;
        } else if (t.text == "*RES") {
          section = Section::Res;
        } else if (section == Section::Cap) {
          const NodeRef a = parse_node(t);
          // Either "<node> <fF>" or "<node> <node> <fF>" (coupling).
          if (tz.peek().text.find(':') != std::string::npos) {
            const NodeRef b = parse_node(tz.next());
            couplings.push_back({a, b, tz.next_number() * kFf});
          } else {
            const double c = tz.next_number() * kFf;
            if (a.net != name) fail_at(t, "grounded cap on foreign net");
            rn.tree.caps.push_back({a.idx, c});
            rn.max_node = std::max(rn.max_node, a.idx);
          }
        } else if (section == Section::Res) {
          const NodeRef a = parse_node(t);
          const NodeRef b = parse_node(tz.next());
          if (a.net != name || b.net != name)
            fail_at(t, "resistor spans nets");
          rn.tree.res.push_back({a.idx, b.idx, tz.next_number()});
          rn.max_node = std::max({rn.max_node, a.idx, b.idx});
        } else {
          fail_at(t, "unexpected token '" + t.text + "'");
        }
      }
      rn.max_node = std::max(rn.max_node, rn.tree.sink);
      rn.tree.num_nodes = rn.max_node + 1;
      nets.emplace(name, std::move(rn));
      order.push_back(name);
    } else {
      fail_at(tok, "unexpected top-level token '" + tok.text + "'");
    }
  }

  // Assemble the CoupledNet: the victim plus aggressors in file order.
  CoupledNet out;
  std::map<std::string, int> agg_index;
  bool have_victim = false;
  for (const auto& name : order) {
    RawNet& rn = nets.at(name);
    if (rn.is_victim) {
      if (have_victim) throw std::runtime_error("spef: multiple victims");
      have_victim = true;
      out.victim.net = rn.tree;
      out.victim.driver = rn.driver;
      out.victim.input_slew = rn.input_slew;
      out.victim.output_rising = rn.output_rising;
      out.victim.receiver = rn.receiver;
      out.victim.receiver_load = rn.receiver_load;
    } else {
      AggressorDesc agg;
      agg.net = rn.tree;
      agg.driver = rn.driver;
      agg.input_slew = rn.input_slew;
      agg.output_rising = rn.output_rising;
      agg.sink_load = rn.sink_load;
      agg_index[name] = static_cast<int>(out.aggressors.size());
      out.aggressors.push_back(std::move(agg));
    }
  }
  if (!have_victim) throw std::runtime_error("spef: no victim net");

  auto victim_side = [&](const NodeRef& r) { return nets.at(r.net).is_victim; };
  for (const auto& rc : couplings) {
    if (!nets.count(rc.a.net) || !nets.count(rc.b.net))
      throw std::runtime_error("spef: coupling references unknown net");
    const bool a_victim = victim_side(rc.a);
    const bool b_victim = victim_side(rc.b);
    if (a_victim == b_victim)
      throw std::runtime_error(
          "spef: coupling must connect the victim to an aggressor");
    const NodeRef& vn = a_victim ? rc.a : rc.b;
    const NodeRef& an = a_victim ? rc.b : rc.a;
    out.couplings.push_back({agg_index.at(an.net), an.idx, vn.idx, rc.c});
  }
  out.validate();
  return out;
}

}  // namespace

StatusOr<CoupledNet> try_read_spef(std::istream& is) {
  static obs::Counter& c_parsed = obs::metrics().counter("spef.nets_parsed");
  static obs::Counter& c_errors = obs::metrics().counter("spef.parse_errors");
  static obs::Histogram& h_seconds =
      obs::metrics().histogram("stage.parse.seconds");
  obs::StageScope stage("spef.parse", "parse", h_seconds);
  try {
    StatusOr<CoupledNet> net = parse_spef(is);
    c_parsed.add();
    return net;
  } catch (const std::exception& e) {
    c_errors.add();
    return Status::InvalidArgument(e.what());
  }
}

StatusOr<CoupledNet> try_read_spef_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) return Status::NotFound("spef: cannot open '" + path + "'");
  return try_read_spef(f);
}

}  // namespace dn
