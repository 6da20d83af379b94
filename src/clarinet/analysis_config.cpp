#include "clarinet/analysis_config.hpp"

#include <cmath>
#include <sstream>

#include "util/units.hpp"

namespace dn {

namespace {

/// Worker-thread cap: a pool that cannot spawn its threads aborts the
/// process, so the count is bounded before it reaches ThreadPool.
constexpr int kMaxJobs = 1024;

/// Time-grid cap (horizon / dt): each sim's cost and memory scale with
/// its step count, and the grid comes from outside input (CLI, config
/// file, server `config` verb), so it is bounded before any engine runs.
/// 250x the 4 ns / 1 ps default.
constexpr double kMaxTimeSteps = 1e6;

Status range_error(const char* key, const char* constraint) {
  std::ostringstream os;
  os << "config: " << key << " " << constraint;
  return Status::InvalidArgument(os.str());
}

Status set_int(const json::Value& v, const char* what, int& out) {
  StatusOr<int> r = v.require_int(what);
  if (!r.ok()) return r.status();
  out = *r;
  return Status::Ok();
}

/// Every numeric key rejects Inf/NaN here, once: a range check such as
/// `x >= 0` passes Inf and is silently false for NaN.
Status set_num(const json::Value& v, const char* what, double& out) {
  StatusOr<double> r = v.require_number(what);
  if (!r.ok()) return r.status();
  if (!std::isfinite(*r)) return range_error(what, "must be finite");
  out = *r;
  return Status::Ok();
}

Status set_bool(const json::Value& v, const char* what, bool& out) {
  StatusOr<bool> r = v.require_bool(what);
  if (!r.ok()) return r.status();
  out = *r;
  return Status::Ok();
}

/// Applies ONE key to `cfg`. Shared by apply() so every entry point —
/// CLI flags, `--config` files, server `config` requests — hits the same
/// key names, types, and conversions.
Status apply_key(AnalysisConfig& cfg, const std::string& key,
                 const json::Value& v) {
  using namespace dn::units;
  BatchOptions& b = cfg.batch;
  AnalyzerConfig& a = b.analyzer;
  if (key == "jobs") return set_int(v, "jobs", b.jobs);
  if (key == "top_k") return set_int(v, "top_k", b.top_k);
  if (key == "fidelity_ladder")
    return set_bool(v, "fidelity_ladder", b.ladder.enabled);
  if (key == "fidelity_threshold_ps") {
    double ps_v = 0;
    Status s = set_num(v, "fidelity_threshold_ps", ps_v);
    if (s.ok()) b.ladder.dn_threshold = ps_v * ps;
    return s;
  }
  if (key == "fidelity_margin")
    return set_num(v, "fidelity_margin", b.ladder.tier1_margin);
  if (key == "deadline_ms") return set_num(v, "deadline_ms", b.deadline_ms);
  if (key == "exhaustive") {
    bool exhaustive = false;
    Status s = set_bool(v, "exhaustive", exhaustive);
    if (s.ok())
      a.analysis.method =
          exhaustive ? AlignmentMethod::Exhaustive : AlignmentMethod::Predicted;
    return s;
  }
  if (key == "thevenin") {
    bool thevenin = false;
    Status s = set_bool(v, "thevenin", thevenin);
    if (s.ok()) a.analysis.use_transient_holding = !thevenin;
    return s;
  }
  if (key == "solver") {
    StatusOr<std::string> name = v.require_string("solver");
    if (!name.ok()) return name.status();
    StatusOr<SolverBackend> backend = parse_solver_backend(*name);
    if (!backend.ok()) return backend.status();
    // One backend rules every linear-system sim: the engine runs its
    // superposition transients, its Ceff inner sims and the nonlinear
    // reference on it.
    a.engine.solver.backend = *backend;
    return Status::Ok();
  }
  if (key == "dt_ps") {
    double dt_ps = 0;
    Status s = set_num(v, "dt_ps", dt_ps);
    if (s.ok()) a.engine.dt = dt_ps * ps;
    return s;
  }
  if (key == "horizon_ns") {
    double horizon_ns = 0;
    Status s = set_num(v, "horizon_ns", horizon_ns);
    if (s.ok()) a.engine.horizon = horizon_ns * ns;
    return s;
  }
  if (key == "model_alignment_iterations")
    return set_int(v, "model_alignment_iterations",
                   a.analysis.model_alignment_iterations);
  if (key == "rtr_max_iterations")
    return set_int(v, "rtr_max_iterations", a.analysis.rtr.max_iterations);
  if (key == "newton_max_iterations")
    return set_int(v, "newton_max_iterations", a.engine.newton.max_iterations);
  if (key == "newton_v_tol")
    return set_num(v, "newton_v_tol", a.engine.newton.v_tol);
  if (key == "lte_tol") {
    double tol = 0;
    Status s = set_num(v, "lte_tol", tol);
    if (!s.ok()) return s;
    // One LTE bound rules every adaptive sim: the engine's (superposition
    // transients, paired Rtr driver sims, Ceff inner sims, driver-table
    // reference sims) and the alignment-search receiver probes. 0 = fixed grid
    // everywhere.
    a.engine.lte_tol = tol;
    a.analysis.search.lte_tol = tol;
    a.table_spec.search.lte_tol = tol;
    return Status::Ok();
  }
  // Only the superposition engine's linear sims take a growth knob; the
  // Ceff and driver-table sims keep the TransientSpec default (DESIGN.md
  // §12).
  if (key == "max_dt_growth")
    return set_num(v, "max_dt_growth", a.engine.max_dt_growth);
  if (key == "stale_jacobian_iters") {
    // Every nonlinear sim family: the engine's Newton options (which its
    // driver-table, Rtr and golden sims read) and the search budgets.
    int n = 0;
    Status s = set_int(v, "stale_jacobian_iters", n);
    if (!s.ok()) return s;
    a.engine.newton.stale_jacobian_iters = n;
    a.analysis.search.stale_jacobian_iters = n;
    a.table_spec.search.stale_jacobian_iters = n;
    return Status::Ok();
  }
  if (key == "warm_start") {
    bool warm = true;
    Status s = set_bool(v, "warm_start", warm);
    if (!s.ok()) return s;
    a.analysis.search.warm_start = warm;
    a.table_spec.search.warm_start = warm;
    return Status::Ok();
  }
  return Status::InvalidArgument("config: unknown key \"" + key + "\"");
}

}  // namespace

Status AnalysisConfig::validate() const {
  const BatchOptions& b = batch;
  const AnalyzerConfig& a = b.analyzer;
  if (b.jobs < 0 || b.jobs > kMaxJobs)
    return range_error("jobs", "must be in [0, 1024] (0 = auto)");
  if (b.top_k < 0) return range_error("top_k", "must be >= 0");
  if (!(b.ladder.dn_threshold >= 0))
    return range_error("fidelity_threshold_ps", "must be >= 0");
  if (!(b.ladder.tier1_margin >= 1.0))
    return range_error("fidelity_margin", "must be >= 1 (conservatism)");
  // No key expresses another method, so it would not survive a dump.
  if (a.analysis.method != AlignmentMethod::Predicted &&
      a.analysis.method != AlignmentMethod::Exhaustive)
    return range_error("exhaustive",
                       "can only select the Predicted or Exhaustive method");
  if (!(a.engine.dt > 0)) return range_error("dt_ps", "must be > 0");
  if (!(a.engine.horizon > a.engine.dt))
    return range_error("horizon_ns", "must exceed the time step dt_ps");
  if (!(a.engine.horizon / a.engine.dt <= kMaxTimeSteps))
    return range_error("horizon_ns",
                       "must be at most 1e6 time steps of dt_ps");
  if (a.analysis.model_alignment_iterations < 1 ||
      a.analysis.model_alignment_iterations > 16)
    return range_error("model_alignment_iterations", "must be in [1, 16]");
  if (a.analysis.rtr.max_iterations < 1)
    return range_error("rtr_max_iterations", "must be >= 1");
  if (a.engine.newton.max_iterations < 1)
    return range_error("newton_max_iterations", "must be >= 1");
  if (!(a.engine.newton.v_tol > 0))
    return range_error("newton_v_tol", "must be > 0");
  if (!(a.engine.lte_tol >= 0))
    return range_error("lte_tol", "must be >= 0 (0 = fixed step)");
  if (!(a.engine.max_dt_growth > 1.0) || a.engine.max_dt_growth > 64.0)
    return range_error("max_dt_growth", "must be in (1, 64]");
  if (a.engine.newton.stale_jacobian_iters < 0 ||
      a.engine.newton.stale_jacobian_iters > 1000)
    return range_error("stale_jacobian_iters",
                       "must be in [0, 1000] (0 = full Newton)");
  return Status::Ok();
}

Status AnalysisConfig::apply(const json::Value& v) {
  if (!v.is_object())
    return Status::InvalidArgument("config must be a JSON object, got " +
                                   std::string(json::type_name(v.type())));
  // Strong guarantee: stage the merge, validate, then commit.
  AnalysisConfig staged = *this;
  for (const auto& [key, value] : v.as_object()) {
    Status s = apply_key(staged, key, value);
    if (!s.ok()) return s;
  }
  Status s = staged.validate();
  if (!s.ok()) return s;
  *this = std::move(staged);
  return Status::Ok();
}

StatusOr<AnalysisConfig> AnalysisConfig::from_json(const json::Value& v) {
  AnalysisConfig cfg;
  Status s = cfg.apply(v);
  if (!s.ok()) return s;
  return cfg;
}

StatusOr<AnalysisConfig> AnalysisConfig::from_json(std::string_view text) {
  StatusOr<json::Value> v = json::parse(text);
  if (!v.ok()) return v.status();
  return from_json(*v);
}

json::Value AnalysisConfig::to_json() const {
  using namespace dn::units;
  const BatchOptions& b = batch;
  const AnalyzerConfig& a = b.analyzer;
  json::Object o;
  o["jobs"] = b.jobs;
  o["top_k"] = b.top_k;
  o["fidelity_ladder"] = b.ladder.enabled;
  o["fidelity_threshold_ps"] = b.ladder.dn_threshold / ps;
  o["fidelity_margin"] = b.ladder.tier1_margin;
  o["deadline_ms"] = b.deadline_ms;
  o["exhaustive"] = a.analysis.method == AlignmentMethod::Exhaustive;
  o["thevenin"] = !a.analysis.use_transient_holding;
  o["solver"] = solver_backend_name(a.engine.solver.backend);
  o["dt_ps"] = a.engine.dt / ps;
  o["horizon_ns"] = a.engine.horizon / ns;
  o["model_alignment_iterations"] = a.analysis.model_alignment_iterations;
  o["rtr_max_iterations"] = a.analysis.rtr.max_iterations;
  o["newton_max_iterations"] = a.engine.newton.max_iterations;
  o["newton_v_tol"] = a.engine.newton.v_tol;
  o["lte_tol"] = a.engine.lte_tol;
  o["max_dt_growth"] = a.engine.max_dt_growth;
  o["stale_jacobian_iters"] = a.engine.newton.stale_jacobian_iters;
  o["warm_start"] = a.analysis.search.warm_start;
  return json::Value(std::move(o));
}

std::string AnalysisConfig::to_json_text() const { return to_json().dump(); }

}  // namespace dn
