// dnoise_cli — command-line delay/functional noise analysis of coupled
// nets described in the SPEF-subset format (see rcnet/spef.hpp for the
// grammar; examples/spef_flow generates decks).
//
// Single-net mode:
//   dnoise_cli <file.spef> [options]
//     --exhaustive       exhaustive alignment search instead of the
//                        8-point prediction tables
//     --thevenin         traditional Thevenin holding (no Rtr)
//     --functional       also run the functional (static victim) check
//     --golden           cross-check against the full nonlinear simulation
//     --csv              emit a single CSV result row instead of a report
//     --json             emit the report as one JSON object
//
// Batch mode (the full-chip engine):
//   dnoise_cli --batch <file.spef>... [--jobs N] [--top K] [--json]
//   dnoise_cli --batch --random N [--seed S] [--jobs N] [--top K] [--json]
//     Fans the nets across N workers sharing one characterization cache.
//     Per-net failures (unreadable/malformed decks, solver errors) are
//     recorded and the run continues. stdout is byte-identical for any
//     --jobs value; throughput/cache stats go to stderr.
//     [--load-cache FILE] preloads characterized alignment and driver
//     tables, [--save-cache FILE] persists both after the run.
//     [--fidelity off|2] [--fidelity-threshold PS] [--fidelity-margin F]
//     runs the fidelity ladder: Tier 0/1 prune quiet nets, every other
//     net is analyzed once in full.
//
// Server mode (the resident analysis daemon, DESIGN.md §11):
//   dnoise_cli --serve [--socket PATH] [--queue-soft N] [--queue-hard N]
//     Speaks newline-delimited JSON (one request object per line, one
//     response per line) on stdin/stdout, or on a Unix socket with
//     --socket. Verbs: ping, load_design, update_net, update_driver,
//     analyze, config, stats, save_cache, load_cache, snapshot, shutdown.
//
// Configuration (single, batch, and serve modes): every analysis knob is
// a key of dn::AnalysisConfig. Flags below are shorthand for those keys;
// --config FILE loads a JSON object of them first (flags win). Flags and
// server `config` requests share ONE validation path — a bad value is a
// clean error, never a crash. An unknown flag, or a numeric flag whose
// value does not parse whole, prints usage naming the flag and exits 2.
//
// Screening mode:
//   dnoise_cli --screen <file.spef>... (rank by severity)
//     Unreadable decks are listed after the ranking with their status
//     code (detail on stderr); exits 1 only when no deck could be read.
//
// Observability (any mode; see DESIGN.md §8):
//   --profile              per-stage metrics summary on stderr
//   --metrics-json <file>  full metrics registry as JSON
//   --trace-out <file>     Chrome/Perfetto trace_event timeline JSON
//
// Fault tolerance (see DESIGN.md §10):
//   --deadline-ms MS       wall-clock budget (batch: whole run; single:
//                          the one net); expired work reports
//                          DEADLINE_EXCEEDED instead of hanging
//   --inject-faults SPEC   deterministic chaos testing: SPEC is
//                          "site[:rate],..." with sites
//                          parse|cache|factor|newton|all
//   --fault-seed N         seed for the injection hash (default 1)
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "clarinet/analysis_config.hpp"
#include "clarinet/batch_analyzer.hpp"
#include "clarinet/fidelity_ladder.hpp"
#include "core/baselines.hpp"
#include "core/functional_noise.hpp"
#include "rcnet/random_nets.hpp"
#include "rcnet/spef.hpp"
#include "server/server.hpp"
#include "util/deadline.hpp"
#include "util/durable_io.hpp"
#include "util/fault_injection.hpp"
#include "util/trace.hpp"
#include "util/units.hpp"

using namespace dn;
using namespace dn::units;

namespace {

/// What follows a flag on the command line.
enum class FlagValue { kNone, kInt, kBit, kNumber, kString };

struct FlagSpec {
  const char* name;
  FlagValue value;
  /// The AnalysisConfig key the flag sets, or nullptr when the flag is
  /// read elsewhere (modes, I/O, server options, --fidelity). A kNone
  /// flag sets its key to true, a kBit flag (an int) to value != 0.
  const char* config_key = nullptr;
};

/// Every flag the CLI knows. Argument validation, positional-argument
/// extraction and the flag -> config mapping all read this table, so a
/// flag is either listed here or rejected.
constexpr FlagSpec kFlags[] = {
    {"--batch", FlagValue::kNone},
    {"--screen", FlagValue::kNone},
    {"--serve", FlagValue::kNone},
    {"--exhaustive", FlagValue::kNone, "exhaustive"},
    {"--thevenin", FlagValue::kNone, "thevenin"},
    {"--functional", FlagValue::kNone},
    {"--golden", FlagValue::kNone},
    {"--csv", FlagValue::kNone},
    {"--json", FlagValue::kNone},
    {"--profile", FlagValue::kNone},
    {"--recover", FlagValue::kNone},
    {"--jobs", FlagValue::kInt, "jobs"},
    {"--top", FlagValue::kInt, "top_k"},
    {"--random", FlagValue::kInt},
    {"--seed", FlagValue::kInt},
    {"--fault-seed", FlagValue::kInt},
    {"--queue-soft", FlagValue::kInt},
    {"--queue-hard", FlagValue::kInt},
    {"--stale-jacobian-iters", FlagValue::kInt, "stale_jacobian_iters"},
    {"--warm-start", FlagValue::kBit, "warm_start"},
    {"--snapshot-every", FlagValue::kInt},
    {"--max-request-bytes", FlagValue::kInt},
    {"--max-request-nodes", FlagValue::kInt},
    {"--max-design-nets", FlagValue::kInt},
    {"--deadline-ms", FlagValue::kNumber, "deadline_ms"},
    {"--lte-tol", FlagValue::kNumber, "lte_tol"},
    {"--max-dt-growth", FlagValue::kNumber, "max_dt_growth"},
    {"--fidelity-threshold", FlagValue::kNumber, "fidelity_threshold_ps"},
    {"--fidelity-margin", FlagValue::kNumber, "fidelity_margin"},
    {"--watchdog-ms", FlagValue::kNumber},
    {"--solver", FlagValue::kString, "solver"},
    {"--fidelity", FlagValue::kString},
    {"--config", FlagValue::kString},
    {"--metrics-json", FlagValue::kString},
    {"--trace-out", FlagValue::kString},
    {"--inject-faults", FlagValue::kString},
    {"--socket", FlagValue::kString},
    {"--save-cache", FlagValue::kString},
    {"--load-cache", FlagValue::kString},
    {"--state-dir", FlagValue::kString},
    {"--fsync", FlagValue::kString},
};

const FlagSpec* find_flag(const char* name) {
  for (const FlagSpec& f : kFlags)
    if (std::strcmp(f.name, name) == 0) return &f;
  return nullptr;
}

/// Whole-string base-10 int parse; false on junk, trailing text, or
/// overflow.
bool parse_int(const char* text, int& out) {
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || v < INT_MIN ||
      v > INT_MAX)
    return false;
  out = static_cast<int>(v);
  return true;
}

/// Whole-string floating-point parse; false on junk or trailing text.
bool parse_number(const char* text, double& out) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || errno == ERANGE) return false;
  out = v;
  return true;
}

/// Rejects unknown flags, missing values, and numeric values that do not
/// parse whole. Returns the complaint, or an empty string when argv is
/// well formed.
std::string check_args(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (argv[i][0] != '-') continue;
    const FlagSpec* f = find_flag(argv[i]);
    if (!f) return std::string("unknown flag ") + argv[i];
    if (f->value == FlagValue::kNone) continue;
    if (i + 1 >= argc) return std::string("missing value for ") + f->name;
    const char* value = argv[++i];
    int iv = 0;
    double dv = 0;
    if (((f->value == FlagValue::kInt || f->value == FlagValue::kBit) &&
         !parse_int(value, iv)) ||
        (f->value == FlagValue::kNumber && !parse_number(value, dv)))
      return std::string("bad value '") + value + "' for " + f->name;
  }
  return {};
}

bool has_flag(int argc, char** argv, const char* name) {
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], name) == 0) return true;
  return false;
}

const char* str_flag(int argc, char** argv, const char* name,
                     const char* fallback) {
  for (int i = 1; i + 1 < argc; ++i)
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  return fallback;
}

// The numeric readers run after check_args, so every value parses.
int int_flag(int argc, char** argv, const char* name, int fallback) {
  int v = fallback;
  if (const char* text = str_flag(argc, argv, name, nullptr))
    parse_int(text, v);
  return v;
}

double double_flag(int argc, char** argv, const char* name, double fallback) {
  double v = fallback;
  if (const char* text = str_flag(argc, argv, name, nullptr))
    parse_number(text, v);
  return v;
}

/// Positional (non-flag) arguments, skipping the values of flags that
/// take one.
std::vector<std::string> positional_args(int argc, char** argv) {
  std::vector<std::string> out;
  for (int i = 1; i < argc; ++i) {
    if (argv[i][0] == '-') {
      const FlagSpec* f = find_flag(argv[i]);
      if (f && f->value != FlagValue::kNone) ++i;  // Skip the flag's value.
      continue;
    }
    out.emplace_back(argv[i]);
  }
  return out;
}

int usage() {
  std::fprintf(
      stderr,
      "usage: dnoise_cli <file.spef> [--exhaustive] [--thevenin]\n"
      "                  [--functional] [--golden] [--csv] [--json]\n"
      "       dnoise_cli --batch <file.spef>... [--jobs N] [--top K] [--json]\n"
      "                  [--load-cache F] [--save-cache F]\n"
      "                  [--fidelity off|2]  tiered screening ladder: prune\n"
      "                      at tier 0/1, fully verify the rest at tier 2\n"
      "                  [--fidelity-threshold PS] ladder prune threshold\n"
      "                  [--fidelity-margin F]     tier-1 safety margin\n"
      "       dnoise_cli --batch --random N [--seed S] [--jobs N] [--top K]\n"
      "       dnoise_cli --screen <file.spef>... (rank by severity)\n"
      "       dnoise_cli --serve [--socket PATH] [--queue-soft N]\n"
      "                  [--queue-hard N]   (NDJSON analysis daemon)\n"
      "  durability (DESIGN.md §15):\n"
      "       [--state-dir DIR]  journal + snapshot directory; SIGTERM\n"
      "                          drains gracefully and snapshots\n"
      "       [--recover]        restore snapshot, replay journal tail\n"
      "       [--fsync none|always]   journal durability policy\n"
      "       [--snapshot-every N]    mutations per auto-snapshot\n"
      "       [--watchdog-ms MS]      per-request stuck-analyze bound\n"
      "       [--max-request-bytes N] [--max-request-nodes N]\n"
      "       [--max-design-nets N]   NDJSON per-request limits\n"
      "config (all analysis modes; one validation path):\n"
      "       [--config FILE]  JSON object of dn::AnalysisConfig keys\n"
      "       [--solver auto|dense|sparse]  linear-solver backend\n"
      "transient engine (DESIGN.md §12):\n"
      "       [--lte-tol V]  adaptive-step LTE bound [V]; 0 = fixed grid\n"
      "       [--max-dt-growth F]  max per-step dt growth of the linear\n"
      "                            superposition sims (Ceff/fit sims keep 4x)\n"
      "       [--stale-jacobian-iters N]  modified-Newton reuse budget\n"
      "                                   (0 = refactor every iteration)\n"
      "       [--warm-start 0|1]  reuse DC operating points across sims\n"
      "observability (any mode):\n"
      "       [--profile] [--metrics-json FILE] [--trace-out FILE]\n"
      "fault tolerance (see DESIGN.md §10):\n"
      "       [--deadline-ms MS]\n"
      "       [--inject-faults site[:rate],...] [--fault-seed N]\n"
      "       sites: parse|cache|factor|newton|all\n");
  return 2;
}

/// The ONE flag -> configuration path: flags become AnalysisConfig JSON
/// keys and go through the same from_json/apply validation the server's
/// `config` verb uses. --config FILE applies first; flags override it.
StatusOr<AnalysisConfig> config_from_flags(int argc, char** argv) {
  AnalysisConfig cfg;
  if (const char* path = str_flag(argc, argv, "--config", nullptr)) {
    std::ifstream is(path);
    if (!is)
      return Status::NotFound(std::string("cannot read config file ") + path);
    std::ostringstream text;
    text << is.rdbuf();
    const std::string body = text.str();
    StatusOr<AnalysisConfig> loaded =
        AnalysisConfig::from_json(std::string_view(body));
    if (!loaded.ok()) return loaded.status();
    cfg = std::move(*loaded);
  }

  json::Object flags;
  for (const FlagSpec& f : kFlags) {
    if (!f.config_key) continue;
    if (f.value == FlagValue::kNone) {
      if (has_flag(argc, argv, f.name)) flags[f.config_key] = true;
      continue;
    }
    const char* text = str_flag(argc, argv, f.name, nullptr);
    if (!text) continue;
    int iv = 0;
    double dv = 0;
    switch (f.value) {
      case FlagValue::kInt:
        parse_int(text, iv);
        flags[f.config_key] = iv;
        break;
      case FlagValue::kBit:
        parse_int(text, iv);
        flags[f.config_key] = iv != 0;
        break;
      case FlagValue::kNumber:
        parse_number(text, dv);
        flags[f.config_key] = dv;
        break;
      case FlagValue::kString:
        flags[f.config_key] = text;
        break;
      case FlagValue::kNone:
        break;
    }
  }
  // --fidelity is the one flag whose value picks a key's value by name.
  if (const char* fid = str_flag(argc, argv, "--fidelity", nullptr)) {
    if (std::strcmp(fid, "off") == 0 || std::strcmp(fid, "2") == 0)
      flags["fidelity_ladder"] = fid[0] == '2';
    else
      return Status::InvalidArgument("--fidelity must be off or 2");
  }

  Status applied = cfg.apply(json::Value(std::move(flags)));
  if (!applied.ok()) return applied;
  return cfg;
}

/// Turns the observability subsystems on per the flags; returns whether
/// any finalization output is owed.
struct ObsFlags {
  bool profile = false;
  const char* metrics_json = nullptr;
  const char* trace_out = nullptr;
};

ObsFlags setup_observability(int argc, char** argv) {
  ObsFlags f;
  f.profile = has_flag(argc, argv, "--profile");
  f.metrics_json = str_flag(argc, argv, "--metrics-json", nullptr);
  f.trace_out = str_flag(argc, argv, "--trace-out", nullptr);
  if (f.profile || f.metrics_json) obs::set_metrics_enabled(true);
  if (f.trace_out) obs::set_tracing_enabled(true);
  return f;
}

/// Writes the owed observability outputs. Keeps batch stdout untouched:
/// the profile goes to stderr, metrics/trace to their files.
int finalize_observability(const ObsFlags& f) {
  int rc = 0;
  if (f.profile) {
    std::ostringstream os;
    obs::metrics().write_summary(os);
    std::fputs(os.str().c_str(), stderr);
  }
  // Both artifacts go through the atomic tmp+rename helper: a consumer
  // tailing the path (or a crash mid-write) never sees a partial JSON.
  if (f.metrics_json) {
    std::ostringstream out;
    obs::metrics().write_json(out);
    out << "\n";
    const Status s = durable::atomic_write_file(f.metrics_json, out.str());
    if (!s.ok()) {
      std::fprintf(stderr, "error: cannot write metrics to %s: %s\n",
                   f.metrics_json, s.message().c_str());
      rc = 1;
    }
  }
  if (f.trace_out) {
    std::ostringstream out;
    obs::TraceRecorder::instance().write_json(out);
    out << "\n";
    const Status s = durable::atomic_write_file(f.trace_out, out.str());
    if (!s.ok()) {
      std::fprintf(stderr, "error: cannot write trace to %s: %s\n",
                   f.trace_out, s.message().c_str());
      rc = 1;
    }
  }
  return rc;
}

int run_screening(int argc, char** argv) {
  const std::vector<std::string> files = positional_args(argc, argv);
  if (files.empty()) return usage();

  // The same policy as --batch: an unreadable deck is recorded and the
  // rest are still ranked; it is listed after them by status code.
  std::vector<CoupledNet> nets;
  std::vector<std::string> names;
  std::vector<std::pair<std::string, StatusCode>> unreadable;
  for (const auto& f : files) {
    StatusOr<CoupledNet> net = try_read_spef_file(f);
    if (net.ok()) {
      nets.push_back(std::move(*net));
      names.push_back(f);
    } else {
      std::fprintf(stderr, "error reading %s: %s\n", f.c_str(),
                   net.status().to_string().c_str());
      unreadable.emplace_back(f, net.status().code());
    }
  }
  if (nets.empty()) return 1;
  const auto order = rank_by_severity(nets);
  std::printf("%-40s %12s %12s\n", "file (most severe first)", "est_noise_V",
              "est_dn_ps");
  for (const std::size_t i : order) {
    StatusOr<ScreeningEstimate> est = try_screen_net(nets[i]);
    if (!est.ok()) {
      std::printf("%-40s %25s\n", names[i].c_str(),
                  status_code_name(est.status().code()));
      continue;
    }
    std::printf("%-40s %12.4f %12.2f\n", names[i].c_str(), est->vn_est,
                est->dn_est / ps);
  }
  for (const auto& [f, code] : unreadable)
    std::printf("%-40s %25s\n", f.c_str(), status_code_name(code));
  return 0;
}

int run_batch(int argc, char** argv, const AnalysisConfig& cfg) {
  std::vector<CoupledNet> nets;
  std::vector<std::string> names;
  std::vector<BatchNetResult> load_failures;

  const int n_random = int_flag(argc, argv, "--random", 0);
  if (n_random > 0) {
    Rng rng(static_cast<std::uint64_t>(int_flag(argc, argv, "--seed", 1)));
    for (int i = 0; i < n_random; ++i) {
      nets.push_back(random_coupled_net(rng));
      names.push_back("random" + std::to_string(i));
    }
  } else {
    const std::vector<std::string> files = positional_args(argc, argv);
    if (files.empty()) return usage();
    for (const auto& f : files) {
      StatusOr<CoupledNet> net = try_read_spef_file(f);
      if (net.ok()) {
        nets.push_back(std::move(*net));
        names.push_back(f);
      } else {
        // Record and continue — one bad deck must not kill the batch.
        BatchNetResult fail;
        fail.name = f;
        fail.status = net.status();
        fail.outcome = AnalysisOutcome::kFailed;
        load_failures.push_back(std::move(fail));
      }
    }
  }

  BatchAnalyzer engine(cfg.batch);
  // --load-cache: start warm from a previous run's characterizations.
  if (const char* path = str_flag(argc, argv, "--load-cache", nullptr)) {
    StatusOr<std::size_t> loaded = engine.cache()->load_file(path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "error: %s\n", loaded.status().to_string().c_str());
      return 1;
    }
    std::fprintf(stderr, "loaded %zu cached tables from %s\n",
                 *loaded, path);
  }
  BatchResult result = engine.analyze(nets, names);

  // Splice load failures into the accounting (after the analyzed nets, in
  // input order — still deterministic).
  for (auto& fail : load_failures) {
    fail.index = result.nets.size();
    result.nets.push_back(std::move(fail));
    ++result.stats.total;
    ++result.stats.failed;
  }

  if (has_flag(argc, argv, "--json")) {
    result.write_json(std::cout);
    std::cout << "\n";
  } else {
    result.write_text(std::cout);
  }
  std::fprintf(stderr, "%s\n", result.stats_text().c_str());

  if (const char* path = str_flag(argc, argv, "--save-cache", nullptr)) {
    Status saved = engine.cache()->save_file(path);
    if (!saved.ok()) {
      std::fprintf(stderr, "error: %s\n", saved.to_string().c_str());
      return 1;
    }
  }
  return result.stats.analyzed > 0 || result.stats.total == 0 ? 0 : 1;
}

int run_single(int argc, char** argv, const AnalysisConfig& cfg) {
  StatusOr<CoupledNet> loaded = try_read_spef_file(argv[1]);
  if (!loaded.ok()) {
    std::fprintf(stderr, "error: %s\n", loaded.status().to_string().c_str());
    return 1;
  }
  const CoupledNet net = std::move(*loaded);
  const AnalyzerConfig& analyzer_cfg = cfg.batch.analyzer;
  NoiseAnalyzer analyzer(analyzer_cfg);

  // The deadline_ms key bounds this one net's analysis; the step loops
  // deep in the engine poll it and abort with DEADLINE_EXCEEDED.
  const double deadline_ms = cfg.batch.deadline_ms;
  ScopedDeadline scoped_deadline(
      deadline_ms > 0 ? Deadline::after(deadline_ms * 1e-3) : Deadline());

  StatusOr<DelayNoiseResult> analyzed = analyzer.try_analyze(net);
  if (!analyzed.ok()) {
    std::fprintf(stderr, "analysis error: %s\n",
                 analyzed.status().to_string().c_str());
    return 1;
  }
  const DelayNoiseResult& r = *analyzed;

  if (has_flag(argc, argv, "--csv")) {
    std::printf("file,aggressors,coupling_fF,rth_ohm,holding_ohm,"
                "pulse_V,pulse_ps,input_dnoise_ps,combined_dnoise_ps\n");
    std::printf("%s,%zu,%.3f,%.1f,%.1f,%.4f,%.1f,%.2f,%.2f\n", argv[1],
                net.aggressors.size(), net.total_coupling_cap() / fF, r.rth,
                r.holding_r, r.composite.params.height,
                r.composite.params.width / ps, r.input_delay_noise() / ps,
                r.delay_noise() / ps);
  } else if (has_flag(argc, argv, "--json")) {
    DelayNoiseReport::from(net, r, argv[1]).to_json(std::cout);
    std::cout << "\n";
  } else {
    DelayNoiseReport::from(net, r).to_text(std::cout);
  }

  try {
    if (has_flag(argc, argv, "--golden")) {
      const GoldenResult g =
          golden_nonlinear(net, absolute_shifts(r), analyzer_cfg.engine);
      const double gd = g.delay_noise();
      std::printf("golden (full nonlinear): %.2f ps combined delay noise "
                  "(linear model error %+.1f%%)\n",
                  gd / ps, gd != 0 ? 100.0 * (r.delay_noise() - gd) / gd : 0.0);
    }

    if (has_flag(argc, argv, "--functional")) {
      SuperpositionEngine eng(net, analyzer_cfg.engine);
      const FunctionalNoiseResult f = analyze_functional_noise(eng);
      std::printf("functional noise (victim quiet %s): input peak %.3f V, "
                  "receiver output peak %.3f V -> %s\n",
                  f.victim_quiet_high ? "HIGH" : "LOW", f.input_peak,
                  f.output_peak, f.failure ? "FAILURE" : "ok");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "analysis error: %s\n", e.what());
    return 1;
  }
  return 0;
}

int run_serve(int argc, char** argv, const AnalysisConfig& cfg) {
  server::ServerOptions opts;
  opts.config = cfg;
  opts.queue_soft_limit = static_cast<std::size_t>(
      std::max(1, int_flag(argc, argv, "--queue-soft", 8)));
  opts.queue_hard_limit = static_cast<std::size_t>(std::max(
      static_cast<int>(opts.queue_soft_limit),
      int_flag(argc, argv, "--queue-hard", 64)));
  if (const char* dir = str_flag(argc, argv, "--state-dir", nullptr))
    opts.durability.state_dir = dir;
  opts.durability.recover = has_flag(argc, argv, "--recover");
  if (opts.durability.recover && opts.durability.state_dir.empty()) {
    std::fprintf(stderr, "error: --recover requires --state-dir\n");
    return 2;
  }
  if (const char* fsync = str_flag(argc, argv, "--fsync", nullptr)) {
    if (std::strcmp(fsync, "always") == 0) {
      opts.durability.fsync = durable::FsyncPolicy::kAlways;
    } else if (std::strcmp(fsync, "none") == 0) {
      opts.durability.fsync = durable::FsyncPolicy::kNone;
    } else {
      std::fprintf(stderr, "error: --fsync must be none or always\n");
      return 2;
    }
  }
  opts.durability.snapshot_every = static_cast<std::uint64_t>(
      std::max(0, int_flag(argc, argv, "--snapshot-every", 32)));
  opts.durability.watchdog_ms =
      std::max(0.0, double_flag(argc, argv, "--watchdog-ms", 0.0));
  opts.limits.max_request_bytes = static_cast<std::size_t>(std::max(
      0, int_flag(argc, argv, "--max-request-bytes",
                  static_cast<int>(opts.limits.max_request_bytes))));
  opts.limits.max_request_nodes = static_cast<std::size_t>(std::max(
      0, int_flag(argc, argv, "--max-request-nodes",
                  static_cast<int>(opts.limits.max_request_nodes))));
  opts.limits.max_design_nets = static_cast<std::size_t>(std::max(
      0, int_flag(argc, argv, "--max-design-nets",
                  static_cast<int>(opts.limits.max_design_nets))));
  server::Server srv(opts);
  if (const char* path = str_flag(argc, argv, "--socket", nullptr))
    return srv.serve_unix(path);
  return srv.serve_stream(std::cin, std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  if (const std::string bad = check_args(argc, argv); !bad.empty()) {
    std::fprintf(stderr, "error: %s\n", bad.c_str());
    return usage();
  }
  const ObsFlags obs_flags = setup_observability(argc, argv);
  // Chaos harness: install the deterministic fault-injection config before
  // any analysis runs. Probes key on stable identities (net index, cache
  // key), so a fixed spec + seed reproduces bit-for-bit at any --jobs.
  if (const char* spec_str = str_flag(argc, argv, "--inject-faults", nullptr)) {
    StatusOr<fault::FaultSpec> spec = fault::parse_fault_spec(spec_str);
    if (!spec.ok()) {
      std::fprintf(stderr, "error: %s\n", spec.status().to_string().c_str());
      return 2;
    }
    fault::install(*spec, static_cast<std::uint64_t>(
                              int_flag(argc, argv, "--fault-seed", 1)));
  }

  int rc;
  if (has_flag(argc, argv, "--screen")) {
    rc = run_screening(argc, argv);
  } else {
    StatusOr<AnalysisConfig> cfg = config_from_flags(argc, argv);
    if (!cfg.ok()) {
      std::fprintf(stderr, "error: %s\n", cfg.status().to_string().c_str());
      return 2;
    }
    if (has_flag(argc, argv, "--serve")) {
      rc = run_serve(argc, argv, *cfg);
    } else if (has_flag(argc, argv, "--batch")) {
      rc = run_batch(argc, argv, *cfg);
    } else if (argc < 2 || argv[1][0] == '-') {
      return usage();
    } else {
      rc = run_single(argc, argv, *cfg);
    }
  }
  const int obs_rc = finalize_observability(obs_flags);
  return rc ? rc : obs_rc;
}
