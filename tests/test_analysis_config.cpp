// AnalysisConfig tests: the single flag/JSON -> engine-options validation
// path shared by the CLI and the server's `config` verb.
#include "clarinet/analysis_config.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "clarinet/analyzer.hpp"
#include "matrix/solver.hpp"
#include "rcnet/random_nets.hpp"

namespace dn {
namespace {

TEST(AnalysisConfig, DefaultsValidateAndRoundTrip) {
  const AnalysisConfig cfg;
  EXPECT_TRUE(cfg.validate().ok());
  const std::string text = cfg.to_json_text();
  const StatusOr<AnalysisConfig> back =
      AnalysisConfig::from_json(std::string_view(text));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->to_json_text(), text);
}

TEST(AnalysisConfig, EveryKeyRoundTripsThroughJson) {
  AnalysisConfig cfg;
  const Status applied = cfg.apply(*json::parse(R"({
    "jobs": 3, "top_k": 7, "deadline_ms": 250, "exhaustive": true, "thevenin": true,
    "solver": "sparse", "dt_ps": 2, "horizon_ns": 4,
    "model_alignment_iterations": 2, "newton_max_iterations": 50,
    "newton_v_tol": 1e-8})"));
  ASSERT_TRUE(applied.ok()) << applied.to_string();

  EXPECT_EQ(cfg.batch.jobs, 3);
  EXPECT_EQ(cfg.batch.top_k, 7);
  EXPECT_EQ(cfg.batch.deadline_ms, 250.0);
  EXPECT_EQ(cfg.batch.analyzer.analysis.method, AlignmentMethod::Exhaustive);
  EXPECT_FALSE(
      cfg.batch.analyzer.analysis.use_transient_holding);  // thevenin
  EXPECT_EQ(cfg.batch.analyzer.engine.solver.backend, SolverBackend::kSparse);
  EXPECT_EQ(cfg.batch.analyzer.engine.newton.max_iterations, 50);

  // Fixed-point: serialize, reparse, serialize again -> identical bytes.
  const std::string text = cfg.to_json_text();
  const StatusOr<AnalysisConfig> back =
      AnalysisConfig::from_json(std::string_view(text));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->to_json_text(), text);
}

TEST(AnalysisConfig, UnknownKeyIsInvalidArgumentNamingTheKey) {
  AnalysisConfig cfg;
  const Status s = cfg.apply(*json::parse("{\"jbos\":4}"));
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("jbos"), std::string::npos);
}

TEST(AnalysisConfig, BadTypesAndRangesAreInvalidArgumentNotCrashes) {
  const char* bad[] = {
      "{\"jobs\":\"four\"}",          // wrong type
      "{\"jobs\":2.5}",               // non-integral
      "{\"jobs\":-1}",                // range
      "{\"jobs\":1025}",              // above the worker cap
      "{\"top_k\":-2}",               // range
      "{\"dt_ps\":0}",                // dt must be > 0
      "{\"dt_ps\":5,\"horizon_ns\":0.000001}",  // horizon <= dt
      "{\"horizon_ns\":2000}",        // 2e6 steps: above the grid cap
      "{\"horizon_ns\":1e6}",         // 1e9 steps
      "{\"dt_ps\":0.001}",            // 4e6 steps of the default horizon
      "{\"model_alignment_iterations\":0}",
      "{\"newton_v_tol\":-1}",
      "{\"solver\":\"quantum\"}",
      "{\"exhaustive\":1}",           // bool expected
      "[]",                           // not an object
  };
  for (const char* text : bad) {
    AnalysisConfig cfg;
    const StatusOr<json::Value> v = json::parse(text);
    ASSERT_TRUE(v.ok()) << text;
    const Status s = cfg.apply(*v);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << text;
  }
}

TEST(AnalysisConfig, ApplyHasTheStrongGuarantee) {
  AnalysisConfig cfg;
  ASSERT_TRUE(cfg.apply(*json::parse("{\"jobs\":5}")).ok());
  const std::string before = cfg.to_json_text();
  // Valid first key, invalid second: NOTHING must stick.
  const Status s = cfg.apply(*json::parse("{\"jobs\":2,\"top_k\":-1}"));
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(cfg.to_json_text(), before);
  EXPECT_EQ(cfg.batch.jobs, 5);
}

// Inf passes a `>= 0` range check and NaN fails every comparison
// silently, so non-finite numbers are rejected where they are read, with
// the key named, and the config is left as it was.
TEST(AnalysisConfig, NonFiniteNumbersAreRejected) {
  for (const char* key : {"lte_tol", "deadline_ms"}) {
    for (const double bad : {std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN()}) {
      AnalysisConfig cfg;
      ASSERT_TRUE(cfg.apply(*json::parse("{\"jobs\":5}")).ok());
      const std::string before = cfg.to_json_text();
      json::Object o;
      o[key] = bad;
      const Status s = cfg.apply(json::Value(std::move(o)));
      EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << key << "=" << bad;
      EXPECT_EQ(s.message(), std::string("config: ") + key + " must be finite");
      EXPECT_EQ(cfg.to_json_text(), before) << key << "=" << bad;
    }
  }
}

// The single-threshold screen is gone (the fidelity ladder is the only
// triage path), so are the per-family override keys (each knob is one
// key writing one value), so is the pre-reduction switch (PRIMA is the
// one reducer), so is the window-pruning switch (the per-aggressor
// windows it switched are gone; the caller's scan domain is the one
// window), and so is the inner Rtr iteration cap (compute_rtr is one step
// of the model <-> alignment fix-point, capped by
// model_alignment_iterations). Their keys
// are unknown keys now, so a config dump written before the removal fails
// cleanly on recovery instead of half-applying.
TEST(AnalysisConfig, RemovedScreenKeysAreUnknownKeys) {
  for (const char* text :
       {"{\"screen_below_ps\":5}", "{\"screen_vn_below_v\":0.1}",
        "{\"ceff_max_dt_growth\":2}", "{\"rtr_max_dt_growth\":2}",
        "{\"search_stale_jacobian_iters\":2}", "{\"prereduce\":true}",
        "{\"window_pruning\":false}", "{\"fidelity_max_tier\":1}",
        "{\"max_retries\":2}", "{\"retry_backoff_ms\":1.5}",
        "{\"rtr_max_iterations\":4}"}) {
    AnalysisConfig cfg;
    ASSERT_TRUE(cfg.apply(*json::parse("{\"jobs\":5}")).ok());
    const std::string before = cfg.to_json_text();
    const Status s = cfg.apply(*json::parse(text));
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << text;
    EXPECT_NE(s.message().find("unknown key"), std::string::npos) << text;
    const std::string key = json::parse(text)->as_object().begin()->first;
    EXPECT_NE(s.message().find(key), std::string::npos) << text;
    EXPECT_EQ(cfg.to_json_text(), before) << text;
    // The `--config FILE` path parses the file's text whole.
    const StatusOr<AnalysisConfig> loaded =
        AnalysisConfig::from_json(std::string_view(text));
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument) << text;
    EXPECT_NE(loaded.status().message().find(key), std::string::npos)
        << text;
  }
}

TEST(AnalysisConfig, JobsCapIsInclusive) {
  AnalysisConfig cfg;
  ASSERT_TRUE(cfg.apply(*json::parse("{\"jobs\":1024}")).ok());
  EXPECT_EQ(cfg.batch.jobs, 1024);
}

// A key that fans out to several homes (the engine, the per-net search
// and the table search) only round-trips when those fields start out
// equal: to_json reads the engine's back (the per-net search's for
// warm_start, which the engine no longer has).
TEST(AnalysisConfig, FannedOutFieldsShareOneDefault) {
  const AnalyzerConfig a = AnalysisConfig().batch.analyzer;
  for (const double tol :
       {a.analysis.search.lte_tol, a.table_spec.search.lte_tol})
    EXPECT_EQ(tol, a.engine.lte_tol);
  for (const int n : {a.analysis.search.stale_jacobian_iters,
                      a.table_spec.search.stale_jacobian_iters})
    EXPECT_EQ(n, a.engine.newton.stale_jacobian_iters);
  EXPECT_EQ(a.table_spec.search.warm_start, a.analysis.search.warm_start);
}

// `exhaustive` is the only key for the alignment method, so a config
// holding the method of [5] would come back from its dump as Predicted:
// validate() rejects it, and so does every apply() that would keep it.
TEST(AnalysisConfig, ValidateRejectsAMethodNoKeyExpresses) {
  AnalysisConfig cfg;
  EXPECT_EQ(cfg.batch.analyzer.analysis.method, AlignmentMethod::Predicted);
  cfg.batch.analyzer.analysis.method = AlignmentMethod::ReceiverInputPeak;
  const Status s = cfg.validate();
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("exhaustive"), std::string::npos)
      << s.message();
  EXPECT_EQ(cfg.apply(*json::parse("{\"jobs\":2}")).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(cfg.batch.jobs, AnalysisConfig().batch.jobs);
  // The key itself selects one of the two expressible methods.
  for (const bool exhaustive : {true, false}) {
    AnalysisConfig keyed = cfg;
    json::Object o;
    o["exhaustive"] = exhaustive;
    ASSERT_TRUE(keyed.apply(json::Value(std::move(o))).ok());
    EXPECT_EQ(keyed.batch.analyzer.analysis.method,
              exhaustive ? AlignmentMethod::Exhaustive
                         : AlignmentMethod::Predicted);
    EXPECT_TRUE(keyed.validate().ok());
  }
}

/// A value for every key, each different from its default and each
/// still a config the engine can run.
json::Object every_key_non_default() {
  return json::parse(R"({
    "jobs": 3, "top_k": 7, "fidelity_ladder": true,
    "fidelity_threshold_ps": 7, "fidelity_margin": 2.5,
    "deadline_ms": 60000, "exhaustive": true,
    "thevenin": true, "solver": "sparse", "dt_ps": 2,
    "horizon_ns": 5, "model_alignment_iterations": 3,
    "newton_max_iterations": 50,
    "newton_v_tol": 1e-8, "lte_tol": 1e-3, "max_dt_growth": 8,
    "stale_jacobian_iters": 4, "warm_start": false})")
              ->as_object();
}

/// The NoiseAnalyzer report of one small random net under `cfg`.
std::string report_bytes(const AnalysisConfig& cfg) {
  Rng rng(5);
  const CoupledNet net = random_coupled_net(rng);
  const NoiseAnalyzer analyzer(cfg.batch.analyzer);
  const StatusOr<DelayNoiseResult> r = analyzer.try_analyze(net);
  if (!r.ok()) return r.status().to_string();
  return DelayNoiseReport::from(net, *r, "n").to_json();
}

TEST(AnalysisConfig, NonDefaultTableCoversEveryKey) {
  const json::Object table = every_key_non_default();
  const json::Value defaults = AnalysisConfig().to_json();
  EXPECT_EQ(defaults.as_object().size(), 18u);
  EXPECT_EQ(table.size(), defaults.as_object().size());
  for (const auto& [key, v] : defaults.as_object()) {
    const json::Value* set = table.find(key);
    ASSERT_NE(set, nullptr) << key;
    EXPECT_NE(set->dump(), v.dump()) << key;
  }
}

// The dump must rebuild the ENGINE, not just its own text: run the same
// net under a config and under from_json of its dump.
TEST(AnalysisConfig, DumpReproducesTheReport) {
  AnalysisConfig custom;
  ASSERT_TRUE(custom.apply(json::Value(every_key_non_default())).ok());
  for (const AnalysisConfig& cfg : {AnalysisConfig(), custom}) {
    const StatusOr<AnalysisConfig> back =
        AnalysisConfig::from_json(cfg.to_json());
    ASSERT_TRUE(back.ok()) << back.status().to_string();
    EXPECT_EQ(back->to_json_text(), cfg.to_json_text());
    const std::string bytes = report_bytes(cfg);
    EXPECT_NE(bytes.find("\"delay_noise_ps\""), std::string::npos) << bytes;
    EXPECT_EQ(report_bytes(*back), bytes);
  }
}

// apply() is a field map: every dumped key, set to its non-default
// value, builds the same config and the same engine in either order.
TEST(AnalysisConfig, KeyOrderDoesNotMatter) {
  const json::Object table = every_key_non_default();
  json::Object forward_keys, reverse_keys;
  std::vector<std::pair<std::string, json::Value>> entries;
  const json::Value defaults = AnalysisConfig().to_json();
  for (const auto& [key, v] : defaults.as_object()) {
    const json::Value* set = table.find(key);
    entries.emplace_back(key, set ? *set : v);
  }
  for (const auto& [key, v] : entries) forward_keys[key] = v;
  std::reverse(entries.begin(), entries.end());
  for (const auto& [key, v] : entries) reverse_keys[key] = v;

  AnalysisConfig forward, backward;
  ASSERT_TRUE(forward.apply(json::Value(std::move(forward_keys))).ok());
  ASSERT_TRUE(backward.apply(json::Value(std::move(reverse_keys))).ok());
  ASSERT_NE(forward.to_json_text(), AnalysisConfig().to_json_text());
  EXPECT_EQ(backward.to_json_text(), forward.to_json_text());
  EXPECT_EQ(report_bytes(backward), report_bytes(forward));
}

TEST(AnalysisConfig, FromJsonTextRejectsMalformedDocuments) {
  EXPECT_EQ(AnalysisConfig::from_json(std::string_view("{\"jobs\":"))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(AnalysisConfig::from_json(std::string_view("42")).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace dn
