// AnalysisConfig tests: the single flag/JSON -> engine-options validation
// path shared by the CLI and the server's `config` verb.
#include "clarinet/analysis_config.hpp"

#include <gtest/gtest.h>

#include <string>

#include "matrix/solver.hpp"

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
    "jobs": 3, "top_k": 7, "max_retries": 2, "retry_backoff_ms": 1.5,
    "deadline_ms": 250, "exhaustive": true, "thevenin": true,
    "prereduce": true, "solver": "sparse", "dt_ps": 2, "horizon_ns": 4,
    "model_alignment_iterations": 2, "rtr_max_iterations": 6,
    "newton_max_iterations": 50, "newton_v_tol": 1e-8})"));
  ASSERT_TRUE(applied.ok()) << applied.to_string();

  EXPECT_EQ(cfg.batch.jobs, 3);
  EXPECT_EQ(cfg.batch.top_k, 7);
  EXPECT_EQ(cfg.batch.max_retries, 2);
  EXPECT_FALSE(cfg.batch.analyzer.use_prediction_tables);  // exhaustive
  EXPECT_FALSE(
      cfg.batch.analyzer.analysis.use_transient_holding);  // thevenin
  EXPECT_TRUE(cfg.batch.analyzer.engine.prereduce);
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
      "{\"top_k\":-2}",               // range
      "{\"dt_ps\":0}",                // dt must be > 0
      "{\"dt_ps\":5,\"horizon_ns\":0.000001}",  // horizon <= dt
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

// The single-threshold screen is gone (the fidelity ladder is the only
// triage path). Its keys are unknown keys now, so a config dump written
// before the removal fails cleanly on recovery instead of half-applying.
TEST(AnalysisConfig, RemovedScreenKeysAreUnknownKeys) {
  for (const char* text :
       {"{\"screen_below_ps\":5}", "{\"screen_vn_below_v\":0.1}"}) {
    AnalysisConfig cfg;
    ASSERT_TRUE(cfg.apply(*json::parse("{\"jobs\":5}")).ok());
    const std::string before = cfg.to_json_text();
    const Status s = cfg.apply(*json::parse(text));
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << text;
    EXPECT_EQ(cfg.to_json_text(), before) << text;
  }
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
