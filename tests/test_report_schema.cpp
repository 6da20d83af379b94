// Golden-file pin of the versioned report JSON (clarinet/report.*).
//
// tests/golden/report_schema.json holds the exact bytes to_json() must
// render for a fixed report, schema_version included. If this test fails
// you changed the wire format: either restore the rendering, or — for a
// deliberate schema change — bump kReportSchemaVersion and regenerate the
// golden (run this binary with DN_UPDATE_GOLDEN=1). The batch envelope
// around the reports is checked for names that need escaping.
#include "clarinet/report.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "clarinet/batch_analyzer.hpp"
#include "util/json.hpp"

namespace dn {
namespace {

/// A fully populated report with hand-picked values (nothing computed, so
/// the bytes cannot drift with the engine).
DelayNoiseReport fixed_report() {
  DelayNoiseReport rep;
  rep.net_name = "golden/net \"42\"";  // Exercises string escaping.
  rep.victim_driver = "INV";
  rep.victim_driver_size = 4.0;
  rep.victim_segments = 7;
  rep.victim_rising = false;
  rep.num_aggressors = 3;
  rep.coupling_total_ff = 55.25;
  rep.rth_ohm = 812.5;
  rep.holding_r_ohm = 431.0625;
  rep.rtr_iterations = 3;
  rep.pulse_height_v = 0.4375;
  rep.pulse_width_ps = 118.046875;
  rep.peak_time_ps = 901.5;
  rep.align_voltage_v = 0.899999999999;  // 12 digits, shortest form.
  rep.input_delay_noise_ps = 23.125;
  rep.delay_noise_ps = 41.0078125;
  // v2 fidelity provenance — pinned so the ladder fields cannot drift.
  rep.fidelity_tier = "tier2";
  Degradation d;
  d.kind = DegradeKind::kRtrToRth;
  d.detail = "deadline pressure";
  d.count = 2;
  rep.degradations.push_back(d);
  return rep;
}

std::string golden_path() {
  return std::string(DN_GOLDEN_DIR) + "/report_schema.json";
}

TEST(ReportSchema, JsonBytesMatchTheGoldenFile) {
  const std::string rendered = fixed_report().to_json() + "\n";

  if (std::getenv("DN_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(golden_path(), std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path();
    out << rendered;
    GTEST_SKIP() << "golden regenerated";
  }

  std::ifstream in(golden_path(), std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << golden_path()
                         << " (regenerate with DN_UPDATE_GOLDEN=1)";
  std::ostringstream all;
  all << in.rdbuf();
  EXPECT_EQ(all.str(), rendered);
}

TEST(ReportSchema, SchemaVersionIsTheLeadingKey) {
  const std::string text = fixed_report().to_json();
  const std::string expect = "{\"schema_version\":" +
                             std::to_string(kReportSchemaVersion) + ",";
  EXPECT_EQ(text.substr(0, expect.size()), expect);
}

// Failed and pruned entries carry the caller's name verbatim;
// the envelope must parse and decode each name back exactly.
TEST(ReportSchema, BatchEnvelopeNamesDecodeExactly) {
  const std::string name = std::string("a\"b\\c") + '\x01';
  BatchResult br;
  br.nets.resize(4);
  for (std::size_t i = 0; i < br.nets.size(); ++i) {
    br.nets[i].index = i;
    br.nets[i].name = name;
  }
  br.nets[0].outcome = AnalysisOutcome::kFailed;
  br.nets[0].status = Status::Internal("solver blew up");
  br.nets[1].outcome = AnalysisOutcome::kScreened;
  br.nets[1].decided_by = FidelityTier::kTier0;
  br.nets[1].dn_bound = 1.5e-12;
  br.nets[2].outcome = AnalysisOutcome::kScreened;
  br.nets[2].decided_by = FidelityTier::kTier1;
  br.nets[2].dn_bound = 2.5e-12;
  br.nets[3].report = fixed_report();
  br.nets[3].report.net_name = name;
  finalize_batch_result(br, 10, true);

  StatusOr<json::Value> doc = json::parse(br.to_json());
  ASSERT_TRUE(doc.ok()) << doc.status().to_string() << "\n" << br.to_json();
  const json::Array& nets = doc->find("nets")->as_array();
  ASSERT_EQ(nets.size(), 4u);
  for (const json::Value& e : nets) EXPECT_EQ(e.find("net")->as_string(), name);
  EXPECT_EQ(nets[0].find("error")->as_string(), "INTERNAL");
  EXPECT_EQ(nets[0].find("attempts"), nullptr);
  EXPECT_TRUE(nets[1].find("screened_out")->as_bool());
  EXPECT_DOUBLE_EQ(nets[1].find("bound_ps")->as_number(), 1.5);
  EXPECT_TRUE(nets[2].find("screened_out")->as_bool());
  EXPECT_EQ(nets[2].find("tier")->as_string(), "tier1");
  EXPECT_EQ(doc->find("failed")->as_number(), 1.0);
  EXPECT_EQ(doc->find("ladder")->find("tier1_pruned")->as_number(), 1.0);
  EXPECT_EQ(doc->find("ladder")->find("deferred"), nullptr);
  EXPECT_EQ(doc->find("retries"), nullptr);
}

}  // namespace
}  // namespace dn
