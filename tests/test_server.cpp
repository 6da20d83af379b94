// Resident analysis daemon tests (server/*): protocol envelope, the
// incremental dirty-set engine, admission control, cache persistence,
// and the cold-vs-incremental byte-identity contract from DESIGN.md §11.
#include "server/session.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "clarinet/analysis_config.hpp"
#include "clarinet/characterization_cache.hpp"
#include "rcnet/random_nets.hpp"
#include "rcnet/spef.hpp"
#include "server/design.hpp"
#include "server/server.hpp"
#include "util/json.hpp"

namespace dn::server {
namespace {

/// Sends one request line and returns the parsed response object.
json::Value req(Session& s, const std::string& line,
                Admission admission = Admission::kAccept) {
  json::Value resp = s.handle_line(line, admission);
  EXPECT_TRUE(resp.is_object()) << "response not an object for: " << line;
  return resp;
}

bool ok(const json::Value& resp) {
  const json::Value* v = resp.find("ok");
  return v != nullptr && v->is_bool() && v->as_bool();
}

std::string error_code(const json::Value& resp) {
  const json::Value* err = resp.find("error");
  if (!err) return "";
  const json::Value* code = err->find("code");
  return code && code->is_string() ? code->as_string() : "";
}

const json::Value& result_of(const json::Value& resp) {
  const json::Value* r = resp.find("result");
  EXPECT_NE(r, nullptr);
  return *r;
}

std::string load_line(int seed, int nets, int neighbors) {
  std::ostringstream os;
  os << "{\"verb\":\"load_design\",\"design\":{\"random\":{\"seed\":" << seed
     << ",\"nets\":" << nets << ",\"neighbors\":" << neighbors << "}}}";
  return os.str();
}

std::string temp_path(const char* stem) {
  return testing::TempDir() + stem;
}

/// The report sub-object of an analyze response, re-serialized. Byte
/// equality of these strings is the identity the daemon promises.
std::string report_bytes(const json::Value& resp) {
  const json::Value* rep = result_of(resp).find("report");
  EXPECT_NE(rep, nullptr);
  return rep ? rep->dump() : "";
}

TEST(ServerProtocol, PingEchoesIdAndCarriesSchemaVersion) {
  Session s;
  const json::Value resp = req(s, "{\"id\":42,\"verb\":\"ping\"}");
  EXPECT_TRUE(ok(resp));
  const json::Value* id = resp.find("id");
  ASSERT_NE(id, nullptr);
  EXPECT_EQ(id->as_number(), 42.0);
  const json::Value* sv = resp.find("schema_version");
  ASSERT_NE(sv, nullptr);
  EXPECT_EQ(static_cast<int>(sv->as_number()), kReportSchemaVersion);
}

TEST(ServerProtocol, MalformedJsonIsAResponseNotACrash) {
  Session s;
  const json::Value resp = req(s, "{\"verb\": nope}");
  EXPECT_FALSE(ok(resp));
  EXPECT_EQ(error_code(resp), "INVALID_ARGUMENT");
  // The session survives and still answers.
  EXPECT_TRUE(ok(req(s, "{\"verb\":\"ping\"}")));
}

TEST(ServerProtocol, UnknownVerbAndMissingVerbAreInvalidArgument) {
  Session s;
  EXPECT_EQ(error_code(req(s, "{\"verb\":\"frobnicate\"}")),
            "INVALID_ARGUMENT");
  EXPECT_EQ(error_code(req(s, "{\"id\":1}")), "INVALID_ARGUMENT");
  EXPECT_EQ(error_code(req(s, "[1,2,3]")), "INVALID_ARGUMENT");
}

TEST(ServerProtocol, AnalyzeBeforeLoadIsFailedPrecondition) {
  Session s;
  EXPECT_EQ(error_code(req(s, "{\"verb\":\"analyze\"}")),
            "FAILED_PRECONDITION");
  EXPECT_EQ(error_code(req(s, "{\"verb\":\"update_net\",\"net\":\"n0\"}")),
            "FAILED_PRECONDITION");
}

TEST(ServerProtocol, ShutdownDrainsRemainingRequestsAsUnavailable) {
  Session s;
  EXPECT_TRUE(ok(req(s, "{\"verb\":\"shutdown\"}")));
  EXPECT_TRUE(s.shutdown_requested());
  const json::Value after = req(s, "{\"id\":9,\"verb\":\"ping\"}");
  EXPECT_FALSE(ok(after));
  EXPECT_EQ(error_code(after), "UNAVAILABLE");
  // Still one response per line, id still echoed.
  ASSERT_NE(after.find("id"), nullptr);
  EXPECT_EQ(after.find("id")->as_number(), 9.0);
}

TEST(ServerDesign, RandomRingNeighborsAndAffectedVictims) {
  const Design d = Design::random(3, 8, 2);
  ASSERT_EQ(d.num_nets(), 8u);
  // Ring with 2 successors: net 0 couples to {1,2} forward and {6,7}
  // backward.
  EXPECT_EQ(d.neighbors(0), (std::vector<int>{1, 2, 6, 7}));
  EXPECT_EQ(d.affected_victims(0), (std::vector<int>{0, 1, 2, 6, 7}));
  const StatusOr<int> idx = d.find("n3");
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(*idx, 3);
  EXPECT_EQ(d.find("nope").status().code(), StatusCode::kNotFound);
}

TEST(ServerDesign, CoupledViewAggressorsSwitchOppositeToVictim) {
  const Design d = Design::random(11, 6, 1);
  for (int i = 0; i < 6; ++i) {
    const StatusOr<CoupledNet> view = d.coupled_view(i);
    ASSERT_TRUE(view.ok());
    for (const AggressorDesc& a : view->aggressors)
      EXPECT_EQ(a.output_rising, !view->victim.output_rising);
  }
}

TEST(ServerDesign, EditsValidateBeforeMutating) {
  Design d = Design::random(1, 4, 1);
  const double r0 = d.net(2).tree.res[1].r;
  EXPECT_EQ(d.scale_net(2, -1.0, 1.0).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(d.net(2).tree.res[1].r, r0);  // Untouched on error.
  EXPECT_TRUE(d.scale_net(2, 2.0, 1.0).ok());
  EXPECT_EQ(d.net(2).tree.res[1].r, 2.0 * r0);
  EXPECT_EQ(d.scale_net(99, 1.0, 1.0).code(), StatusCode::kInvalidArgument);
}

// Snapshot recovery and load_design read Design::from_json: every index
// must be an in-range integer and every enum a known value, never a
// float-to-int cast of whatever the document holds.
TEST(ServerDesign, FromJsonRejectsNonIntegralAndOutOfRangeNumbers) {
  const std::string base = Design::random(1, 4, 1).to_json().dump();
  ASSERT_TRUE(Design::from_json(*json::parse(base)).ok());
  const std::pair<const char*, void (*)(json::Value&)> cases[] = {
      {"coupling node 0.5",
       [](json::Value& doc) {
         doc.as_object()["couplings"].as_array()[0].as_array()[2] = 0.5;
       }},
      {"coupling net 1e300",
       [](json::Value& doc) {
         doc.as_object()["couplings"].as_array()[0].as_array()[0] = 1e300;
       }},
      {"mosfet type 7",
       [](json::Value& doc) {
         doc.as_object()["nets"].as_array()[0].as_object()["driver"]
             .as_object()["nmos"].as_array()[0] = 7;
       }},
      {"res node >= num_nodes",
       [](json::Value& doc) {
         json::Object& tree =
             doc.as_object()["nets"].as_array()[0].as_object()["tree"]
                 .as_object();
         tree["res"].as_array()[0].as_array()[1] =
             tree["num_nodes"].as_number();
       }},
  };
  for (const auto& [what, mutate] : cases) {
    json::Value doc = *json::parse(base);
    mutate(doc);
    const StatusOr<Design> d = Design::from_json(doc);
    ASSERT_FALSE(d.ok()) << what;
    EXPECT_EQ(d.status().code(), StatusCode::kInvalidArgument) << what;
  }
}

TEST(ServerSession, UpdateNetInvalidatesExactlyTheDirtyClosure) {
  Session s;
  ASSERT_TRUE(ok(req(s, load_line(7, 10, 2))));
  ASSERT_TRUE(ok(req(s, "{\"verb\":\"analyze\"}")));

  const json::Value upd =
      req(s, "{\"verb\":\"update_net\",\"net\":\"n4\",\"scale_c\":1.3}");
  ASSERT_TRUE(ok(upd));
  const json::Value* inv = result_of(upd).find("invalidated");
  ASSERT_NE(inv, nullptr);
  ASSERT_TRUE(inv->is_array());
  std::vector<std::string> names;
  for (const json::Value& v : inv->as_array()) names.push_back(v.as_string());
  // Ring, 2 successors: n4's dirty closure is itself plus nets within
  // distance 2 on either side.
  EXPECT_EQ(names,
            (std::vector<std::string>{"n2", "n3", "n4", "n5", "n6"}));

  const json::Value second = req(s, "{\"verb\":\"analyze\"}");
  ASSERT_TRUE(ok(second));
  EXPECT_EQ(result_of(second).find("reanalyzed")->as_number(), 5.0);
  // Third analyze: nothing dirty, nothing recomputed.
  const json::Value third = req(s, "{\"verb\":\"analyze\"}");
  EXPECT_EQ(result_of(third).find("reanalyzed")->as_number(), 0.0);
}

TEST(ServerSession, IncrementalReportMatchesColdRunByteForByte) {
  // Session A: load, full analyze, edit n2, incremental analyze.
  Session a;
  ASSERT_TRUE(ok(req(a, load_line(21, 12, 2))));
  ASSERT_TRUE(ok(req(a, "{\"verb\":\"analyze\"}")));
  ASSERT_TRUE(ok(
      req(a, "{\"verb\":\"update_net\",\"net\":\"n2\",\"scale_r\":1.5}")));
  const json::Value incr = req(a, "{\"verb\":\"analyze\"}");
  ASSERT_TRUE(ok(incr));
  EXPECT_LT(result_of(incr).find("reanalyzed")->as_number(), 12.0);

  // Session B: same design, same edit, ONE cold analyze of the final
  // state. The daemon's contract: byte-identical reports.
  Session b;
  ASSERT_TRUE(ok(req(b, load_line(21, 12, 2))));
  ASSERT_TRUE(ok(
      req(b, "{\"verb\":\"update_net\",\"net\":\"n2\",\"scale_r\":1.5}")));
  const json::Value cold = req(b, "{\"verb\":\"analyze\"}");
  ASSERT_TRUE(ok(cold));
  EXPECT_EQ(result_of(cold).find("reanalyzed")->as_number(), 12.0);

  EXPECT_EQ(report_bytes(incr), report_bytes(cold));
}

// A request's injected `cache` fault degrades that request alone: the
// session's characterization cache keeps no trace of it, so a later
// clean analyze serves what a fresh session would.
TEST(ServerSession, InjectedTableFaultDoesNotOutliveItsRequest) {
  // Ring of 5 with 2 successors: an edit of n0 dirties every victim.
  Session a;
  ASSERT_TRUE(ok(req(a, load_line(29, 5, 2))));
  const json::Value faulted = req(
      a, "{\"verb\":\"analyze\",\"inject_faults\":\"cache:1\"}");
  ASSERT_TRUE(ok(faulted));
  EXPECT_NE(report_bytes(faulted).find("table_to_vdd2"), std::string::npos);
  ASSERT_TRUE(ok(
      req(a, "{\"verb\":\"update_net\",\"net\":\"n0\",\"scale_c\":1.2}")));
  const json::Value clean = req(a, "{\"verb\":\"analyze\"}");
  ASSERT_TRUE(ok(clean));
  EXPECT_EQ(result_of(clean).find("reanalyzed")->as_number(), 5.0);

  Session b;
  ASSERT_TRUE(ok(req(b, load_line(29, 5, 2))));
  ASSERT_TRUE(ok(
      req(b, "{\"verb\":\"update_net\",\"net\":\"n0\",\"scale_c\":1.2}")));
  const json::Value cold = req(b, "{\"verb\":\"analyze\"}");
  ASSERT_TRUE(ok(cold));
  EXPECT_EQ(report_bytes(clean), report_bytes(cold));
}

// Every net an injected-fault analyze recomputed stays dirty, so the
// next plain analyze recomputes it instead of serving the faults.
TEST(ServerSession, FaultInjectedResultsDoNotOutliveTheirRequest) {
  Session a;
  ASSERT_TRUE(ok(req(a, load_line(7, 6, 1))));
  const json::Value faulted = req(
      a, "{\"verb\":\"analyze\",\"inject_faults\":\"cache:1\"}");
  ASSERT_TRUE(ok(faulted));
  EXPECT_NE(report_bytes(faulted).find("table_to_vdd2"), std::string::npos);
  const json::Value clean = req(a, "{\"verb\":\"analyze\"}");
  ASSERT_TRUE(ok(clean));
  EXPECT_EQ(result_of(clean).find("reanalyzed")->as_number(), 6.0);
  EXPECT_EQ(report_bytes(clean).find("degradations"), std::string::npos);

  Session b;
  ASSERT_TRUE(ok(req(b, load_line(7, 6, 1))));
  const json::Value cold = req(b, "{\"verb\":\"analyze\"}");
  ASSERT_TRUE(ok(cold));
  EXPECT_EQ(report_bytes(clean), report_bytes(cold));
}

// The analyze report is embedded as built, so a net path that needs
// escaping (here a '"') is served like any other, failed slot included.
TEST(ServerSession, NetPathWithAQuoteAnalyzes) {
  Rng rng(3);
  const std::string path = temp_path("dn_quote\"name.spef");
  {
    std::ofstream out(path);
    write_spef(out, random_coupled_net(rng));
    ASSERT_TRUE(out.good());
  }
  json::Object design;
  design["spef_files"] = json::Array{json::Value(path)};
  json::Object load;
  load["verb"] = "load_design";
  load["design"] = json::Value(std::move(design));
  Session s;
  ASSERT_TRUE(ok(req(s, json::Value(std::move(load)).dump())));

  for (const char* line : {"{\"verb\":\"analyze\",\"deadline_ms\":0.0001}",
                           "{\"verb\":\"analyze\"}"}) {
    const json::Value resp = req(s, line);
    ASSERT_TRUE(ok(resp)) << resp.dump();
    const json::Value* nets = result_of(resp).find("report")->find("nets");
    ASSERT_NE(nets, nullptr);
    ASSERT_EQ(nets->as_array().size(), 1u);
    EXPECT_EQ(nets->as_array()[0].find("net")->as_string(), path);
  }
  std::remove(path.c_str());
}

TEST(ServerSession, JobsOneAndEightProduceIdenticalReports) {
  const std::string cfg1 = "{\"verb\":\"config\",\"set\":{\"jobs\":1}}";
  const std::string cfg8 = "{\"verb\":\"config\",\"set\":{\"jobs\":8}}";
  Session s1, s8;
  ASSERT_TRUE(ok(req(s1, cfg1)));
  ASSERT_TRUE(ok(req(s8, cfg8)));
  ASSERT_TRUE(ok(req(s1, load_line(5, 10, 2))));
  ASSERT_TRUE(ok(req(s8, load_line(5, 10, 2))));
  const json::Value r1 = req(s1, "{\"verb\":\"analyze\"}");
  const json::Value r8 = req(s8, "{\"verb\":\"analyze\"}");
  ASSERT_TRUE(ok(r1));
  ASSERT_TRUE(ok(r8));
  EXPECT_EQ(report_bytes(r1), report_bytes(r8));
}

TEST(ServerSession, SchedulingConfigKeepsResultsSchemaInvalidatesOnEngine) {
  Session s;
  ASSERT_TRUE(ok(req(s, load_line(9, 6, 1))));
  ASSERT_TRUE(ok(req(s, "{\"verb\":\"analyze\"}")));
  // jobs is scheduling-only: nothing dirties.
  ASSERT_TRUE(ok(req(s, "{\"verb\":\"config\",\"set\":{\"jobs\":3}}")));
  EXPECT_EQ(result_of(req(s, "{\"verb\":\"analyze\"}"))
                .find("reanalyzed")->as_number(),
            0.0);
  // exhaustive changes the analysis fingerprint: all victims dirty.
  ASSERT_TRUE(ok(req(s, "{\"verb\":\"config\",\"set\":{\"exhaustive\":true}}")));
  EXPECT_EQ(result_of(req(s, "{\"verb\":\"analyze\"}"))
                .find("reanalyzed")->as_number(),
            6.0);
}

TEST(ServerSession, TransientEngineConfigChangeReanalyzesEveryVictim) {
  // lte_tol changes every transient the flow runs, so stored results are
  // stale after it changes: the next analyze must recompute all victims
  // and serve what a session configured that way from the start serves.
  Session warm;
  ASSERT_TRUE(ok(req(warm, load_line(7, 6, 2))));
  ASSERT_TRUE(ok(req(warm, "{\"verb\":\"analyze\"}")));
  ASSERT_TRUE(ok(req(warm, "{\"verb\":\"config\",\"set\":{\"lte_tol\":0}}")));
  const json::Value incr = req(warm, "{\"verb\":\"analyze\"}");
  ASSERT_TRUE(ok(incr));
  EXPECT_EQ(result_of(incr).find("reanalyzed")->as_number(), 6.0);

  Session fresh;
  ASSERT_TRUE(ok(req(fresh, "{\"verb\":\"config\",\"set\":{\"lte_tol\":0}}")));
  ASSERT_TRUE(ok(req(fresh, load_line(7, 6, 2))));
  const json::Value cold = req(fresh, "{\"verb\":\"analyze\"}");
  ASSERT_TRUE(ok(cold));
  EXPECT_EQ(report_bytes(incr), report_bytes(cold));
}

TEST(ServerSession, ConfigChangeRecharacterizesAlignmentTables) {
  // lte_tol also steers the alignment-table searches, so a session changed
  // by `config` must drop the tables built under the old search settings
  // and serve what a session constructed with the new config serves.
  const std::string set = "{\"lte_tol\":0.05}";
  Session changed;
  ASSERT_TRUE(ok(req(changed, "{\"verb\":\"config\",\"set\":" + set + "}")));
  ASSERT_TRUE(ok(req(changed, load_line(7, 3, 2))));
  const json::Value served = req(changed, "{\"verb\":\"analyze\"}");
  ASSERT_TRUE(ok(served));

  AnalysisConfig cfg;
  ASSERT_TRUE(cfg.apply(json::parse(set).value()).ok());
  Session booted(cfg);
  ASSERT_TRUE(ok(req(booted, load_line(7, 3, 2))));
  const json::Value cold = req(booted, "{\"verb\":\"analyze\"}");
  ASSERT_TRUE(ok(cold));
  EXPECT_EQ(report_bytes(served), report_bytes(cold));
}

TEST(ServerSession, EveryNonSchedulingConfigKeyDirtiesAllVictims) {
  // The fingerprint is the whole config minus the scheduling keys, so
  // each engine knob must dirty every victim (checked via `stats`, with
  // an analyze in between to clean the slate). One perturbed value per
  // key; the table must cover every key, so a new key cannot skip this.
  const std::pair<const char*, const char*> engine_sets[] = {
      {"fidelity_ladder", "true"},
      {"fidelity_threshold_ps", "7"},
      {"fidelity_margin", "2.5"},
      {"exhaustive", "true"},
      {"thevenin", "true"},
      {"solver", "\"sparse\""},
      {"dt_ps", "1.5"},
      {"horizon_ns", "4.5"},
      {"model_alignment_iterations", "3"},
      {"rtr_max_iterations", "5"},
      {"newton_max_iterations", "70"},
      {"newton_v_tol", "2e-7"},
      {"lte_tol", "0"},
      {"max_dt_growth", "8"},
      {"stale_jacobian_iters", "0"},
      {"warm_start", "false"}};
  const char* scheduling_keys[] = {"jobs", "top_k", "deadline_ms"};
  const json::Value keys = AnalysisConfig().to_json();
  for (const auto& [key, v] : keys.as_object()) {
    const bool listed =
        std::any_of(std::begin(engine_sets), std::end(engine_sets),
                    [&](const auto& e) { return key == e.first; }) ||
        std::find(std::begin(scheduling_keys), std::end(scheduling_keys),
                  key) != std::end(scheduling_keys);
    EXPECT_TRUE(listed) << "config key \"" << key
                        << "\" has no fingerprint check";
  }

  Session s;
  ASSERT_TRUE(ok(req(s, load_line(3, 2, 1))));
  ASSERT_TRUE(ok(req(s, "{\"verb\":\"analyze\"}")));
  const auto dirty = [&] {
    return result_of(req(s, "{\"verb\":\"stats\"}")).find("dirty")->as_number();
  };
  ASSERT_EQ(dirty(), 0.0);
  for (const auto& [key, value] : engine_sets) {
    const std::string set = std::string("{\"") + key + "\":" + value + "}";
    ASSERT_TRUE(ok(req(s, "{\"verb\":\"config\",\"set\":" + set + "}")))
        << set;
    EXPECT_EQ(dirty(), 2.0) << set;
    ASSERT_TRUE(ok(req(s, "{\"verb\":\"analyze\"}")));
  }
  // Scheduling keys leave stored results valid.
  ASSERT_TRUE(ok(req(s, "{\"verb\":\"config\",\"set\":{\"jobs\":2,"
                        "\"top_k\":3,\"deadline_ms\":5000}}")));
  EXPECT_EQ(dirty(), 0.0);
}

TEST(ServerSession, InvalidConfigIsRejectedAndLeavesConfigIntact) {
  Session s;
  const json::Value before = req(s, "{\"verb\":\"config\"}");
  ASSERT_TRUE(ok(before));
  const std::string before_cfg = result_of(before).find("config")->dump();

  EXPECT_EQ(error_code(req(
                s, "{\"verb\":\"config\",\"set\":{\"top_k\":-3}}")),
            "INVALID_ARGUMENT");
  EXPECT_EQ(error_code(req(
                s, "{\"verb\":\"config\",\"set\":{\"no_such_knob\":1}}")),
            "INVALID_ARGUMENT");
  EXPECT_EQ(error_code(req(
                s, "{\"verb\":\"config\",\"set\":{\"jobs\":\"many\"}}")),
            "INVALID_ARGUMENT");
  // A worker count no pool can spawn is rejected before it reaches one.
  EXPECT_EQ(error_code(req(
                s, "{\"verb\":\"config\",\"set\":{\"jobs\":100000}}")),
            "INVALID_ARGUMENT");
  // So is a ~1e9-step time grid, before any analyze could run it.
  const json::Value grid =
      req(s, "{\"verb\":\"config\",\"set\":{\"horizon_ns\":1e6}}");
  EXPECT_EQ(error_code(grid), "INVALID_ARGUMENT");
  EXPECT_NE(grid.find("error")->find("message")->as_string().find(
                "horizon_ns"),
            std::string::npos);

  const json::Value after = req(s, "{\"verb\":\"config\"}");
  EXPECT_EQ(result_of(after).find("config")->dump(), before_cfg);
}

TEST(ServerSession, ShedRequestsFailFastWithUnavailable) {
  Session s;
  ASSERT_TRUE(ok(req(s, load_line(2, 4, 1))));
  const json::Value shed =
      req(s, "{\"id\":7,\"verb\":\"analyze\"}", Admission::kShed);
  EXPECT_FALSE(ok(shed));
  EXPECT_EQ(error_code(shed), "UNAVAILABLE");
  EXPECT_EQ(shed.find("id")->as_number(), 7.0);
  // The design was never analyzed — everything still dirty for the next
  // accepted request.
  const json::Value next = req(s, "{\"verb\":\"analyze\"}");
  EXPECT_EQ(result_of(next).find("reanalyzed")->as_number(), 4.0);
}

TEST(ServerSession, DegradedAdmissionLeavesVictimsDirty) {
  Session s;
  ASSERT_TRUE(ok(req(s, load_line(4, 5, 1))));
  const json::Value deg =
      req(s, "{\"verb\":\"analyze\"}", Admission::kDegrade);
  ASSERT_TRUE(ok(deg));
  EXPECT_EQ(result_of(deg).find("reanalyzed")->as_number(), 5.0);
  const json::Value* flag = result_of(deg).find("admission_degraded");
  ASSERT_NE(flag, nullptr);
  EXPECT_TRUE(flag->as_bool());
  // Fidelity debt: the cheap-rung results do not clear the dirty bits.
  const json::Value repay = req(s, "{\"verb\":\"analyze\"}");
  ASSERT_TRUE(ok(repay));
  EXPECT_EQ(result_of(repay).find("reanalyzed")->as_number(), 5.0);
  EXPECT_EQ(result_of(repay).find("admission_degraded"), nullptr);
  // Debt repaid — now clean.
  EXPECT_EQ(result_of(req(s, "{\"verb\":\"analyze\"}"))
                .find("reanalyzed")->as_number(),
            0.0);
}

TEST(ServerSession, StatsReportsCountersAndCacheState) {
  Session s;
  ASSERT_TRUE(ok(req(s, load_line(6, 6, 1))));
  ASSERT_TRUE(ok(req(s, "{\"verb\":\"analyze\"}")));
  const json::Value stats = req(s, "{\"verb\":\"stats\"}");
  ASSERT_TRUE(ok(stats));
  const json::Value& r = result_of(stats);
  EXPECT_GE(r.find("requests")->as_number(), 3.0);
  EXPECT_EQ(r.find("analyze_runs")->as_number(), 1.0);
  EXPECT_EQ(r.find("nets_reanalyzed")->as_number(), 6.0);
  EXPECT_EQ(r.find("nets")->as_number(), 6.0);
  EXPECT_EQ(r.find("dirty")->as_number(), 0.0);
  const json::Value* cc = r.find("characterization_cache");
  ASSERT_NE(cc, nullptr);
  EXPECT_GT(cc->find("tables")->as_number(), 0.0);
  // The characterization cache is the only resident cache.
  EXPECT_EQ(r.find("reduction_cache"), nullptr);
}

// --- Cache persistence ---------------------------------------------------

TEST(CharacterizationCachePersistence, SaveLoadRoundTripServesHits) {
  Session s;
  ASSERT_TRUE(ok(req(s, load_line(13, 8, 2))));
  ASSERT_TRUE(ok(req(s, "{\"verb\":\"analyze\"}")));
  const std::string path = temp_path("dn_cc_roundtrip.bin");
  ASSERT_TRUE(ok(req(
      s, "{\"verb\":\"save_cache\",\"path\":\"" + path + "\"}")));

  // Fresh session, same design: preloading the tables means analyze
  // characterizes NOTHING new (misses stay 0).
  Session warm;
  ASSERT_TRUE(ok(req(warm, load_line(13, 8, 2))));
  const json::Value loaded = req(
      warm, "{\"verb\":\"load_cache\",\"path\":\"" + path + "\"}");
  ASSERT_TRUE(ok(loaded)) << error_code(loaded);
  EXPECT_GT(result_of(loaded).find("tables_loaded")->as_number(), 0.0);
  ASSERT_TRUE(ok(req(warm, "{\"verb\":\"analyze\"}")));
  const json::Value stats = req(warm, "{\"verb\":\"stats\"}");
  const json::Value* cc = result_of(stats).find("characterization_cache");
  ASSERT_NE(cc, nullptr);
  EXPECT_EQ(cc->find("misses")->as_number(), 0.0);
  std::remove(path.c_str());
}

TEST(CharacterizationCachePersistence,
     WarmStartAfterEditRecomputesOnlyDirtyVictims) {
  // save -> mutate one net -> load: the dirty set comes from the design
  // edit, the cache only spares re-characterization.
  Session s;
  ASSERT_TRUE(ok(req(s, load_line(17, 8, 1))));
  ASSERT_TRUE(ok(req(s, "{\"verb\":\"analyze\"}")));
  const std::string path = temp_path("dn_cc_warm_edit.bin");
  ASSERT_TRUE(ok(req(
      s, "{\"verb\":\"save_cache\",\"path\":\"" + path + "\"}")));

  Session warm;
  ASSERT_TRUE(ok(req(warm, load_line(17, 8, 1))));
  ASSERT_TRUE(ok(req(
      warm, "{\"verb\":\"load_cache\",\"path\":\"" + path + "\"}")));
  ASSERT_TRUE(ok(req(warm, "{\"verb\":\"analyze\"}")));
  ASSERT_TRUE(ok(req(
      warm, "{\"verb\":\"update_net\",\"net\":\"n5\",\"scale_c\":1.2}")));
  const json::Value incr = req(warm, "{\"verb\":\"analyze\"}");
  ASSERT_TRUE(ok(incr));
  // Ring with 1 successor: n5's closure is {n4, n5, n6}.
  EXPECT_EQ(result_of(incr).find("reanalyzed")->as_number(), 3.0);
  std::remove(path.c_str());
}

TEST(CharacterizationCachePersistence, CorruptFileIsRejected) {
  CharacterizationCache cache{AlignmentTableSpec{}};
  // A table spec never characterized: save of an empty cache still has a
  // valid header.
  std::ostringstream saved;
  ASSERT_TRUE(cache.save(saved).ok());

  // Flip a payload/header byte -> content-hash (or header) rejection.
  std::string bytes = saved.str();
  ASSERT_FALSE(bytes.empty());
  bytes[bytes.size() / 2] ^= 0x20;
  std::istringstream corrupt(bytes);
  CharacterizationCache fresh{AlignmentTableSpec{}};
  const StatusOr<std::size_t> r = fresh.load(corrupt);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);

  // Garbage header.
  std::istringstream garbage("not a cache file\n");
  EXPECT_EQ(fresh.load(garbage).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(CharacterizationCachePersistence, TruncatedFileIsRejected) {
  Session s;
  ASSERT_TRUE(ok(req(s, load_line(19, 4, 1))));
  ASSERT_TRUE(ok(req(s, "{\"verb\":\"analyze\"}")));
  const std::string path = temp_path("dn_cc_trunc.bin");
  ASSERT_TRUE(ok(req(
      s, "{\"verb\":\"save_cache\",\"path\":\"" + path + "\"}")));

  std::ifstream in(path, std::ios::binary);
  std::ostringstream all;
  all << in.rdbuf();
  std::string bytes = all.str();
  ASSERT_GT(bytes.size(), 64u);
  bytes.resize(bytes.size() - 32);  // Chop the tail.
  std::istringstream truncated(bytes);
  CharacterizationCache fresh{AlignmentTableSpec{}};
  const StatusOr<std::size_t> r = fresh.load(truncated);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

// --- Transport -----------------------------------------------------------

/// `n` bytes of 'x', then `tail`, produced one block at a time so the
/// test never holds the long line itself.
class LongLineBuf : public std::streambuf {
 public:
  LongLineBuf(std::size_t n, std::string tail)
      : left_(n), tail_(std::move(tail)), block_(1u << 16, 'x') {}

 protected:
  int_type underflow() override {
    std::size_t k = 0;
    if (left_ > 0) {
      k = std::min(left_, block_.size());
      left_ -= k;
    } else if (!tail_.empty()) {
      block_ = std::move(tail_);
      tail_.clear();
      k = block_.size();
    }
    if (k == 0) return traits_type::eof();
    setg(block_.data(), block_.data(), block_.data() + k);
    return traits_type::to_int_type(*gptr());
  }

 private:
  std::size_t left_;
  std::string tail_;
  std::string block_;
};

constexpr std::size_t kLongLine = 64u << 20;
constexpr std::size_t kLineLimit = 1024;
const char* const kPingLine = "{\"id\":2,\"verb\":\"ping\"}";

TEST(LineReader, ReadKeepsAnOversizedLineWithinTheLimit) {
  LongLineBuf buf(kLongLine, std::string("\n") + kPingLine + "\n");
  std::istream in(&buf);
  LineReader line(kLineLimit);
  ASSERT_TRUE(line.read(in));
  EXPECT_TRUE(line.oversized());
  EXPECT_EQ(line.bytes(), kLongLine);
  EXPECT_LE(line.text().size(), kLineLimit);
  // The rest of the long line was dropped, not left for the next read.
  ASSERT_TRUE(line.read(in));
  EXPECT_FALSE(line.oversized());
  EXPECT_EQ(line.text(), kPingLine);
  EXPECT_FALSE(line.read(in));
}

TEST(LineReader, FeedKeepsAnOversizedLineWithinTheLimit) {
  LineReader line(kLineLimit);
  const std::string block(4096, 'x');
  for (std::size_t fed = 0; fed < kLongLine; fed += block.size()) {
    ASSERT_EQ(line.feed(block.data(), block.size()), block.size());
    ASSERT_FALSE(line.complete());
    ASSERT_LE(line.text().size(), kLineLimit);
  }
  const std::string tail = std::string("\n") + kPingLine + "\n";
  std::size_t off = line.feed(tail.data(), tail.size());
  EXPECT_EQ(off, 1u);
  EXPECT_TRUE(line.complete());
  EXPECT_TRUE(line.oversized());
  EXPECT_EQ(line.bytes(), kLongLine);
  off += line.feed(tail.data() + off, tail.size() - off);
  EXPECT_EQ(off, tail.size());
  EXPECT_TRUE(line.complete());
  EXPECT_FALSE(line.oversized());
  EXPECT_EQ(line.text(), kPingLine);
}

TEST(ServerStream, OversizedLineGetsOneInOrderErrorAndTheNextIsServed) {
  LongLineBuf buf(kLongLine, std::string("\n") + kPingLine + "\n");
  std::istream in(&buf);
  std::ostringstream out;
  ServerOptions opts;
  opts.limits.max_request_bytes = kLineLimit;
  opts.handle_signals = false;
  Server srv(opts);
  EXPECT_EQ(srv.serve_stream(in, out), 0);
  std::istringstream lines(out.str());
  std::string text;
  std::vector<json::Value> resps;
  while (std::getline(lines, text)) resps.push_back(json::parse(text).value());
  ASSERT_EQ(resps.size(), 2u);
  EXPECT_EQ(error_code(resps[0]), "INVALID_ARGUMENT");
  EXPECT_NE(resps[0].find("error")->find("message")->as_string().find(
                std::to_string(kLongLine) + " bytes"),
            std::string::npos);
  EXPECT_TRUE(ok(resps[1]));
  EXPECT_EQ(resps[1].find("id")->as_number(), 2.0);
}

TEST(ServerStream, ServesPipelinedRequestsInOrderUntilEof) {
  std::istringstream in(
      "{\"id\":1,\"verb\":\"ping\"}\n"
      "\n"
      "{\"id\":2,\"verb\":\"stats\"}\n"
      "{\"id\":3,\"verb\":\"shutdown\"}\n"
      "{\"id\":4,\"verb\":\"ping\"}\n");
  std::ostringstream out;
  Server srv;
  EXPECT_EQ(srv.serve_stream(in, out), 0);
  std::istringstream lines(out.str());
  std::string line;
  std::vector<json::Value> resps;
  while (std::getline(lines, line)) {
    StatusOr<json::Value> v = json::parse(line);
    ASSERT_TRUE(v.ok()) << line;
    resps.push_back(std::move(*v));
  }
  ASSERT_EQ(resps.size(), 4u);  // Empty line skipped; one response each.
  for (int i = 0; i < 4; ++i)
    EXPECT_EQ(resps[static_cast<std::size_t>(i)].find("id")->as_number(),
              i + 1.0);
  EXPECT_TRUE(ok(resps[0]));
  EXPECT_TRUE(ok(resps[2]));                      // shutdown itself.
  EXPECT_EQ(error_code(resps[3]), "UNAVAILABLE");  // post-shutdown drain.
}

}  // namespace
}  // namespace dn::server
