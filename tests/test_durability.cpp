// Crash-safety tests (DESIGN.md §15): the durable-file primitives, the
// write-ahead journal, atomic snapshots, and the session-level recovery
// contract — after a kill at ANY point, a recovered session's analyze
// report is byte-identical to one from a session that never crashed.
// Also covers the lifecycle/protocol hardening that rides on the same
// machinery: the cooperative watchdog, per-request limits, recovery-
// aware admission, the deadline-capped retry backoff, and cache-file
// version/fingerprint skew rejection.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "clarinet/analyzer.hpp"
#include "clarinet/characterization_cache.hpp"
#include "server/journal.hpp"
#include "server/session.hpp"
#include "server/snapshot.hpp"
#include "util/durable_io.hpp"
#include "util/json.hpp"
#include "util/units.hpp"

namespace dn {
namespace {

using namespace dn::units;
using server::Admission;
using server::DurabilityOptions;
using server::Journal;
using server::ProtocolLimits;
using server::Session;
using server::SnapshotData;

// --- Request helpers (same idiom as test_server) -------------------------

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

/// The report sub-object of an analyze response, re-serialized. Byte
/// equality of these strings is the identity recovery promises.
std::string report_bytes(const json::Value& resp) {
  const json::Value* rep = result_of(resp).find("report");
  EXPECT_NE(rep, nullptr);
  return rep ? rep->dump() : "";
}

/// Fresh (empty) state directory under the test temp root.
std::string state_dir(const char* stem) {
  const std::string dir = testing::TempDir() + stem;
  std::filesystem::remove_all(dir);
  return dir;
}

DurabilityOptions durable(const std::string& dir, bool recover,
                          std::uint64_t snapshot_every = 0) {
  DurabilityOptions d;
  d.state_dir = dir;
  d.recover = recover;
  d.snapshot_every = snapshot_every;
  return d;
}

/// Runs the canonical ECO script in a never-crashed session and returns
/// the final analyze's report bytes — the recovery oracle.
std::string control_report(const std::vector<std::string>& script) {
  Session control;
  std::string last;
  for (const auto& line : script) {
    const json::Value resp = req(control, line);
    EXPECT_TRUE(ok(resp)) << line << " -> " << resp.dump();
    if (line.find("analyze") != std::string::npos) last = report_bytes(resp);
  }
  return last;
}

void append_raw(const std::string& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::app);
  f << bytes;
}

// --- durable_io primitives -----------------------------------------------

TEST(DurableIo, AtomicWriteReplacesWholeFileAndLeavesNoTmp) {
  const std::string path = testing::TempDir() + "dn_atomic.txt";
  ASSERT_TRUE(durable::atomic_write_file(path, "first version").ok());
  ASSERT_TRUE(durable::atomic_write_file(path, "second version").ok());
  const StatusOr<std::string> back = durable::read_file(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, "second version");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::remove(path.c_str());
}

TEST(DurableIo, ReadFileMissingIsNotFound) {
  const StatusOr<std::string> r =
      durable::read_file(testing::TempDir() + "dn_no_such_file");
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(DurableIo, AppendLogRoundTrip) {
  const std::string path = testing::TempDir() + "dn_append.log";
  std::remove(path.c_str());
  {
    durable::AppendLog log;
    ASSERT_TRUE(log.open(path, durable::FsyncPolicy::kNone).ok());
    ASSERT_TRUE(log.append("alpha").ok());
    ASSERT_TRUE(log.append("").ok());  // Empty payload is a valid record.
    ASSERT_TRUE(log.append(std::string(1000, 'z')).ok());
  }
  const StatusOr<durable::LogRecords> r = durable::read_log(path);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->torn_tail);
  ASSERT_EQ(r->records.size(), 3u);
  EXPECT_EQ(r->records[0], "alpha");
  EXPECT_EQ(r->records[1], "");
  EXPECT_EQ(r->records[2], std::string(1000, 'z'));
  std::remove(path.c_str());
}

TEST(DurableIo, TornTailIsDetectedAndAmputated) {
  const std::string path = testing::TempDir() + "dn_torn.log";
  std::remove(path.c_str());
  {
    durable::AppendLog log;
    ASSERT_TRUE(log.open(path, durable::FsyncPolicy::kNone).ok());
    ASSERT_TRUE(log.append("kept-1").ok());
    ASSERT_TRUE(log.append("kept-2").ok());
  }
  // A crash mid-append leaves trailing bytes that are not a valid frame.
  append_raw(path, "\x47\x4c\x4e\x44 partial frame garbage");
  const StatusOr<durable::LogRecords> torn = durable::read_log(path);
  ASSERT_TRUE(torn.ok());
  EXPECT_TRUE(torn->torn_tail);
  ASSERT_EQ(torn->records.size(), 2u);
  EXPECT_EQ(torn->records[1], "kept-2");

  // Amputate and verify the log is clean again — and appendable.
  ASSERT_TRUE(durable::truncate_file(path, torn->valid_bytes).ok());
  {
    durable::AppendLog log;
    ASSERT_TRUE(log.open(path, durable::FsyncPolicy::kNone).ok());
    ASSERT_TRUE(log.append("kept-3").ok());
  }
  const StatusOr<durable::LogRecords> clean = durable::read_log(path);
  ASSERT_TRUE(clean.ok());
  EXPECT_FALSE(clean->torn_tail);
  ASSERT_EQ(clean->records.size(), 3u);
  EXPECT_EQ(clean->records[2], "kept-3");
  std::remove(path.c_str());
}

TEST(DurableIo, TruncationMidRecordKeepsEarlierRecords) {
  const std::string path = testing::TempDir() + "dn_midrec.log";
  std::remove(path.c_str());
  {
    durable::AppendLog log;
    ASSERT_TRUE(log.open(path, durable::FsyncPolicy::kNone).ok());
    ASSERT_TRUE(log.append("first record").ok());
    ASSERT_TRUE(log.append("second record").ok());
  }
  // Chop 3 bytes out of the final record's payload: checksum mismatch.
  const auto size = std::filesystem::file_size(path);
  ASSERT_TRUE(durable::truncate_file(path, size - 3).ok());
  const StatusOr<durable::LogRecords> r = durable::read_log(path);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->torn_tail);
  ASSERT_EQ(r->records.size(), 1u);
  EXPECT_EQ(r->records[0], "first record");
  std::remove(path.c_str());
}

// --- Journal -------------------------------------------------------------

TEST(JournalTest, ReplayPreservesOrderSeqAndKind) {
  const std::string path = testing::TempDir() + "dn_journal.wal";
  std::remove(path.c_str());
  {
    Journal j;
    ASSERT_TRUE(j.open(path, durable::FsyncPolicy::kNone).ok());
    StatusOr<json::Value> r1 = json::parse("{\"verb\":\"ping\"}");
    StatusOr<json::Value> inc = json::parse("{\"verb\":\"analyze\"}");
    StatusOr<json::Value> r2 =
        json::parse("{\"verb\":\"update_net\",\"net\":\"n1\"}");
    ASSERT_TRUE(r1.ok() && inc.ok() && r2.ok());
    ASSERT_TRUE(j.append_request(1, *r1).ok());
    ASSERT_TRUE(j.append_incident(2, *inc).ok());
    ASSERT_TRUE(j.append_request(3, *r2).ok());
    j.close();
  }
  const StatusOr<Journal::Replay> replay = Journal::read(path);
  ASSERT_TRUE(replay.ok());
  EXPECT_FALSE(replay->torn_tail);
  ASSERT_EQ(replay->entries.size(), 3u);
  EXPECT_EQ(replay->entries[0].seq, 1u);
  EXPECT_TRUE(replay->entries[0].is_request());
  EXPECT_EQ(replay->entries[1].seq, 2u);
  EXPECT_FALSE(replay->entries[1].is_request());
  EXPECT_EQ(replay->entries[2].seq, 3u);
  ASSERT_TRUE(replay->entries[2].is_request());
  const json::Value* net = replay->entries[2].request.find("net");
  ASSERT_NE(net, nullptr);
  EXPECT_EQ(net->as_string(), "n1");
  std::remove(path.c_str());
}

TEST(JournalTest, ReadMissingFileIsNotFound) {
  EXPECT_EQ(Journal::read(testing::TempDir() + "dn_no_wal").status().code(),
            StatusCode::kNotFound);
}

// --- Snapshot ------------------------------------------------------------

TEST(SnapshotTest, RoundTripPreservesAllFieldsIncludingFullWidthHashes) {
  const std::string path = testing::TempDir() + "dn_snap.json";
  SnapshotData snap;
  snap.seq = 12345;
  snap.config = AnalysisConfig{}.to_json();
  snap.has_design = true;
  snap.design = server::Design::random(3, 4, 1).to_json();
  snap.char_cache_file = "char_cache.dat";
  // Full-width u64 with the top bit set: a double round-trip would lose
  // the low bits, which is exactly why hashes travel as hex strings.
  snap.char_cache_hash = 0xFEDCBA9876543210ULL;
  ASSERT_TRUE(server::write_snapshot(path, snap).ok());

  const StatusOr<SnapshotData> back = server::read_snapshot(path);
  ASSERT_TRUE(back.ok()) << back.status().to_string();
  EXPECT_EQ(back->seq, 12345u);
  EXPECT_TRUE(back->has_design);
  EXPECT_EQ(back->design.dump(), snap.design.dump());
  EXPECT_EQ(back->char_cache_file, "char_cache.dat");
  EXPECT_EQ(back->char_cache_hash, 0xFEDCBA9876543210ULL);
  std::remove(path.c_str());
}

TEST(SnapshotTest, MissingIsNotFoundAndGarbageIsInvalidArgument) {
  EXPECT_EQ(
      server::read_snapshot(testing::TempDir() + "dn_no_snap").status().code(),
      StatusCode::kNotFound);
  const std::string path = testing::TempDir() + "dn_bad_snap.json";
  ASSERT_TRUE(durable::atomic_write_file(path, "not a snapshot").ok());
  EXPECT_EQ(server::read_snapshot(path).status().code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(durable::atomic_write_file(path, "{\"seq\":1}").ok());
  EXPECT_EQ(server::read_snapshot(path).status().code(),
            StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

// A state directory written while the retry budget and the capped ladder
// still existed carries their keys in its snapshot config: recovery
// refuses it with the key named instead of guessing a meaning.
TEST(SnapshotTest, RemovedConfigKeysFailRecoveryNamingTheKey) {
  for (const char* key :
       {"fidelity_max_tier", "max_retries", "retry_backoff_ms"}) {
    const std::string dir = state_dir("dn_snap_removed_key");
    std::filesystem::create_directories(dir);
    SnapshotData snap;
    snap.seq = 1;
    snap.config = AnalysisConfig{}.to_json();
    snap.config.as_object()[key] = 1;
    ASSERT_TRUE(server::write_snapshot(dir + "/snapshot.json", snap).ok());
    Session r(AnalysisConfig{}, durable(dir, true));
    const Status s = r.start_durability();
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << key;
    EXPECT_NE(s.message().find(key), std::string::npos) << s.message();
    std::filesystem::remove_all(dir);
  }
}

// --- Session recovery: crash at every interesting point ------------------

const std::vector<std::string>& eco_script() {
  static const std::vector<std::string> script = {
      load_line(29, 6, 1),
      "{\"verb\":\"analyze\"}",
      "{\"verb\":\"update_net\",\"net\":\"n2\",\"scale_c\":1.25}",
      "{\"verb\":\"analyze\"}",
  };
  return script;
}

TEST(Recovery, JournalOnlyReplayIsByteIdentical) {
  const std::string dir = state_dir("dn_rec_journal");
  const std::string expected = control_report(eco_script());

  {
    Session s(AnalysisConfig{}, durable(dir, false));
    ASSERT_TRUE(s.start_durability().ok());
    for (const auto& line : eco_script()) ASSERT_TRUE(ok(req(s, line)));
    EXPECT_EQ(s.journal_seq(), 2u);  // load_design + update_net.
    // Destroyed WITHOUT graceful_stop: the kill -9 equivalent.
  }

  Session r(AnalysisConfig{}, durable(dir, true));
  ASSERT_TRUE(r.start_durability().ok());
  EXPECT_TRUE(r.recovered());
  const json::Value resp = req(r, "{\"verb\":\"analyze\"}");
  ASSERT_TRUE(ok(resp));
  EXPECT_EQ(report_bytes(resp), expected);
  std::filesystem::remove_all(dir);
}

TEST(Recovery, SnapshotPlusJournalTailIsByteIdentical) {
  const std::string dir = state_dir("dn_rec_snaptail");
  const std::vector<std::string> script = {
      load_line(31, 6, 1),
      "{\"verb\":\"update_net\",\"net\":\"n1\",\"scale_c\":1.1}",
      "{\"verb\":\"update_net\",\"net\":\"n4\",\"scale_c\":0.8}",
      "{\"verb\":\"analyze\"}",
  };
  const std::string expected = control_report(script);

  {
    // snapshot_every=2: the second mutation triggers an auto snapshot,
    // the third lives only in the journal tail at kill time.
    Session s(AnalysisConfig{}, durable(dir, false, 2));
    ASSERT_TRUE(s.start_durability().ok());
    for (const auto& line : script) ASSERT_TRUE(ok(req(s, line)));
  }
  ASSERT_TRUE(std::filesystem::exists(dir + "/snapshot.json"));

  Session r(AnalysisConfig{}, durable(dir, true));
  ASSERT_TRUE(r.start_durability().ok());
  const json::Value stats = req(r, "{\"verb\":\"stats\"}");
  const json::Value* dur = result_of(stats).find("durability");
  ASSERT_NE(dur, nullptr);
  EXPECT_EQ(dur->find("replayed")->as_number(), 1.0);  // Only the tail.
  const json::Value resp = req(r, "{\"verb\":\"analyze\"}");
  ASSERT_TRUE(ok(resp));
  EXPECT_EQ(report_bytes(resp), expected);
  std::filesystem::remove_all(dir);
}

TEST(Recovery, TornFinalRecordDiscardsOnlyThatRecord) {
  const std::string dir = state_dir("dn_rec_torn");
  const std::vector<std::string> script = {
      load_line(37, 5, 1),
      "{\"verb\":\"update_net\",\"net\":\"n2\",\"scale_c\":1.3}",
      "{\"verb\":\"analyze\"}",
  };
  const std::string expected = control_report(script);

  {
    Session s(AnalysisConfig{}, durable(dir, false));
    ASSERT_TRUE(s.start_durability().ok());
    for (const auto& line : script) ASSERT_TRUE(ok(req(s, line)));
  }
  // Crash mid-append: half a frame after the last complete record.
  append_raw(dir + "/journal.wal", "GLND\x02torn-frame-bytes");

  Session r(AnalysisConfig{}, durable(dir, true));
  ASSERT_TRUE(r.start_durability().ok());
  const json::Value stats = req(r, "{\"verb\":\"stats\"}");
  const json::Value* dur = result_of(stats).find("durability");
  ASSERT_NE(dur, nullptr);
  EXPECT_TRUE(dur->find("torn_tail_discarded")->as_bool());
  EXPECT_EQ(dur->find("replayed")->as_number(), 2.0);
  const json::Value resp = req(r, "{\"verb\":\"analyze\"}");
  ASSERT_TRUE(ok(resp));
  EXPECT_EQ(report_bytes(resp), expected);

  // The amputated journal must accept new records: mutate and snapshot.
  ASSERT_TRUE(ok(
      req(r, "{\"verb\":\"update_net\",\"net\":\"n0\",\"scale_c\":1.05}")));
  ASSERT_TRUE(ok(req(r, "{\"verb\":\"snapshot\"}")));
  std::filesystem::remove_all(dir);
}

TEST(Recovery, JournaledButUnappliedMutationReplays) {
  // The crash window the write-ahead ordering exists for: the record hit
  // the journal, the process died before applying it. Simulated by
  // appending the record manually after the session is gone.
  const std::string dir = state_dir("dn_rec_preapply");
  const std::vector<std::string> script = {
      load_line(41, 5, 1),
      "{\"verb\":\"update_net\",\"net\":\"n3\",\"scale_c\":1.4}",
      "{\"verb\":\"analyze\"}",
  };
  const std::string expected = control_report(script);

  {
    Session s(AnalysisConfig{}, durable(dir, false));
    ASSERT_TRUE(s.start_durability().ok());
    ASSERT_TRUE(ok(req(s, script[0])));  // seq 1.
  }
  {
    Journal j;
    ASSERT_TRUE(
        j.open(dir + "/journal.wal", durable::FsyncPolicy::kNone).ok());
    StatusOr<json::Value> update = json::parse(script[1]);
    ASSERT_TRUE(update.ok());
    ASSERT_TRUE(j.append_request(2, *update).ok());
    j.close();
  }

  Session r(AnalysisConfig{}, durable(dir, true));
  ASSERT_TRUE(r.start_durability().ok());
  EXPECT_EQ(r.journal_seq(), 2u);
  const json::Value resp = req(r, "{\"verb\":\"analyze\"}");
  ASSERT_TRUE(ok(resp));
  EXPECT_EQ(report_bytes(resp), expected);
  std::filesystem::remove_all(dir);
}

TEST(Recovery, GarbageSnapshotTmpIsHarmless) {
  // A crash mid-snapshot leaves snapshot.json.tmp; the rename never
  // happened, so recovery reads the previous complete snapshot.
  const std::string dir = state_dir("dn_rec_midsnap");
  const std::vector<std::string> script = {
      load_line(43, 5, 1),
      "{\"verb\":\"update_net\",\"net\":\"n1\",\"scale_c\":0.9}",
      "{\"verb\":\"analyze\"}",
  };
  const std::string expected = control_report(script);

  {
    Session s(AnalysisConfig{}, durable(dir, false));
    ASSERT_TRUE(s.start_durability().ok());
    ASSERT_TRUE(ok(req(s, script[0])));
    ASSERT_TRUE(ok(req(s, "{\"verb\":\"snapshot\"}")));  // Covers seq 1.
    ASSERT_TRUE(ok(req(s, script[1])));                  // Journal tail.
  }
  append_raw(dir + "/snapshot.json.tmp", "half-written snapshot bytes");

  Session r(AnalysisConfig{}, durable(dir, true));
  ASSERT_TRUE(r.start_durability().ok());
  const json::Value resp = req(r, "{\"verb\":\"analyze\"}");
  ASSERT_TRUE(ok(resp));
  EXPECT_EQ(report_bytes(resp), expected);
  std::filesystem::remove_all(dir);
}

TEST(Recovery, CorruptSnapshotFailsStartInsteadOfServingSilently) {
  const std::string dir = state_dir("dn_rec_badsnap");
  {
    Session s(AnalysisConfig{}, durable(dir, false));
    ASSERT_TRUE(s.start_durability().ok());
    ASSERT_TRUE(ok(req(s, load_line(47, 4, 1))));
    ASSERT_TRUE(ok(req(s, "{\"verb\":\"snapshot\"}")));
  }
  ASSERT_TRUE(
      durable::atomic_write_file(dir + "/snapshot.json", "corrupted").ok());

  Session r(AnalysisConfig{}, durable(dir, true));
  const Status s = r.start_durability();
  EXPECT_FALSE(s.ok());
  std::filesystem::remove_all(dir);
}

// A state dir written before the pre-reduction switch was removed: its
// snapshot config still carries that key. Recovery refuses it cleanly,
// naming the key, rather than half-applying.
TEST(Recovery, SnapshotWithRemovedConfigKeyFailsNamingTheKey) {
  const std::string dir = state_dir("dn_rec_removed_key");
  std::filesystem::create_directories(dir);
  json::Object config = AnalysisConfig{}.to_json().as_object();
  config["prereduce"] = false;
  SnapshotData snap;
  snap.seq = 1;
  snap.config = json::Value(std::move(config));
  snap.has_design = true;
  snap.design = server::Design::random(3, 4, 1).to_json();
  ASSERT_TRUE(server::write_snapshot(dir + "/snapshot.json", snap).ok());

  Session r(AnalysisConfig{}, durable(dir, true));
  const Status s = r.start_durability();
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("prereduce"), std::string::npos) << s.message();
  std::filesystem::remove_all(dir);
}

TEST(Recovery, GracefulStopWritesValidSnapshotAndEmptyJournal) {
  const std::string dir = state_dir("dn_rec_graceful");
  const std::string expected = control_report(eco_script());

  {
    Session s(AnalysisConfig{}, durable(dir, false));
    ASSERT_TRUE(s.start_durability().ok());
    for (const auto& line : eco_script()) ASSERT_TRUE(ok(req(s, line)));
    ASSERT_TRUE(s.graceful_stop().ok());
  }
  const StatusOr<SnapshotData> snap =
      server::read_snapshot(dir + "/snapshot.json");
  ASSERT_TRUE(snap.ok()) << snap.status().to_string();
  EXPECT_EQ(snap->seq, 2u);
  EXPECT_TRUE(snap->has_design);
  const StatusOr<Journal::Replay> wal = Journal::read(dir + "/journal.wal");
  ASSERT_TRUE(wal.ok());
  EXPECT_TRUE(wal->entries.empty());
  EXPECT_FALSE(wal->torn_tail);

  Session r(AnalysisConfig{}, durable(dir, true));
  ASSERT_TRUE(r.start_durability().ok());
  const json::Value stats = req(r, "{\"verb\":\"stats\"}");
  const json::Value* dur = result_of(stats).find("durability");
  ASSERT_NE(dur, nullptr);
  EXPECT_TRUE(dur->find("recovered")->as_bool());
  EXPECT_EQ(dur->find("replayed")->as_number(), 0.0);
  const json::Value resp = req(r, "{\"verb\":\"analyze\"}");
  ASSERT_TRUE(ok(resp));
  EXPECT_EQ(report_bytes(resp), expected);
  std::filesystem::remove_all(dir);
}

TEST(Recovery, WarmupPromotesDegradedAdmissionUntilFirstAnalyze) {
  const std::string dir = state_dir("dn_rec_warmup");
  const std::vector<std::string> script = {
      load_line(53, 5, 1),
      "{\"verb\":\"update_net\",\"net\":\"n2\",\"scale_c\":1.2}",
      "{\"verb\":\"analyze\"}",
  };
  const std::string expected = control_report(script);

  {
    Session s(AnalysisConfig{}, durable(dir, false));
    ASSERT_TRUE(s.start_durability().ok());
    ASSERT_TRUE(ok(req(s, script[0])));
    ASSERT_TRUE(ok(req(s, script[1])));
  }

  Session r(AnalysisConfig{}, durable(dir, true));
  ASSERT_TRUE(r.start_durability().ok());
  // Post-recovery, a soft-pressure kDegrade is promoted to full
  // fidelity: the report must match the full-fidelity control exactly.
  const json::Value resp =
      req(r, "{\"verb\":\"analyze\"}", Admission::kDegrade);
  ASSERT_TRUE(ok(resp));
  EXPECT_EQ(report_bytes(resp), expected);
  const json::Value stats = req(r, "{\"verb\":\"stats\"}");
  const json::Value* dur = result_of(stats).find("durability");
  ASSERT_NE(dur, nullptr);
  EXPECT_EQ(dur->find("warmup_promotions")->as_number(), 1.0);
  EXPECT_FALSE(dur->find("warmup")->as_bool());  // Cleared by success.
  std::filesystem::remove_all(dir);
}

// --- Watchdog ------------------------------------------------------------

TEST(Watchdog, TripAnswersDeadlineExceededAndJournalsIncident) {
  const std::string dir = state_dir("dn_watchdog");
  DurabilityOptions d = durable(dir, false);
  d.watchdog_ms = 1e-3;  // Always exceeded: any analyze takes > 1 us.
  Session s(AnalysisConfig{}, d);
  ASSERT_TRUE(s.start_durability().ok());
  ASSERT_TRUE(ok(req(s, load_line(59, 4, 1))));

  const json::Value resp = req(s, "{\"id\":7,\"verb\":\"analyze\"}");
  EXPECT_FALSE(ok(resp));
  EXPECT_EQ(error_code(resp), "DEADLINE_EXCEEDED");
  EXPECT_EQ(s.watchdog_trips(), 1u);
  // The session survives the trip and still answers.
  EXPECT_TRUE(ok(req(s, "{\"verb\":\"ping\"}")));

  // The incident reached the journal (after the load_design record).
  const StatusOr<Journal::Replay> wal = Journal::read(dir + "/journal.wal");
  ASSERT_TRUE(wal.ok());
  ASSERT_GE(wal->entries.size(), 2u);
  const Journal::Entry& last = wal->entries.back();
  EXPECT_FALSE(last.is_request());
  const json::Value* verb = last.incident.find("verb");
  ASSERT_NE(verb, nullptr);
  EXPECT_EQ(verb->as_string(), "analyze");
  std::filesystem::remove_all(dir);
}

// --- Protocol limits -----------------------------------------------------

TEST(Limits, OversizedLineIsRejectedBeforeParsing) {
  ProtocolLimits limits;
  limits.max_request_bytes = 64;
  Session s(AnalysisConfig{}, {}, limits);
  std::string line = "{\"verb\":\"ping\",\"pad\":\"";
  line += std::string(200, 'x');
  line += "\"}";
  const json::Value resp = req(s, line);
  EXPECT_FALSE(ok(resp));
  EXPECT_EQ(error_code(resp), "INVALID_ARGUMENT");
  // The session survives and a normal-size request still works.
  EXPECT_TRUE(ok(req(s, "{\"verb\":\"ping\"}")));
}

TEST(Limits, NodeCountLimitRejectsSprawlingRequestsWithIdEchoed) {
  ProtocolLimits limits;
  limits.max_request_nodes = 8;
  Session s(AnalysisConfig{}, {}, limits);
  std::ostringstream os;
  os << "{\"id\":3,\"verb\":\"ping\"";
  for (int i = 0; i < 32; ++i) os << ",\"k" << i << "\":" << i;
  os << "}";
  const json::Value resp = req(s, os.str());
  EXPECT_FALSE(ok(resp));
  EXPECT_EQ(error_code(resp), "INVALID_ARGUMENT");
  ASSERT_NE(resp.find("id"), nullptr);
  EXPECT_EQ(resp.find("id")->as_number(), 3.0);
  EXPECT_TRUE(ok(req(s, "{\"verb\":\"ping\"}")));
}

TEST(Limits, DesignNetCapRejectsOversizedLoad) {
  ProtocolLimits limits;
  limits.max_design_nets = 4;
  Session s(AnalysisConfig{}, {}, limits);
  const json::Value resp = req(s, load_line(1, 8, 2));
  EXPECT_FALSE(ok(resp));
  EXPECT_EQ(error_code(resp), "INVALID_ARGUMENT");
  // Within the cap still loads.
  EXPECT_TRUE(ok(req(s, load_line(1, 4, 1))));
}

// A coarse alignment-search grid keeps the cache tests below fast.
AnalyzerConfig fast_config() {
  AnalyzerConfig c;
  c.table_spec.search.coarse_points = 17;
  c.table_spec.search.fine_points = 9;
  c.table_spec.search.dt = 2 * ps;
  c.analysis.search.coarse_points = 17;
  c.analysis.search.fine_points = 9;
  c.analysis.search.dt = 2 * ps;
  return c;
}

// --- Cache-file version / fingerprint skew (never crash) -----------------

/// Replaces the version token (the second whitespace-separated field of
/// the header line) with `bad`.
std::string with_version(const std::string& bytes, const std::string& bad) {
  const std::size_t sp1 = bytes.find(' ');
  const std::size_t sp2 = bytes.find(' ', sp1 + 1);
  EXPECT_NE(sp1, std::string::npos);
  EXPECT_NE(sp2, std::string::npos);
  return bytes.substr(0, sp1 + 1) + bad + bytes.substr(sp2);
}

TEST(CharacterizationCachePersistence, VersionSkewIsRejected) {
  CharacterizationCache cache{AlignmentTableSpec{}};
  std::ostringstream saved;
  ASSERT_TRUE(cache.save(saved).ok());
  CharacterizationCache fresh{AlignmentTableSpec{}};
  std::istringstream skewed(with_version(saved.str(), "42"));
  EXPECT_EQ(fresh.load(skewed).status().code(),
            StatusCode::kInvalidArgument);
}

// Version-2 files carried the search spans in every table record; the
// spans are derived now, so such a file is refused as a whole.
TEST(CharacterizationCachePersistence, Version2IsUnsupported) {
  CharacterizationCache cache{fast_config().table_spec};
  GateParams rcv;
  ASSERT_TRUE(cache.try_table_for(rcv, true).ok());
  std::ostringstream saved;
  ASSERT_TRUE(cache.save(saved).ok());
  ASSERT_EQ(saved.str().rfind("dnoise-char-cache 4 ", 0), 0u);
  CharacterizationCache fresh{fast_config().table_spec};
  std::istringstream v2(with_version(saved.str(), "2"));
  const StatusOr<std::size_t> r = fresh.load(v2);
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("unsupported version 2"),
            std::string::npos)
      << r.status().message();
  EXPECT_EQ(fresh.tables_cached(), 0u);
}

// Version-3 files held alignment tables only, in a record format that
// dropped part of the receiver; version 4 tags alignment and driver
// records.
TEST(CharacterizationCachePersistence, Version3IsUnsupported) {
  CharacterizationCache cache{fast_config().table_spec};
  GateParams rcv;
  ASSERT_TRUE(cache.try_table_for(rcv, true).ok());
  std::ostringstream saved;
  ASSERT_TRUE(cache.save(saved).ok());
  CharacterizationCache fresh{fast_config().table_spec};
  std::istringstream v3(with_version(saved.str(), "3"));
  const StatusOr<std::size_t> r = fresh.load(v3);
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("unsupported version 3"),
            std::string::npos)
      << r.status().message();
  EXPECT_EQ(fresh.tables_cached(), 0u);
}

// Receivers that differ in any GateParams field are different tables,
// and a saved table reloads with the receiver it was characterized for.
TEST(CharacterizationCachePersistence, ContentKeyCoversEveryReceiverField) {
  CharacterizationCache cache{fast_config().table_spec};
  GateParams base;
  GateParams wider = base;
  wider.wn_unit *= 1.25;
  GateParams longer = base;
  longer.nmos_proto.l *= 1.5;
  GateParams pmos_w = base;
  pmos_w.pmos_proto.w *= 2.0;
  const AlignmentTable* t_base = cache.try_table_for(base, true).value();
  const AlignmentTable* t_wider = cache.try_table_for(wider, true).value();
  const AlignmentTable* t_longer = cache.try_table_for(longer, true).value();
  const AlignmentTable* t_pmos = cache.try_table_for(pmos_w, true).value();
  EXPECT_NE(t_wider, t_base);
  EXPECT_NE(t_longer, t_base);
  EXPECT_NE(t_pmos, t_base);
  EXPECT_EQ(cache.tables_cached(), 4u);
  EXPECT_EQ(cache.misses(), 4u);

  std::ostringstream saved;
  ASSERT_TRUE(cache.save(saved).ok());
  CharacterizationCache fresh{fast_config().table_spec};
  std::istringstream is(saved.str());
  ASSERT_TRUE(fresh.load(is).ok());
  EXPECT_EQ(fresh.tables_cached(), 4u);
  for (const GateParams& g : {base, wider, longer, pmos_w}) {
    const GateParams& back = fresh.try_table_for(g, true).value()->receiver();
    EXPECT_EQ(back.type, g.type);
    EXPECT_EQ(back.size, g.size);
    EXPECT_EQ(back.vdd, g.vdd);
    EXPECT_EQ(back.wn_unit, g.wn_unit);
    EXPECT_EQ(back.wp_unit, g.wp_unit);
    for (const auto& [b, p] : {std::pair{&back.nmos_proto, &g.nmos_proto},
                               std::pair{&back.pmos_proto, &g.pmos_proto}}) {
      EXPECT_EQ(b->type, p->type);
      EXPECT_EQ(b->w, p->w);
      EXPECT_EQ(b->l, p->l);
      EXPECT_EQ(b->vt, p->vt);
      EXPECT_EQ(b->kp, p->kp);
      EXPECT_EQ(b->lambda, p->lambda);
      EXPECT_EQ(b->cg_per_m, p->cg_per_m);
      EXPECT_EQ(b->cj_per_m, p->cj_per_m);
    }
  }
  EXPECT_EQ(fresh.misses(), 0u);  // Every lookup was a loaded table.
}

TEST(CharacterizationCachePersistence, SpecSkewIsFailedPrecondition) {
  // Characterize one table under spec A, then load the file into a cache
  // built with spec B: the embedded spec mismatch must reject the table
  // (a table characterized under different corners must never satisfy a
  // lookup) with kFailedPrecondition.
  AnalyzerConfig cfg = fast_config();
  CharacterizationCache cache{cfg.table_spec};
  GateParams rcv;
  rcv.size = 2.0;
  ASSERT_TRUE(cache.try_table_for(rcv, true).ok());
  std::ostringstream saved;
  ASSERT_TRUE(cache.save(saved).ok());

  AlignmentTableSpec other = cfg.table_spec;
  other.slew_min *= 2.0;
  CharacterizationCache skewed{other};
  std::istringstream is(saved.str());
  const StatusOr<std::size_t> r = skewed.load(is);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

TEST(CharacterizationCachePersistence, SearchOptionSkewIsFailedPrecondition) {
  // Same corners, another receiver-sim accuracy: a table characterized at
  // lte_tol 0.05 must not satisfy a cache searching at the default
  // lte_tol, while a cache of the saving spec still installs it.
  AlignmentTableSpec coarse = fast_config().table_spec;
  coarse.search.lte_tol = 0.05;
  CharacterizationCache cache{coarse};
  GateParams rcv;
  rcv.size = 2.0;
  ASSERT_TRUE(cache.try_table_for(rcv, true).ok());
  std::ostringstream saved;
  ASSERT_TRUE(cache.save(saved).ok());

  CharacterizationCache default_search{fast_config().table_spec};
  std::istringstream skewed(saved.str());
  const StatusOr<std::size_t> r = default_search.load(skewed);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);

  CharacterizationCache same{coarse};
  std::istringstream round_trip(saved.str());
  const StatusOr<std::size_t> installed = same.load(round_trip);
  ASSERT_TRUE(installed.ok());
  EXPECT_EQ(*installed, 1u);
  EXPECT_EQ(same.tables_cached(), 1u);
}

}  // namespace
}  // namespace dn
