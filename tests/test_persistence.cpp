// Tests for characterization-table persistence.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "ceff/thevenin_table.hpp"
#include "core/alignment_table.hpp"
#include "util/units.hpp"

namespace dn {
namespace {

using namespace dn::units;

AlignmentTableSpec fast_spec() {
  AlignmentTableSpec s;
  s.search.coarse_points = 17;
  s.search.fine_points = 9;
  s.search.dt = 2 * ps;
  return s;
}

TEST(AlignmentTablePersistence, RoundTripIsExact) {
  GateParams rcv;
  rcv.size = 2.0;
  const AlignmentTable tbl =
      AlignmentTable::characterize(rcv, true, fast_spec());
  std::stringstream ss;
  tbl.save(ss);
  EXPECT_EQ(ss.str().rfind("dnoise-alignment-table 5\n", 0), 0u);
  const AlignmentTable back = AlignmentTable::load(ss);

  for (int si = 0; si < 2; ++si)
    for (int wi = 0; wi < 2; ++wi)
      for (int hi = 0; hi < 2; ++hi)
        EXPECT_DOUBLE_EQ(back.alignment_voltage(si, wi, hi),
                         tbl.alignment_voltage(si, wi, hi));
  EXPECT_EQ(back.victim_rising(), tbl.victim_rising());
  EXPECT_DOUBLE_EQ(back.spec().slew_min, tbl.spec().slew_min);
  EXPECT_TRUE(back.spec() == tbl.spec());  // Search options included.
  EXPECT_DOUBLE_EQ(back.receiver().size, 2.0);

  // Predictions from the loaded table are identical.
  const Pwl ramp = Pwl::ramp(2 * ns, 200 * ps, 0.0, 1.8);
  PulseParams p;
  p.height = -0.35;
  p.width = 120 * ps;
  p.t_peak = 2 * ns;
  EXPECT_DOUBLE_EQ(back.predict_peak_time(ramp, p),
                   tbl.predict_peak_time(ramp, p));
}

TEST(AlignmentTablePersistence, RejectsGarbage) {
  std::stringstream bad("not-a-table 7\n");
  EXPECT_THROW(AlignmentTable::load(bad), std::runtime_error);
  std::stringstream truncated("dnoise-alignment-table 5\n0 1 1.8");
  EXPECT_THROW(AlignmentTable::load(truncated), std::runtime_error);
}

/// The current record of a default-receiver table with its version
/// number replaced by `version`.
std::string record_as_version(int version) {
  GateParams rcv;
  const AlignmentTable tbl =
      AlignmentTable::characterize(rcv, true, fast_spec());
  std::stringstream ss;
  tbl.save(ss);
  std::string text = ss.str();
  const std::string v5 = "dnoise-alignment-table 5";
  EXPECT_EQ(text.rfind(v5, 0), 0u);
  return text.replace(0, v5.size(),
                      "dnoise-alignment-table " + std::to_string(version));
}

// Version 2 persisted the search spans, which are derived now: a
// version-2 record is refused whole, never read with shifted fields.
TEST(AlignmentTablePersistence, RejectsVersion2) {
  std::stringstream v2(record_as_version(2));
  EXPECT_THROW(AlignmentTable::load(v2), std::runtime_error);
}

// Version 3 persisted a scalar search window beside the search options;
// windows live in the (unpersisted) scan domain now.
TEST(AlignmentTablePersistence, RejectsVersion3) {
  std::stringstream v3(record_as_version(3));
  EXPECT_THROW(AlignmentTable::load(v3), std::runtime_error);
}

// Version 4 dropped the MOSFET prototypes' type, w and l from the
// receiver record.
TEST(AlignmentTablePersistence, RejectsVersion4) {
  std::stringstream v4(record_as_version(4));
  EXPECT_THROW(AlignmentTable::load(v4), std::runtime_error);
}

TEST(TheveninTablePersistence, RoundTripIsExact) {
  GateParams g;
  const TheveninTable tbl = TheveninTable::characterize(
      g, false, {100 * ps, 300 * ps}, {20 * fF, 80 * fF});
  std::stringstream ss;
  tbl.save(ss);
  const TheveninTable back = TheveninTable::load(ss);
  ASSERT_EQ(back.slews().size(), 2u);
  ASSERT_EQ(back.cloads().size(), 2u);
  EXPECT_FALSE(back.output_rising());
  EXPECT_EQ(back.vdd(), tbl.vdd());
  EXPECT_EQ(back.key(), tbl.key());  // Gate and fit options included.
  for (std::size_t si = 0; si < 2; ++si)
    for (std::size_t ci = 0; ci < 2; ++ci) {
      EXPECT_EQ(back.at(si, ci).t10, tbl.at(si, ci).t10);
      EXPECT_EQ(back.at(si, ci).t50, tbl.at(si, ci).t50);
      EXPECT_EQ(back.at(si, ci).t90, tbl.at(si, ci).t90);
    }
  const TheveninModel a = tbl.lookup(180 * ps, 50 * fF, 1 * ns);
  const TheveninModel b = back.lookup(180 * ps, 50 * fF, 1 * ns);
  EXPECT_EQ(a.rth, b.rth);
  EXPECT_EQ(a.t0, b.t0);
}

TEST(TheveninTablePersistence, RejectsGarbage) {
  std::stringstream bad("dnoise-thevenin-table 99\n");
  EXPECT_THROW(TheveninTable::load(bad), std::runtime_error);

  GateParams g;
  const TheveninTable tbl = TheveninTable::characterize(
      g, true, {100 * ps, 300 * ps}, {20 * fF, 80 * fF});
  std::stringstream ss;
  tbl.save(ss);
  const std::string text = ss.str();
  auto rejects = [](const std::string& edited) {
    std::stringstream is(edited);
    EXPECT_THROW(TheveninTable::load(is), std::runtime_error) << edited;
  };
  // Version 1 stored fitted (t0, tr, Rth) and version 2 no gate: both
  // unsupported, never misread.
  const std::string v3 = "dnoise-thevenin-table 3";
  ASSERT_EQ(text.rfind(v3, 0), 0u);
  rejects("dnoise-thevenin-table 1" + text.substr(v3.size()));
  rejects("dnoise-thevenin-table 2" + text.substr(v3.size()));
  std::istringstream lines(text);
  std::vector<std::string> line;
  for (std::string l; std::getline(lines, l);) line.push_back(l);
  // Magic, gate, direction+fit, sizes, 2 axes, 4 entries.
  ASSERT_EQ(line.size(), 10u);
  auto with_line = [&](std::size_t i, const std::string& l) {
    std::string out;
    for (std::size_t k = 0; k < line.size(); ++k)
      out += (k == i ? l : line[k]) + "\n";
    return out;
  };
  // An absurd table size, and a gate of no known type.
  rejects(with_line(3, "99999999 2"));
  rejects(with_line(1, "9" + line[1].substr(1)));
  // An unsorted axis, as characterize() rejects it.
  rejects(with_line(4, "3e-10 1e-10"));
  rejects(with_line(5, "2e-14 2e-14"));
  rejects(with_line(5, "-2e-14 8e-14"));
  // A non-finite entry.
  rejects(with_line(7, "nan 1e-10 2e-10"));
  rejects(with_line(8, "1e-11 inf 2e-10"));
  // The untouched text still loads.
  std::stringstream ok(with_line(0, line[0]));
  EXPECT_NO_THROW(TheveninTable::load(ok));
}

}  // namespace
}  // namespace dn
