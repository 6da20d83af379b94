// SPEF-subset reader/writer tests (rcnet/spef.*).
#include "rcnet/spef.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "rcnet/random_nets.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace dn {
namespace {

using namespace dn::units;

void expect_nets_equal(const CoupledNet& a, const CoupledNet& b) {
  EXPECT_EQ(a.victim.net.num_nodes, b.victim.net.num_nodes);
  EXPECT_EQ(a.victim.net.sink, b.victim.net.sink);
  ASSERT_EQ(a.victim.net.res.size(), b.victim.net.res.size());
  for (std::size_t i = 0; i < a.victim.net.res.size(); ++i) {
    EXPECT_EQ(a.victim.net.res[i].a, b.victim.net.res[i].a);
    EXPECT_EQ(a.victim.net.res[i].b, b.victim.net.res[i].b);
    EXPECT_NEAR(a.victim.net.res[i].r, b.victim.net.res[i].r, 1e-6);
  }
  EXPECT_NEAR(a.victim.net.total_cap(), b.victim.net.total_cap(), 1e-20);
  EXPECT_EQ(a.victim.driver.type, b.victim.driver.type);
  EXPECT_DOUBLE_EQ(a.victim.driver.size, b.victim.driver.size);
  EXPECT_NEAR(a.victim.input_slew, b.victim.input_slew, 1e-15);
  EXPECT_EQ(a.victim.output_rising, b.victim.output_rising);
  EXPECT_EQ(a.victim.receiver.type, b.victim.receiver.type);
  EXPECT_NEAR(a.victim.receiver_load, b.victim.receiver_load, 1e-20);

  ASSERT_EQ(a.aggressors.size(), b.aggressors.size());
  for (std::size_t k = 0; k < a.aggressors.size(); ++k) {
    EXPECT_EQ(a.aggressors[k].net.num_nodes, b.aggressors[k].net.num_nodes);
    EXPECT_EQ(a.aggressors[k].output_rising, b.aggressors[k].output_rising);
    EXPECT_NEAR(a.aggressors[k].input_slew, b.aggressors[k].input_slew, 1e-15);
    EXPECT_NEAR(a.aggressors[k].sink_load, b.aggressors[k].sink_load, 1e-20);
  }
  ASSERT_EQ(a.couplings.size(), b.couplings.size());
  double ca = 0.0, cb = 0.0;
  for (const auto& c : a.couplings) ca += c.c;
  for (const auto& c : b.couplings) cb += c.c;
  EXPECT_NEAR(ca, cb, 1e-19);
}

TEST(Spef, RoundTripExampleNet) {
  const CoupledNet net = example_coupled_net(2);
  std::stringstream ss;
  write_spef(ss, net, "example");
  StatusOr<CoupledNet> back = try_read_spef(ss);
  ASSERT_TRUE(back.ok()) << back.status().to_string();
  expect_nets_equal(net, *back);
}

TEST(Spef, RoundTripRandomNets) {
  Rng rng(2024);
  for (int i = 0; i < 10; ++i) {
    const CoupledNet net = random_coupled_net(rng);
    std::stringstream ss;
    write_spef(ss, net);
    StatusOr<CoupledNet> back = try_read_spef(ss);
    ASSERT_TRUE(back.ok()) << back.status().to_string();
    expect_nets_equal(net, *back);
  }
}

TEST(Spef, CommentsAndWhitespaceIgnored) {
  const CoupledNet net = example_coupled_net(1);
  std::stringstream ss;
  write_spef(ss, net);
  std::string text = ss.str();
  text.insert(text.find("*D_NET"), "// a comment line\n\n   \n");
  std::stringstream ss2(text);
  StatusOr<CoupledNet> back = try_read_spef(ss2);
  ASSERT_TRUE(back.ok()) << back.status().to_string();
  expect_nets_equal(net, *back);
}

TEST(Spef, RejectsWrongDialect) {
  std::stringstream ss("*SPEF \"IEEE-1481\"\n");
  const StatusOr<CoupledNet> r = try_read_spef(ss);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(Spef, RejectsMissingVictim) {
  std::stringstream ss(
      "*SPEF \"dnoise-subset-1\"\n"
      "*D_NET agg0 *AGGRESSOR\n"
      "*DRIVER INV 1 100 FALL\n"
      "*SINK 1\n*CAP\nagg0:1 5\n*RES\nagg0:0 agg0:1 100\n*END\n");
  const StatusOr<CoupledNet> r = try_read_spef(ss);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(Spef, RejectsResistorSpanningNets) {
  std::stringstream ss(
      "*SPEF \"dnoise-subset-1\"\n"
      "*D_NET victim *VICTIM\n"
      "*DRIVER INV 1 100 RISE\n*RECEIVER INV 2 10\n"
      "*SINK 1\n*CAP\nvictim:1 5\n*RES\nvictim:0 agg0:1 100\n*END\n");
  const StatusOr<CoupledNet> r = try_read_spef(ss);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(Spef, RejectsBadNodeRef) {
  std::stringstream ss(
      "*SPEF \"dnoise-subset-1\"\n"
      "*D_NET victim *VICTIM\n"
      "*DRIVER INV 1 100 RISE\n*RECEIVER INV 2 10\n"
      "*SINK 1\n*CAP\nnocolon 5\n*END\n");
  const StatusOr<CoupledNet> r = try_read_spef(ss);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(Spef, RejectsUnknownGateType) {
  std::stringstream ss(
      "*SPEF \"dnoise-subset-1\"\n"
      "*D_NET victim *VICTIM\n"
      "*DRIVER XOR3 1 100 RISE\n");
  const StatusOr<CoupledNet> r = try_read_spef(ss);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(Spef, FileRoundTrip) {
  const CoupledNet net = example_coupled_net(1);
  const std::string path = ::testing::TempDir() + "/dn_test.spef";
  {
    std::ofstream f(path);
    write_spef(f, net);
  }
  StatusOr<CoupledNet> back = try_read_spef_file(path);
  ASSERT_TRUE(back.ok()) << back.status().to_string();
  expect_nets_equal(net, *back);
  const StatusOr<CoupledNet> missing = try_read_spef_file("/nonexistent/p.spef");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace dn
