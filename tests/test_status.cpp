// Status / StatusOr surface tests (util/status.*). The try_*/StatusOr
// surface is the only public API; the legacy throwing wrappers and the
// DN_ALLOW_DEPRECATED escape hatch were deleted, and these tests pin the
// Status-only behavior (kInvalidArgument for bad input, never a throw
// across a public boundary).
#include "util/status.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <utility>

#include "clarinet/analyzer.hpp"
#include "rcnet/random_nets.hpp"
#include "rcnet/spef.hpp"

namespace dn {
namespace {

TEST(Status, DefaultIsOk) {
  const Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_TRUE(s.message().empty());
  EXPECT_EQ(s.to_string(), "OK");
  EXPECT_NO_THROW(s.throw_if_error());
}

TEST(Status, FactoryRoundTripsCodeAndMessage) {
  struct Case {
    Status s;
    StatusCode code;
    const char* name;
  };
  const Case cases[] = {
      {Status::InvalidArgument("bad deck"), StatusCode::kInvalidArgument,
       "INVALID_ARGUMENT"},
      {Status::FailedPrecondition("no table"), StatusCode::kFailedPrecondition,
       "FAILED_PRECONDITION"},
      {Status::Internal("solver diverged"), StatusCode::kInternal, "INTERNAL"},
      {Status::NotFound("missing.spef"), StatusCode::kNotFound, "NOT_FOUND"},
  };
  for (const Case& c : cases) {
    EXPECT_FALSE(c.s.ok());
    EXPECT_EQ(c.s.code(), c.code);
    EXPECT_EQ(std::string(status_code_name(c.code)), c.name);
    EXPECT_EQ(c.s.to_string(),
              std::string(c.name) + ": " + c.s.message());
  }
  EXPECT_EQ(std::string(status_code_name(StatusCode::kOk)), "OK");
}

TEST(Status, ThrowIfErrorCarriesTheStatusText) {
  const Status s = Status::Internal("characterization blew up");
  try {
    s.throw_if_error();
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "INTERNAL: characterization blew up");
  }
}

// A status raised by an internal layer and caught at the analyzer
// boundary comes back as itself: a stored table failure reaches every
// requester unchanged.
TEST(Status, RaiseRoundTripsCodeAndMessage) {
  for (const Status& s :
       {Status::Internal("fill failed"), Status::InvalidArgument("bad"),
        Status::DeadlineExceeded("late"), Status::Unavailable("busy")}) {
    try {
      raise(s);
    } catch (const std::exception& e) {
      const Status back = status_from_exception(e);
      EXPECT_EQ(back.code(), s.code());
      EXPECT_EQ(back.message(), s.message());
    }
  }
}

TEST(StatusOr, HoldsValue) {
  StatusOr<int> v = 42;
  EXPECT_TRUE(v.ok());
  EXPECT_TRUE(v.status().ok());
  EXPECT_EQ(*v, 42);
  EXPECT_EQ(v.value(), 42);
  *v = 7;
  EXPECT_EQ(v.value(), 7);
}

TEST(StatusOr, HoldsStatus) {
  const StatusOr<int> v = Status::NotFound("nope");
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(v.status().message(), "nope");
}

TEST(StatusOr, ConstructedFromOkStatusBecomesInternalError) {
  // A StatusOr with no value must never report ok(); smuggling in an OK
  // Status is a caller bug and comes back as kInternal.
  const StatusOr<int> v = Status::Ok();
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kInternal);
}

TEST(StatusOr, SupportsMoveOnlyPayloads) {
  StatusOr<std::unique_ptr<int>> v = std::make_unique<int>(5);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(**v, 5);
  EXPECT_EQ(*v->get(), 5);  // operator-> reaches the unique_ptr itself.
  const std::unique_ptr<int> out = std::move(v).value();
  ASSERT_TRUE(out);
  EXPECT_EQ(*out, 5);
}

// ---------------------------------------------------------------------------
// The Status surface end-to-end through the SPEF reader and analyzer.
// ---------------------------------------------------------------------------

TEST(StatusApi, MalformedSpefIsInvalidArgumentNotAThrow) {
  std::istringstream garbage("*SPEF \"dnoise-subset-1\"\n*BOGUS\n");
  const StatusOr<CoupledNet> r = try_read_spef(garbage);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(StatusApi, RoundTripThroughWriterStaysOk) {
  const CoupledNet net = example_coupled_net(1);
  std::stringstream ss;
  write_spef(ss, net);
  const StatusOr<CoupledNet> back = try_read_spef(ss);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->aggressors.size(), net.aggressors.size());
}

TEST(StatusApi, InvalidNetIsStatusNotAThrow) {
  AnalyzerConfig cfg;
  cfg.table_spec.search.coarse_points = 17;
  cfg.table_spec.search.fine_points = 9;
  cfg.analysis.search.coarse_points = 17;
  cfg.analysis.search.fine_points = 9;
  NoiseAnalyzer analyzer(cfg);
  CoupledNet bad = example_coupled_net(1);
  bad.couplings.push_back({42, 0, 0, 1e-15});  // Aggressor 42 doesn't exist.
  const StatusOr<DelayNoiseResult> r = analyzer.try_analyze(bad);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(StatusApi, TryReadSpefFileReportsNotFound) {
  const StatusOr<CoupledNet> r = try_read_spef_file("/nonexistent/x.spef");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_NE(r.status().message().find("/nonexistent/x.spef"),
            std::string::npos);
}

TEST(StatusApi, TryReadSpefReportsInvalidArgumentWithContext) {
  std::istringstream wrong_dialect("*SPEF \"other\"\n");
  const StatusOr<CoupledNet> r = try_read_spef(wrong_dialect);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(r.status().message().empty());
}

}  // namespace
}  // namespace dn
