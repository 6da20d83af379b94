// Unit tests for the numeric toolbox (util/numeric.*).
#include "util/numeric.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace dn {
namespace {

TEST(Lerp, InterpolatesAndExtrapolates) {
  EXPECT_DOUBLE_EQ(lerp(0, 0, 1, 10, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(lerp(0, 0, 1, 10, 2.0), 20.0);   // Linear extrapolation.
  EXPECT_DOUBLE_EQ(lerp(0, 0, 1, 10, -1.0), -10.0);
}

TEST(Lerp, DegenerateIntervalReturnsMidpoint) {
  EXPECT_DOUBLE_EQ(lerp(1, 4, 1, 6, 1), 5.0);
}

TEST(Bisect, FindsRoot) {
  auto root = bisect([](double x) { return x * x - 2.0; }, 0.0, 2.0);
  ASSERT_TRUE(root.has_value());
  EXPECT_NEAR(*root, std::sqrt(2.0), 1e-10);
}

TEST(Bisect, NoSignChangeReturnsNullopt) {
  EXPECT_FALSE(bisect([](double x) { return x * x + 1.0; }, -1.0, 1.0).has_value());
}

TEST(Trapz, IntegratesLinearExactly) {
  const std::vector<double> xs{0, 1, 3};
  const std::vector<double> ys{0, 2, 6};  // y = 2x.
  EXPECT_DOUBLE_EQ(trapz(xs, ys), 9.0);
}

TEST(Trapz, EmptyAndSingle) {
  const std::vector<double> none;
  EXPECT_DOUBLE_EQ(trapz(none, none), 0.0);
  const std::vector<double> one_x{1.0}, one_y{5.0};
  EXPECT_DOUBLE_EQ(trapz(one_x, one_y), 0.0);
}

TEST(Linspace, EndpointsAndSpacing) {
  const auto v = linspace(1.0, 3.0, 5);
  ASSERT_EQ(v.size(), 5u);
  EXPECT_DOUBLE_EQ(v.front(), 1.0);
  EXPECT_DOUBLE_EQ(v.back(), 3.0);
  EXPECT_DOUBLE_EQ(v[1], 1.5);
}

TEST(Linspace, RejectsTooFewPoints) {
  EXPECT_THROW(linspace(0, 1, 1), std::invalid_argument);
}

}  // namespace
}  // namespace dn
