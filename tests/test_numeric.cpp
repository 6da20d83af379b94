// Unit tests for the numeric toolbox (util/numeric.*).
#include "util/numeric.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace dn {
namespace {

TEST(AlmostEqual, BasicCases) {
  EXPECT_TRUE(almost_equal(1.0, 1.0));
  EXPECT_TRUE(almost_equal(1.0, 1.0 + 1e-13));
  EXPECT_FALSE(almost_equal(1.0, 1.001));
  EXPECT_TRUE(almost_equal(0.0, 0.0));
  EXPECT_TRUE(almost_equal(1e-20, 0.0));  // Within atol.
}

TEST(Lerp, InterpolatesAndExtrapolates) {
  EXPECT_DOUBLE_EQ(lerp(0, 0, 1, 10, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(lerp(0, 0, 1, 10, 2.0), 20.0);   // Linear extrapolation.
  EXPECT_DOUBLE_EQ(lerp(0, 0, 1, 10, -1.0), -10.0);
}

TEST(Lerp, DegenerateIntervalReturnsMidpoint) {
  EXPECT_DOUBLE_EQ(lerp(1, 4, 1, 6, 1), 5.0);
}

TEST(Interp1, ClampsOutsideTable) {
  const std::vector<double> xs{0, 1, 2};
  const std::vector<double> ys{0, 10, 40};
  EXPECT_DOUBLE_EQ(interp1(xs, ys, -5), 0.0);
  EXPECT_DOUBLE_EQ(interp1(xs, ys, 5), 40.0);
  EXPECT_DOUBLE_EQ(interp1(xs, ys, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(interp1(xs, ys, 1.5), 25.0);
}

TEST(Interp1, SinglePoint) {
  const std::vector<double> xs{2.0};
  const std::vector<double> ys{7.0};
  EXPECT_DOUBLE_EQ(interp1(xs, ys, 0.0), 7.0);
  EXPECT_DOUBLE_EQ(interp1(xs, ys, 99.0), 7.0);
}

TEST(Interp2, RecoversBilinearFunction) {
  // z = 2x + 3y on a grid must be reproduced exactly inside the hull.
  const std::vector<double> xs{0, 1, 2};
  const std::vector<double> ys{0, 2};
  std::vector<double> z;
  for (double y : ys)
    for (double x : xs) z.push_back(2 * x + 3 * y);
  EXPECT_NEAR(interp2(xs, ys, z, 0.5, 1.0), 2 * 0.5 + 3 * 1.0, 1e-12);
  EXPECT_NEAR(interp2(xs, ys, z, 1.7, 0.3), 2 * 1.7 + 3 * 0.3, 1e-12);
}

TEST(Interp2, ClampsOutsideGrid) {
  const std::vector<double> xs{0, 1};
  const std::vector<double> ys{0, 1};
  const std::vector<double> z{0, 1, 2, 3};
  EXPECT_DOUBLE_EQ(interp2(xs, ys, z, -1, -1), 0.0);
  EXPECT_DOUBLE_EQ(interp2(xs, ys, z, 9, 9), 3.0);
}

TEST(Bisect, FindsRoot) {
  auto root = bisect([](double x) { return x * x - 2.0; }, 0.0, 2.0);
  ASSERT_TRUE(root.has_value());
  EXPECT_NEAR(*root, std::sqrt(2.0), 1e-10);
}

TEST(Bisect, NoSignChangeReturnsNullopt) {
  EXPECT_FALSE(bisect([](double x) { return x * x + 1.0; }, -1.0, 1.0).has_value());
}

TEST(GoldenMin, FindsParabolaMinimum) {
  const double x = golden_min([](double v) { return (v - 0.3) * (v - 0.3); },
                              -2.0, 2.0);
  EXPECT_NEAR(x, 0.3, 1e-8);
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

TEST(NewtonFd, SolvesSmoothEquation) {
  auto root = newton_fd([](double x) { return std::exp(x) - 3.0; }, 0.0, 1e-6);
  ASSERT_TRUE(root.has_value());
  EXPECT_NEAR(*root, std::log(3.0), 1e-8);
}

TEST(Linspace, EndpointsAndSpacing) {
  const auto v = linspace(1.0, 3.0, 5);
  ASSERT_EQ(v.size(), 5u);
  EXPECT_DOUBLE_EQ(v.front(), 1.0);
  EXPECT_DOUBLE_EQ(v.back(), 3.0);
  EXPECT_DOUBLE_EQ(v[1], 1.5);
}

TEST(Logspace, EndpointsAndMonotonic) {
  const auto v = logspace(1.0, 100.0, 3);
  ASSERT_EQ(v.size(), 3u);
  EXPECT_NEAR(v[0], 1.0, 1e-12);
  EXPECT_NEAR(v[1], 10.0, 1e-9);
  EXPECT_NEAR(v[2], 100.0, 1e-9);
}

TEST(Linspace, RejectsTooFewPoints) {
  EXPECT_THROW(linspace(0, 1, 1), std::invalid_argument);
  EXPECT_THROW(logspace(1, 2, 1), std::invalid_argument);
  EXPECT_THROW(logspace(-1, 2, 4), std::invalid_argument);
}

}  // namespace
}  // namespace dn
