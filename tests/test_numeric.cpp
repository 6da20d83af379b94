// Unit tests for the numeric toolbox (util/numeric.*).
#include "util/numeric.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <optional>
#include <utility>

#include "ceff/thevenin.hpp"
#include "util/rng.hpp"

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

TEST(Brent, FindsRootFasterThanBisection) {
  int evals = 0;
  auto f = [&](double x) {
    ++evals;
    return std::cos(x) - x;
  };
  auto root = brent(f, 0.0, 1.0, 1e-14);
  ASSERT_TRUE(root.has_value());
  EXPECT_NEAR(*root, 0.7390851332151607, 1e-10);
  EXPECT_LT(evals, 40);
}

TEST(Brent, EndpointRoot) {
  auto root = brent([](double x) { return x; }, 0.0, 1.0);
  ASSERT_TRUE(root.has_value());
  EXPECT_DOUBLE_EQ(*root, 0.0);
}

// The std::function Brent that the template replaced, kept verbatim as
// the reference: the template must find the same root bit for bit.
std::optional<double> brent_std_function(const std::function<double(double)>& f,
                                         double lo, double hi, double xtol,
                                         int max_iter = 200) {
  double a = lo, b = hi;
  double fa = f(a), fb = f(b);
  if (fa == 0.0) return a;
  if (fb == 0.0) return b;
  if ((fa > 0) == (fb > 0)) return std::nullopt;
  if (std::abs(fa) < std::abs(fb)) {
    std::swap(a, b);
    std::swap(fa, fb);
  }
  double c = a, fc = fa;
  bool mflag = true;
  double d = 0.0;
  for (int it = 0; it < max_iter; ++it) {
    if (fb == 0.0 || std::abs(b - a) < xtol) return b;
    double s;
    if (fa != fc && fb != fc) {
      s = a * fb * fc / ((fa - fb) * (fa - fc)) +
          b * fa * fc / ((fb - fa) * (fb - fc)) +
          c * fa * fb / ((fc - fa) * (fc - fb));
    } else {
      s = b - fb * (b - a) / (fb - fa);
    }
    const double m = 0.5 * (a + b);
    const bool cond = (s < std::min(m, b) || s > std::max(m, b)) ||
                      (mflag && std::abs(s - b) >= 0.5 * std::abs(b - c)) ||
                      (!mflag && std::abs(s - b) >= 0.5 * std::abs(c - d)) ||
                      (mflag && std::abs(b - c) < xtol) ||
                      (!mflag && std::abs(c - d) < xtol);
    if (cond) {
      s = m;
      mflag = true;
    } else {
      mflag = false;
    }
    const double fs = f(s);
    d = c;
    c = b;
    fc = fb;
    if ((fa > 0) != (fs > 0)) {
      b = s;
      fb = fs;
    } else {
      a = s;
      fa = fs;
    }
    if (std::abs(fa) < std::abs(fb)) {
      std::swap(a, b);
      std::swap(fa, fb);
    }
  }
  return b;
}

/// TheveninModel::response as it was written before its ramp-end
/// constant was hoisted: recomputed on every evaluation.
double reference_response(const TheveninModel& m, double t, double cload) {
  const double tau = m.rth * cload;
  const double u = t - m.t0;
  double w;
  if (u <= 0.0) {
    w = 0.0;
  } else if (tau <= 0.0) {
    w = std::min(u / m.tr, 1.0);
  } else if (u <= m.tr) {
    w = (u - tau * (1.0 - std::exp(-u / tau))) / m.tr;
  } else {
    const double w_end = (m.tr - tau * (1.0 - std::exp(-m.tr / tau))) / m.tr;
    w = 1.0 - (1.0 - w_end) * std::exp(-(u - m.tr) / tau);
  }
  return m.v_from + w * (m.v_to - m.v_from);
}

/// TheveninModel::response_crossing as it was written against the
/// std::function Brent.
std::optional<double> reference_crossing(const TheveninModel& m, double frac,
                                         double cload) {
  if (frac <= 0.0 || frac >= 1.0) return std::nullopt;
  const double tau = m.rth * cload;
  const double target = m.v_from + frac * (m.v_to - m.v_from);
  const double dir = (m.v_to > m.v_from) ? 1.0 : -1.0;
  const double t_hi = m.t0 + m.tr + std::max(40.0 * tau, 1e-15);
  auto f = [&](double t) {
    return dir * (reference_response(m, t, cload) - target);
  };
  if (f(t_hi) < 0.0) return std::nullopt;
  return brent_std_function(f, m.t0, t_hi, 1e-18);
}

TEST(Brent, TemplateMatchesStdFunctionOnTheveninCrossings) {
  Rng rng(20240611);
  int solved = 0;
  for (int i = 0; i < 200; ++i) {
    TheveninModel m;
    m.t0 = rng.uniform(-50e-12, 400e-12);
    m.tr = rng.log_uniform(5e-12, 2e-9);
    m.rth = rng.log_uniform(20.0, 50e3);
    const bool rising = (i % 2) == 0;
    m.v_from = rising ? 0.0 : 1.8;
    m.v_to = rising ? 1.8 : 0.0;
    const double cload = rng.log_uniform(0.5e-15, 500e-15);
    const double frac = rng.uniform(0.02, 0.98);
    const auto got = m.response_crossing(frac, cload);
    const auto want = reference_crossing(m, frac, cload);
    ASSERT_EQ(got.has_value(), want.has_value()) << "problem " << i;
    if (!got) continue;
    ++solved;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(*got),
              std::bit_cast<std::uint64_t>(*want))
        << "problem " << i << ": " << *got << " vs " << *want;
    for (const double t : {*got, m.t0 + 0.5 * m.tr, m.t0 + 3.0 * m.tr})
      EXPECT_EQ(std::bit_cast<std::uint64_t>(m.response(t, cload)),
                std::bit_cast<std::uint64_t>(reference_response(m, t, cload)))
          << "problem " << i << " t " << t;
  }
  EXPECT_EQ(solved, 200);
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
