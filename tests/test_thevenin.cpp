// Thevenin model tests: analytic response properties, the closed-form
// crossing solve against a Brent reference, and fit quality against the
// nonlinear gate reference (ceff/thevenin.*).
#include "ceff/thevenin.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <optional>
#include <tuple>
#include <utility>

#include "ceff/thevenin_table.hpp"
#include "rcnet/net.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace dn {
namespace {

using namespace dn::units;

constexpr double kVdd = 1.8;

TEST(TheveninModel, SourceWaveformShape) {
  TheveninModel m{.t0 = 100 * ps, .tr = 200 * ps, .rth = 1 * kOhm,
                  .v_from = 0.0, .v_to = kVdd};
  const Pwl s = m.source(1 * ns);
  EXPECT_DOUBLE_EQ(s.at(0.0), 0.0);
  EXPECT_DOUBLE_EQ(s.at(200 * ps), kVdd / 2);
  EXPECT_DOUBLE_EQ(s.at(1 * ns), kVdd);
}

TEST(TheveninModel, ResponseLagsBehindSource) {
  TheveninModel m{.t0 = 0.0, .tr = 100 * ps, .rth = 2 * kOhm,
                  .v_from = 0.0, .v_to = kVdd};
  const double c = 50 * fF;  // tau = 100 ps.
  EXPECT_LT(m.response(50 * ps, c), kVdd / 2);
  EXPECT_NEAR(m.response(2 * ns, c), kVdd, 1e-6);
  // Monotone rising.
  double prev = -1;
  for (double t = 0; t < 1 * ns; t += 10 * ps) {
    EXPECT_GE(m.response(t, c), prev);
    prev = m.response(t, c);
  }
}

TEST(TheveninModel, FallingResponseMirrorsRising) {
  TheveninModel up{.t0 = 0.0, .tr = 100 * ps, .rth = 1 * kOhm,
                   .v_from = 0.0, .v_to = kVdd};
  TheveninModel dn_{.t0 = 0.0, .tr = 100 * ps, .rth = 1 * kOhm,
                    .v_from = kVdd, .v_to = 0.0};
  const double c = 30 * fF;
  for (double t = 0; t < 1 * ns; t += 25 * ps)
    EXPECT_NEAR(up.response(t, c) + dn_.response(t, c), kVdd, 1e-12);
}

TEST(TheveninModel, ResponseCrossingInvertsResponse) {
  TheveninModel m{.t0 = 50 * ps, .tr = 150 * ps, .rth = 1.5 * kOhm,
                  .v_from = 0.0, .v_to = kVdd};
  const double c = 40 * fF;
  for (double frac : {0.1, 0.5, 0.9}) {
    const auto t = m.response_crossing(frac, c);
    ASSERT_TRUE(t.has_value());
    EXPECT_NEAR(m.response(*t, c), frac * kVdd, 1e-9);
  }
  EXPECT_FALSE(m.response_crossing(0.0, c).has_value());
  EXPECT_FALSE(m.response_crossing(1.0, c).has_value());
}

// Brent's method as the crossing solve used it before the closed form
// replaced it, kept verbatim as the reference.
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

/// TheveninModel::response written out on its own, ramp-end constant
/// recomputed on every evaluation.
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

/// TheveninModel::response_crossing as a bracketed root solve: Brent on
/// the response over [t0, t0 + tr + 40 tau] to a 1e-18 s bracket.
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

TEST(TheveninModel, ClosedFormCrossingMatchesBrentReference) {
  Rng rng(20240611);
  int solved = 0;
  for (int i = 0; i < 2000; ++i) {
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
    // 1e-18 s is the reference's own bracket tolerance.
    EXPECT_LE(std::abs(*got - *want), 1e-18)
        << "problem " << i << ": " << *got << " vs " << *want;
    for (const double t : {*got, m.t0 + 0.5 * m.tr, m.t0 + 3.0 * m.tr})
      EXPECT_EQ(std::bit_cast<std::uint64_t>(m.response(t, cload)),
                std::bit_cast<std::uint64_t>(reference_response(m, t, cload)))
          << "problem " << i << " t " << t;
  }
  EXPECT_EQ(solved, 2000);
}

// Each branch of the crossing solve, both directions: the settling tail
// (closed form), the ramp (Newton), the bare ramp (tau = 0) and a level
// the response never reaches.
TEST(TheveninModel, ClosedFormCrossingBranches) {
  for (const bool rising : {true, false}) {
    TheveninModel m{.t0 = 50 * ps, .tr = 100 * ps, .rth = 1 * kOhm,
                    .v_from = rising ? 0.0 : kVdd, .v_to = rising ? kVdd : 0.0};
    const double end = m.t0 + m.tr;
    const auto check = [&](double frac, double cload) {
      const auto t = m.response_crossing(frac, cload);
      const auto want = reference_crossing(m, frac, cload);
      EXPECT_TRUE(t.has_value());
      EXPECT_TRUE(want.has_value());
      if (!t || !want) return end;
      EXPECT_LE(std::abs(*t - *want), 1e-18) << frac << " " << cload;
      EXPECT_NEAR(m.response(*t, cload),
                  m.v_from + frac * (m.v_to - m.v_from), 1e-9);
      return *t;
    };
    // tau = 200 ps: the response is at 21% when the ramp ends.
    EXPECT_GT(check(0.5, 200 * fF), end);   // Tail.
    EXPECT_LT(check(0.1, 200 * fF), end);   // Ramp.
    // tau = 5 ps: the response tracks the ramp closely.
    EXPECT_LT(check(0.5, 5 * fF), end);     // Ramp.
    EXPECT_GT(check(0.99, 5 * fF), end);    // Tail.
    // tau = 0: the response is the ramp itself.
    const auto bare = m.response_crossing(0.3, 0.0);
    ASSERT_TRUE(bare.has_value());
    EXPECT_DOUBLE_EQ(*bare, m.t0 + 0.3 * m.tr);
    // 40 tau past a femtosecond ramp is below the resolution of a
    // kilosecond t0: the horizon rounds back onto t0, so the level is
    // never reached there.
    TheveninModel late = m;
    late.t0 = 1e3;
    late.tr = 1e-15;
    late.rth = 1.0;
    EXPECT_FALSE(late.response_crossing(0.5, 1e-18).has_value());
    EXPECT_FALSE(reference_crossing(late, 0.5, 1e-18).has_value());
  }
}

TEST(TheveninFit, MatchesReferenceCrossings) {
  GateParams g;
  g.type = GateType::Inverter;
  g.size = 2.0;
  const Pwl vin = Pwl::ramp(100 * ps, 150 * ps, 0.0, kVdd);  // Output falls.
  const double cload = 50 * fF;
  const TheveninFit fit = fit_thevenin(g, vin, cload);
  EXPECT_TRUE(fit.converged);
  EXPECT_LT(fit.worst_residual, 0.5 * ps);
  EXPECT_GT(fit.model.rth, 10.0);
  EXPECT_LT(fit.model.rth, 100 * kOhm);
  EXPECT_FALSE(fit.model.rising());

  // The fitted analytic response reproduces the nonlinear 10/50/90 times.
  for (double frac : {0.1, 0.5, 0.9}) {
    const double level = kVdd * (1.0 - frac);  // Falling normalization.
    const auto t_ref = fit.reference.crossing(level, false);
    const auto t_fit = fit.model.response_crossing(frac, cload);
    ASSERT_TRUE(t_ref && t_fit);
    EXPECT_NEAR(*t_fit, *t_ref, 1 * ps) << "frac " << frac;
  }
}

TEST(TheveninFit, RisingOutput) {
  GateParams g;
  g.type = GateType::Inverter;
  const Pwl vin = Pwl::ramp(100 * ps, 100 * ps, kVdd, 0.0);  // Output rises.
  const TheveninFit fit = fit_thevenin(g, vin, 30 * fF);
  EXPECT_TRUE(fit.model.rising());
  EXPECT_LT(fit.worst_residual, 0.5 * ps);
}

TEST(TheveninFit, RejectsBadLoad) {
  GateParams g;
  EXPECT_THROW(fit_thevenin(g, Pwl::ramp(0, 100 * ps, 0, kVdd), 0.0),
               std::invalid_argument);
}

TEST(TheveninFit, NonSwitchingInputThrows) {
  GateParams g;
  EXPECT_THROW(fit_thevenin(g, Pwl::constant(0.9), 20 * fF), std::runtime_error);
}

// A weak driver's reference runs until its output is near the rail, so
// the 10/50/90% crossings are those of the full transition: INV 0.3
// rising into the driver tables' top load at every table slew.
TEST(TheveninFit, WeakDriverReferenceSettlesNearTheRail) {
  GateParams g;
  g.size = 0.3;
  GateSim sim(g, TheveninTable::default_loads().back());
  for (const double slew : TheveninTable::default_slews()) {
    const Pwl vin = driver_input_ramp(g, slew, true, 100 * ps);
    const Pwl out = simulate_reference(sim, vin);
    EXPECT_GE(out.values().back() - out.values().front(), 0.95 * g.vdd)
        << "slew " << slew;
  }
}

// Property sweep: the fit must converge across gate sizes, slews and loads,
// with a larger driver always yielding a smaller Rth at fixed load/slew.
class TheveninSweep
    : public ::testing::TestWithParam<std::tuple<double, double, double>> {};

TEST_P(TheveninSweep, ConvergesAndIsPhysical) {
  const auto [size, slew, cload] = GetParam();
  GateParams g;
  g.type = GateType::Inverter;
  g.size = size;
  const Pwl vin = Pwl::ramp(100 * ps, slew, 0.0, kVdd);
  const TheveninFit fit = fit_thevenin(g, vin, cload);
  // Crossing-time residual within 1 ps or 2% of the 10-90 slew, whichever
  // is larger (slow inputs into light loads are genuinely hard for a
  // 3-parameter saturated-ramp model).
  const auto slew_ref = fit.reference.slew(0.0, kVdd);
  ASSERT_TRUE(slew_ref.has_value());
  EXPECT_LT(fit.worst_residual, std::max(3 * ps, 0.02 * *slew_ref));
  EXPECT_GT(fit.model.rth, 1.0);
  EXPECT_GT(fit.model.tr, 1 * ps);
  // Ramp start cannot be before the input starts moving... allow slack for
  // the extrapolated foot.
  EXPECT_GT(fit.model.t0, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    SizesSlewsLoads, TheveninSweep,
    ::testing::Combine(::testing::Values(1.0, 2.0, 8.0),
                       ::testing::Values(60 * ps, 200 * ps),
                       ::testing::Values(20 * fF, 120 * fF)));

TEST(TheveninFit, BiggerDriverHasSmallerRth) {
  const Pwl vin = Pwl::ramp(100 * ps, 100 * ps, 0.0, kVdd);
  GateParams small;
  small.size = 1.0;
  GateParams big;
  big.size = 8.0;
  const double rth_small = fit_thevenin(small, vin, 60 * fF).model.rth;
  const double rth_big = fit_thevenin(big, vin, 60 * fF).model.rth;
  EXPECT_LT(rth_big, 0.5 * rth_small);
}

}  // namespace
}  // namespace dn
