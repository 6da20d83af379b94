// Unit tests for piecewise-linear waveforms (waveform/pwl.*).
#include "waveform/pwl.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <span>
#include <string>
#include <vector>

#include "core/holding_resistance.hpp"
#include "util/units.hpp"

namespace dn {
namespace {

using namespace dn::units;

TEST(Pwl, RampEvaluation) {
  const Pwl r = Pwl::ramp(1 * ns, 2 * ns, 0.0, 1.8);
  EXPECT_DOUBLE_EQ(r.at(0.0), 0.0);
  EXPECT_DOUBLE_EQ(r.at(1 * ns), 0.0);
  EXPECT_DOUBLE_EQ(r.at(2 * ns), 0.9);
  EXPECT_DOUBLE_EQ(r.at(3 * ns), 1.8);
  EXPECT_DOUBLE_EQ(r.at(10 * ns), 1.8);  // Held after the ramp.
}

TEST(Pwl, InvariantViolationsThrow) {
  EXPECT_THROW(Pwl({1.0, 1.0}, {0.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(Pwl({1.0, 0.5}, {0.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(Pwl({0.0}, {0.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(Pwl::ramp(0, -1 * ns, 0, 1), std::invalid_argument);
}

TEST(Pwl, AdditionOnMergedGrid) {
  const Pwl a = Pwl::ramp(0.0, 1.0, 0.0, 1.0);
  const Pwl b = Pwl::ramp(0.5, 1.0, 0.0, 1.0);
  const Pwl sum = a + b;
  EXPECT_DOUBLE_EQ(sum.at(0.25), 0.25);
  EXPECT_DOUBLE_EQ(sum.at(0.75), 0.75 + 0.25);
  EXPECT_DOUBLE_EQ(sum.at(2.0), 2.0);
}

TEST(Pwl, SubtractionCancelsExactly) {
  const Pwl a = Pwl::ramp(0.0, 1.0, 0.0, 1.8);
  const Pwl diff = a - a;
  EXPECT_DOUBLE_EQ(diff.max_value(), 0.0);
  EXPECT_DOUBLE_EQ(diff.min_value(), 0.0);
}

TEST(Pwl, ScaleShiftPlusConstant) {
  const Pwl a = Pwl::ramp(0.0, 1.0, 0.0, 1.0);
  EXPECT_DOUBLE_EQ(a.scaled(2.0).at(1.0), 2.0);
  EXPECT_DOUBLE_EQ(a.shifted(1.0).at(1.5), 0.5);
}

TEST(Pwl, CrossingRisingAndFalling) {
  const Pwl tri({0, 1, 2}, {0, 1, 0});
  const auto up = tri.crossing(0.5, true);
  ASSERT_TRUE(up.has_value());
  EXPECT_DOUBLE_EQ(*up, 0.5);
  const auto down = tri.crossing(0.5, false);
  ASSERT_TRUE(down.has_value());
  EXPECT_DOUBLE_EQ(*down, 1.5);
  EXPECT_FALSE(tri.crossing(2.0).has_value());
}

TEST(Pwl, CrossingFromOffset) {
  const Pwl w({0, 1, 2, 3, 4}, {0, 1, 0, 1, 0});
  const auto c = w.crossing(0.5, true, 1.5);
  ASSERT_TRUE(c.has_value());
  EXPECT_DOUBLE_EQ(*c, 2.5);
}

TEST(Pwl, LastCrossing) {
  const Pwl w({0, 1, 2, 3, 4}, {0, 1, 0, 1, 0});
  const auto c = w.last_crossing(0.5);
  ASSERT_TRUE(c.has_value());
  EXPECT_DOUBLE_EQ(*c, 3.5);
}

TEST(Pwl, PeakAndWidth) {
  const Pwl tri({0, 1, 2}, {0, 1, 0});
  const auto p = tri.peak();
  EXPECT_DOUBLE_EQ(p.t, 1.0);
  EXPECT_DOUBLE_EQ(p.value, 1.0);
  EXPECT_DOUBLE_EQ(tri.width_at_fraction(0.5), 1.0);  // FWHM of unit triangle.
}

TEST(Pwl, NegativePulsePeak) {
  const Pwl dip({0, 1, 2}, {0, -2, 0});
  const auto p = dip.peak();
  EXPECT_DOUBLE_EQ(p.value, -2.0);
  EXPECT_DOUBLE_EQ(dip.width_at_fraction(0.5), 1.0);
}

TEST(Pwl, SlewOfRamp) {
  const Pwl r = Pwl::ramp(0.0, 1.0, 0.0, 1.0);
  const auto s = r.slew(0.0, 1.0);
  ASSERT_TRUE(s.has_value());
  EXPECT_NEAR(*s, 0.8, 1e-12);
}

TEST(Pwl, SlewOfFallingEdge) {
  const Pwl r = Pwl::ramp(0.0, 1.0, 1.0, 0.0);
  const auto s = r.slew(0.0, 1.0);
  ASSERT_TRUE(s.has_value());
  EXPECT_NEAR(*s, 0.8, 1e-12);
}

TEST(Pwl, IntegralOfTriangle) {
  const Pwl tri({0, 1, 2}, {0, 1, 0});
  EXPECT_DOUBLE_EQ(tri.integral(), 1.0);
}

TEST(Pwl, ResampleAndClip) {
  const Pwl r = Pwl::ramp(0.0, 1.0, 0.0, 1.0);
  const Pwl rs = r.resampled(0.0, 2.0, 21);
  EXPECT_EQ(rs.size(), 21u);
  EXPECT_DOUBLE_EQ(rs.at(0.5), 0.5);
  const Pwl cl = r.clipped(0.25, 0.75);
  EXPECT_DOUBLE_EQ(cl.t_begin(), 0.25);
  EXPECT_DOUBLE_EQ(cl.t_end(), 0.75);
  EXPECT_DOUBLE_EQ(cl.at(0.5), 0.5);
}

TEST(Pwl, EmptyBehaviour) {
  const Pwl e;
  EXPECT_TRUE(e.empty());
  EXPECT_DOUBLE_EQ(e.at(1.0), 0.0);
  const Pwl r = Pwl::ramp(0.0, 1.0, 0.0, 1.0);
  EXPECT_DOUBLE_EQ((e + r).at(1.0), 1.0);
  // The empty waveform is the zero waveform everywhere else too.
  EXPECT_DOUBLE_EQ(e.min_value(), 0.0);
  EXPECT_DOUBLE_EQ(e.max_value(), 0.0);
  EXPECT_FALSE(e.slew(0.0, 1.0).has_value());
  EXPECT_DOUBLE_EQ(e.integral(), 0.0);
  EXPECT_DOUBLE_EQ(e.peak().value, 0.0);
}

// The fused/hinted fast paths feed the batched alignment search, whose
// outputs are pinned byte-for-byte by golden reports — so these must be
// BITWISE identical to the plain implementations (EXPECT_EQ on double is
// the deliberate exact comparison).

Pwl wiggly(std::uint64_t seed, double t0) {
  // Irregular grid with irrational-ish knot spacing so grids never align.
  std::vector<double> ts, vs;
  double t = t0;
  std::uint64_t x = seed;
  for (int i = 0; i < 40; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    t += 1e-12 * (1.0 + static_cast<double>(x >> 40) * 0x1.0p-24);
    ts.push_back(t);
    vs.push_back(std::sin(0.3 * i) * 1e-1 * static_cast<double>(i % 7));
  }
  return Pwl(std::move(ts), std::move(vs));
}

TEST(PwlFastPaths, AddShiftedBitIdentical) {
  const Pwl a = wiggly(1, 0.0);
  const Pwl b = wiggly(2, 0.4e-12);
  for (double dt : {0.0, 3.7e-12, -2.1e-12, 55e-12}) {
    const Pwl fused = a.add_shifted(b, dt);
    const Pwl ref = a + b.shifted(dt);
    ASSERT_EQ(fused.times().size(), ref.times().size()) << "dt " << dt;
    for (std::size_t i = 0; i < fused.times().size(); ++i) {
      EXPECT_EQ(fused.times()[i], ref.times()[i]) << "dt " << dt << " i " << i;
      EXPECT_EQ(fused.values()[i], ref.values()[i]) << "dt " << dt << " i " << i;
    }
  }
}

TEST(PwlFastPaths, AddShiftedEmptyOperands) {
  const Pwl e;
  const Pwl r = Pwl::ramp(0.0, 1e-12, 0.0, 1.0);
  const Pwl er = e.add_shifted(r, 2e-12);
  const Pwl ref = e + r.shifted(2e-12);
  ASSERT_EQ(er.times().size(), ref.times().size());
  for (std::size_t i = 0; i < er.times().size(); ++i) {
    EXPECT_EQ(er.times()[i], ref.times()[i]);
    EXPECT_EQ(er.values()[i], ref.values()[i]);
  }
  EXPECT_TRUE(e.add_shifted(e, 1e-12).empty());
  const Pwl re = r.add_shifted(e, -1e-12);
  ASSERT_EQ(re.times().size(), r.times().size());
  for (std::size_t i = 0; i < re.times().size(); ++i)
    EXPECT_EQ(re.values()[i], r.values()[i]);
}

TEST(PwlFastPaths, AtHintBitIdenticalToAt) {
  const Pwl w = wiggly(3, 1e-12);
  // Forward sweep (the monotone fast case), dense enough to hit every
  // segment plus the clamped head/tail regions.
  std::size_t cursor = 0;
  const double t_lo = w.times().front() - 2e-12;
  const double t_hi = w.t_end() + 2e-12;
  for (double t = t_lo; t <= t_hi; t += 0.05e-12)
    EXPECT_EQ(w.at_hint(t, cursor), w.at(t)) << "t " << t;
  // Stale/backward cursors must still agree (cursor is a hint, never a
  // correctness input).
  std::uint64_t x = 99;
  for (int i = 0; i < 200; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    const double t =
        t_lo + (t_hi - t_lo) * static_cast<double>(x >> 40) * 0x1.0p-24;
    std::size_t stale = x % 64;  // Often out of range entirely.
    EXPECT_EQ(w.at_hint(t, stale), w.at(t)) << "t " << t;
  }
  // Exact knot hits.
  for (double kt : w.times()) {
    std::size_t c2 = cursor;
    EXPECT_EQ(w.at_hint(kt, c2), w.at(kt));
  }
}

// Reference algebra: the merged grid by std::merge + std::unique and one
// Pwl::at() binary search per knot. The cursor-based operators must
// reproduce it bit for bit (compared as raw bit patterns, so a signed
// zero counts too).

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void expect_bitwise(const Pwl& got, const std::vector<double>& ts,
                    const std::vector<double>& vs, const std::string& what) {
  ASSERT_EQ(got.times().size(), ts.size()) << what;
  ASSERT_EQ(got.values().size(), vs.size()) << what;
  for (std::size_t i = 0; i < ts.size(); ++i) {
    EXPECT_EQ(bits(got.times()[i]), bits(ts[i])) << what << " t[" << i << "]";
    EXPECT_EQ(bits(got.values()[i]), bits(vs[i])) << what << " v[" << i << "]";
  }
}

void expect_bitwise(const Pwl& got, const Pwl& want, const std::string& what) {
  expect_bitwise(got, {want.times().begin(), want.times().end()},
                 {want.values().begin(), want.values().end()}, what);
}

std::vector<double> ref_grid(std::span<const double> a,
                             std::span<const double> b) {
  std::vector<double> g;
  std::merge(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(g));
  g.erase(std::unique(g.begin(), g.end()), g.end());
  return g;
}

/// a(t) + sign * b(t) on the merged grid (both operands non-empty).
void ref_combine(const Pwl& a, const Pwl& b, bool subtract,
                 std::vector<double>& ts, std::vector<double>& vs) {
  ts = ref_grid(a.times(), b.times());
  vs.clear();
  for (double t : ts)
    vs.push_back(subtract ? a.at(t) - b.at(t) : a.at(t) + b.at(t));
}

void check_algebra(const Pwl& a, const Pwl& b, const std::string& what) {
  std::vector<double> ts, vs;
  ref_combine(a, b, false, ts, vs);
  expect_bitwise(a + b, ts, vs, what + " a+b");
  ref_combine(a, b, true, ts, vs);
  expect_bitwise(a - b, ts, vs, what + " a-b");
  for (double dt : {0.0, 0.7e-12, -3.3e-12, 1e-9}) {
    // shifted() copies without the invariant pass, so its knots may round
    // together; at() still answers on such a grid.
    ref_combine(a, b.shifted(dt), false, ts, vs);
    expect_bitwise(a.add_shifted(b, dt), ts, vs,
                   what + " add_shifted dt=" + std::to_string(dt));
  }
}

Pwl ref_resampled(const Pwl& w, double t0, double t1, int n) {
  std::vector<double> ts, vs;
  for (int i = 0; i < n; ++i) {
    ts.push_back(t0 + (t1 - t0) * i / (n - 1));  // linspace's expression.
    vs.push_back(w.at(ts.back()));
  }
  return Pwl(std::move(ts), std::move(vs));
}

Pwl ref_differentiate(const Pwl& w, double dt) {
  const double t0 = w.t_begin(), t1 = w.t_end();
  const int n = std::max(static_cast<int>((t1 - t0) / dt), 4);
  const Pwl rs = ref_resampled(w, t0, t1, n + 1);
  std::vector<double> ts(rs.times().begin(), rs.times().end());
  const auto vs = rs.values();
  std::vector<double> dv(ts.size(), 0.0);
  const double h = ts[1] - ts[0];
  for (std::size_t i = 1; i + 1 < ts.size(); ++i)
    dv[i] = (vs[i + 1] - vs[i - 1]) / (2 * h);
  dv.front() = (vs[1] - vs[0]) / h;
  dv.back() = (vs[vs.size() - 1] - vs[vs.size() - 2]) / h;
  return Pwl(std::move(ts), std::move(dv));
}

TEST(PwlFastPaths, AlgebraInterleavedKnots) {
  check_algebra(wiggly(1, 0.0), wiggly(2, 0.4e-12), "interleaved");
  check_algebra(wiggly(4, 3e-12), wiggly(5, 0.0), "interleaved, b first");
}

TEST(PwlFastPaths, AlgebraCoincidentKnots) {
  const Pwl a = wiggly(6, 0.0);
  // Every other knot of `a`, with different values, plus a knot between
  // each pair: ties (left operand kept) and exact-knot queries on both.
  std::vector<double> ts, vs;
  for (std::size_t i = 0; i + 1 < a.size(); i += 2) {
    ts.push_back(a.times()[i]);
    vs.push_back(0.25 * static_cast<double>(i % 5) - 0.5);
    ts.push_back(0.5 * (a.times()[i] + a.times()[i + 1]));
    vs.push_back(-0.125 * static_cast<double>(i % 3));
  }
  const Pwl b(std::move(ts), std::move(vs));
  check_algebra(a, b, "coincident");
  check_algebra(b, a, "coincident, swapped");
  check_algebra(a, a, "identical grids");
  // -0.0 and +0.0 compare equal: the tie must keep the left operand's
  // knot, sign bit included.
  const Pwl neg({-0.0, 1.0}, {0.5, 1.5});
  const Pwl pos({0.0, 2.0}, {-1.0, 1.0});
  check_algebra(neg, pos, "signed-zero tie");
  check_algebra(pos, neg, "signed-zero tie, swapped");
}

TEST(PwlFastPaths, AlgebraDisjointSpans) {
  const Pwl a = wiggly(7, 0.0);
  const Pwl b = wiggly(8, a.t_end() + 5e-12);  // Entirely after `a`.
  check_algebra(a, b, "a before b");
  check_algebra(b, a, "b before a");
  // Touching spans: b starts exactly where a ends.
  const Pwl c({a.t_end(), a.t_end() + 1e-12}, {0.3, -0.2});
  check_algebra(a, c, "touching");
}

TEST(PwlFastPaths, AlgebraTwoSampleAndEmptyOperands) {
  const Pwl w = wiggly(9, 0.0);
  const Pwl r = Pwl::ramp(5e-12, 10e-12, 0.0, 1.8);
  const Pwl k = Pwl::constant(0.4, 1e-12, 2e-12);
  check_algebra(w, r, "wiggly/ramp");
  check_algebra(r, w, "ramp/wiggly");
  check_algebra(r, k, "ramp/constant");
  check_algebra(k, r, "constant/ramp");

  const Pwl e;
  expect_bitwise(e + r, r, "e+r");
  expect_bitwise(r + e, r, "r+e");
  expect_bitwise(r - e, r, "r-e");
  expect_bitwise(e - r, r.scaled(-1.0), "e-r");
  expect_bitwise(e.add_shifted(r, 2e-12), r.shifted(2e-12), "e.add_shifted");
  expect_bitwise(r.add_shifted(e, 2e-12), r, "r.add_shifted(e)");
  EXPECT_TRUE((e + e).empty());
  EXPECT_TRUE((e - e).empty());
}

TEST(PwlFastPaths, ShiftedKnotsRoundingTogether) {
  // Knots one ulp apart collapse when shifted by a much larger dt; the
  // fused merge must dedupe them exactly as std::unique did.
  const double t = 1e-12;
  const Pwl b({t, std::nextafter(t, 1.0), 2 * t}, {0.0, 1.0, 0.5});
  const Pwl a({0.0, 1e-3}, {0.2, 0.9});
  for (double dt : {1e-6, 1e-4}) {
    std::vector<double> ts, vs;
    ref_combine(a, b.shifted(dt), false, ts, vs);
    expect_bitwise(a.add_shifted(b, dt), ts, vs, "collapsed knots");
  }
}

TEST(PwlFastPaths, SelfSubtractionIsPositiveZero) {
  for (const Pwl& w : {wiggly(10, 0.0), Pwl::ramp(0.0, 1e-12, 1.8, 0.0),
                       Pwl({0.0, 1.0}, {-0.0, 0.0})}) {
    const Pwl d = w - w;
    ASSERT_EQ(d.size(), w.size());
    for (double v : d.values()) EXPECT_EQ(bits(v), bits(0.0));
  }
}

TEST(PwlFastPaths, ResampledAndDifferentiateMatchReference) {
  const Pwl w = wiggly(11, 0.0);
  const double t0 = w.t_begin(), t1 = w.t_end();
  expect_bitwise(w.resampled(t0, t1, 97), ref_resampled(w, t0, t1, 97),
                 "inside");
  // Wider than the data: clamped head and tail.
  expect_bitwise(w.resampled(t0 - 5e-12, t1 + 5e-12, 301),
                 ref_resampled(w, t0 - 5e-12, t1 + 5e-12, 301), "clamped");
  // Coarser than the knots: the cursor skips several segments per query.
  expect_bitwise(w.resampled(t0, t1, 7), ref_resampled(w, t0, t1, 7),
                 "coarse");
  // A grid landing exactly on every knot.
  const Pwl unit({0, 1, 2, 3, 4, 5, 6, 7, 8}, {0, 3, -1, 4, 1, -5, 9, 2, 6});
  expect_bitwise(unit.resampled(0.0, 8.0, 9), ref_resampled(unit, 0.0, 8.0, 9),
                 "on knots");
  expect_bitwise(unit.resampled(0.0, 8.0, 33),
                 ref_resampled(unit, 0.0, 8.0, 33), "on and between knots");
  const Pwl two = Pwl::ramp(1e-12, 4e-12, 0.0, 1.8);
  expect_bitwise(two.resampled(0.0, 6e-12, 50),
                 ref_resampled(two, 0.0, 6e-12, 50), "two samples");
  expect_bitwise(Pwl{}.resampled(0.0, 1.0, 4), ref_resampled(Pwl{}, 0.0, 1.0, 4),
                 "empty");

  for (double dt : {0.1e-12, 0.37e-12, 2e-12}) {
    expect_bitwise(differentiate(w, dt), ref_differentiate(w, dt),
                   "differentiate dt=" + std::to_string(dt));
    expect_bitwise(differentiate(two, dt), ref_differentiate(two, dt),
                   "differentiate two-sample dt=" + std::to_string(dt));
  }
}

}  // namespace
}  // namespace dn
