// Alignment machinery tests (core/alignment.*, core/composite_pulse.*).
#include "core/alignment.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "core/composite_pulse.hpp"
#include "core/superposition.hpp"
#include "devices/gate.hpp"
#include "rcnet/random_nets.hpp"
#include "util/metrics.hpp"
#include "util/units.hpp"

namespace dn {
namespace {

using namespace dn::units;

constexpr double kVdd = 1.8;

GateParams receiver_x2() {
  GateParams g;
  g.type = GateType::Inverter;
  g.size = 2.0;
  return g;
}

Pwl canonical_rise(double slew = 200 * ps) {
  return Pwl::ramp(2 * ns, slew, 0.0, kVdd);
}

/// One rising-input evaluation on a freshly built receiver sim.
ReceiverEval evaluate_once(const GateParams& rcv, const Pwl& vin,
                           double cload) {
  GateSim sim(rcv, cload);
  return evaluate_receiver(sim, vin, true);
}

TEST(EvaluateReceiver, CleanRampDelay) {
  const Pwl vin = canonical_rise();
  const ReceiverEval ev = evaluate_once(receiver_x2(), vin, 10 * fF);
  // Inverting receiver: output falls after the input passes threshold.
  const double t_in_50 = *vin.crossing(kVdd / 2, true);
  EXPECT_GT(ev.t_out_50, t_in_50);
  EXPECT_LT(ev.t_out_50, t_in_50 + 500 * ps);
  EXPECT_LT(ev.out_noise_peak, 0.05);
}

TEST(EvaluateReceiver, NoisePulseDelaysTheOutput) {
  const Pwl vin = canonical_rise();
  const double clean = evaluate_once(receiver_x2(), vin, 10 * fF).t_out_50;
  // Opposing pulse right at the 50% crossing.
  const double t50 = *vin.crossing(kVdd / 2, true);
  const Pwl noisy = vin + triangle_pulse(-0.5, 150 * ps, t50 + 50 * ps);
  const double dirty = evaluate_once(receiver_x2(), noisy, 10 * fF).t_out_50;
  EXPECT_GT(dirty, clean + 20 * ps);
}

TEST(EvaluateReceiver, LargeLoadFiltersNoiseAtOutput) {
  const Pwl vin = canonical_rise(100 * ps);
  const double t50 = *vin.crossing(kVdd / 2, true);
  const Pwl noisy = vin + triangle_pulse(-0.4, 60 * ps, t50 + 300 * ps);
  const ReceiverEval small = evaluate_once(receiver_x2(), noisy, 3 * fF);
  const ReceiverEval large = evaluate_once(receiver_x2(), noisy, 150 * fF);
  // The late pulse re-disturbs a small-load output far more than a
  // heavily loaded one (the receiver acts as a low-pass filter).
  EXPECT_GT(small.out_noise_peak, large.out_noise_peak);
}

TEST(ShiftPulsePeakTo, MovesThePeak) {
  const Pwl p = triangle_pulse(-0.3, 100 * ps, 1 * ns);
  double shift = 0.0;
  const Pwl moved = shift_pulse_peak_to(p, 1.7 * ns, &shift);
  EXPECT_NEAR(shift, 0.7 * ns, 1e-15);
  EXPECT_NEAR(measure_pulse(moved).t_peak, 1.7 * ns, 1 * ps);
}

TEST(ExhaustiveAlignment, BeatsEverySampledAlternative) {
  const Pwl ramp = canonical_rise();
  const Pwl pulse = triangle_pulse(-0.45, 150 * ps, 2 * ns);
  const GateParams rcv = receiver_x2();
  AlignmentSearchOptions opts;
  opts.coarse_points = 21;
  opts.fine_points = 9;
  const AlignmentResult best =
      exhaustive_worst_alignment(ramp, pulse, rcv, 5 * fF, true, opts);

  for (double dt_peak = -400 * ps; dt_peak <= 400 * ps; dt_peak += 100 * ps) {
    const double t = *ramp.crossing(kVdd / 2, true) + dt_peak;
    const Pwl noisy = ramp + shift_pulse_peak_to(pulse, t, nullptr);
    const double d = evaluate_once(rcv, noisy, 5 * fF).t_out_50;
    EXPECT_GE(best.t_out_50 + 2 * ps, d) << "dt=" << dt_peak;
  }
}

TEST(ExhaustiveAlignment, WorstLandsNearTheTransition) {
  const Pwl ramp = canonical_rise();
  const Pwl pulse = triangle_pulse(-0.4, 120 * ps, 2 * ns);
  const AlignmentResult best = exhaustive_worst_alignment(
      ramp, pulse, receiver_x2(), 5 * fF, true);
  // Worst-case alignment voltage sits in the upper half of a rising
  // transition (around Vdd/2 + Vn, per [5]/Figure 3 discussion).
  EXPECT_GT(best.align_voltage, 0.5 * kVdd);
  EXPECT_LT(best.align_voltage, kVdd);
}

TEST(ExhaustiveAlignment, RespectsTimingWindow) {
  const Pwl ramp = canonical_rise();
  const Pwl pulse = triangle_pulse(-0.4, 120 * ps, 2 * ns);
  AlignmentSearchOptions opts;
  const double t50 = *ramp.crossing(kVdd / 2, true);
  opts.domain = ScanDomain::interval(t50 - 300 * ps,
                                     t50 - 150 * ps);  // Forced early.
  const AlignmentResult r = exhaustive_worst_alignment(
      ramp, pulse, receiver_x2(), 5 * fF, true, opts);
  EXPECT_GE(r.t_peak, opts.domain.lo() - 1 * ps);
  EXPECT_LE(r.t_peak, opts.domain.hi() + 1 * ps);
}

TEST(ReceiverInputAlignment, PeaksAtVddHalfPlusVn) {
  const Pwl ramp = canonical_rise();
  const double vn = 0.35;
  const Pwl pulse = triangle_pulse(-vn, 120 * ps, 2 * ns);
  const AlignmentResult r = receiver_input_peak_alignment(
      ramp, pulse, receiver_x2(), 5 * fF, true);
  EXPECT_NEAR(r.align_voltage, kVdd / 2 + vn, 0.02);
}

TEST(ReceiverInputAlignment, FallingVictimMirrors) {
  const Pwl ramp = Pwl::ramp(2 * ns, 200 * ps, kVdd, 0.0);
  const double vn = 0.3;
  const Pwl pulse = triangle_pulse(vn, 120 * ps, 2 * ns);
  const AlignmentResult r = receiver_input_peak_alignment(
      ramp, pulse, receiver_x2(), 5 * fF, false);
  EXPECT_NEAR(r.align_voltage, kVdd / 2 - vn, 0.02);
}

TEST(CompositePulse, PeakAlignmentMaximizesHeight) {
  CoupledNet net = example_coupled_net(2);
  SuperpositionEngine eng(net);
  const double rth = eng.victim_model().model.rth;
  const CompositeAlignment aligned = align_aggressor_peaks(eng, rth);
  // Skewing one aggressor away must not increase the composite height.
  for (double skew : {-200 * ps, -100 * ps, 100 * ps, 200 * ps}) {
    const CompositeAlignment skewed = align_with_skew(eng, rth, 1, skew);
    EXPECT_LE(std::abs(skewed.params.height),
              std::abs(aligned.params.height) + 1e-3)
        << "skew=" << skew;
  }
  // And it must widen the composite pulse.
  const CompositeAlignment far_skew = align_with_skew(eng, rth, 1, 300 * ps);
  EXPECT_GE(far_skew.params.width, aligned.params.width - 1 * ps);
}

TEST(CompositePulse, NoAggressorsThrows) {
  CoupledNet net = example_coupled_net(1);
  net.aggressors.clear();
  net.couplings.clear();
  SuperpositionEngine eng(net);
  EXPECT_THROW(align_aggressor_peaks(eng, 1000.0), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// ScanDomain
// ---------------------------------------------------------------------------

TEST(ScanDomain, UnconstrainedSamplesExactLinspace) {
  const ScanDomain d;
  EXPECT_TRUE(d.unconstrained());
  EXPECT_FALSE(d.empty());
  const auto pts = d.sample(1.0, 3.0, 5);
  ASSERT_EQ(pts.size(), 5u);
  // Bit-exact linspace: the unpruned scan must reproduce the classic
  // search byte-for-byte.
  const double step = (3.0 - 1.0) / 4.0;
  for (int i = 0; i < 5; ++i) EXPECT_EQ(pts[static_cast<std::size_t>(i)], 1.0 + step * i);
}

TEST(ScanDomain, SingleCoveringIntervalSamplesExactLinspace) {
  ScanDomain d;
  d.intersect(0.0, 10.0);  // Covers the whole requested span.
  const auto pts = d.sample(1.0, 3.0, 5);
  const auto ref = ScanDomain().sample(1.0, 3.0, 5);
  ASSERT_EQ(pts.size(), ref.size());
  for (std::size_t i = 0; i < pts.size(); ++i) EXPECT_EQ(pts[i], ref[i]);
}

TEST(ScanDomain, IntersectAndContains) {
  ScanDomain d;
  d.intersect(0.0, 10.0);
  d.intersect(5.0, 20.0);
  EXPECT_FALSE(d.unconstrained());
  EXPECT_TRUE(d.contains(7.0));
  EXPECT_FALSE(d.contains(4.0));
  EXPECT_FALSE(d.contains(11.0));
  EXPECT_EQ(d.lo(), 5.0);
  EXPECT_EQ(d.hi(), 10.0);
  d.intersect(20.0, 30.0);  // Disjoint from [5,10]: nothing left.
  EXPECT_TRUE(d.empty());
}

TEST(ScanDomain, ClampFindsNearestFeasiblePoint) {
  ScanDomain d;
  d.intersect(0.0, 2.0);
  d.intersect(1.0, 5.0);  // [1, 2].
  EXPECT_EQ(d.clamp(1.5), 1.5);
  EXPECT_EQ(d.clamp(-3.0), 1.0);
  EXPECT_EQ(d.clamp(9.0), 2.0);
}

TEST(ScanDomain, EmptySpanYieldsNoSamples) {
  ScanDomain d;
  d.intersect(100.0, 200.0);
  EXPECT_TRUE(d.sample(0.0, 10.0, 7).empty());
}

TEST(ScanDomain, PointSamplesOnce) {
  // A zero-width feasible part is one probe time, however many points
  // were asked for: repeating it would re-run the same receiver sim.
  const ScanDomain point = ScanDomain::interval(2.0, 2.0);
  EXPECT_EQ(point.sample(0.0, 10.0, 17), std::vector<double>{2.0});
  const ScanDomain touching = ScanDomain::interval(3.0, 5.0);
  EXPECT_EQ(touching.sample(0.0, 3.0, 9), std::vector<double>{3.0});
}

TEST(ExhaustiveAlignment, PointDomainProbesOnce) {
  Rng rng(3);
  const CoupledNet net = random_coupled_net(rng);
  SuperpositionEngine eng(net);
  const CompositeAlignment comp =
      align_aggressor_peaks(eng, eng.victim_model().model.rth);
  const Pwl& sink = eng.victim_transition().at_sink;
  const bool rising = net.victim.output_rising;
  const double t50 = *sink.crossing(0.5 * eng.vdd(), rising);
  AlignmentSearchOptions opts;
  opts.domain = ScanDomain::interval(t50, t50);
  obs::set_metrics_enabled(true);
  obs::Counter& evals = obs::metrics().counter("alignment.receiver_evals");
  const std::uint64_t evals0 = evals.value();
  const AlignmentResult r = exhaustive_worst_alignment(
      sink, comp.at_sink, net.victim.receiver, net.victim.receiver_load,
      rising, opts);
  const std::uint64_t ran = evals.value() - evals0;
  obs::set_metrics_enabled(false);
  EXPECT_EQ(ran, 1u);
  EXPECT_EQ(r.t_peak, t50);
}

TEST(ExhaustiveAlignment, FinePassSkipsPointsTheCoarsePassRan) {
  // The default 33-point coarse pass wins at an interior point; the
  // 17-point fine pass over +- one coarse step lands on that point and
  // both its neighbours, which already ran: 33 + 17 - 3 receiver sims.
  const Pwl ramp = canonical_rise();
  const Pwl pulse = triangle_pulse(-0.4, 120 * ps, 2 * ns);
  const AlignmentSearchOptions opts;
  ASSERT_EQ(opts.coarse_points, 33);
  ASSERT_EQ(opts.fine_points, 17);
  obs::set_metrics_enabled(true);
  const obs::Counter& evals =
      obs::metrics().counter("alignment.receiver_evals");
  const std::uint64_t evals0 = evals.value();
  const AlignmentResult r = exhaustive_worst_alignment(
      ramp, pulse, receiver_x2(), 5 * fF, true, opts);
  const std::uint64_t ran = evals.value() - evals0;
  obs::set_metrics_enabled(false);
  EXPECT_EQ(ran, 47u);
  EXPECT_GT(r.align_voltage, 0.5 * kVdd);
}

// ---------------------------------------------------------------------------
// Batched alignment probing: all probes of a search re-drive one receiver
// GateSim (devices/gate.hpp). The whole point is that reuse changes
// NOTHING numerically — re-driven probes must be bitwise equal to a fresh
// GateSim per probe (EXPECT_EQ on double is the deliberate exact
// comparison; golden batch reports depend on it).

TEST(AlignmentBatched, SessionReuseBitIdenticalToFreshSession) {
  const GateParams rcv = receiver_x2();
  const Pwl ramp = canonical_rise();
  const Pwl pulse = triangle_pulse(-0.4, 120 * ps, 2 * ns);
  TransientSpec spec{0.0, 4 * ns, 1 * ps};
  spec.lte_tol = 5e-4;

  GateSim reused(rcv, 5 * fF);
  for (double dt_peak : {-150 * ps, -50 * ps, 0.0, 50 * ps, 150 * ps}) {
    const Pwl vin =
        ramp + shift_pulse_peak_to(
                   pulse, *ramp.crossing(kVdd / 2, true) + dt_peak, nullptr);
    const Pwl a = reused.try_run(vin, spec).value();
    GateSim fresh(rcv, 5 * fF);
    const Pwl b = fresh.try_run(vin, spec).value();
    ASSERT_EQ(a.times().size(), b.times().size()) << "dt=" << dt_peak;
    for (std::size_t i = 0; i < a.times().size(); ++i) {
      ASSERT_EQ(a.times()[i], b.times()[i]) << "dt=" << dt_peak << " i=" << i;
      ASSERT_EQ(a.values()[i], b.values()[i]) << "dt=" << dt_peak << " i=" << i;
    }
  }
}

TEST(AlignmentBatched, SearchMatchesPerProbeEvaluateReceiver) {
  // The batched search must land on the same numbers as independently
  // re-evaluating its winning alignment on a fresh receiver GateSim (cold
  // start on both sides).
  const Pwl ramp = canonical_rise();
  const Pwl pulse = triangle_pulse(-0.45, 150 * ps, 2 * ns);
  const GateParams rcv = receiver_x2();
  AlignmentSearchOptions opts;
  opts.coarse_points = 9;
  opts.fine_points = 5;
  opts.warm_start = false;
  const AlignmentResult best =
      exhaustive_worst_alignment(ramp, pulse, rcv, 5 * fF, true, opts);
  const Pwl noisy = ramp + shift_pulse_peak_to(pulse, best.t_peak, nullptr);
  GateSim fresh(rcv, 5 * fF);
  const ReceiverEval ev =
      evaluate_receiver(fresh, noisy, true, opts.dt, opts.lte_tol, nullptr,
                        opts.stale_jacobian_iters);
  EXPECT_EQ(ev.t_out_50, best.t_out_50);
}

TEST(AlignmentBatched, ProbesCountedInBatchMetrics) {
  const Pwl ramp = canonical_rise();
  const Pwl pulse = triangle_pulse(-0.4, 120 * ps, 2 * ns);
  AlignmentSearchOptions opts;
  opts.coarse_points = 7;
  opts.fine_points = 5;
  obs::set_metrics_enabled(true);
  const std::uint64_t probes0 =
      obs::metrics().counter("alignment.batched_probes").value();
  const std::uint64_t batches0 =
      obs::metrics().counter("alignment.probe_batches").value();
  (void)exhaustive_worst_alignment(ramp, pulse, receiver_x2(), 5 * fF, true,
                                   opts);
  const std::uint64_t probes =
      obs::metrics().counter("alignment.batched_probes").value() - probes0;
  const std::uint64_t batches =
      obs::metrics().counter("alignment.probe_batches").value() - batches0;
  obs::set_metrics_enabled(false);
  EXPECT_EQ(batches, 1u);  // One shared construction for the whole search.
  // Coarse pass + refinement probes, all through the batch.
  EXPECT_GE(probes, static_cast<std::uint64_t>(opts.coarse_points));
}

}  // namespace
}  // namespace dn
