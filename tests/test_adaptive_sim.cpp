// Transient-engine rework tests: adaptive LTE stepping vs the fixed grid,
// batched device evaluation, stale-Jacobian (modified) Newton, and DC
// warm starts (sim/transient.*, sim/*_sim.*, devices/gate.*).
#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "devices/gate.hpp"
#include "devices/mosfet.hpp"
#include "sim/linear_sim.hpp"
#include "sim/nonlinear_sim.hpp"
#include "util/deadline.hpp"
#include "util/units.hpp"
#include "waveform/pulse.hpp"

namespace dn {
namespace {

using namespace dn::units;

constexpr double kVdd = 1.8;

Circuit rc_ladder(NodeId* out_sink) {
  Circuit c;
  const NodeId in = c.node("in");
  c.add_vsource(in, kGround, Pwl::ramp(100 * ps, 80 * ps, 0.0, kVdd));
  NodeId prev = in;
  for (int k = 0; k < 8; ++k) {
    const NodeId n = c.node("n" + std::to_string(k));
    c.add_resistor(prev, n, 500.0);
    c.add_capacitor(n, kGround, 20 * fF);
    prev = n;
  }
  *out_sink = prev;
  return c;
}

Circuit inverter_chain(NodeId* out_sink) {
  Circuit c;
  const NodeId vdd = add_vdd(c, kVdd);
  const NodeId in = c.node("in");
  c.add_vsource(in, kGround, Pwl::ramp(100 * ps, 100 * ps, 0.0, kVdd));
  GateParams g;
  g.size = 2.0;
  NodeId prev = in;
  for (int k = 0; k < 3; ++k) {
    const NodeId n = c.node("s" + std::to_string(k));
    instantiate_gate(c, g, prev, n, vdd);
    c.add_capacitor(n, kGround, 20 * fF);
    prev = n;
  }
  *out_sink = prev;
  return c;
}

// Both simulators poll the ambient deadline in the shared stepping loop
// (NonlinearSim also in its DC Newton): under an expired scope every run
// stops with kDeadlineExceeded naming the simulator, and a live scope
// leaves the result untouched.
template <class Sim>
void expect_deadline_stops(const Sim& sim, const char* name, NodeId sink) {
  TransientSpec fixed{0.0, 2 * ns, 0.5 * ps};
  TransientSpec adaptive = fixed;
  adaptive.lte_tol = 2e-4;
  for (const TransientSpec& spec : {fixed, adaptive}) {
    const TransientResult free_run = sim.try_run(spec).value();
    {
      ScopedDeadline live(Deadline::after(60.0));
      const TransientResult r = sim.try_run(spec).value();
      ASSERT_EQ(r.time(), free_run.time());
      for (std::size_t k = 0; k < r.num_points(); ++k)
        EXPECT_EQ(r.v(sink, k), free_run.v(sink, k));
    }
    ScopedDeadline dead(Deadline::after(-1.0));
    const auto r = sim.try_run(spec);
    ASSERT_FALSE(r.ok()) << "lte_tol=" << spec.lte_tol;
    EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
    EXPECT_NE(r.status().message().find(name), std::string::npos)
        << r.status().message();
  }
}

TEST(SimDeadline, LinearSimStopsUnderExpiredScope) {
  NodeId sink = kGround;
  const Circuit c = rc_ladder(&sink);
  expect_deadline_stops(LinearSim(c), "LinearSim::run", sink);
}

TEST(SimDeadline, NonlinearSimStopsUnderExpiredScope) {
  NodeId sink = kGround;
  const Circuit c = inverter_chain(&sink);
  expect_deadline_stops(NonlinearSim(c), "NonlinearSim::", sink);
}

TEST(AdaptiveSim, LinearMatchesFixedGridWithinTolerance) {
  NodeId sink = kGround;
  const Circuit c = rc_ladder(&sink);
  LinearSim sim(c);
  TransientSpec fixed{0.0, 2 * ns, 0.5 * ps};
  const Pwl ref = sim.try_run(fixed).value().waveform(sink);
  TransientSpec adaptive = fixed;
  adaptive.lte_tol = 2e-4;
  const auto res = sim.try_run(adaptive).value();
  const Pwl v = res.waveform(sink);
  // Tolerance covers interpolation BETWEEN sparse accepted samples, which
  // runs ~10x the per-step LTE bound through the ramp onset.
  for (double t = 0; t <= 2 * ns; t += 10 * ps)
    EXPECT_NEAR(v.at(t), ref.at(t), 5e-3) << "t=" << t;
  // Adaptivity must actually pay: far fewer samples than the fixed grid.
  EXPECT_LT(res.num_points(), 4000u / 4u);
}

TEST(AdaptiveSim, NonlinearMatchesFixedGridWithinTolerance) {
  NodeId sink = kGround;
  const Circuit c = inverter_chain(&sink);
  NonlinearSim sim(c);
  TransientSpec fixed{0.0, 2 * ns, 0.5 * ps};
  const auto ref_res = sim.try_run(fixed).value();
  const Pwl ref = ref_res.waveform(sink);
  TransientSpec adaptive = fixed;
  adaptive.lte_tol = 2e-4;
  const auto res = sim.try_run(adaptive).value();
  const Pwl v = res.waveform(sink);
  for (double t = 0; t <= 2 * ns; t += 10 * ps)
    EXPECT_NEAR(v.at(t), ref.at(t), 6e-3) << "t=" << t;
  const auto t50_ref = ref.crossing(kVdd / 2, false);
  const auto t50 = v.crossing(kVdd / 2, false);
  ASSERT_TRUE(t50_ref && t50);
  EXPECT_NEAR(*t50, *t50_ref, 1 * ps);
  EXPECT_LT(res.num_points(), ref_res.num_points() / 3);
}

TEST(AdaptiveSim, ShortNoisePulseIsNotSteppedOver) {
  // A 30 ps triangular current pulse injected late into a settled RC node:
  // by then the adaptive controller is on its largest rung, and only the
  // source-breakpoint clamping keeps it from striding across the pulse.
  auto peak_with = [](double lte_tol) {
    Circuit c;
    const NodeId v = c.node("v");
    c.add_resistor(v, kGround, 1 * kOhm);
    c.add_capacitor(v, kGround, 10 * fF);
    c.add_isource(v, kGround, triangle_pulse(0.2 * mA, 30 * ps, 3 * ns));
    LinearSim sim(c);
    TransientSpec spec{0.0, 4 * ns, 1 * ps};
    spec.lte_tol = lte_tol;
    return sim.try_run(spec).value().waveform(v).peak().value;
  };
  const double fixed = peak_with(0.0);
  const double adaptive = peak_with(5e-4);
  EXPECT_GT(fixed, 0.05);
  EXPECT_NEAR(adaptive, fixed, 0.05 * fixed);
}

TEST(AdaptiveSim, StaleNewtonMatchesFullNewton) {
  NodeId sink = kGround;
  const Circuit c = inverter_chain(&sink);
  TransientSpec spec{0.0, 2 * ns, 1 * ps};
  spec.lte_tol = 2e-4;
  NewtonOptions full;
  full.stale_jacobian_iters = 0;  // Classic: factor every iteration.
  NewtonOptions stale;
  stale.stale_jacobian_iters = 8;
  const Pwl a = NonlinearSim(c, full).try_run(spec).value().waveform(sink);
  const Pwl b = NonlinearSim(c, stale).try_run(spec).value().waveform(sink);
  // Both converge to the same v_tol; only the iteration path differs.
  for (double t = 0; t <= 2 * ns; t += 10 * ps)
    EXPECT_NEAR(a.at(t), b.at(t), 1e-3) << "t=" << t;
}

TEST(AdaptiveSim, StaleNewtonConvergesOnStiffNet) {
  // Stiff case: a big driver slamming a tiny cap through a huge resistor
  // gives widely separated time constants; the chord iteration must fall
  // back to fresh factors (or dt backoff) rather than diverge.
  Circuit c;
  const NodeId vdd = add_vdd(c, kVdd);
  const NodeId in = c.node("in");
  const NodeId out = c.node("out");
  const NodeId far = c.node("far");
  c.add_vsource(in, kGround, Pwl::ramp(50 * ps, 10 * ps, 0.0, kVdd));
  GateParams g;
  g.size = 8.0;
  instantiate_gate(c, g, in, out, vdd);
  c.add_capacitor(out, kGround, 200 * fF);
  c.add_resistor(out, far, 100 * kOhm);
  c.add_capacitor(far, kGround, 1 * fF);
  NewtonOptions stale;
  stale.stale_jacobian_iters = 8;
  TransientSpec spec{0.0, 2 * ns, 1 * ps};
  spec.lte_tol = 5e-4;
  NonlinearSim sim(c, stale);
  const auto res = sim.try_run(spec);
  ASSERT_TRUE(res.ok()) << res.status().to_string();
  EXPECT_NEAR(res->waveform(out).at(2 * ns), 0.0, 0.02);
}

TEST(AdaptiveSim, BatchEvalIsBitIdenticalToScalar) {
  std::mt19937 rng(1234);
  std::uniform_real_distribution<double> volt(-0.5, 2.3);
  MosfetBatch batch;
  std::vector<MosfetParams> params;
  std::vector<double> vd, vg, vs;
  for (int i = 0; i < 64; ++i) {
    MosfetParams p;
    p.type = (i % 2) ? MosType::Pmos : MosType::Nmos;
    p.w = (1.0 + (i % 7)) * um;
    p.kp = (i % 2) ? 60e-6 : 170e-6;
    params.push_back(p);
    batch.push_back(p);
    vd.push_back(volt(rng));
    vg.push_back(volt(rng));
    vs.push_back(volt(rng));
  }
  std::vector<double> id(64), gm(64), gds(64);
  mosfet_eval_batch(batch, vd.data(), vg.data(), vs.data(), id.data(),
                    gm.data(), gds.data());
  for (int i = 0; i < 64; ++i) {
    const auto e = mosfet_eval(params[static_cast<std::size_t>(i)],
                               vd[static_cast<std::size_t>(i)],
                               vg[static_cast<std::size_t>(i)],
                               vs[static_cast<std::size_t>(i)]);
    const auto k = static_cast<std::size_t>(i);
    EXPECT_EQ(id[k], e.id) << i;    // Bit-identical, not just close.
    EXPECT_EQ(gm[k], e.gm) << i;
    EXPECT_EQ(gds[k], e.gds) << i;
  }
}

TEST(AdaptiveSim, WarmStartIsDeterministicAndAccurate) {
  GateParams g;
  g.size = 2.0;
  const Pwl vin = Pwl::ramp(100 * ps, 100 * ps, 0.0, kVdd);
  TransientSpec spec{0.0, 2 * ns, 1 * ps};
  spec.lte_tol = 5e-4;

  auto run_pair = [&](Vector* warm) {
    // Two sims of the same gate at different loads — the Ceff-iteration
    // shape. The second run reuses the first run's operating point.
    std::vector<Pwl> out;
    for (const double cload : {20 * fF, 60 * fF}) {
      GateSim sim(g, cload);
      out.push_back(sim.try_run(vin, spec, warm).value());
    }
    return out;
  };
  Vector chain_a, chain_b;
  const auto a = run_pair(&chain_a);
  const auto b = run_pair(&chain_b);
  const auto cold = run_pair(nullptr);
  ASSERT_FALSE(chain_a.empty());  // The chain was actually populated.
  for (int i : {0, 1}) {
    const auto k = static_cast<std::size_t>(i);
    // Same cache history => byte-identical waveforms (determinism).
    ASSERT_EQ(a[k].times().size(), b[k].times().size());
    for (std::size_t j = 0; j < a[k].times().size(); ++j) {
      EXPECT_EQ(a[k].times()[j], b[k].times()[j]);
      EXPECT_EQ(a[k].values()[j], b[k].values()[j]);
    }
    // Warm vs cold start: same converged solution to Newton tolerance.
    for (double t = 0; t <= 2 * ns; t += 20 * ps)
      EXPECT_NEAR(a[k].at(t), cold[k].at(t), 1e-6) << "i=" << i << " t=" << t;
  }
}

}  // namespace
}  // namespace dn
