// Ablations over the flow's design choices:
//   A. PRIMA reduce-once on the real superposition circuit (Figure 1(b)):
//      accuracy of the reduced-order noise waveform vs the full MNA sim —
//      the paper's premise that one reduced model serves every driver sim.
//   B. Outer model<->alignment fix-point passes (paper: "one or two
//      iterations are needed").
//   C. Inner Rtr iterations (paper: "a single or at most two").
//   D. Transient step-size sensitivity of the reported delay noise.
#include <cmath>
#include <iostream>

#include "bench_util.hpp"
#include "circuit/mna.hpp"
#include "core/delay_noise.hpp"
#include "mor/prima.hpp"

using namespace dn;
using namespace dn::bench;
using namespace dn::units;

namespace {

/// Builds the Figure 1(b) circuit (aggressor 0 switching, victim held) for
/// the example net as a descriptor system with the aggressor source as the
/// input and the victim sink as the output.
DescriptorSystem fig1b_system(const CoupledNet& net, double victim_holding_r,
                              double agg_rth, Circuit& ckt, Pwl* src_wave,
                              double horizon) {
  const auto vmap = net.victim.net.instantiate(ckt, "v");
  ckt.add_resistor(vmap[0], kGround, victim_holding_r);
  ckt.add_capacitor(vmap[0], kGround,
                    net.victim.driver.output_parasitic_cap());
  ckt.add_capacitor(vmap[static_cast<std::size_t>(net.victim.net.sink)],
                    kGround, net.victim.receiver.input_cap());
  const auto amap = net.aggressors[0].net.instantiate(ckt, "a");
  ckt.add_capacitor(amap[static_cast<std::size_t>(net.aggressors[0].net.sink)],
                    kGround, net.aggressors[0].sink_load);
  for (const auto& cc : net.couplings)
    ckt.add_capacitor(amap[static_cast<std::size_t>(cc.aggressor_node)],
                      vmap[static_cast<std::size_t>(cc.victim_node)], cc.c);
  // Aggressor source: current injection through its Rth (Norton form of
  // the Thevenin source keeps B a pure current-incidence matrix).
  ckt.add_resistor(amap[0], kGround, agg_rth);
  (void)src_wave;
  (void)horizon;

  MnaSystem mna(ckt);
  DescriptorSystem sys;
  sys.G = mna.Gs().to_dense();
  sys.C = mna.Cs().to_dense();
  sys.B = Matrix(mna.dim(), 1);
  sys.B(mna.node_index(amap[0]), 0) = 1.0;
  sys.L = Matrix(mna.dim(), 1);
  sys.L(mna.node_index(vmap[static_cast<std::size_t>(net.victim.net.sink)]),
        0) = 1.0;
  return sys;
}

}  // namespace

int main(int argc, char** argv) {
  (void)argc;
  (void)argv;
  print_header("Design-choice ablations",
               "PRIMA-reduced flow circuits match full-order; one or two "
               "iterations suffice everywhere; dt-insensitive results");

  CoupledNet net = example_coupled_net(1);
  SuperpositionOptions sup;
  SuperpositionEngine eng(net, sup);
  bool ok = true;

  // --- A: PRIMA on the Figure 1(b) circuit --------------------------------
  {
    const double rth_v = eng.victim_model().model.rth;
    const TheveninModel& am = eng.aggressor_model(0).model;
    Circuit ckt;
    const DescriptorSystem sys =
        fig1b_system(net, rth_v, am.rth, ckt, nullptr, sup.horizon);
    // Norton current: i(t) = v_src(t) / rth (deviation source).
    TheveninModel noise_src = am;
    noise_src.v_from = 0.0;
    noise_src.v_to = -net.aggressors[0].driver.vdd;
    const Pwl i_in = noise_src.source(sup.horizon).scaled(1.0 / am.rth);

    const TransientSpec spec{0.0, sup.horizon, sup.dt};
    const Pwl y_full = simulate_descriptor(sys, {i_in}, spec)[0];
    Table tbl({"order", "noise_peak_V", "rms_err_pct_of_peak"});
    const double peak = std::abs(y_full.peak().value);
    double err8 = 1e9;
    for (int order : {2, 4, 8, 12}) {
      const ReducedModel rm = prima(sys, order);
      const Pwl y = simulate_descriptor(rm.sys, {i_in}, spec)[0];
      double acc = 0.0;
      int n = 0;
      for (double t = 0; t <= sup.horizon; t += 10 * ps, ++n) {
        const double d = y.at(t) - y_full.at(t);
        acc += d * d;
      }
      const double rms = std::sqrt(acc / n) / peak * 100.0;
      if (order == 8) err8 = rms;
      tbl.add_row_values({static_cast<double>(order), y.peak().value, rms});
    }
    tbl.print(std::cout);
    std::printf("(full order: %zu states, noise peak %.4f V)\n\n",
                sys.G.rows(), y_full.peak().value);
    ok &= check("A: order-8 PRIMA noise waveform within 1% RMS of full",
                err8 < 1.0);
  }

  // --- B: outer model<->alignment passes ----------------------------------
  {
    Table tbl({"outer_passes", "delay_noise_ps", "holding_r_ohm"});
    double d1 = 0, d2 = 0, d3 = 0;
    for (int passes : {1, 2, 3}) {
      DelayNoiseOptions opts;
      opts.method = AlignmentMethod::Exhaustive;
      opts.model_alignment_iterations = passes;
      const DelayNoiseResult r = analyze_delay_noise(eng, opts);
      tbl.add_row_values({static_cast<double>(passes), r.delay_noise() / ps,
                          r.holding_r});
      if (passes == 1) d1 = r.delay_noise();
      if (passes == 2) d2 = r.delay_noise();
      if (passes == 3) d3 = r.delay_noise();
    }
    tbl.print(std::cout);
    std::printf("\n");
    ok &= check("B: pass 3 changes the result by < 2% vs pass 2",
                std::abs(d3 - d2) < 0.02 * std::abs(d2));
    ok &= check("B: pass 2 already within 5% of pass 3",
                std::abs(d2 - d3) < 0.05 * std::abs(d3) + 1e-15);
    (void)d1;
  }

  // --- C: inner Rtr iterations --------------------------------------------
  {
    Table tbl({"rtr_max_iters", "delay_noise_ps", "rtr_ohm"});
    double d2 = 0, d4 = 0;
    for (int iters : {1, 2, 4}) {
      DelayNoiseOptions opts;
      opts.method = AlignmentMethod::Exhaustive;
      opts.rtr.max_iterations = iters;
      const DelayNoiseResult r = analyze_delay_noise(eng, opts);
      tbl.add_row_values({static_cast<double>(iters), r.delay_noise() / ps,
                          r.holding_r});
      if (iters == 2) d2 = r.delay_noise();
      if (iters == 4) d4 = r.delay_noise();
    }
    tbl.print(std::cout);
    std::printf("\n");
    ok &= check("C: two Rtr iterations within 2% of four",
                std::abs(d2 - d4) < 0.02 * std::abs(d4));
  }

  // --- D: step-size sensitivity -------------------------------------------
  {
    Table tbl({"dt_ps", "delay_noise_ps"});
    double d1 = 0, d2 = 0;
    for (double dt : {1 * ps, 2 * ps}) {
      SuperpositionOptions s2 = sup;
      s2.dt = dt;
      SuperpositionEngine e2(net, s2);
      DelayNoiseOptions opts;
      opts.method = AlignmentMethod::Exhaustive;
      opts.search.dt = dt;
      const DelayNoiseResult r = analyze_delay_noise(e2, opts);
      tbl.add_row_values({dt / ps, r.delay_noise() / ps});
      if (dt == 1 * ps) d1 = r.delay_noise();
      else d2 = r.delay_noise();
    }
    tbl.print(std::cout);
    std::printf("\n");
    ok &= check("D: halving dt moves the result by < 3%",
                std::abs(d1 - d2) < 0.03 * std::abs(d1));
  }
  return ok ? 0 : 1;
}
