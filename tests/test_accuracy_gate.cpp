// Tier-1 accuracy gate: the paper's Figure 13 claims, checked against the
// full nonlinear ("golden") simulation on a seeded population.
//
// The population is the one bench/bench_fig13_model_accuracy.cpp draws
// (weak slow victims, strong fast aggressors, a per-net arrival window
// that places the noise across the victim transition), cut to 40 nets so
// the gate runs in a couple of seconds. For each net both linear holding
// models are measured against the golden run at the same aggressor
// alignment:
//   - Rtr:      the proposed flow's delay noise (transient holding R);
//   - Thevenin: the same alignment with the victim held by Rth.
// The bounds come from the measured population; a numerics change may
// tighten them but never loosen them.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "clarinet/analyzer.hpp"
#include "core/baselines.hpp"
#include "rcnet/random_nets.hpp"
#include "util/rng.hpp"
#include "util/statistics.hpp"
#include "util/units.hpp"

namespace dn {
namespace {

using namespace dn::units;

/// Delay noise per net, one entry per model.
struct Fig13Population {
  std::vector<double> golden, thevenin, rtr;
};

Fig13Population run_fig13_population(int n_nets, std::uint64_t seed) {
  Rng rng(seed);
  SuperpositionOptions sup;
  RandomNetConfig wl;
  wl.victim_sizes = {1.0, 1.0, 1.0, 2.0};
  wl.aggressor_sizes = {4.0, 4.0, 8.0};
  wl.slew_min = 40e-12;
  wl.slew_max = 160e-12;

  AnalyzerConfig acfg;
  acfg.table_spec.search.coarse_points = 33;
  acfg.table_spec.search.fine_points = 13;
  NoiseAnalyzer tables(acfg);

  Fig13Population pop;
  for (int i = 0; i < n_nets; ++i) {
    CoupledNet net = random_coupled_net(rng, wl);
    net.victim.input_slew = rng.uniform(150e-12, 400e-12);
    const double frac = rng.uniform(0.10, 0.50);
    SuperpositionEngine eng(net, sup);
    const bool rising = net.victim.output_rising;
    const double level = rising ? frac * eng.vdd() : (1.0 - frac) * eng.vdd();
    const auto t_center = eng.victim_transition().at_sink.crossing(level, rising);
    if (!t_center) continue;

    DelayNoiseOptions opts;
    opts.method = AlignmentMethod::Predicted;
    opts.table = tables.table_for(net.victim.receiver, rising);
    opts.search.window_min = *t_center - 60 * ps;
    opts.search.window_max = *t_center + 60 * ps;

    const DelayNoiseResult r = analyze_delay_noise(eng, opts);
    const std::vector<double> shifts = absolute_shifts(r);
    const Pwl noisy_rth =
        r.noiseless_sink + eng.composite_noise_at_sink(shifts, r.rth);
    const double t_thev = evaluate_receiver(net.victim.receiver, noisy_rth,
                                            net.victim.receiver_load, rising)
                              .t_out_50;

    const GoldenResult g = golden_nonlinear(net, shifts, sup);
    if (g.delay_noise() < 8 * ps) continue;  // % error meaningless near 0.
    pop.golden.push_back(g.delay_noise());
    pop.thevenin.push_back(t_thev - r.nominal_t50);
    pop.rtr.push_back(r.delay_noise());
  }
  return pop;
}

TEST(AccuracyGate, Fig13HoldingModelsAgainstGolden) {
  const Fig13Population pop = run_fig13_population(40, 1);
  ASSERT_GE(pop.golden.size(), 30u);
  const ErrorStats thev = error_stats(pop.thevenin, pop.golden);
  const ErrorStats rtr = error_stats(pop.rtr, pop.golden);
  RecordProperty("rtr_mean_abs_pct", std::to_string(rtr.mean_abs_pct));
  RecordProperty("thevenin_mean_abs_pct", std::to_string(thev.mean_abs_pct));

  EXPECT_LE(rtr.mean_abs_pct, 15.0) << "Rtr mean |err| vs golden";
  EXPECT_GE(thev.mean_abs_pct, 1.5 * rtr.mean_abs_pct)
      << "Thevenin/Rtr mean-error ratio: " << thev.mean_abs_pct << "% / "
      << rtr.mean_abs_pct << "%";
  EXPECT_GE(thev.n_underestimate, 0.9 * thev.n)
      << "Thevenin underestimates in " << thev.n_underestimate << "/"
      << thev.n << " nets";
}

}  // namespace
}  // namespace dn
