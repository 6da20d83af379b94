// Tier-1 accuracy gate: the paper's Figure 13 and Figure 14 claims on
// seeded populations.
//
// Figure 13 is checked against the full nonlinear ("golden") simulation.
// The population is the one bench/bench_fig13_model_accuracy.cpp draws
// (weak slow victims, strong fast aggressors, a per-net arrival window
// that places the noise across the victim transition), cut to 40 nets so
// the gate runs in a couple of seconds. For each net both linear holding
// models are measured against the golden run at the same aggressor
// alignment:
//   - Rtr:      the proposed flow's delay noise (transient holding R);
//   - Thevenin: the same alignment with the victim held by Rth.
//
// Figure 14 is checked against the exhaustive worst-case alignment search
// on the population bench/bench_fig14_alignment_accuracy.cpp draws (the
// default random nets), cut to 40 nets. Each net is analyzed three times
// with the same Rtr flow: exhaustive receiver-output search, the
// table-predicted alignment, and the receiver-input peak method of [5].
//
// The bounds come from the measured populations; a numerics change may
// tighten them but never loosen them.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include <string>
#include <vector>

#include "clarinet/analyzer.hpp"
#include "core/baselines.hpp"
#include "core/composite_pulse.hpp"
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
    opts.table = tables.cache()->table_for(net.victim.receiver, rising);
    opts.search.domain =
        ScanDomain::interval(*t_center - 60 * ps, *t_center + 60 * ps);

    const DelayNoiseResult r = analyze_delay_noise(eng, opts);
    const std::vector<double> shifts = absolute_shifts(r);
    const Pwl noisy_rth =
        r.noiseless_sink + eng.composite_noise_at_sink(shifts, r.rth);
    GateSim rcv(net.victim.receiver, net.victim.receiver_load);
    const double t_thev = evaluate_receiver(rcv, noisy_rth, rising).t_out_50;

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

/// Delay noise per net, one entry per alignment method.
struct Fig14Population {
  std::vector<double> exhaustive, predicted, method5;
};

Fig14Population run_fig14_population(int n_nets, std::uint64_t seed) {
  Rng rng(seed);
  AnalyzerConfig acfg;
  acfg.table_spec.search.coarse_points = 33;
  acfg.table_spec.search.fine_points = 13;
  NoiseAnalyzer tables(acfg);

  Fig14Population pop;
  for (int i = 0; i < n_nets; ++i) {
    const CoupledNet net = random_coupled_net(rng);
    SuperpositionEngine eng(net);
    const bool rising = net.victim.output_rising;
    // A composite pulse near the functional-noise boundary has no bounded
    // worst-case delay alignment; the bench routes those nets elsewhere.
    const auto comp = align_aggressor_peaks(eng, eng.victim_model().model.rth);
    if (std::abs(comp.params.height) > 0.45 * eng.vdd()) continue;

    DelayNoiseOptions ex;
    ex.method = AlignmentMethod::Exhaustive;
    ex.search.coarse_points = 41;
    ex.search.fine_points = 17;
    const DelayNoiseResult r_ex = analyze_delay_noise(eng, ex);
    if (r_ex.delay_noise() < 5 * ps) continue;

    DelayNoiseOptions pred;
    pred.method = AlignmentMethod::Predicted;
    pred.table = tables.cache()->table_for(net.victim.receiver, rising);
    DelayNoiseOptions rip;
    rip.method = AlignmentMethod::ReceiverInputPeak;

    pop.exhaustive.push_back(r_ex.delay_noise());
    pop.predicted.push_back(analyze_delay_noise(eng, pred).delay_noise());
    pop.method5.push_back(analyze_delay_noise(eng, rip).delay_noise());
  }
  return pop;
}

/// Underestimation of each method against the exhaustive worst case,
/// floored at 0 (the paper's Figure 14 metric).
std::vector<double> underestimation(const std::vector<double>& method,
                                    const std::vector<double>& exhaustive) {
  std::vector<double> e;
  for (std::size_t i = 0; i < method.size(); ++i)
    e.push_back(std::max(exhaustive[i] - method[i], 0.0));
  return e;
}

TEST(AccuracyGate, Fig14PredictedAlignmentAgainstExhaustive) {
  const Fig14Population pop = run_fig14_population(40, 1);
  ASSERT_GE(pop.exhaustive.size(), 35u);
  const std::vector<double> e_pred =
      underestimation(pop.predicted, pop.exhaustive);
  const std::vector<double> e_rip =
      underestimation(pop.method5, pop.exhaustive);
  const double p90 = percentile(e_pred, 90);
  const double worst = max_of(e_pred);
  RecordProperty("predicted_p90_ps", std::to_string(p90 / ps));
  RecordProperty("predicted_worst_ps", std::to_string(worst / ps));

  EXPECT_LE(p90, 60 * ps) << "predicted p90 underestimation";
  EXPECT_LE(worst, 130 * ps) << "predicted worst underestimation";
  EXPECT_LT(worst, max_of(e_rip))
      << "proposed worst " << worst / ps << " ps vs method [5] worst "
      << max_of(e_rip) / ps << " ps";
  // The exhaustive search is the ceiling. It samples a finite grid, so a
  // predicted alignment between two samples may beat it by a little.
  for (std::size_t i = 0; i < pop.exhaustive.size(); ++i)
    EXPECT_GE(pop.exhaustive[i] + 3 * ps, pop.predicted[i]) << "net " << i;
}

}  // namespace
}  // namespace dn
