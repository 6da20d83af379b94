// Figure 14: extra delay from the predicted alignment vs an exhaustive
// worst-case alignment search, for (a) the proposed receiver-OUTPUT
// objective (8-point table) and (b) the method of [5] which maximizes the
// receiver-INPUT (interconnect) delay.
//
// Paper result (300 nets): the proposed prediction's worst-case error is
// 15 ps vs 31 ps for [5]. Shape criteria: both methods underestimate the
// exhaustive worst case (it is the ceiling), and the proposed method's
// worst and mean errors are clearly smaller than [5]'s.
//
// Flags: --nets N (default 300), --seed S (default 1).
#include <cmath>

#include <iostream>
#include "bench_util.hpp"
#include "clarinet/analyzer.hpp"
#include "core/composite_pulse.hpp"

using namespace dn;
using namespace dn::bench;
using namespace dn::units;

int main(int argc, char** argv) {
  const int n_nets = int_flag(argc, argv, "--nets", 300);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(int_flag(argc, argv, "--seed", 1));
  print_header(
      "Figure 14 - predicted alignment vs exhaustive worst-case search",
      "receiver-output-objective prediction has a much smaller worst-case "
      "error than the receiver-input method of [5]");

  Rng rng(seed);
  AnalyzerConfig acfg;
  acfg.table_spec.search.coarse_points = 33;
  acfg.table_spec.search.fine_points = 13;
  NoiseAnalyzer tables(acfg);

  std::vector<double> ex_v, pred_v, rip_v;
  int skipped = 0, functional = 0;

  Table scatter({"net", "exhaustive_extra_ps", "predicted_extra_ps",
                 "method5_extra_ps"});

  for (int i = 0; i < n_nets; ++i) {
    const CoupledNet net = random_coupled_net(rng);
    try {
      SuperpositionEngine eng(net);
      const bool rising = net.victim.output_rising;

      // Nets whose composite pulse approaches the functional-noise
      // boundary (able to drag the settled victim past the receiver
      // threshold) have no bounded worst-case DELAY alignment — any later
      // re-trigger is "worse". A production tool flags them as functional
      // noise first; exclude them from the alignment comparison.
      {
        const auto comp =
            align_aggressor_peaks(eng, eng.victim_model().model.rth);
        if (std::abs(comp.params.height) > 0.45 * eng.vdd()) {
          ++functional;
          continue;
        }
      }

      DelayNoiseOptions ex;
      ex.method = AlignmentMethod::Exhaustive;
      ex.search.coarse_points = 41;
      ex.search.fine_points = 17;
      const DelayNoiseResult r_ex = analyze_delay_noise(eng, ex);
      if (r_ex.delay_noise() < 5 * ps) {
        ++skipped;
        continue;
      }

      DelayNoiseOptions pred;
      pred.method = AlignmentMethod::Predicted;
      pred.table = tables.cache()->table_for(net.victim.receiver, rising);
      const DelayNoiseResult r_pred = analyze_delay_noise(eng, pred);

      DelayNoiseOptions rip;
      rip.method = AlignmentMethod::ReceiverInputPeak;
      const DelayNoiseResult r_rip = analyze_delay_noise(eng, rip);

      ex_v.push_back(r_ex.delay_noise());
      pred_v.push_back(r_pred.delay_noise());
      rip_v.push_back(r_rip.delay_noise());
      scatter.add_row_values({static_cast<double>(i), r_ex.delay_noise() / ps,
                              r_pred.delay_noise() / ps,
                              r_rip.delay_noise() / ps});
    } catch (const std::exception& e) {
      ++skipped;
      std::fprintf(stderr, "net %d skipped: %s\n", i, e.what());
    }
  }

  std::printf("population: %zu nets analyzed, %d skipped (tiny noise or "
              "failures), %d routed to functional-noise analysis\n\n",
              ex_v.size(), skipped, functional);
  scatter.print(std::cout);
  std::printf("\nCSV:\n");
  scatter.print_csv(std::cout);

  // Errors vs the exhaustive ceiling, in ps (the paper's metric).
  double worst_pred = 0.0, worst_rip = 0.0, mean_pred = 0.0, mean_rip = 0.0;
  for (std::size_t i = 0; i < ex_v.size(); ++i) {
    const double e_pred = std::max(ex_v[i] - pred_v[i], 0.0);
    const double e_rip = std::max(ex_v[i] - rip_v[i], 0.0);
    worst_pred = std::max(worst_pred, e_pred);
    worst_rip = std::max(worst_rip, e_rip);
    mean_pred += e_pred;
    mean_rip += e_rip;
  }
  mean_pred /= std::max<std::size_t>(ex_v.size(), 1);
  mean_rip /= std::max<std::size_t>(ex_v.size(), 1);

  std::vector<double> e_pred_v, e_rip_v;
  for (std::size_t i = 0; i < ex_v.size(); ++i) {
    e_pred_v.push_back(std::max(ex_v[i] - pred_v[i], 0.0));
    e_rip_v.push_back(std::max(ex_v[i] - rip_v[i], 0.0));
  }
  std::printf("\nunderestimation vs exhaustive worst case:\n");
  std::printf("  %-28s worst %6.2f ps   p90 %6.2f ps   mean %6.2f ps\n",
              "proposed (receiver output)", worst_pred / ps,
              percentile(e_pred_v, 90) / ps, mean_pred / ps);
  std::printf("  %-28s worst %6.2f ps   p90 %6.2f ps   mean %6.2f ps\n",
              "method [5] (receiver input)", worst_rip / ps,
              percentile(e_rip_v, 90) / ps, mean_rip / ps);
  std::printf("  (paper: proposed worst 15 ps vs [5] worst 31 ps)\n\n");

  bool ok = true;
  ok &= check("proposed worst-case error < [5] worst-case error",
              worst_pred < worst_rip);
  ok &= check("proposed mean error < [5] mean error", mean_pred < mean_rip);
  ok &= check("exhaustive dominates both methods (ceiling property)",
              [&] {
                for (std::size_t i = 0; i < ex_v.size(); ++i)
                  if (pred_v[i] > ex_v[i] + 5 * ps ||
                      rip_v[i] > ex_v[i] + 5 * ps)
                    return false;
                return true;
              }());
  return ok ? 0 : 1;
}
