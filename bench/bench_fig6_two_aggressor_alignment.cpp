// Figure 6: combined (interconnect + receiver) delay vs the relative
// alignment of two aggressors, for a small and a large receiver load.
//
// Paper claims: with a SMALL receiver load, the worst case occurs when
// both aggressor noise peaks coincide (skew = 0); with a LARGE load the
// receiver low-pass filters the composite, a wider/lower pulse can win,
// and the worst case may sit at non-zero skew — but the delay advantage
// over aligned peaks is tiny (2.7 ps in the paper's example), justifying
// the aligned-peak approximation (error < 5%, Section 3.1).
#include <cmath>

#include <iostream>
#include "bench_util.hpp"
#include "core/composite_pulse.hpp"
#include "core/delay_noise.hpp"

using namespace dn;
using namespace dn::bench;
using namespace dn::units;

namespace {

/// Combined delay when aggressor 1 is skewed by `skew` vs aggressor 0 and
/// the (skewed) composite is then worst-case aligned against the victim.
double delay_for_skew(const SuperpositionEngine& eng, double skew,
                      double rcv_load, const AlignmentSearchOptions& sopt) {
  const double rth = eng.victim_model().model.rth;
  const CompositeAlignment comp = align_with_skew(eng, rth, 1, skew);
  const auto& vt = eng.victim_transition();
  const AlignmentResult worst = exhaustive_worst_alignment(
      vt.at_sink, comp.at_sink, eng.net().victim.receiver, rcv_load,
      eng.net().victim.output_rising, sopt);
  return worst.t_out_50;
}

}  // namespace

int main(int argc, char** argv) {
  (void)argc;
  (void)argv;
  print_header(
      "Figure 6 - delay vs relative alignment of two aggressors",
      "small receiver load: worst at coincident peaks; large load: flat "
      "curve, possibly off-peak worst with a tiny margin (<5%)");

  // Strong victim driver -> narrow noise pulses; weak receiver with a
  // heavy load -> strong low-pass filtering. This is the regime where the
  // paper's Figure 6 effect (off-peak worst case at large loads) appears.
  CoupledNet net = example_coupled_net(2);
  net.victim.driver.size = 4.0;
  net.aggressors[0].input_slew = 40 * ps;
  net.aggressors[1].input_slew = 200 * ps;
  net.victim.receiver.size = 1.0;
  SuperpositionEngine eng(net);

  AlignmentSearchOptions sopt;
  sopt.coarse_points = 25;
  sopt.fine_points = 11;

  const double small_load = 2 * fF;
  const double large_load = 400 * fF;

  Table tbl({"skew_ps", "delay_smallload_ps", "delay_largeload_ps"});
  double best_small = -1e300, best_small_skew = 0.0;
  double best_large = -1e300, best_large_skew = 0.0;
  double aligned_small = 0.0, aligned_large = 0.0;
  for (double skew = -200 * ps; skew <= 200 * ps + 1e-15; skew += 40 * ps) {
    const double d_small = delay_for_skew(eng, skew, small_load, sopt);
    const double d_large = delay_for_skew(eng, skew, large_load, sopt);
    tbl.add_row_values({skew / ps, d_small / ps, d_large / ps});
    if (std::abs(skew) < 1e-15) {
      aligned_small = d_small;
      aligned_large = d_large;
    }
    if (d_small > best_small) {
      best_small = d_small;
      best_small_skew = skew;
    }
    if (d_large > best_large) {
      best_large = d_large;
      best_large_skew = skew;
    }
  }
  tbl.print(std::cout);
  std::printf("\nCSV:\n");
  tbl.print_csv(std::cout);

  std::printf("\nsmall load (%g fF): worst skew %+.0f ps; aligned-peak penalty "
              "%.2f ps\n",
              small_load / fF, best_small_skew / ps,
              (best_small - aligned_small) / ps);
  std::printf("large load (%g fF): worst skew %+.0f ps; aligned-peak penalty "
              "%.2f ps (paper example: 2.7 ps)\n\n",
              large_load / fF, best_large_skew / ps,
              (best_large - aligned_large) / ps);

  // Section 3.1 claim: aligned-peak approximation error < 5% of the extra
  // delay, across receiver-load corners.
  const auto& vt = eng.victim_transition();
  const double nominal_small =
      receiver_t50(net.victim.receiver, vt.at_sink, small_load, true);
  const double nominal_large =
      receiver_t50(net.victim.receiver, vt.at_sink, large_load, true);
  const double extra_small = best_small - nominal_small;
  const double extra_large = best_large - nominal_large;
  const double pen_small_pct =
      100.0 * (best_small - aligned_small) / extra_small;
  const double pen_large_pct =
      100.0 * (best_large - aligned_large) / extra_large;
  std::printf("aligned-peak approximation error: %.2f%% (small load), "
              "%.2f%% (large load) of the extra delay\n\n",
              pen_small_pct, pen_large_pct);

  bool ok = true;
  ok &= check("small load: worst case at coincident peaks (|skew| <= 50 ps)",
              std::abs(best_small_skew) <= 50 * ps + 1e-15);
  ok &= check("aligned-peak approximation error < 5% on both loads",
              pen_small_pct < 5.0 && pen_large_pct < 5.0);
  ok &= check("large-load curve flatter than small-load curve",
              (best_large - aligned_large) <= (best_small - aligned_small) ||
                  best_large - aligned_large < 3 * ps);
  return ok ? 0 : 1;
}
