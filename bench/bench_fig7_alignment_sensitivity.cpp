// Figure 7: combined delay as a function of the composite-pulse alignment,
// (a) for several receiver output loads, (b) for several victim slews.
//
// Paper claims: (a) small loads are sharply alignment-sensitive while
// large loads are flat (justifying characterization at minimum load);
// (b) measured against the victim's 50% crossing, the worst-case
// alignment is nearly LINEAR in the victim transition time (justifying
// two-point slew interpolation).
#include <cmath>

#include <iostream>
#include "bench_util.hpp"
#include "core/alignment.hpp"

using namespace dn;
using namespace dn::bench;
using namespace dn::units;

namespace {

constexpr double kVdd = 1.8;

GateParams receiver() {
  GateParams g;
  g.type = GateType::Inverter;
  g.size = 2.0;
  return g;
}

}  // namespace

int main(int argc, char** argv) {
  (void)argc;
  (void)argv;
  print_header(
      "Figure 7 - delay vs composite-pulse alignment",
      "(a) small receiver loads: sharp alignment sensitivity, large loads: "
      "flat; (b) worst alignment ~linear in victim slew");

  const GateParams rcv = receiver();
  const Pwl pulse = triangle_pulse(-0.4, 150 * ps, 2 * ns);

  // --- (a) load sweep at fixed slew --------------------------------------
  // The operative claim: using the MINIMUM-load worst alignment for a
  // heavily loaded receiver costs only a small fraction of the extra
  // delay, because large loads low-pass the noise and flatten the curve.
  {
    GateParams rcv_a = rcv;
    const Pwl pulse_a = triangle_pulse(-0.4, 100 * ps, 2 * ns);
    const Pwl ramp = Pwl::ramp(2 * ns, 200 * ps, 0.0, kVdd);
    const double t50 = *ramp.crossing(kVdd / 2, true);
    const std::vector<double> loads{2 * fF, 10 * fF, 40 * fF, 160 * fF};
    Table tbl({"align_ps_vs_t50", "delay_2fF_ps", "delay_10fF_ps",
               "delay_40fF_ps", "delay_160fF_ps"});
    std::vector<double> dmin(loads.size(), 1e300), dmax(loads.size(), -1e300);
    std::vector<double> at_minload_alignment(loads.size(), 0.0);
    // Worst alignment at the minimum load, reused for every load.
    AlignmentSearchOptions sopt;
    sopt.coarse_points = 33;
    sopt.fine_points = 13;
    const AlignmentResult minload_worst =
        exhaustive_worst_alignment(ramp, pulse_a, rcv_a, loads[0], true, sopt);
    for (double da = -250 * ps; da <= 350 * ps + 1e-15; da += 50 * ps) {
      std::vector<double> row{da / ps};
      for (std::size_t li = 0; li < loads.size(); ++li) {
        const Pwl noisy =
            ramp + shift_pulse_peak_to(pulse_a, t50 + da, nullptr);
        const double d =
            receiver_t50(rcv_a, noisy, loads[li], true) - t50;
        row.push_back(d / ps);
        dmin[li] = std::min(dmin[li], d);
        dmax[li] = std::max(dmax[li], d);
      }
      tbl.add_row_values(row);
    }
    tbl.print(std::cout);
    std::printf("\nCSV:\n");
    tbl.print_csv(std::cout);
    // Sensitivity metric: how much extra delay is LOST by misaligning the
    // pulse +-50 ps from each load's own worst case, as a fraction of that
    // load's extra delay. The paper's Figure 7(a) point: this shrinks as
    // the load grows (large loads flatten the curve), which is why
    // characterizing the alignment at minimum load is safe.
    std::printf("\nmisalignment (+-50 ps) sensitivity per load:\n");
    std::vector<double> sens_pct(loads.size());
    for (std::size_t li = 0; li < loads.size(); ++li) {
      const double nominal =
          receiver_t50(rcv_a, ramp, loads[li], true) - t50;
      // This load's own worst alignment (within the same sweep window).
      AlignmentSearchOptions so = sopt;
      const AlignmentResult worst = exhaustive_worst_alignment(
          ramp, pulse_a, rcv_a, loads[li], true, so);
      const double extra_worst = (worst.t_out_50 - t50) - nominal;
      double lost = 0.0;
      for (double da : {-50 * ps, 50 * ps}) {
        const Pwl noisy = ramp + shift_pulse_peak_to(
                                     pulse_a, worst.t_peak + da, nullptr);
        const double extra =
            (receiver_t50(rcv_a, noisy, loads[li], true) - t50) -
            nominal;
        lost = std::max(lost, extra_worst - extra);
      }
      sens_pct[li] = 100.0 * lost / std::max(extra_worst, 1e-15);
      std::printf("  load %6.0f fF : extra %6.1f ps, +-50ps misalignment "
                  "loses up to %5.1f%%\n",
                  loads[li] / fF, extra_worst / ps, sens_pct[li]);
    }
    std::printf("\n");
    check("(a) misalignment sensitivity shrinks from the smallest to the "
          "largest load",
          sens_pct.back() < sens_pct.front());
    (void)minload_worst;
  }

  // --- (b) slew sweep at minimum load ------------------------------------
  {
    const std::vector<double> slews{80 * ps, 160 * ps, 240 * ps, 320 * ps,
                                    400 * ps};
    Table tbl({"victim_slew_ps", "worst_align_vs_t50_ps", "worst_delay_ps"});
    std::vector<double> xs, ys;
    for (double slew : slews) {
      const Pwl ramp = Pwl::ramp(2 * ns, slew, 0.0, kVdd);
      const double t50 = *ramp.crossing(kVdd / 2, true);
      AlignmentSearchOptions sopt;
      sopt.coarse_points = 41;
      sopt.fine_points = 17;
      const AlignmentResult w =
          exhaustive_worst_alignment(ramp, pulse, rcv, 2 * fF, true, sopt);
      tbl.add_row_values(
          {slew / ps, (w.t_peak - t50) / ps, (w.t_out_50 - t50) / ps});
      xs.push_back(slew);
      ys.push_back(w.t_peak - t50);
    }
    tbl.print(std::cout);
    std::printf("\nCSV:\n");
    tbl.print_csv(std::cout);

    // Linearity of worst alignment vs slew: R^2 of a least-squares line.
    const double n = static_cast<double>(xs.size());
    double sx = 0, sy = 0, sxx = 0, sxy = 0, syy = 0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
      sx += xs[i];
      sy += ys[i];
      sxx += xs[i] * xs[i];
      sxy += xs[i] * ys[i];
      syy += ys[i] * ys[i];
    }
    const double cov = sxy - sx * sy / n;
    const double vx = sxx - sx * sx / n;
    const double vy = syy - sy * sy / n;
    const double r2 = (vx > 0 && vy > 0) ? cov * cov / (vx * vy) : 1.0;
    std::printf("\nworst-alignment-vs-slew linearity: R^2 = %.4f\n\n", r2);
    check("(b) worst alignment ~linear in victim slew (R^2 > 0.9)", r2 > 0.9);
  }
  return 0;
}
