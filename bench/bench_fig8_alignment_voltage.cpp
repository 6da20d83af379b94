// Figure 8: combined delay as a function of the ALIGNMENT VOLTAGE (the
// noiseless receiver-input voltage at the pulse-peak instant), for
// (a) several pulse widths and (b) several pulse heights.
//
// Paper claim: parameterized by alignment voltage (instead of time), the
// worst-case alignment depends ~linearly on pulse width and height — the
// observation that lets the 8-point table interpolate linearly in (w, h).
#include <cmath>

#include <iostream>
#include "bench_util.hpp"
#include "core/alignment.hpp"
#include "util/numeric.hpp"

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

/// Worst-case alignment voltage for a given pulse on a canonical ramp.
/// High-resolution search: the alignment-voltage trend is ~0.1 V across
/// the sweep, so the time grid must resolve a few millivolts on the ramp.
double worst_alignment_voltage(const Pwl& ramp, const Pwl& pulse) {
  AlignmentSearchOptions sopt;
  sopt.coarse_points = 81;
  sopt.fine_points = 33;
  // Keep the peak on the transition (same convention as the table
  // characterization; see core/alignment_table.cpp).
  sopt.domain = ScanDomain::interval(
      ramp.t_begin() - 1.5 * measure_pulse(pulse).width, ramp.t_end());
  return exhaustive_worst_alignment(ramp, pulse, receiver(), 2 * fF, true, sopt)
      .align_voltage;
}

double linear_fit_r2(const std::vector<double>& xs,
                     const std::vector<double>& ys) {
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
  return (vx > 0 && vy > 0) ? cov * cov / (vx * vy) : 1.0;
}

}  // namespace

int main(int argc, char** argv) {
  (void)argc;
  (void)argv;
  print_header(
      "Figure 8 - delay vs alignment voltage for pulse width/height sweeps",
      "worst-case alignment voltage ~linear in pulse width and in pulse "
      "height");

  const Pwl ramp = Pwl::ramp(2 * ns, 200 * ps, 0.0, kVdd);
  const double t50 = *ramp.crossing(kVdd / 2, true);

  // --- delay vs alignment voltage, a few sample curves -------------------
  {
    Table tbl({"align_voltage_V", "delay_w100ps_ps", "delay_w300ps_ps",
               "delay_h0p2_ps", "delay_h0p5_ps"});
    const Pwl pw100 = triangle_pulse(-0.4, 100 * ps, 2 * ns);
    const Pwl pw300 = triangle_pulse(-0.4, 300 * ps, 2 * ns);
    const Pwl ph02 = triangle_pulse(-0.2 * kVdd, 150 * ps, 2 * ns);
    const Pwl ph05 = triangle_pulse(-0.45 * kVdd, 150 * ps, 2 * ns);
    for (double va = 0.2; va <= 1.75; va += 0.15) {
      const auto t_at = ramp.crossing(va, true);
      if (!t_at) continue;
      std::vector<double> row{va};
      for (const Pwl* p : {&pw100, &pw300, &ph02, &ph05}) {
        const Pwl noisy = ramp + shift_pulse_peak_to(*p, *t_at, nullptr);
        row.push_back(
            (receiver_t50(receiver(), noisy, 2 * fF, true) - t50) / ps);
      }
      tbl.add_row_values(row);
    }
    tbl.print(std::cout);
    std::printf("\nCSV:\n");
    tbl.print_csv(std::cout);
    std::printf("\n");
  }

  // --- (a) worst alignment voltage vs pulse width ------------------------
  std::vector<double> widths, va_w;
  {
    Table tbl({"pulse_width_ps", "worst_align_voltage_V"});
    for (double w = 60 * ps; w <= 420 * ps + 1e-15; w += 60 * ps) {
      const double va =
          worst_alignment_voltage(ramp, triangle_pulse(-0.4, w, 2 * ns));
      widths.push_back(w);
      va_w.push_back(va);
      tbl.add_row_values({w / ps, va});
    }
    tbl.print(std::cout);
    std::printf("\n");
  }

  // --- (b) worst alignment voltage vs pulse height -----------------------
  std::vector<double> heights, va_h;
  {
    Table tbl({"pulse_height_V", "worst_align_voltage_V"});
    for (double h = 0.15; h <= 0.80 + 1e-12; h += 0.13) {
      const double va =
          worst_alignment_voltage(ramp, triangle_pulse(-h, 150 * ps, 2 * ns));
      heights.push_back(h);
      va_h.push_back(va);
      tbl.add_row_values({h, va});
    }
    tbl.print(std::cout);
    std::printf("\n");
  }

  const double r2_w = linear_fit_r2(widths, va_w);
  const double r2_h = linear_fit_r2(heights, va_h);
  std::printf("linearity of worst alignment voltage: R^2(width) = %.4f, "
              "R^2(height) = %.4f\n",
              r2_w, r2_h);

  // The table's operative approximation: interpolate the alignment voltage
  // LINEARLY between the two corner widths (heights). Measure the worst
  // deviation of the true curve from that chord — this bounds the error
  // the 8-point method inherits from the linearity assumption.
  auto chord_error = [](const std::vector<double>& xs,
                        const std::vector<double>& ys) {
    double worst = 0.0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
      const double chord = lerp(xs.front(), ys.front(), xs.back(), ys.back(),
                                xs[i]);
      worst = std::max(worst, std::abs(ys[i] - chord));
    }
    return worst;
  };
  const double chord_w = chord_error(widths, va_w);
  const double chord_h = chord_error(heights, va_h);
  std::printf("two-point interpolation error: width %.3f V, height %.3f V "
              "(of Vdd = %.1f V)\n\n",
              chord_w, chord_h, kVdd);

  bool ok = true;
  ok &= check("(a) two-point width interpolation within 0.05*Vdd",
              chord_w < 0.05 * kVdd);
  ok &= check("(b) alignment voltage ~linear in pulse height (R^2 > 0.9)",
              r2_h > 0.9);
  ok &= check("alignment voltage increases with pulse width (monotone trend)",
              va_w.back() > va_w.front());
  ok &= check("alignment voltage increases with pulse height",
              va_h.back() > va_h.front());
  return ok ? 0 : 1;
}
