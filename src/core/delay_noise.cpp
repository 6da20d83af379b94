#include "core/delay_noise.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/holding_resistance.hpp"
#include "util/trace.hpp"

namespace dn {

const char* alignment_method_name(AlignmentMethod m) {
  switch (m) {
    case AlignmentMethod::Predicted: return "predicted(8pt)";
    case AlignmentMethod::Exhaustive: return "exhaustive";
    case AlignmentMethod::ReceiverInputPeak: return "receiver-input[5]";
  }
  return "?";
}

namespace {

/// `rcv` is the net's receiver into its load; `warm` chains the DC
/// operating point between its evaluations on the Predicted path (null:
/// each solves its DC cold). The exhaustive and [5] methods build their
/// own receiver sims.
AlignmentResult choose_alignment(const DelayNoiseOptions& opts,
                                 const Pwl& noiseless_sink, const Pwl& composite,
                                 GateSim& rcv, bool rising, Vector* warm) {
  switch (opts.method) {
    case AlignmentMethod::Exhaustive:
      return exhaustive_worst_alignment(noiseless_sink, composite, rcv.gate(),
                                        rcv.cload(), rising, opts.search);
    case AlignmentMethod::ReceiverInputPeak:
      return receiver_input_peak_alignment(noiseless_sink, composite,
                                           rcv.gate(), rcv.cload(), rising,
                                           opts.search);
    case AlignmentMethod::Predicted: {
      if (!opts.table)
        throw std::invalid_argument(
            "analyze_delay_noise: Predicted method needs an AlignmentTable");
      const PulseParams p = measure_pulse(composite);
      const double t_table = opts.table->predict_peak_time(noiseless_sink, p);
      // Guard candidate: the 50% crossing. For pulses near the functional-
      // noise boundary, the min-load table can predict an alignment so
      // late that a loaded receiver filters the noise entirely (the
      // Figure 3 failure mode); mid-transition is always a safe fallback,
      // and evaluating it costs one extra receiver simulation.
      const double t_pred = opts.search.domain.clamp(t_table);
      const double t_mid = opts.search.domain.clamp(
          noiseless_sink.crossing(0.5 * rcv.gate().vdd, rising)
              .value_or(t_table));
      AlignmentResult best;
      best.t_out_50 = -1e300;
      for (const double t_peak : {t_pred, t_mid}) {
        AlignmentResult r;
        r.t_peak = t_peak;
        r.shift = t_peak - p.t_peak;
        r.align_voltage = noiseless_sink.at(t_peak);
        const Pwl noisy = noiseless_sink.add_shifted(composite, r.shift);
        r.t_out_50 =
            evaluate_receiver(rcv, noisy, rising, opts.search.dt,
                              opts.search.lte_tol, warm,
                              opts.search.stale_jacobian_iters)
                .t_out_50;
        if (r.t_out_50 > best.t_out_50) best = r;
      }
      static obs::Counter& c_guard_won =
          obs::metrics().counter("alignment.guard_won");
      if (best.t_peak == t_mid && t_mid != t_pred) c_guard_won.add();
      return best;
    }
  }
  throw std::invalid_argument("analyze_delay_noise: unknown method");
}

}  // namespace

DelayNoiseResult analyze_delay_noise(const SuperpositionEngine& eng,
                                     const DelayNoiseOptions& opts) {
  const CoupledNet& net = eng.net();
  if (net.aggressors.empty())
    throw std::invalid_argument("analyze_delay_noise: net has no aggressors");

  DelayNoiseResult out;
  out.rth = eng.victim_model().model.rth;
  out.holding_r = out.rth;

  const auto& vt = eng.victim_transition();
  out.noiseless_sink = vt.at_sink;
  const bool rising = net.victim.output_rising;
  const double vdd = eng.vdd();

  // The net's receiver into its load, with one DC warm-start chain for the
  // Predicted candidates and the nominal evaluation when warm starts are on.
  GateSim rcv(net.victim.receiver, net.victim.receiver_load);
  Vector rcv_chain;
  Vector* const warm = opts.search.warm_start ? &rcv_chain : nullptr;

  // Fix-point between the linear victim model and the alignment: compose
  // and align at the current holding R (Rth first), then take one Rtr step
  // at that alignment, until a step moves R by less than kRtrRelTol or
  // model_alignment_iterations steps have run. The composite/alignment
  // always end consistent with the last holding R.
  static obs::Counter& c_rtr = obs::metrics().counter("rtr.iterations");
  const int max_steps = std::max(opts.model_alignment_iterations, 1);
  bool settled = !opts.use_transient_holding;
  for (;;) {
    out.composite = align_aggressor_peaks(eng, out.holding_r);
    out.alignment = choose_alignment(opts, out.noiseless_sink,
                                     out.composite.at_sink, rcv, rising,
                                     warm);
    if (settled || out.rtr_iterations >= max_steps) break;
    const std::vector<double> shifts = absolute_shifts(out);
    double rtr;
    try {
      obs::TraceSpan span("rtr.solve", "analyze");
      rtr = compute_rtr(eng, shifts, out.holding_r).rtr;
    } catch (const DeadlineError&) {
      throw;  // A cancelled run must not silently degrade.
    } catch (const std::exception& e) {
      // Degradation ladder: Rtr extraction failed (Newton divergence in
      // the nonlinear driver sims) -> hold the victim with the aggregate
      // Rth. Pessimistic for delay noise but always available. Earlier
      // steps moved the composite/alignment off the Rth operating point,
      // so they are recomposed there once more.
      degrade::record(DegradeKind::kRtrToRth,
                      std::string("rtr extraction failed (") + e.what() +
                          "); holding victim with aggregate Rth");
      if (out.holding_r == out.rth) break;
      out.holding_r = out.rth;
      settled = true;
      continue;
    }
    c_rtr.add();
    ++out.rtr_iterations;
    settled = std::abs(rtr - out.holding_r) < kRtrRelTol * out.holding_r;
    out.holding_r = rtr;
  }
  out.noisy_sink = out.noiseless_sink.add_shifted(out.composite.at_sink,
                                                  out.alignment.shift);

  // Combined (receiver-output) delays.
  out.nominal_t50 =
      evaluate_receiver(rcv, out.noiseless_sink, rising, opts.search.dt,
                        opts.search.lte_tol, warm,
                        opts.search.stale_jacobian_iters)
          .t_out_50;
  out.noisy_t50 = out.alignment.t_out_50;

  // Interconnect-only (receiver-input) delays.
  const double mid = 0.5 * vdd;
  const auto tn = out.noiseless_sink.crossing(mid, rising);
  const auto tz = out.noisy_sink.last_crossing(mid, rising);
  if (!tn || !tz)
    throw std::runtime_error("analyze_delay_noise: missing 50% crossings");
  out.nominal_input_t50 = *tn;
  out.noisy_input_t50 = *tz;
  static obs::Histogram& h_rtr =
      obs::metrics().histogram("rtr.iterations_per_net");
  h_rtr.record(static_cast<double>(out.rtr_iterations));
  return out;
}

std::vector<double> absolute_shifts(const DelayNoiseResult& r) {
  std::vector<double> shifts = r.composite.shifts;
  for (double& s : shifts) s += r.alignment.shift;
  return shifts;
}

}  // namespace dn
