#include "core/alignment.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/deadline.hpp"
#include "util/metrics.hpp"
#include "util/numeric.hpp"
#include "util/trace.hpp"

namespace dn {

ScanDomain ScanDomain::interval(double lo, double hi) {
  ScanDomain d;
  d.constrained_ = true;
  d.lo_ = lo;
  d.hi_ = hi;
  if (!(hi >= lo)) d.set_empty();
  return d;
}

void ScanDomain::set_empty() {
  // One representation for every empty domain, so equal sets compare
  // equal; intersecting it again keeps it.
  lo_ = std::numeric_limits<double>::infinity();
  hi_ = -std::numeric_limits<double>::infinity();
}

void ScanDomain::intersect(double lo, double hi) {
  constrained_ = true;
  lo_ = std::max(lo_, lo);
  hi_ = std::min(hi_, hi);
  if (hi_ < lo_) set_empty();
}

bool ScanDomain::contains(double t) const {
  return !constrained_ || (t >= lo_ && t <= hi_);
}

double ScanDomain::clamp(double t) const {
  if (!constrained_ || empty()) return t;
  return std::clamp(t, lo_, hi_);
}

std::vector<double> ScanDomain::sample(double lo, double hi, int n) const {
  n = std::max(n, 2);
  if (!constrained_) return linspace(lo, hi, n);
  const double a = std::max(lo_, lo);
  const double b = std::min(hi_, hi);
  if (b < a) return {};
  if (b == a) return {a};
  return linspace(a, b, n);
}

ReceiverEval evaluate_receiver(GateSim& receiver, const Pwl& vin,
                               bool input_rising, double dt, double lte_tol,
                               Vector* warm, int stale_jacobian_iters) {
  static obs::Counter& c_evals =
      obs::metrics().counter("alignment.receiver_evals");
  obs::TraceSpan span("receiver.eval", "analyze");
  c_evals.add();
  const GateParams& gate = receiver.gate();
  // Horizon: input end plus a settling tail sized to the load (heuristic,
  // generous).
  const double tail = 2e-9 + 200.0 * gate.vdd * receiver.cload();
  TransientSpec spec{0.0, vin.t_end() + tail, dt};
  spec.lte_tol = lte_tol;
  spec.stale_jacobian_iters = stale_jacobian_iters;
  auto out = receiver.try_run(vin, spec, warm);
  if (!out.ok()) raise(out.status());

  ReceiverEval ev;
  ev.output = std::move(out).value();
  const bool out_rising =
      gate_inverts(gate.type) ? !input_rising : input_rising;
  const auto t50 = ev.output.last_crossing(0.5 * gate.vdd, out_rising);
  if (!t50)
    throw std::runtime_error(
        "evaluate_receiver: output never completed its transition");
  ev.t_out_50 = *t50;

  // Residual noise at the output: the largest REVERSE excursion after the
  // final crossing — how far the output bounces back against its settling
  // direction (a slow but monotonic settle scores zero). This is the
  // "noise pulse at the receiver output" the paper checks stays <100 mV.
  double reverse = 0.0;
  const auto times = ev.output.times();
  const auto vals = ev.output.values();
  double extreme = out_rising ? -1e300 : 1e300;
  for (std::size_t i = 0; i < times.size(); ++i) {
    if (times[i] < *t50) continue;
    if (out_rising) {
      extreme = std::max(extreme, vals[i]);
      reverse = std::max(reverse, extreme - vals[i]);
    } else {
      extreme = std::min(extreme, vals[i]);
      reverse = std::max(reverse, vals[i] - extreme);
    }
  }
  ev.out_noise_peak = reverse;
  return ev;
}

Pwl shift_pulse_peak_to(const Pwl& composite, double t_target,
                        double* shift_out) {
  const PulseParams p = measure_pulse(composite);
  const double shift = t_target - p.t_peak;
  if (shift_out) *shift_out = shift;
  return composite.shifted(shift);
}

AlignmentResult exhaustive_worst_alignment(const Pwl& noiseless_sink,
                                           const Pwl& composite,
                                           const GateParams& receiver,
                                           double rcv_load, bool victim_rising,
                                           const AlignmentSearchOptions& opts) {
  const PulseParams pulse = measure_pulse(composite);
  const auto t50 = noiseless_sink.crossing(0.5 * receiver.vdd, victim_rising);
  if (!t50)
    throw std::runtime_error(
        "exhaustive alignment: noiseless transition has no 50% crossing");

  const auto slew10_90 = noiseless_sink.slew(
      victim_rising ? noiseless_sink.min_value() : noiseless_sink.max_value(),
      victim_rising ? noiseless_sink.max_value() : noiseless_sink.min_value());
  const double slew = slew10_90 ? *slew10_90 / 0.8 : 200e-12;

  const double span = slew + pulse.width + 100e-12;
  const double lo = *t50 - span, hi = *t50 + span;

  // Batched probing: every probe of the search re-drives one receiver
  // GateSim with one warm-start chain; only the input waveform differs.
  static obs::Counter& c_batched =
      obs::metrics().counter("alignment.batched_probes");
  static obs::Counter& c_batches =
      obs::metrics().counter("alignment.probe_batches");
  GateSim sim(receiver, rcv_load);
  Vector chain;
  Vector* const warm = opts.warm_start ? &chain : nullptr;
  c_batches.add();

  // Coarse sweep over the FEASIBLE part of the span only: the pruned
  // domain (per-aggressor switching windows, correlation constraints)
  // removes candidate alignments before any receiver sim is spent on
  // them. An unconstrained domain reproduces the classic uniform grid.
  static obs::Counter& c_domain_pruned =
      obs::metrics().counter("alignment.domain_pruned_probes");
  const int n_coarse = std::max(opts.coarse_points, 5);
  std::vector<double> coarse = opts.domain.sample(lo, hi, n_coarse);
  if (coarse.empty()) {
    // Nothing of the span is feasible: evaluate the single nearest
    // feasible point (the 50% crossing itself when the domain is empty)
    // so the caller still gets a well-defined — conservative — alignment.
    coarse.assign(1, opts.domain.clamp(*t50));
  }
  if (coarse.size() < static_cast<std::size_t>(n_coarse))
    c_domain_pruned.add(static_cast<std::uint64_t>(n_coarse) - coarse.size());
  // Coarse pass, then a fine pass around the best coarse point (+- one
  // coarse step), respecting the feasible domain.
  const double step =
      coarse.size() > 1 ? coarse[1] - coarse[0] : (hi - lo) / n_coarse;
  double best_t = coarse.front();
  double best_d = -1e300;
  std::vector<double> probes = std::move(coarse);
  for (const bool fine : {false, true}) {
    if (fine) {
      probes = opts.domain.sample(best_t - step, best_t + step,
                                  std::max(opts.fine_points, 5));
      // A point domain has nothing to refine: its one probe already ran.
      if (probes.size() == 1 && probes.front() == best_t) break;
    }
    for (const double t : probes) {
      deadline_checkpoint("alignment search");
      c_batched.add();
      const Pwl noisy = noiseless_sink.add_shifted(composite, t - pulse.t_peak);
      const double d =
          evaluate_receiver(sim, noisy, victim_rising, opts.dt, opts.lte_tol,
                            warm, opts.stale_jacobian_iters)
              .t_out_50;
      if (d > best_d) {
        best_d = d;
        best_t = t;
      }
    }
  }

  AlignmentResult out;
  out.t_peak = best_t;
  out.shift = best_t - pulse.t_peak;
  out.align_voltage = noiseless_sink.at(best_t);
  out.t_out_50 = best_d;
  return out;
}

AlignmentResult receiver_input_peak_alignment(
    const Pwl& noiseless_sink, const Pwl& composite, const GateParams& receiver,
    double rcv_load, bool victim_rising, const AlignmentSearchOptions& opts) {
  const PulseParams pulse = measure_pulse(composite);
  const double vdd = receiver.vdd;
  const double vn = std::abs(pulse.height);
  // Rising victim: peak where the noiseless transition reaches Vdd/2 + Vn,
  // clamped into the reachable range. Mirrored for a falling victim.
  double level = victim_rising ? 0.5 * vdd + vn : 0.5 * vdd - vn;
  level = std::clamp(level, 0.02 * vdd, 0.98 * vdd);
  if (victim_rising)
    level = std::min(level, noiseless_sink.max_value() - 0.01 * vdd);
  else
    level = std::max(level, noiseless_sink.min_value() + 0.01 * vdd);

  const auto t_level = noiseless_sink.crossing(level, victim_rising);
  if (!t_level)
    throw std::runtime_error(
        "receiver_input_peak_alignment: level never crossed");

  const double t_peak = opts.domain.clamp(*t_level);

  AlignmentResult out;
  out.t_peak = t_peak;
  out.shift = t_peak - pulse.t_peak;
  out.align_voltage = noiseless_sink.at(t_peak);
  GateSim sim(receiver, rcv_load);
  out.t_out_50 =
      evaluate_receiver(sim, noiseless_sink.add_shifted(composite, out.shift),
                        victim_rising, opts.dt, opts.lte_tol, nullptr,
                        opts.stale_jacobian_iters)
          .t_out_50;
  return out;
}

}  // namespace dn
