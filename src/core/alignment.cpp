#include "core/alignment.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/deadline.hpp"
#include "util/metrics.hpp"
#include "util/numeric.hpp"
#include "util/trace.hpp"

namespace dn {

namespace {

// Stand-in for the whole real line while a domain is partially built.
constexpr double kDomainHuge = 1e18;

}  // namespace

ScanDomain ScanDomain::interval(double lo, double hi) {
  ScanDomain d;
  d.constrained_ = true;
  if (hi >= lo) d.iv_.emplace_back(lo, hi);
  return d;
}

void ScanDomain::materialize() {
  if (!constrained_) {
    constrained_ = true;
    iv_.assign(1, {-kDomainHuge, kDomainHuge});
  }
}

void ScanDomain::intersect(double lo, double hi) {
  materialize();
  std::vector<std::pair<double, double>> next;
  for (const auto& [a, b] : iv_) {
    const double na = std::max(a, lo);
    const double nb = std::min(b, hi);
    if (nb >= na) next.emplace_back(na, nb);
  }
  iv_ = std::move(next);
}

void ScanDomain::exclude(double lo, double hi) {
  if (hi <= lo) return;
  materialize();
  std::vector<std::pair<double, double>> next;
  for (const auto& [a, b] : iv_) {
    if (b <= lo || a >= hi) {
      next.emplace_back(a, b);
      continue;
    }
    if (a < lo) next.emplace_back(a, lo);
    if (b > hi) next.emplace_back(hi, b);
  }
  iv_ = std::move(next);
}

bool ScanDomain::contains(double t) const {
  if (!constrained_) return true;
  for (const auto& [a, b] : iv_)
    if (t >= a && t <= b) return true;
  return false;
}

double ScanDomain::clamp(double t) const {
  if (!constrained_ || iv_.empty() || contains(t)) return t;
  double best = t;
  double best_dist = 1e300;
  for (const auto& [a, b] : iv_) {
    for (const double edge : {a, b}) {
      const double dist = std::abs(edge - t);
      if (dist < best_dist) {
        best_dist = dist;
        best = edge;
      }
    }
  }
  return best;
}

double ScanDomain::lo() const { return iv_.empty() ? 0.0 : iv_.front().first; }
double ScanDomain::hi() const { return iv_.empty() ? 0.0 : iv_.back().second; }

std::vector<double> ScanDomain::sample(double lo, double hi, int n) const {
  n = std::max(n, 2);
  if (!constrained_) return linspace(lo, hi, n);
  // Clip the feasible intervals to the requested span.
  std::vector<std::pair<double, double>> clipped;
  double feasible_len = 0.0;
  for (const auto& [a, b] : iv_) {
    const double ca = std::max(a, lo);
    const double cb = std::min(b, hi);
    if (cb >= ca) {
      clipped.emplace_back(ca, cb);
      feasible_len += cb - ca;
    }
  }
  if (clipped.empty()) return {};
  // One interval covering the whole span: exactly the unconstrained grid,
  // so a window that excludes nothing changes nothing.
  if (clipped.size() == 1)
    return linspace(clipped[0].first, clipped[0].second, n);
  // Spread the budget across intervals proportionally to length; every
  // interval keeps at least its two endpoints so narrow-but-feasible
  // windows are never starved.
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(n) + 2 * clipped.size());
  for (const auto& [a, b] : clipped) {
    const double share = feasible_len > 0 ? (b - a) / feasible_len : 0.0;
    const int pts = std::max(
        2, static_cast<int>(std::ceil(share * static_cast<double>(n))));
    for (const double t : linspace(a, b, pts)) out.push_back(t);
  }
  // Deduplicate: a zero-width clipped interval emits its endpoint twice
  // (linspace(x, x, 2)), and abutting intervals can repeat the shared
  // edge. The intervals are disjoint and sorted, so the concatenation is
  // globally sorted and one unique() pass removes exactly the duplicated
  // probe times — deterministically, without reordering anything.
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

namespace {

/// Receiver transient horizon: input end plus a settling tail sized to
/// the load (heuristic, generous). Shared by the per-call and batched
/// probe paths so both simulate the identical spec.
TransientSpec receiver_spec(const GateParams& receiver, const Pwl& vin,
                            double cload, double dt, double lte_tol,
                            int stale_jacobian_iters) {
  const double tail = 2e-9 + 200.0 * receiver.vdd * cload;
  TransientSpec spec{0.0, vin.t_end() + tail, dt};
  spec.lte_tol = lte_tol;
  spec.stale_jacobian_iters = stale_jacobian_iters;
  return spec;
}

/// Post-processes a simulated receiver output into a ReceiverEval:
/// final 50% crossing plus residual reverse-excursion noise. Shared by
/// evaluate_receiver and the batched probe session, so both measure the
/// identical waveform identically.
ReceiverEval measure_receiver_output(Pwl output, bool out_rising,
                                     double vdd) {
  ReceiverEval ev;
  ev.output = std::move(output);
  const double mid = 0.5 * vdd;
  const auto t50 = ev.output.last_crossing(mid, out_rising);
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

/// "How many nonlinear sims did the search spend" — every candidate
/// alignment costs exactly one receiver evaluation.
obs::Counter& receiver_evals_counter() {
  static obs::Counter& c = obs::metrics().counter("alignment.receiver_evals");
  return c;
}

}  // namespace

ReceiverEval evaluate_receiver(const GateParams& receiver, const Pwl& vin,
                               double cload, bool input_rising, double dt,
                               double lte_tol, GateSimCache* warm,
                               int stale_jacobian_iters) {
  obs::TraceSpan span("receiver.eval", "analyze");
  receiver_evals_counter().add();
  const bool out_rising =
      gate_inverts(receiver.type) ? !input_rising : input_rising;
  const TransientSpec spec =
      receiver_spec(receiver, vin, cload, dt, lte_tol, stale_jacobian_iters);
  auto out = try_simulate_gate(receiver, vin, cload, spec, std::nullopt, warm);
  if (!out.ok()) raise(out.status());
  return measure_receiver_output(std::move(out).value(), out_rising,
                                 receiver.vdd);
}

Pwl shift_pulse_peak_to(const Pwl& composite, double t_target,
                        double* shift_out) {
  const PulseParams p = measure_pulse(composite);
  const double shift = t_target - p.t_peak;
  if (shift_out) *shift_out = shift;
  return composite.shifted(shift);
}

namespace {

/// Receiver-output crossing for the pulse peak placed at `t_peak`.
double delay_for_peak_at(const Pwl& noiseless_sink, const Pwl& composite,
                         const GateParams& receiver, double rcv_load,
                         bool victim_rising, double t_peak, double dt,
                         double lte_tol = 0.0, GateSimCache* warm = nullptr,
                         int stale_jacobian_iters = -1) {
  const PulseParams p = measure_pulse(composite);
  const Pwl noisy = noiseless_sink.add_shifted(composite, t_peak - p.t_peak);
  return evaluate_receiver(receiver, noisy, rcv_load, victim_rising, dt,
                           lte_tol, warm, stale_jacobian_iters)
      .t_out_50;
}

}  // namespace

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

  double before = opts.span_before, after = opts.span_after;
  if (before <= 0) before = slew + pulse.width + 100e-12;
  if (after <= 0) after = slew + pulse.width + 100e-12;
  double lo = *t50 - before, hi = *t50 + after;
  if (opts.has_window()) {
    lo = std::max(lo, opts.window_min);
    hi = std::min(hi, opts.window_max);
    if (!(hi > lo)) {
      lo = opts.window_min;
      hi = opts.window_max;
    }
    if (hi <= lo) hi = lo + 1e-15;
  }

  // Batched probing: every probe in this search simulates the same
  // receiver topology into the same load — only the input waveform
  // differs — so one built circuit/simulator serves the whole search
  // (bit-identical to per-probe construction; see ReceiverProbeSession).
  // The session also subsumes the one-GateSimCache-per-search warm-start
  // discipline the per-probe path used.
  static obs::Counter& c_batched =
      obs::metrics().counter("alignment.batched_probes");
  static obs::Counter& c_batches =
      obs::metrics().counter("alignment.probe_batches");
  ReceiverProbeSession session(receiver, rcv_load, opts.warm_start);
  c_batches.add();
  const bool out_rising =
      gate_inverts(receiver.type) ? !victim_rising : victim_rising;
  auto eval = [&](double t_peak) {
    receiver_evals_counter().add();
    c_batched.add();
    // Peak placement reuses the pulse measured once above — the per-probe
    // path re-measured the (invariant) composite every call — and the
    // fused add_shifted skips the intermediate shifted copy; both are
    // bit-identical replacements (pinned by PwlTest.AddShiftedBitIdentical).
    const double shift = t_peak - pulse.t_peak;
    const Pwl noisy = noiseless_sink.add_shifted(composite, shift);
    const TransientSpec spec =
        receiver_spec(receiver, noisy, rcv_load, opts.dt, opts.lte_tol,
                      opts.stale_jacobian_iters);
    auto out = session.try_run(noisy, spec);
    if (!out.ok()) raise(out.status());
    return measure_receiver_output(std::move(out).value(), out_rising,
                                   receiver.vdd)
        .t_out_50;
  };

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
    // feasible point (or the span edge when the domain is empty) so the
    // caller still gets a well-defined — conservative — alignment.
    coarse.assign(1, opts.domain.clamp(*t50));
  }
  if (coarse.size() < static_cast<std::size_t>(n_coarse))
    c_domain_pruned.add(static_cast<std::uint64_t>(n_coarse) - coarse.size());
  double best_t = coarse.front();
  double best_d = -1e300;
  for (double t : coarse) {
    deadline_checkpoint("alignment search");
    const double d = eval(t);
    if (d > best_d) {
      best_d = d;
      best_t = t;
    }
  }
  // Fine sweep around the best coarse point (+- one coarse step),
  // respecting the window and the feasible domain.
  const double step =
      coarse.size() > 1 ? coarse[1] - coarse[0] : (hi - lo) / n_coarse;
  double flo = best_t - step, fhi = best_t + step;
  if (opts.has_window()) {
    flo = std::max(flo, opts.window_min);
    fhi = std::min(fhi, opts.window_max);
    if (!(fhi > flo)) fhi = flo + 1e-15;
  }
  std::vector<double> fine =
      opts.domain.sample(flo, fhi, std::max(opts.fine_points, 5));
  for (double t : fine) {
    deadline_checkpoint("alignment search");
    const double d = eval(t);
    if (d > best_d) {
      best_d = d;
      best_t = t;
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
  const double dt = opts.dt;
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

  double t_peak = *t_level;
  if (opts.has_window())
    t_peak = std::clamp(t_peak, opts.window_min, opts.window_max);
  t_peak = opts.domain.clamp(t_peak);

  AlignmentResult out;
  out.t_peak = t_peak;
  out.shift = t_peak - pulse.t_peak;
  out.align_voltage = noiseless_sink.at(t_peak);
  out.t_out_50 = delay_for_peak_at(noiseless_sink, composite, receiver,
                                   rcv_load, victim_rising, t_peak, dt,
                                   opts.lte_tol, nullptr,
                                   opts.stale_jacobian_iters);
  return out;
}

}  // namespace dn
