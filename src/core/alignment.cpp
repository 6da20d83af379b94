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
    if (fine)
      probes = opts.domain.sample(best_t - step, best_t + step,
                                  std::max(opts.fine_points, 5));
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
