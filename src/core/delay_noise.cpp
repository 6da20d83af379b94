#include "core/delay_noise.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
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

/// State of the pre-search aggressor pruning (DESIGN.md §13).
struct PruneInfo {
  std::vector<char> active;  // Empty until something is pruned.
  int by_window = 0;
  int by_exclusion = 0;
};

/// Per-aggressor coupled charge (sum of coupling caps): the dominance
/// measure used to resolve exclusion pairs and to order the window
/// intersection deterministically.
std::vector<double> coupled_caps(const CoupledNet& net) {
  std::vector<double> ccap(net.aggressors.size(), 0.0);
  for (const auto& cc : net.couplings)
    ccap[static_cast<std::size_t>(cc.aggressor)] += cc.c;
  return ccap;
}

/// Resolves pairwise logic-correlation constraints: of each mutually
/// exclusive pair, keep the aggressor coupling more charge into the
/// victim (exact when one side dominates; the standard conservative
/// heuristic otherwise). Ties keep the lower index so the outcome is
/// deterministic at any --jobs.
PruneInfo resolve_exclusions(const CoupledNet& net) {
  PruneInfo p;
  if (net.exclusions.empty()) return p;
  p.active.assign(net.aggressors.size(), 1);
  const std::vector<double> ccap = coupled_caps(net);
  for (const auto& ex : net.exclusions) {
    const auto a = static_cast<std::size_t>(ex.a);
    const auto b = static_cast<std::size_t>(ex.b);
    if (!p.active[a] || !p.active[b]) continue;  // Already resolved.
    const std::size_t loser =
        (ccap[a] < ccap[b] || (ccap[a] == ccap[b] && a > b)) ? a : b;
    p.active[loser] = 0;
    ++p.by_exclusion;
  }
  return p;
}

/// Maps the active aggressors' switching windows onto feasible composite-
/// peak times for THIS composite and intersects them into one domain.
/// The linearized network is LTI, so placing the composite peak at t
/// starts aggressor k's input at t0 + shifts[k] + (t - params.t_peak),
/// with t0 = kInputRampStart; its window [w_early, w_late] therefore admits
///   t in [params.t_peak - shifts[k] + (w_early - t0),
///         params.t_peak - shifts[k] + (w_late  - t0)].
/// Aggressors whose window cannot overlap the (stronger) aggressors
/// already kept are dropped from the composite — they cannot co-switch
/// with it in any cycle.
ScanDomain window_domain(const CoupledNet& net, const ScanDomain& seed,
                         const CompositeAlignment& comp,
                         std::vector<char>& active, int* dropped) {
  const std::size_t n = net.aggressors.size();
  const std::vector<double> ccap = coupled_caps(net);
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t x, std::size_t y) {
                     return ccap[x] > ccap[y];
                   });
  ScanDomain d = seed;
  for (const std::size_t k : order) {
    if (!active.empty() && !active[k]) continue;
    const AggressorDesc& a = net.aggressors[k];
    if (!a.has_window()) continue;
    const double base = comp.params.t_peak - comp.shifts[k] - kInputRampStart;
    ScanDomain trial = d;
    trial.intersect(base + a.window_early, base + a.window_late);
    if (trial.empty()) {
      if (active.empty()) active.assign(n, 1);
      active[k] = 0;
      ++*dropped;
    } else {
      d = std::move(trial);
    }
  }
  return d;
}

/// Peak-aligned composite under the current pruning state, dropping any
/// further aggressors whose windows turn out infeasible against it. Each
/// drop changes the composite (and possibly its anchor), so the mapping
/// is re-derived until the active set is stable — at most n rounds.
CompositeAlignment compose_pruned(const SuperpositionEngine& eng,
                                  double holding_r, const ScanDomain& seed,
                                  PruneInfo& prune, ScanDomain* domain) {
  CompositeAlignment comp = align_aggressor_peaks(
      eng, holding_r, prune.active.empty() ? nullptr : &prune.active);
  *domain = seed;
  const CoupledNet& net = eng.net();
  for (std::size_t round = 0; round <= net.aggressors.size(); ++round) {
    int dropped = 0;
    ScanDomain d = window_domain(net, seed, comp, prune.active, &dropped);
    if (dropped == 0) {
      *domain = std::move(d);
      return comp;
    }
    prune.by_window += dropped;
    comp = align_aggressor_peaks(eng, holding_r, &prune.active);
  }
  return comp;  // Unreachable: every round drops at least one aggressor.
}

const std::vector<char>* mask_of(const CompositeAlignment& comp) {
  return comp.active.empty() ? nullptr : &comp.active;
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

  // Pre-search pruning (DESIGN.md §13): exclusion pairs are resolved once
  // up front; window feasibility is re-derived against each pass's
  // composite (the peak-aligned shifts move with the holding resistance).
  // Nets carrying neither windows nor exclusions prune nothing and
  // reproduce the classic flow bit-for-bit.
  PruneInfo prune = resolve_exclusions(net);
  // `eff` carries the per-pass scan domain into the search options.
  DelayNoiseOptions eff = opts;

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
    out.composite = compose_pruned(eng, out.holding_r, opts.search.domain,
                                   prune, &eff.search.domain);
    out.alignment = choose_alignment(eff, out.noiseless_sink,
                                     out.composite.at_sink, rcv, rising,
                                     warm);
    if (settled || out.rtr_iterations >= max_steps) break;
    std::vector<double> shifts = out.composite.shifts;
    for (double& s : shifts) s += out.alignment.shift;
    double rtr;
    try {
      obs::TraceSpan span("rtr.solve", "analyze");
      rtr = compute_rtr(eng, shifts, out.holding_r, mask_of(out.composite))
                .rtr;
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
  out.aggressors_pruned_window = prune.by_window;
  out.aggressors_pruned_exclusion = prune.by_exclusion;
  if (prune.by_window + prune.by_exclusion > 0) {
    static obs::Counter& c_win =
        obs::metrics().counter("prune.aggressors_window");
    static obs::Counter& c_exc =
        obs::metrics().counter("prune.aggressors_exclusion");
    c_win.add(static_cast<std::uint64_t>(prune.by_window));
    c_exc.add(static_cast<std::uint64_t>(prune.by_exclusion));
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
  for (std::size_t k = 0; k < shifts.size(); ++k) {
    if (!r.composite.active.empty() && !r.composite.active[k]) {
      // Pruned aggressor: park it far past the horizon so a golden
      // nonlinear replay sees it quiet, matching the linear composite.
      shifts[k] = kDroppedAggressorShift;
    } else {
      shifts[k] += r.alignment.shift;
    }
  }
  return shifts;
}

}  // namespace dn
