// Structured per-net analysis report.
//
// A free-form text report is fine for a human at a terminal
// but useless to the batch engine, which must merge millions of per-net
// outcomes into worst-K tables, CSV dumps, and downstream signoff flows.
// DelayNoiseReport is the data; to_text() reproduces the classic report,
// to_json_value() builds the same fields machine-readable and to_json()
// renders that value.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "core/delay_noise.hpp"
#include "util/json.hpp"

namespace dn {

/// Version of every machine-readable JSON artifact this library emits:
/// per-net reports, batch envelopes, and server protocol responses all
/// carry "schema_version". Bump it when a field is renamed, removed, or
/// changes meaning — adding fields is backward compatible and does not
/// bump. tests/golden/report_schema.json pins the rendered bytes, so
/// accidental drift fails CI instead of breaking downstream consumers.
///
/// v2: fidelity-ladder provenance — pruned/deferred net entries in the
/// batch envelope carry "tier"/"bound_ps", analyzed reports may carry
/// "fidelity_tier" and pruned-aggressor counts, and the envelope gains a
/// "ladder" stats object when the ladder is enabled.
///
/// v3: the single-threshold screen is gone — a "screened_out" batch entry
/// is always a ladder prune carrying "tier"/"bound_ps". The ladder-off
/// entry with the raw screening estimate and the screen's two config
/// keys no longer exist.
///
/// v4: one pass per net — the retry budget and the capped ladder are
/// gone. Failed batch entries lose "attempts", the envelope loses
/// "retries", the "ladder" object loses "deferred", and no entry is
/// "deferred" any more; the three config keys that set the ladder's top
/// tier, the retry count and the retry backoff are unknown keys.
///
/// The two v2 pruned-aggressor counts are gone without a bump: no input
/// the library reads could set the per-aggressor windows or pair
/// constraints that produced them.
inline constexpr int kReportSchemaVersion = 4;

struct DelayNoiseReport {
  std::string net_name;         // Optional caller-assigned label.

  // Victim topology.
  std::string victim_driver;    // Cell name, e.g. "INV".
  double victim_driver_size = 0.0;
  int victim_segments = 0;      // Wire segments of the victim net.
  bool victim_rising = true;
  std::size_t num_aggressors = 0;
  double coupling_total_ff = 0.0;

  // Driver model.
  double rth_ohm = 0.0;
  double holding_r_ohm = 0.0;
  int rtr_iterations = 0;       // Rtr steps of the model<->alignment
                                // fix-point (0 under --thevenin).

  // Composite pulse and worst-case alignment.
  double pulse_height_v = 0.0;
  double pulse_width_ps = 0.0;
  double peak_time_ps = 0.0;
  double align_voltage_v = 0.0;

  // The answer.
  double input_delay_noise_ps = 0.0;
  double delay_noise_ps = 0.0;

  // Degradation-ladder steps taken for this net (DESIGN.md §10). Empty
  // on the clean path; when empty, to_text()/to_json() render exactly
  // the classic output, so clean reports stay byte-identical.
  std::vector<Degradation> degradations;
  bool degraded() const { return !degradations.empty(); }

  // Fidelity provenance (DESIGN.md §13). Defaults render NOTHING, so
  // ladder-off reports stay byte-identical to schema v1 modulo the
  // version field itself.
  std::string fidelity_tier;  // "tier0"/"tier1"/"tier2"; empty = no ladder.

  /// Extracts every field from a net + its analysis result.
  static DelayNoiseReport from(const CoupledNet& net, const DelayNoiseResult& r,
                               std::string name = "");

  /// The classic human-readable report.
  std::string to_text() const;
  void to_text(std::ostream& os) const;

  /// One JSON object, keys fixed; to_json() is its json::Value::dump
  /// (numbers in the shortest round-trip form).
  json::Value to_json_value() const;
  std::string to_json() const;
  void to_json(std::ostream& os) const;
};

}  // namespace dn
