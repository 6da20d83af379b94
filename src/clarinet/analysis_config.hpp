// AnalysisConfig: the ONE externally-settable configuration surface.
//
// Every knob a user can turn — batch fan-out, fidelity-ladder triage,
// the deadline budget, engine time grid, solver backend, alignment
// method, the Rtr step cap and the Newton iteration limit — is a named
// JSON key on this struct. The CLI flag parser and the server's `config`
// verb both build a json object and funnel it through the same
// from_json/apply path, so there is exactly one place where validation
// happens and an invalid configuration is always kInvalidArgument, never
// a crash deep in the engine.
//
// Contract:
//   - apply() merges keys into the current config; unknown keys and
//     out-of-range values are kInvalidArgument and leave *this intact.
//   - Each key writes one value into one home per layer: only lte_tol
//     and stale_jacobian_iters fan out (engine, per-net search, table
//     search) and warm_start (per-net search, table search), and those
//     homes share one default, so apply() is a plain field map: key
//     order never matters.
//   - to_json() emits EVERY key in a fixed order, so
//     from_json(cfg.to_json()) round-trips and two configs are equal iff
//     their JSON renderings are byte-identical. validate() rejects what
//     no key expresses (a method other than Predicted or Exhaustive).
#pragma once

#include <string>
#include <string_view>

#include "clarinet/batch_analyzer.hpp"
#include "util/json.hpp"
#include "util/status.hpp"

namespace dn {

struct AnalysisConfig {
  /// The full engine stack: batch-level knobs plus the embedded
  /// AnalyzerConfig (engine/analysis/table options).
  BatchOptions batch{};

  /// Parses a complete config: defaults overlaid with the object's keys.
  static StatusOr<AnalysisConfig> from_json(const json::Value& v);
  static StatusOr<AnalysisConfig> from_json(std::string_view text);

  /// Merges `v` (a json object) into *this. Strong guarantee: on any
  /// error — unknown key, wrong type, out-of-range value — *this is
  /// unchanged and the Status is kInvalidArgument.
  Status apply(const json::Value& v);

  /// Every key, fixed order, current values. Round-trips through
  /// from_json.
  json::Value to_json() const;
  std::string to_json_text() const;

  /// Range-checks the current values (apply/from_json already call it).
  Status validate() const;
};

}  // namespace dn
