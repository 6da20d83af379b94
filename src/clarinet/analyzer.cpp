#include "clarinet/analyzer.hpp"

#include <stdexcept>

#include "util/trace.hpp"

namespace dn {

NoiseAnalyzer::NoiseAnalyzer(AnalyzerConfig config)
    : config_(std::move(config)),
      cache_(std::make_shared<CharacterizationCache>(config_.table_spec)) {}

NoiseAnalyzer::NoiseAnalyzer(AnalyzerConfig config,
                             std::shared_ptr<CharacterizationCache> cache)
    : config_(std::move(config)), cache_(std::move(cache)) {
  if (!cache_)
    throw std::invalid_argument("NoiseAnalyzer: null characterization cache");
  config_.table_spec = cache_->spec();
}

StatusOr<DelayNoiseResult> NoiseAnalyzer::try_analyze(
    const CoupledNet& net) const {
  static obs::Counter& c_ok = obs::metrics().counter("analyze.nets_ok");
  static obs::Counter& c_failed =
      obs::metrics().counter("analyze.nets_failed");
  static obs::Histogram& h_seconds =
      obs::metrics().histogram("stage.analyze.seconds");
  obs::StageScope stage("net.analyze", "analyze", h_seconds);
  try {
    net.validate();
  } catch (const std::exception& e) {
    c_failed.add();
    return Status::InvalidArgument(e.what());
  }
  // Every degradation-ladder step taken below (engine, characterization,
  // solver, rtr) lands in this log and travels with the result.
  degrade::ScopedLog degrade_log;
  try {
    DelayNoiseOptions opts = config_.analysis;
    SuperpositionOptions eng_opts = config_.engine;
    // The ladder policy gates each rung wherever it lives.
    eng_opts.solver.allow_dense_fallback = opts.degrade.sparse_to_dense;
    SuperpositionEngine eng(net, eng_opts);
    if (opts.method == AlignmentMethod::Predicted) {
      auto table = cache_->try_table_for(net.victim.receiver,
                                         net.victim.output_rising);
      if (table.ok()) {
        opts.table = *table;
      } else if (opts.degrade.table_to_vdd2) {
        // Degradation ladder: characterization failed -> the method of
        // [5] (peak aligned near the Vdd/2 crossing), which needs no
        // table. Loses the predicted-alignment accuracy, keeps the net.
        degrade::record(DegradeKind::kTableToVdd2,
                        "alignment-table characterization failed (" +
                            table.status().message() +
                            "); using receiver-input-peak alignment");
        opts.method = AlignmentMethod::ReceiverInputPeak;
      } else {
        c_failed.add();
        return table.status();
      }
    }
    DelayNoiseResult r = analyze_delay_noise(eng, opts);
    r.degradations = dedup_degradations(degrade_log.take());
    c_ok.add();
    return r;
  } catch (const std::exception& e) {
    c_failed.add();
    return status_from_exception(e);
  }
}

}  // namespace dn
