// Shared plumbing of the delay-noise benchmark program: command-line
// arguments, the result record every workload fills, sample statistics,
// and the configuration every workload analyzes with.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "clarinet/analysis_config.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  // Measured time of one run, split across phases.
  bool trace = false;     // Per-layer (traced) run instead of end-to-end.
  bool tiny = false;      // Smoke-test sizes (the benchmark's own test).
  std::string work_dir = ".";  // Scratch space: server state, trace file.
};

/// One named, unit-carrying number of the final JSON line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports: output checks, attempt/failure counts, metrics.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  /// Records an output check; a failed check marks the run incorrect and
  /// is reported on stderr.
  void check(bool ok, const std::string& what);
  void add(const std::string& name, double value, const std::string& unit);
};

/// Analysis threads for every parallel phase: min(4, hardware threads).
int analysis_jobs();

/// The configuration `dnoise_cli` users get (AnalysisConfig defaults),
/// with only the batch fan-out set.
dn::AnalysisConfig default_config(int jobs);

/// Monotonic wall clock [s].
double now_s();

/// Peak resident set size of this process [MB].
double peak_rss_mb();

/// Prints the last stdout line: {"correct","attempted","failed","metrics"}.
void print_outcome(const Outcome& out);

}  // namespace perfbench
