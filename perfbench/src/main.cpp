// dn_perfbench — the delay-noise engine's benchmark program.
//
//   dn_perfbench --workload W --seed N --seconds S --trace 0|1
//                [--work-dir DIR] [--tiny]
//
// Workloads: batch_warm, batch_cold, bus_large, eco_serve (README.md).
// Progress goes to stderr; the last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"} carrying the end-to-end
// metrics (--trace 0) or the per-layer metrics (--trace 1). Exits 1 when
// any output check fails, 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: dn_perfbench --workload batch_warm|batch_cold|"
               "bus_large|eco_serve --seed N --seconds S --trace 0|1 "
               "[--work-dir DIR] [--tiny]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    const bool has_value = i + 1 < argc;
    if (std::strcmp(a, "--tiny") == 0) {
      args.tiny = true;
    } else if (std::strcmp(a, "--workload") == 0 && has_value) {
      args.workload = argv[++i];
    } else if (std::strcmp(a, "--seed") == 0 && has_value) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(a, "--seconds") == 0 && has_value) {
      args.seconds = std::strtod(argv[++i], nullptr);
    } else if (std::strcmp(a, "--trace") == 0 && has_value) {
      args.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (std::strcmp(a, "--work-dir") == 0 && has_value) {
      args.work_dir = argv[++i];
    } else {
      return usage();
    }
  }
  if (!(args.seconds > 0.0)) return usage();

  perfbench::Outcome out;
  try {
    if (args.workload == "batch_warm" || args.workload == "batch_cold" ||
        args.workload == "bus_large") {
      out = perfbench::run_batch_workload(args);
    } else if (args.workload == "eco_serve") {
      out = perfbench::run_eco_serve(args);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dn_perfbench: %s\n", e.what());
    return 1;
  }
  perfbench::print_outcome(out);
  return out.correct ? 0 : 1;
}
