// Shared helpers for the figure-reproduction benches.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>

#include "core/delay_noise.hpp"
#include "rcnet/random_nets.hpp"
#include "util/durable_io.hpp"
#include "util/statistics.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace dn::bench {

/// Parses "--nets N" / "--seed S" style integer flags; returns fallback
/// when absent.
inline int int_flag(int argc, char** argv, const char* name, int fallback) {
  for (int i = 1; i + 1 < argc; ++i)
    if (std::strcmp(argv[i], name) == 0) return std::atoi(argv[i + 1]);
  return fallback;
}

/// Parses "--out path" style string flags; returns fallback when absent.
inline std::string str_flag(int argc, char** argv, const char* name,
                            const char* fallback) {
  for (int i = 1; i + 1 < argc; ++i)
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  return fallback;
}

inline void print_header(const char* fig, const char* claim) {
  std::printf("==============================================================\n");
  std::printf("%s\n", fig);
  std::printf("shape criterion: %s\n", claim);
  std::printf("==============================================================\n\n");
}

/// PASS/FAIL line for the bench's shape criterion.
inline bool check(const char* what, bool ok) {
  std::printf("[%s] %s\n", ok ? "PASS" : "FAIL", what);
  return ok;
}

/// Receiver-output 50% crossing of `vin` through a freshly built receiver
/// sim into `load` (fixed 1 ps grid, full Newton).
inline double receiver_t50(const GateParams& rcv, const Pwl& vin, double load,
                           bool input_rising) {
  GateSim sim(rcv, load);
  return evaluate_receiver(sim, vin, input_rising).t_out_50;
}

/// Renders a BENCH_*.json artifact into memory and publishes it via the
/// atomic tmp+fsync+rename helper: a reader polling the path (or a crash
/// mid-write) never observes a truncated JSON. `render` receives the
/// stream to write the document into.
template <typename Render>
inline bool write_json_artifact(const std::string& path, Render&& render) {
  std::ostringstream os;
  render(static_cast<std::ostream&>(os));
  const auto s = durable::atomic_write_file(path, os.str());
  if (s.ok()) {
    std::printf("wrote %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "warning: cannot write %s: %s\n", path.c_str(),
                 s.message().c_str());
  }
  return s.ok();
}

/// Host-context JSON fragment (no braces, no trailing comma) recorded in
/// every BENCH_*.json: throughput and speedup figures are meaningless
/// without knowing how many hardware threads the measuring host had.
inline std::string json_host_fields() {
  return "\"hw_concurrency\":" +
         std::to_string(std::thread::hardware_concurrency());
}

}  // namespace dn::bench
