// Parasitics-file flow: write a coupled net to the SPEF-subset format,
// read it back (as a layout-extraction handoff would), and analyze it.
// Demonstrates the same round trip a physical-design flow uses between
// extraction and noise analysis.
//
// Usage: spef_flow [file.spef]
//   With an argument, reads that SPEF file instead of generating one.
#include <cstdio>
#include <iostream>
#include <sstream>
#include <utility>

#include "clarinet/analyzer.hpp"
#include "rcnet/random_nets.hpp"
#include "rcnet/spef.hpp"
#include "util/units.hpp"

using namespace dn;
using namespace dn::units;

int main(int argc, char** argv) {
  CoupledNet net;
  if (argc > 1) {
    std::printf("reading %s\n", argv[1]);
    StatusOr<CoupledNet> parsed = try_read_spef_file(argv[1]);
    if (!parsed.ok()) {
      std::fprintf(stderr, "error: %s\n", parsed.status().to_string().c_str());
      return 1;
    }
    net = *std::move(parsed);
  } else {
    // Generate a parasitic deck from a seeded random net and show it.
    Rng rng(42);
    net = random_coupled_net(rng);
    std::ostringstream deck;
    write_spef(deck, net, "spef_flow_demo");
    std::printf("generated SPEF deck:\n%s\n", deck.str().c_str());

    // Round-trip through the parser, as an extraction handoff would.
    std::istringstream in(deck.str());
    net = try_read_spef(in).value();
  }

  std::printf("net: victim %d segments, %zu aggressors, %.1f fF coupling\n\n",
              net.victim.net.num_nodes - 1, net.aggressors.size(),
              net.total_coupling_cap() / fF);

  NoiseAnalyzer analyzer;
  const StatusOr<DelayNoiseResult> r = analyzer.try_analyze(net);
  if (!r.ok()) {
    std::fprintf(stderr, "error: %s\n", r.status().to_string().c_str());
    return 1;
  }
  DelayNoiseReport::from(net, *r).to_text(std::cout);
  return 0;
}
