// SPEF-subset reader/writer for coupled nets.
//
// A pragmatic subset of IEEE 1481 SPEF sufficient to round-trip a
// CoupledNet: one *D_NET block per net (victim first), *CONN with the
// driver/receiver annotations this library needs, *CAP with grounded and
// coupling entries, *RES with the wire segments. Units are fixed
// (*T_UNIT 1 PS, *C_UNIT 1 FF, *R_UNIT 1 OHM) and node names are
// "<net>:<index>" with index 0 the driver output.
//
// Grammar (one token stream; '//' comments allowed):
//   *SPEF "dnoise-subset-1"
//   *DESIGN <name>
//   *D_NET <net> *VICTIM|*AGGRESSOR
//   *DRIVER <cell-type> <size> <input-slew-ps> RISE|FALL   // output edge
//   *RECEIVER <cell-type> <size> <load-fF>                 // victim only
//   *SINKLOAD <fF>                                          // aggressor only
//   *SINK <node-index>
//   *CAP  { <net>:<i> <fF>  |  <netA>:<i> <netB>:<j> <fF> } ...
//   *RES  { <net>:<i> <net>:<j> <ohm> } ...
//   *END
#pragma once

#include <iosfwd>
#include <string>

#include "rcnet/net.hpp"
#include "util/status.hpp"

namespace dn {

/// Serializes `net` (victim net named "victim", aggressors "agg<k>").
void write_spef(std::ostream& os, const CoupledNet& net,
                const std::string& design = "dnoise");

/// Parses a dnoise-subset SPEF stream. Malformed input comes back as
/// kInvalidArgument with a context message — never an exception — so a
/// batch run can record the bad deck and keep going.
StatusOr<CoupledNet> try_read_spef(std::istream& is);

/// File variant: kNotFound when the file cannot be opened.
StatusOr<CoupledNet> try_read_spef_file(const std::string& path);

}  // namespace dn
