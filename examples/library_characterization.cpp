// Library preparation: pre-characterize every cell the way the paper's
// tool does before analysis — Thevenin tables (reference 10/50/90%
// crossing times) over an (input slew x effective load) grid, plus the 8-point worst-case
// alignment tables per receiver type — and print the results.
//
// Usage: library_characterization
#include <cstdio>
#include <iostream>

#include "ceff/thevenin_table.hpp"
#include "core/alignment_table.hpp"
#include "devices/gate_library.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

using namespace dn;
using namespace dn::units;

int main() {
  std::printf("library pre-characterization (as the tool would run once per "
              "cell library)\n\n");

  const GateLibrary lib = GateLibrary::standard();
  const std::vector<double> slews{80 * ps, 200 * ps, 400 * ps};
  const std::vector<double> loads{10 * fF, 40 * fF, 120 * fF};

  // Thevenin tables for the inverter drive strengths, rising output: the
  // stored input-to-50% delays, and the model a lookup fits at 40 fF.
  std::printf("Thevenin tables over (input slew x load), rising output:\n");
  for (const char* cell : {"INVX1", "INVX2", "INVX4", "INVX8"}) {
    const TheveninTable tbl =
        TheveninTable::characterize(lib.cell(cell), true, slews, loads);
    Table t({"cell", "slew_ps", "t50@10fF_ps", "t50@40fF_ps", "t50@120fF_ps",
             "Rth@40fF", "tr@40fF_ps"});
    for (std::size_t si = 0; si < slews.size(); ++si) {
      const TheveninModel m = tbl.lookup(slews[si], loads[1], 0.0);
      t.add_row({cell, Table::fmt(slews[si] / ps),
                 Table::fmt(tbl.at(si, 0).t50 / ps, 4),
                 Table::fmt(tbl.at(si, 1).t50 / ps, 4),
                 Table::fmt(tbl.at(si, 2).t50 / ps, 4),
                 Table::fmt(m.rth, 4), Table::fmt(m.tr / ps, 4)});
    }
    t.print(std::cout);
    std::printf("\n");
  }

  // Alignment tables (8 points each) for two receiver types.
  std::printf("worst-case alignment voltages [V] (8-point tables, rising "
              "victim):\n");
  AlignmentTableSpec spec;
  spec.search.coarse_points = 25;
  spec.search.fine_points = 11;
  spec.search.dt = 2 * ps;
  for (const char* cell : {"INVX2", "NAND2X2"}) {
    const AlignmentTable tbl =
        AlignmentTable::characterize(lib.cell(cell), true, spec);
    Table t({"cell", "slew", "width", "va@hmin_V", "va@hmax_V"});
    const char* slew_names[2] = {"min", "max"};
    const char* width_names[2] = {"min", "max"};
    for (int si = 0; si < 2; ++si)
      for (int wi = 0; wi < 2; ++wi)
        t.add_row({cell, slew_names[si], width_names[wi],
                   Table::fmt(tbl.alignment_voltage(si, wi, 0), 4),
                   Table::fmt(tbl.alignment_voltage(si, wi, 1), 4)});
    t.print(std::cout);
    std::printf("\n");
  }

  std::printf("done: %zu library cells available; tables above are what the\n"
              "NoiseAnalyzer caches internally on first use.\n",
              lib.size());
  return 0;
}
