// Small standard-cell library.
//
// The paper's pre-characterization approach ("for a particular type of
// receiver gate, we precalculate... after which the alignment for any
// instantiation of the gate is obtained easily through table lookup") needs
// a notion of gate *types* shared across instances; this library provides
// named cells for it. Only examples/library_characterization and the tests
// use it: the random workload generators build their GateParams directly.
#pragma once

#include <string>
#include <vector>

#include "devices/gate.hpp"

namespace dn {

class GateLibrary {
 public:
  /// Builds the default cell set: INV/BUF/NAND2/NOR2 at X1..X8 strengths.
  static GateLibrary standard(double vdd = 1.8);

  /// Adds or replaces a cell.
  void add(const std::string& name, const GateParams& params);

  /// Throws std::out_of_range for unknown names.
  const GateParams& cell(const std::string& name) const;
  bool has(const std::string& name) const;

  std::vector<std::string> names() const;
  std::size_t size() const { return cells_.size(); }

 private:
  std::vector<std::pair<std::string, GateParams>> cells_;
};

}  // namespace dn
