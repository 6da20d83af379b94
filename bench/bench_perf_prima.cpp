// Performance ablation: PRIMA reduce-once / simulate-many vs full-order
// simulation — the scalability argument behind the paper's use of linear
// driver models ("a reduced-order model of the network needs to be created
// only once ... and is then reused in all different driver simulations").
#include <benchmark/benchmark.h>

#include <memory>

#include "circuit/mna.hpp"
#include "mor/prima.hpp"
#include "rcnet/net.hpp"
#include "util/units.hpp"

namespace {

using namespace dn;
using namespace dn::units;

struct LineSystem {
  Circuit ckt;
  DescriptorSystem sys;
};

/// RC line of `segments` driven by a current source at the root (grounded
/// through a holding resistance), observed at the far end.
std::unique_ptr<LineSystem> make_system(int segments) {
  auto ls = std::make_unique<LineSystem>();
  const RcTree line = make_line(segments, 2 * kOhm, 200 * fF);
  const auto map = line.instantiate(ls->ckt, "n");
  ls->ckt.add_resistor(map[0], kGround, 500.0);
  MnaSystem mna(ls->ckt);
  ls->sys.G = mna.Gs().to_dense();
  ls->sys.C = mna.Cs().to_dense();
  ls->sys.B = Matrix(mna.dim(), 1);
  ls->sys.B(mna.node_index(map[0]), 0) = 1.0;
  ls->sys.L = Matrix(mna.dim(), 1);
  ls->sys.L(mna.node_index(map[static_cast<std::size_t>(line.sink)]), 0) = 1.0;
  return ls;
}

const std::vector<Pwl> kInput{Pwl({0.0, 100 * ps, 200 * ps, 300 * ps, 2 * ns},
                                  {0.0, 0.0, 0.5 * mA, 0.0, 0.0})};
const TransientSpec kSpec{0.0, 2 * ns, 2 * ps};

void BM_FullOrderTransient(benchmark::State& state) {
  const auto ls = make_system(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto y = simulate_descriptor(ls->sys, kInput, kSpec);
    benchmark::DoNotOptimize(y);
  }
  state.SetLabel("full order n=" + std::to_string(ls->sys.G.rows()));
}

void BM_PrimaReduce(benchmark::State& state) {
  const auto ls = make_system(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto rm = prima(ls->sys, 8);
    benchmark::DoNotOptimize(rm);
  }
}

void BM_ReducedTransient(benchmark::State& state) {
  const auto ls = make_system(static_cast<int>(state.range(0)));
  const ReducedModel rm = prima(ls->sys, 8);
  for (auto _ : state) {
    auto y = simulate_descriptor(rm.sys, kInput, kSpec);
    benchmark::DoNotOptimize(y);
  }
  state.SetLabel("reduced order " + std::to_string(rm.order()));
}

BENCHMARK(BM_FullOrderTransient)->Arg(20)->Arg(60)->Arg(150)->Arg(300)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PrimaReduce)->Arg(20)->Arg(60)->Arg(150)->Arg(300)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ReducedTransient)->Arg(20)->Arg(60)->Arg(150)->Arg(300)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
