// Experiment V4 (paper §6 proposal, evaluated): aggregation-topology
// selection. After mapping a stencil workload, an aggregation phase
// must collect one value per processor at a root. Compare the
// load-aware minimax spanning tree against the oblivious BFS tree on
// the bottleneck link load (existing traffic + tree traffic).
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_util.hpp"
#include "oregami/larcs/compiler.hpp"
#include "oregami/larcs/programs.hpp"
#include "oregami/mapper/aggregation.hpp"
#include "oregami/mapper/driver.hpp"
#include "oregami/support/text_table.hpp"

namespace {

using namespace oregami;

/// Oblivious baseline: BFS spanning tree (parents via lowest-id
/// shortest paths), same accounting.
AggregationTree bfs_tree(const Topology& topo, int root,
                         const std::vector<std::int64_t>& load) {
  // choose_aggregation_tree with zero existing load *is* a BFS tree
  // (minimax over zeros ties to hop count); re-account under the real
  // load afterwards.
  AggregationTree tree = choose_aggregation_tree(topo, root, {});
  tree.bottleneck = 0;
  for (int l = 0; l < topo.num_links(); ++l) {
    tree.bottleneck = std::max(
        tree.bottleneck, load[static_cast<std::size_t>(l)] +
                             tree.tree_load[static_cast<std::size_t>(l)]);
  }
  return tree;
}

void print_figure() {
  bench::print_header(
      "V4: aggregation-tree selection under committed phase traffic");
  TextTable table({"workload", "network", "root", "oblivious BFS tree",
                   "load-aware tree"});
  struct Case {
    std::string program;
    std::map<std::string, long> bindings;
  };
  const std::vector<Case> cases = {
      {"torus_stencil", {{"r", 4}, {"c", 4}, {"iters", 4}}},
      {"jacobi", {{"n", 8}, {"iters", 4}}},
      {"nbody", {{"n", 31}, {"s", 2}, {"m", 4}}},
  };
  for (const auto& c : cases) {
    const auto cp = larcs::compile_source(
        larcs::programs::find(c.program)->source, c.bindings);
    for (const auto& topo :
         {Topology::mesh(4, 4), Topology::hypercube(4)}) {
      const auto report = map_computation(cp.graph, topo);
      const auto load =
          committed_link_load(report.mapping.routing, topo.num_links());
      const int root = 0;
      const auto oblivious = bfs_tree(topo, root, load);
      const auto aware = choose_aggregation_tree(topo, root, load);
      table.add_row({c.program, topo.name(), std::to_string(root),
                     std::to_string(oblivious.bottleneck),
                     std::to_string(aware.bottleneck)});
    }
  }
  std::fputs(table.to_string().c_str(), stdout);
  std::printf("(bottleneck = max per-link load including the new "
              "aggregation traffic; lower is better)\n");
}

void BM_ChooseAggregationTree(benchmark::State& state) {
  const auto topo = Topology::hypercube(static_cast<int>(state.range(0)));
  std::vector<std::int64_t> load(
      static_cast<std::size_t>(topo.num_links()), 0);
  SplitMix64 rng(7);
  for (auto& l : load) {
    l = rng.next_in(0, 10);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(choose_aggregation_tree(topo, 0, load));
  }
}
BENCHMARK(BM_ChooseAggregationTree)->Arg(4)->Arg(6)->Arg(8);

}  // namespace

int main(int argc, char** argv) {
  print_figure();
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
