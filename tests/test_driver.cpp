#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "oregami/larcs/parser.hpp"
#include "oregami/larcs/programs.hpp"
#include "oregami/mapper/canned.hpp"
#include "oregami/mapper/driver.hpp"
#include "oregami/mapper/mwm_contract.hpp"
#include "oregami/mapper/paper_examples.hpp"
#include "oregami/support/rng.hpp"

namespace oregami {
namespace {

larcs::CompiledProgram compile_named(
    const std::string& source,
    const std::map<std::string, long>& bindings) {
  return larcs::compile_source(source, bindings);
}

/// Tasks on each processor of `mapping`, indexed by processor id.
std::map<int, int> tasks_per_proc(const Mapping& mapping) {
  std::map<int, int> load;
  for (const int p : mapping.proc_of_task()) {
    ++load[p];
  }
  return load;
}

/// Processors hosting at least one task.
int procs_used(const Mapping& mapping) {
  return static_cast<int>(tasks_per_proc(mapping).size());
}

/// The most tasks any one processor hosts.
int max_tasks_per_proc(const Mapping& mapping) {
  int most = 0;
  for (const auto& [proc, tasks] : tasks_per_proc(mapping)) {
    most = std::max(most, tasks);
  }
  return most;
}

TEST(Driver, RingPipelinePicksCannedStrategy) {
  const auto cp = compile_named(larcs::programs::ring_pipeline(),
                                {{"n", 16}, {"stages", 4}});
  const auto ast = larcs::parse_program(larcs::programs::ring_pipeline());
  const auto report = map_program(ast, cp, Topology::hypercube(4));
  EXPECT_EQ(report.strategy, MapStrategy::Canned);
  EXPECT_NE(report.details.find("family hint 'ring'"), std::string::npos);
  EXPECT_NE(report.details.find("Gray"), std::string::npos);
}

TEST(Driver, JacobiHintUsesMeshTiling) {
  const auto ast = larcs::parse_program(larcs::programs::jacobi());
  const auto cp = larcs::compile(ast, {{"n", 8}, {"iters", 2}});
  const auto report = map_program(ast, cp, Topology::mesh(4, 4));
  EXPECT_EQ(report.strategy, MapStrategy::Canned);
  EXPECT_NE(report.details.find("tiling"), std::string::npos);
  EXPECT_EQ(procs_used(report.mapping), 16);
  EXPECT_EQ(max_tasks_per_proc(report.mapping), 4);
}

TEST(Driver, MatmulPicksSystolicOnMesh) {
  const auto ast = larcs::parse_program(larcs::programs::matmul_systolic());
  const auto cp = larcs::compile(ast, {{"n", 4}});
  const auto report = map_program(ast, cp, Topology::mesh(4, 4));
  EXPECT_EQ(report.strategy, MapStrategy::Systolic);
  EXPECT_NE(report.details.find("lambda"), std::string::npos);
  EXPECT_EQ(procs_used(report.mapping), 16);
}

TEST(Driver, SystolicDisabledFallsThrough) {
  const auto ast = larcs::parse_program(larcs::programs::matmul_systolic());
  const auto cp = larcs::compile(ast, {{"n", 4}});
  MapperOptions options;
  options.allow_systolic = false;
  const auto report = map_program(ast, cp, Topology::mesh(4, 4), options);
  EXPECT_NE(report.strategy, MapStrategy::Systolic);
}

TEST(Driver, NbodyPicksGroupTheoreticStrategy) {
  const auto cp = compile_named(larcs::programs::nbody(),
                                {{"n", 16}, {"s", 2}, {"m", 1}});
  const auto report = map_computation(cp.graph, Topology::hypercube(3));
  EXPECT_EQ(report.strategy, MapStrategy::GroupTheoretic);
  EXPECT_NE(report.details.find("Cayley"), std::string::npos);
  // 16 tasks over 8 processors: clusters of 2.
  EXPECT_EQ(procs_used(report.mapping), 8);
  EXPECT_EQ(max_tasks_per_proc(report.mapping), 2);
}

TEST(Driver, GroupDisabledFallsToGeneral) {
  const auto cp = compile_named(larcs::programs::nbody(),
                                {{"n", 16}, {"s", 2}, {"m", 1}});
  MapperOptions options;
  options.allow_group = false;
  const auto report =
      map_computation(cp.graph, Topology::hypercube(3), options);
  EXPECT_EQ(report.strategy, MapStrategy::General);
  EXPECT_NE(report.details.find("matching"), std::string::npos);
}

TEST(Driver, FftStagesFormElementaryAbelianGroup) {
  // The staged FFT's comm functions are the XOR involutions, which
  // generate (Z_2)^4 acting regularly -- with the canned path disabled
  // the driver must pick the group-theoretic contraction.
  const auto cp =
      larcs::compile_source(larcs::programs::fft(4), {{"n", 16}});
  MapperOptions options;
  options.allow_canned = false;
  const auto report =
      map_computation(cp.graph, Topology::hypercube(3), options);
  EXPECT_EQ(report.strategy, MapStrategy::GroupTheoretic);
  EXPECT_EQ(max_tasks_per_proc(report.mapping), 2);
}

TEST(Driver, FftAggregateIsAHypercubeForCannedPath) {
  const auto cp =
      larcs::compile_source(larcs::programs::fft(4), {{"n", 16}});
  const auto report = map_computation(cp.graph, Topology::hypercube(3));
  EXPECT_EQ(report.strategy, MapStrategy::Canned);
  EXPECT_NE(report.details.find("hypercube"), std::string::npos);
}

TEST(Driver, IrregularGraphUsesGeneralPath) {
  SplitMix64 rng(5);
  TaskGraph g;
  for (int i = 0; i < 14; ++i) {
    g.add_task("t" + std::to_string(i));
  }
  const int phase = g.add_comm_phase("p");
  for (int i = 0; i < 14; ++i) {
    for (int j = i + 1; j < 14; ++j) {
      if (rng.next_double() < 0.3) {
        g.add_comm_edge(phase, i, j, rng.next_in(1, 9));
      }
    }
  }
  const auto report = map_computation(g, Topology::mesh(2, 3));
  EXPECT_EQ(report.strategy, MapStrategy::General);
  EXPECT_LE(procs_used(report.mapping), 6);
}

/// Each task's processor under `contraction` then `embedding`.
std::vector<int> compose(const Contraction& contraction,
                         const Embedding& embedding) {
  std::vector<int> procs;
  for (const int c : contraction.cluster_of_task) {
    procs.push_back(embedding.proc_of_cluster[static_cast<std::size_t>(c)]);
  }
  return procs;
}

TEST(Driver, CannedPlacementComposesTheCannedLayers) {
  const auto ast = larcs::parse_program(larcs::programs::ring_pipeline());
  const auto cp = larcs::compile(ast, {{"n", 16}, {"stages", 8}});
  const Topology topo = Topology::mesh(4, 4);
  const auto report = map_program(ast, cp, topo);
  ASSERT_EQ(report.strategy, MapStrategy::Canned);
  const auto family = detect_specific_family(cp.graph.aggregate_graph(),
                                             GraphFamily::Ring);
  ASSERT_TRUE(family.has_value());
  const auto canned = canned_mapping(*family, topo);
  ASSERT_TRUE(canned.has_value());
  EXPECT_EQ(report.mapping.proc_of_task(),
            compose(canned->contraction, canned->embedding));
}

TEST(Driver, GeneralPlacementComposesContractionAndEmbedding) {
  SplitMix64 rng(11);
  TaskGraph g;
  for (int i = 0; i < 20; ++i) {
    g.add_task("t" + std::to_string(i));
  }
  const int phase = g.add_comm_phase("p");
  for (int i = 0; i < 20; ++i) {
    for (int j = i + 1; j < 20; ++j) {
      if (rng.next_double() < 0.25) {
        g.add_comm_edge(phase, i, j, rng.next_in(1, 9));
      }
    }
  }
  const Topology topo = Topology::mesh(2, 3);
  const auto report = map_computation(g, topo);
  ASSERT_EQ(report.strategy, MapStrategy::General);
  const MwmContractResult contract =
      mwm_contract(g.aggregate_graph(), topo.num_procs());
  const Embedding embedding = embed_clusters(g, contract.contraction, topo);
  EXPECT_EQ(report.mapping.proc_of_task(),
            compose(contract.contraction, embedding));
}

TEST(Driver, MappingAlwaysValidates) {
  // validate_mapping runs inside the driver; re-run it here explicitly
  // for a spread of workloads and topologies.
  const auto nbody = compile_named(larcs::programs::nbody(),
                                   {{"n", 15}, {"s", 1}, {"m", 2}});
  for (const auto& topo :
       {Topology::hypercube(3), Topology::mesh(2, 4), Topology::ring(5),
        Topology::complete_binary_tree(3)}) {
    const auto report = map_computation(nbody.graph, topo);
    EXPECT_NO_THROW(validate_mapping(report.mapping, nbody.graph, topo))
        << topo.name();
  }
}

TEST(Driver, ClusterGraphAggregatesVolumes) {
  TaskGraph g;
  for (int i = 0; i < 4; ++i) {
    g.add_task("t" + std::to_string(i));
  }
  const int p = g.add_comm_phase("p");
  g.add_comm_edge(p, 0, 2, 5);
  g.add_comm_edge(p, 2, 0, 7);
  g.add_comm_edge(p, 0, 1, 100);  // internal to cluster 0
  Contraction c;
  c.num_clusters = 2;
  c.cluster_of_task = {0, 0, 1, 1};
  const Graph cg = cluster_graph_of(g, c);
  EXPECT_EQ(cg.num_edges(), 1);
  EXPECT_EQ(cg.edge_weight(0, 1), 12);
}

TEST(Driver, EmbedClustersUsesCannedForNameableClusterGraph) {
  // Contract a 16-ring to an 8-ring of clusters: the cluster graph is
  // itself a ring, so the embedding comes from the canned library.
  const auto cp = compile_named(larcs::programs::ring_pipeline(),
                                {{"n", 16}, {"stages", 1}});
  Contraction c;
  c.num_clusters = 8;
  c.cluster_of_task.resize(16);
  for (int t = 0; t < 16; ++t) {
    c.cluster_of_task[static_cast<std::size_t>(t)] = t / 2;
  }
  std::string how;
  const auto topo = Topology::hypercube(3);
  const auto e = embed_clusters(cp.graph, c, topo, &how);
  EXPECT_NE(how.find("canned"), std::string::npos);
  EXPECT_NO_THROW(e.validate(8));
}

TEST(Driver, ValidateMappingCatchesBadRouting) {
  const auto cp = compile_named(larcs::programs::nbody(),
                                {{"n", 8}, {"s", 1}, {"m", 1}});
  const auto topo = Topology::hypercube(3);
  auto report = map_computation(cp.graph, topo);
  // Drop one phase's routing.
  auto broken = report.mapping;
  broken.routing.pop_back();
  EXPECT_THROW(validate_mapping(broken, cp.graph, topo), MappingError);
  // Corrupt the last link of the first route that crosses one.
  auto corrupted = report.mapping;
  for (Route& route : corrupted.routing[0].route_of_edge) {
    if (!route.links.empty()) {
      route.links.back() ^= 1;
      break;
    }
  }
  EXPECT_THROW(validate_mapping(corrupted, cp.graph, topo), MappingError);
}

TEST(Driver, ValidateMappingCatchesBadPlacement) {
  const auto cp = compile_named(larcs::programs::nbody(),
                                {{"n", 8}, {"s", 1}, {"m", 1}});
  const auto topo = Topology::hypercube(3);
  const auto report = map_computation(cp.graph, topo);
  std::vector<int> procs = report.mapping.proc_of_task();
  procs.pop_back();
  EXPECT_THROW(validate_mapping(Mapping(procs, report.mapping.routing),
                                cp.graph, topo),
               MappingError);
  procs = report.mapping.proc_of_task();
  procs.back() = topo.num_procs();
  EXPECT_THROW(validate_mapping(Mapping(procs, report.mapping.routing),
                                cp.graph, topo),
               MappingError);
  procs.back() = -1;
  EXPECT_THROW(validate_mapping(Mapping(procs, report.mapping.routing),
                                cp.graph, topo),
               MappingError);
}

TEST(Driver, EmptyTaskGraphRejected) {
  TaskGraph g;
  EXPECT_THROW((void)map_computation(g, Topology::ring(3)), MappingError);
}

TEST(OptionContract, EveryRuleNamesFieldsWithTheCallersPrefix) {
  // Each case breaks one rule; "@" stands for the caller's prefix.
  struct Case {
    MapperOptions options;
    std::string violation;
  };
  std::vector<Case> cases(8);
  cases[0].options.portfolio = -1;
  cases[0].violation = "@portfolio must be >= 0";
  cases[1].options.anneal = -1;
  cases[1].violation = "@anneal must be >= 0";
  cases[2].options.multilevel = 65;
  cases[2].violation =
      "@multilevel must be 0 (off), -1 (auto depth) or 1..64 (level cap)";
  cases[3].options.multilevel = -2;
  cases[3].violation = cases[2].violation;
  cases[4].options.jobs = -1;
  cases[4].violation = "@jobs must be >= 0 (0 = all cores)";
  cases[5].options.anneal = 2;
  cases[5].violation = "@anneal requires @portfolio > 0";
  cases[6].options.heft = true;
  cases[6].violation = "@heft requires @portfolio > 0";
  cases[7].options.multilevel = -1;
  cases[7].options.portfolio = 4;
  cases[7].violation = "@multilevel is incompatible with @portfolio";
  for (const std::string prefix : {"options.", "--"}) {
    for (const Case& c : cases) {
      std::string expected = c.violation;
      for (auto at = expected.find('@'); at != std::string::npos;
           at = expected.find('@')) {
        expected.replace(at, 1, prefix);
      }
      EXPECT_EQ(option_violation(c.options, prefix), expected);
    }
  }
}

TEST(OptionContract, AdmitsTheDefaultsAndEveryBoundary) {
  MapperOptions options;
  EXPECT_EQ(option_violation(options, "--"), "");
  options.portfolio = 4;
  options.anneal = 2;
  options.heft = true;
  options.jobs = 0;
  EXPECT_EQ(option_violation(options, "--"), "");
  MapperOptions vcycle;
  for (const int levels : {-1, 1, 64}) {
    vcycle.multilevel = levels;
    EXPECT_EQ(option_violation(vcycle, "options."), "") << levels;
  }
}

TEST(Driver, StrategyNames) {
  EXPECT_EQ(to_string(MapStrategy::Canned), "canned");
  EXPECT_EQ(to_string(MapStrategy::Systolic), "systolic");
  EXPECT_NE(to_string(MapStrategy::General).find("MWM"),
            std::string::npos);
}

}  // namespace
}  // namespace oregami
