#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "mapping_text.hpp"
#include "oregami/arch/topology_spec.hpp"
#include "oregami/core/synthetic.hpp"
#include "oregami/larcs/compiler.hpp"
#include "oregami/larcs/programs.hpp"
#include "oregami/mapper/driver.hpp"
#include "oregami/mapper/multilevel.hpp"
#include "oregami/metrics/metrics.hpp"
#include "oregami/support/error.hpp"

namespace oregami {
namespace {

constexpr std::uint64_t kSeed = 0x317EULL;

TEST(Multilevel, ProducesValidMappingOnStencil) {
  const TaskGraph graph = make_stencil2d(20, 20, kSeed);
  const Topology topo = Topology::torus(4, 4);
  const MapperReport report = map_multilevel(graph, topo);
  EXPECT_NO_THROW(validate_mapping(report.mapping, graph, topo));
  EXPECT_EQ(report.strategy, MapStrategy::Multilevel);
  EXPECT_GT(completion_time(graph, report.mapping.proc_of_task(),
                            report.mapping.routing, topo),
            0);
  EXPECT_NE(report.details.find("multilevel V-cycle"), std::string::npos);
}

TEST(Multilevel, ProducesValidMappingOnLarcsProgram) {
  const auto cp = larcs::compile_source(larcs::programs::nbody(),
                                        {{"n", 15}, {"s", 4}, {"m", 8}});
  const Topology topo = parse_topology_spec("mesh:4x4");
  MultilevelOptions ml;
  const MapperReport report = map_multilevel(cp.graph, topo, ml);
  EXPECT_NO_THROW(validate_mapping(report.mapping, cp.graph, topo));
  // The mapping scores finitely under the real model.
  EXPECT_GE(completion_time(cp.graph, report.mapping.proc_of_task(),
                            report.mapping.routing, topo),
            0);
}

TEST(Multilevel, BitIdenticalAcrossJobs) {
  // The determinism contract: --jobs never changes a multilevel
  // mapping. Compare full serialised mappings across 1 / auto / 5.
  const TaskGraph graph = make_random_geometric(600, 0.06, kSeed);
  const Topology topo = Topology::torus(8, 8);
  std::vector<std::string> texts;
  for (const int jobs : {1, 0, 5}) {
    MapperOptions options;
    options.multilevel = -1;
    options.jobs = jobs;
    const MapperReport report = map_computation(graph, topo, options);
    EXPECT_EQ(report.strategy, MapStrategy::Multilevel);
    texts.push_back(mapping_text(graph, topo, report.mapping));
  }
  EXPECT_EQ(texts[0], texts[1]);
  EXPECT_EQ(texts[0], texts[2]);
}

TEST(Multilevel, RefinementNeverWorsensProjectedStart) {
  // Each committed move is re-probed with delta_move and applied only
  // when strictly improving, so the final completion can never exceed
  // a run with refinement disabled (rounds = 0 keeps just the
  // projected coarse placement).
  const TaskGraph graph = make_power_law(800, 3, kSeed);
  const Topology topo = Topology::torus(8, 8);
  MultilevelOptions no_refine;
  no_refine.refine_rounds = 0;
  const MapperReport projected = map_multilevel(graph, topo, no_refine);
  const MapperReport refined = map_multilevel(graph, topo);
  EXPECT_LE(completion_time(graph, refined.mapping.proc_of_task(),
                            refined.mapping.routing, topo),
            completion_time(graph, projected.mapping.proc_of_task(),
                            projected.mapping.routing, topo));
  EXPECT_NO_THROW(validate_mapping(refined.mapping, graph, topo));
}

TEST(Multilevel, LevelCapIsHonored) {
  const TaskGraph graph = make_stencil2d(16, 16, kSeed);
  const Topology topo = Topology::mesh(4, 4);
  MultilevelOptions shallow;
  shallow.max_levels = 1;
  const MapperReport report = map_multilevel(graph, topo, shallow);
  EXPECT_NO_THROW(validate_mapping(report.mapping, graph, topo));
  // One coarsening step caps the hierarchy at two graphs (fine+coarse).
  EXPECT_NE(report.details.find("2 level(s)"), std::string::npos);
}

TEST(Multilevel, ExpiredBudgetStillReturnsValidMapping) {
  const TaskGraph graph = make_stencil2d(16, 16, kSeed);
  const Topology topo = Topology::mesh(4, 4);
  MultilevelOptions expired;
  expired.time_budget_ms = -1;
  const MapperReport report = map_multilevel(graph, topo, expired);
  EXPECT_NO_THROW(validate_mapping(report.mapping, graph, topo));
}

TEST(Multilevel, RejectsDegenerateInputs) {
  const Topology topo = Topology::mesh(2, 2);
  EXPECT_THROW((void)map_multilevel(TaskGraph{}, topo), MappingError);
  // Multi-processor topology with no links cannot route.
  const Topology linkless = Topology::custom("linkless", Graph(3));
  const TaskGraph graph = make_stencil2d(4, 4, kSeed);
  EXPECT_THROW((void)map_multilevel(graph, linkless), MappingError);
}

TEST(Multilevel, DriverDispatchesWhenEnabled) {
  const auto cp = larcs::compile_source(larcs::programs::nbody(),
                                        {{"n", 15}, {"s", 4}, {"m", 8}});
  const Topology topo = parse_topology_spec("mesh:4x4");
  MapperOptions options;
  options.multilevel = -1;  // auto depth
  const MapperReport report = map_computation(cp.graph, topo, options);
  EXPECT_EQ(report.strategy, MapStrategy::Multilevel);
  EXPECT_NO_THROW(validate_mapping(report.mapping, cp.graph, topo));
  // Off by default: the driver keeps its seed strategy selection.
  const MapperReport off = map_computation(cp.graph, topo);
  EXPECT_NE(off.strategy, MapStrategy::Multilevel);
}

TEST(Multilevel, SingleProcessorTopology) {
  const TaskGraph graph = make_stencil2d(6, 6, kSeed);
  const Topology topo = Topology::custom("single", Graph(1));
  const MapperReport report = map_multilevel(graph, topo);
  EXPECT_NO_THROW(validate_mapping(report.mapping, graph, topo));
  for (const int p : report.mapping.proc_of_task()) {
    EXPECT_EQ(p, 0);
  }
}

}  // namespace
}  // namespace oregami
