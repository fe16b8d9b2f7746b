#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "mapping_text.hpp"
#include "oregami/arch/topology_spec.hpp"
#include "oregami/core/csr_graph.hpp"
#include "oregami/core/synthetic.hpp"
#include "oregami/larcs/compiler.hpp"
#include "oregami/larcs/programs.hpp"
#include "oregami/mapper/driver.hpp"
#include "oregami/mapper/multilevel.hpp"
#include "oregami/metrics/metrics.hpp"
#include "oregami/support/error.hpp"
#include "oregami/support/trace.hpp"

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
  const MapperReport report = map_multilevel(cp.graph, topo, MapperOptions{});
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

TEST(Multilevel, SeedReachesTheVCycle) {
  // MapperOptions::portfolio_seed seeds the coarsening shuffles and the
  // coarsest NN-Embed, whichever entry point runs the V-cycle.
  const TaskGraph graph = make_random_geometric(600, 0.06, kSeed);
  const Topology topo = parse_topology_spec("torus:8x8");
  const auto text_of = [&](const MapperReport& report) {
    return mapping_text(graph, topo, report.mapping);
  };
  MapperOptions options;
  options.multilevel = -1;
  options.portfolio_seed = 1;
  const std::string seed1 = text_of(map_computation(graph, topo, options));
  EXPECT_EQ(text_of(map_computation(graph, topo, options)), seed1);
  options.portfolio_seed = 7;
  EXPECT_NE(text_of(map_computation(graph, topo, options)), seed1);

  options.multilevel = 2;
  EXPECT_EQ(text_of(map_multilevel(graph, topo, options)),
            text_of(map_computation(graph, topo, options)));
}

TEST(Multilevel, RefinementNeverWorsensProjectedStart) {
  // Each committed move is re-probed with delta_move and applied only
  // when strictly improving, so the final completion can never exceed
  // a run with refinement disabled (an expired budget skips refinement
  // at every level and keeps just the projected coarse placement).
  const TaskGraph graph = make_power_law(800, 3, kSeed);
  const Topology topo = Topology::torus(8, 8);
  MapperOptions no_refine;
  no_refine.time_budget_ms = -1;
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
  MapperOptions shallow;
  shallow.multilevel = 1;
  const MapperReport report = map_multilevel(graph, topo, shallow);
  EXPECT_NO_THROW(validate_mapping(report.mapping, graph, topo));
  // One coarsening step caps the hierarchy at two graphs (fine+coarse).
  EXPECT_NE(report.details.find("2 level(s)"), std::string::npos);
}

TEST(Multilevel, ExpiredBudgetStillReturnsValidMapping) {
  const TaskGraph graph = make_stencil2d(16, 16, kSeed);
  const Topology topo = Topology::mesh(4, 4);
  MapperOptions expired;
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

TEST(Multilevel, LaterRoundsProposeOnlyAroundMoves) {
  // Round 1 proposes for every boundary task; round 2 only for the
  // tasks that moved and their neighbours, so its `proposed` counter
  // must fall on every level that reaches a second round. The commit
  // probes each task that holds a proposal once, so round 1 makes at
  // most one probe per proposal and no round moves more tasks than it
  // probes. (Round 2 also probes the proposals kept from round 1, so
  // there `probes` can exceed `proposed`.)
  const auto cp = larcs::compile_source(
      larcs::programs::torus_stencil(), {{"r", 64}, {"c", 64}, {"iters", 1}});
  const Topology topo = parse_topology_spec("torus:8x8");
  trace::clear();
  trace::enable();
  const MapperReport report = map_multilevel(cp.graph, topo);
  trace::disable();
  std::map<std::string, std::vector<std::int64_t>> proposed;
  std::map<std::string, std::vector<std::int64_t>> boundary;
  std::map<std::string, std::vector<std::int64_t>> probes;
  std::map<std::string, std::vector<std::int64_t>> moves;
  for (const trace::Event& e : trace::snapshot()) {
    if (e.kind != trace::Event::Kind::Counter) continue;
    const std::size_t slash = e.path.rfind('/');
    const std::string level = e.path.substr(0, slash);
    const std::string name = e.path.substr(slash + 1);
    if (name == "proposed") {
      proposed[level].push_back(e.value);
    } else if (name == "boundary") {
      boundary[level].push_back(e.value);
    } else if (name == "probes") {
      probes[level].push_back(e.value);
    } else if (name == "moves") {
      moves[level].push_back(e.value);
    }
  }
  trace::clear();
  EXPECT_NO_THROW(validate_mapping(report.mapping, cp.graph, topo));
  int second_rounds = 0;
  for (const auto& [level, counts] : proposed) {
    SCOPED_TRACE(level);
    ASSERT_EQ(counts.size(), boundary[level].size());
    ASSERT_EQ(counts.size(), probes[level].size());
    ASSERT_EQ(counts.size(), moves[level].size());
    // The first round proposes for the whole boundary.
    EXPECT_EQ(counts[0], boundary[level][0]);
    EXPECT_LE(probes[level][0], counts[0]);
    for (std::size_t round = 0; round < counts.size(); ++round) {
      EXPECT_LE(moves[level][round], probes[level][round]);
    }
    if (counts.size() < 2) continue;
    ++second_rounds;
    EXPECT_LT(counts[1], counts[0]);
  }
  EXPECT_GE(second_rounds, 1);
}

// ------------------------------------------------------------ CSR build

/// An undirected (u, v, w) record of a CSR build.
using Record = std::tuple<int, int, std::int64_t>;

/// Sort-and-merge reference: each record with u != v yields the
/// half-edges u -> v and v -> u, sorted by (source, neighbour), equal
/// pairs summed. The layout the library must reproduce exactly.
CsrTaskGraph reference_csr(std::vector<std::int64_t> vertex_weight,
                           const std::vector<Record>& records) {
  const int n = static_cast<int>(vertex_weight.size());
  std::vector<Record> half;
  CsrTaskGraph out;
  for (const auto& [u, v, w] : records) {
    if (u == v) continue;
    half.emplace_back(u, v, w);
    half.emplace_back(v, u, w);
    out.total_edge_weight += w;
  }
  std::sort(half.begin(), half.end(), [](const Record& a, const Record& b) {
    return std::tie(std::get<0>(a), std::get<1>(a)) <
           std::tie(std::get<0>(b), std::get<1>(b));
  });
  out.offsets.assign(static_cast<std::size_t>(n) + 1, 0);
  for (std::size_t i = 0; i < half.size(); ++i) {
    const auto [u, v, w] = half[i];
    if (i > 0 && std::get<0>(half[i - 1]) == u &&
        std::get<1>(half[i - 1]) == v) {
      out.edge_weight.back() += w;
      continue;
    }
    out.neighbors.push_back(v);
    out.edge_weight.push_back(w);
    ++out.offsets[static_cast<std::size_t>(u) + 1];
  }
  for (std::size_t v = 1; v < out.offsets.size(); ++v) {
    out.offsets[v] += out.offsets[v - 1];
  }
  for (const std::int64_t w : vertex_weight) out.total_vertex_weight += w;
  out.vertex_weight = std::move(vertex_weight);
  return out;
}

void expect_same_csr(const CsrTaskGraph& got, const CsrTaskGraph& want) {
  EXPECT_EQ(got.offsets, want.offsets);
  EXPECT_EQ(got.neighbors, want.neighbors);
  EXPECT_EQ(got.edge_weight, want.edge_weight);
  EXPECT_EQ(got.vertex_weight, want.vertex_weight);
  EXPECT_EQ(got.total_edge_weight, want.total_edge_weight);
  EXPECT_EQ(got.total_vertex_weight, want.total_vertex_weight);
}

/// from_task_graph against the reference over the graph's own records.
void expect_task_graph_build(const TaskGraph& graph) {
  const std::vector<long> mult = graph.comm_phase_multiplicity();
  std::vector<Record> records;
  for (std::size_t k = 0; k < graph.comm_phases().size(); ++k) {
    if (mult[k] == 0) continue;  // a phase that never runs adds no edge
    for (const CommEdge& e : graph.comm_phases()[k].edges) {
      records.emplace_back(e.src, e.dst, e.volume * mult[k]);
    }
  }
  expect_same_csr(CsrTaskGraph::from_task_graph(graph),
                  reference_csr(graph.exec_weights(), records));
}

/// coarsen_heavy_edge against the reference over the fine edges mapped
/// through its own projection.
void expect_coarsen_build(const CsrTaskGraph& fine, std::uint64_t seed,
                          int target) {
  const CoarsenResult step = coarsen_heavy_edge(fine, seed, target);
  std::vector<std::int64_t> weight(
      static_cast<std::size_t>(step.coarse.num_vertices()), 0);
  std::vector<Record> records;
  std::int64_t internal = 0;
  for (int v = 0; v < fine.num_vertices(); ++v) {
    const int cv = step.coarse_of_fine[static_cast<std::size_t>(v)];
    weight[static_cast<std::size_t>(cv)] +=
        fine.vertex_weight[static_cast<std::size_t>(v)];
    for (std::size_t i = fine.edge_begin(v); i < fine.edge_end(v); ++i) {
      const int u = fine.neighbors[i];
      if (u <= v) continue;
      const int cu = step.coarse_of_fine[static_cast<std::size_t>(u)];
      if (cu == cv) internal += fine.edge_weight[i];
      records.emplace_back(cv, cu, fine.edge_weight[i]);
    }
  }
  expect_same_csr(step.coarse, reference_csr(std::move(weight), records));
  EXPECT_EQ(step.internalized_weight, internal);
}

TEST(CsrBuild, MatchesSortedReference) {
  // Parallel (0-1 twice in phase 0, again in phase 1), antiparallel
  // (1->0) and self (2->2) edges, a phase the expression never runs
  // (multiplicity 0), and tasks 10 and 11 with no edge at all.
  TaskGraph g;
  for (int t = 0; t < 12; ++t) g.add_task("t" + std::to_string(t));
  const int a = g.add_comm_phase("a");
  const int b = g.add_comm_phase("b");
  const int unused = g.add_comm_phase("unused");
  for (const auto& [u, v, w] : std::vector<Record>{
           {0, 1, 5}, {1, 0, 3}, {0, 1, 2}, {2, 2, 7}, {3, 4, 1},
           {4, 5, 2}, {5, 3, 3}, {0, 9, 1}, {9, 8, 4}, {8, 0, 6}}) {
    g.add_comm_edge(a, u, v, w);
  }
  for (const auto& [u, v, w] : std::vector<Record>{
           {1, 0, 4}, {6, 7, 2}, {7, 6, 2}, {5, 4, 1}, {2, 3, 9}}) {
    g.add_comm_edge(b, u, v, w);
  }
  g.add_comm_edge(unused, 0, 5, 100);
  g.add_comm_edge(unused, 10, 11, 100);
  std::vector<std::int64_t> cost(12);
  for (int t = 0; t < 12; ++t) cost[static_cast<std::size_t>(t)] = t + 1;
  const int work = g.add_exec_phase("work", cost);
  g.set_phase_expr(PhaseTree::seq({PhaseTree::repeat(PhaseTree::comm(a), 3),
                                   PhaseTree::comm(b),
                                   PhaseTree::exec(work)}));
  ASSERT_EQ(g.comm_phase_multiplicity()[static_cast<std::size_t>(unused)],
            0);

  std::vector<TaskGraph> graphs;
  graphs.push_back(std::move(g));
  graphs.push_back(make_power_law(600, 3, kSeed));
  graphs.push_back(make_random_geometric(400, 0.08, kSeed));
  graphs.push_back(make_stencil2d(12, 9, kSeed));
  for (const TaskGraph& graph : graphs) {
    SCOPED_TRACE(graph.num_tasks());
    expect_task_graph_build(graph);
    // Coarsen level after level, fully and to a target.
    CsrTaskGraph fine = CsrTaskGraph::from_task_graph(graph);
    for (int level = 0; level < 6 && fine.num_vertices() > 1; ++level) {
      expect_coarsen_build(fine, kSeed + level, 0);
      expect_coarsen_build(fine, kSeed + level, fine.num_vertices() * 3 / 4);
      fine = coarsen_heavy_edge(fine, kSeed + level, 0).coarse;
    }
  }
}

}  // namespace
}  // namespace oregami
