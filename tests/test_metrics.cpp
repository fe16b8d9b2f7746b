#include <gtest/gtest.h>

#include "oregami/arch/routes.hpp"
#include "oregami/metrics/incremental.hpp"
#include "oregami/metrics/metrics.hpp"
#include "oregami/sim/network_sim.hpp"

namespace oregami {
namespace {

/// 4 tasks on a 4-ring: ring comm phase, one exec phase, placed
/// directly (task i on processor i).
struct Fixture {
  TaskGraph graph;
  Topology topo = Topology::ring(4);
  std::vector<int> procs{0, 1, 2, 3};
  std::vector<PhaseRouting> routing;

  Fixture() {
    for (int i = 0; i < 4; ++i) {
      graph.add_task("t" + std::to_string(i));
    }
    const int ring = graph.add_comm_phase("ring");
    for (int i = 0; i < 4; ++i) {
      graph.add_comm_edge(ring, i, (i + 1) % 4, 3);
    }
    graph.add_exec_phase("work", {10, 20, 30, 40});
    graph.set_phase_expr(PhaseTree::repeat(
        PhaseTree::seq({PhaseTree::exec(0), PhaseTree::comm(0)}), 2));
    PhaseRouting pr;
    for (int i = 0; i < 4; ++i) {
      pr.route_of_edge.push_back(
          greedy_shortest_route(topo, i, (i + 1) % 4));
    }
    routing.push_back(std::move(pr));
  }
};

TEST(CompletionModel, ExecPhaseIsMaxOverProcessors) {
  const Fixture f;
  EXPECT_EQ(exec_phase_time(f.graph, 0, f.procs, 4), 40);
  // Two tasks stacked on one processor add up.
  const std::vector<int> stacked{0, 1, 2, 2};
  EXPECT_EQ(exec_phase_time(f.graph, 0, stacked, 4), 30 + 40);
}

TEST(CompletionModel, CommPhaseCombinesVolumeAndLatency) {
  const Fixture f;
  // Each ring link carries exactly one message of volume 3; all routes
  // are 1 hop: time = 3 * per_unit + 1 * hop_latency.
  CostModel model;
  model.hop_latency = 5;
  model.per_unit_cost = 2;
  EXPECT_EQ(comm_phase_time(f.graph, 0, f.routing[0], f.topo, model),
            3 * 2 + 1 * 5);
}

TEST(CompletionModel, PhaseTreeArithmetic) {
  const Fixture f;
  const CostModel model;  // unit costs
  // exec = 40, comm = 3 + 1 = 4, repeated twice: (40 + 4) * 2.
  EXPECT_EQ(completion_time(f.graph, f.procs, f.routing, f.topo, model),
            88);
}

TEST(CompletionModel, ParallelTakesMax) {
  Fixture f;
  f.graph.set_phase_expr(
      PhaseTree::par({PhaseTree::exec(0), PhaseTree::comm(0)}));
  EXPECT_EQ(completion_time(f.graph, f.procs, f.routing, f.topo, {}), 40);
}

TEST(CompletionModel, IdleFallbackSumsEverythingOnce) {
  Fixture f;
  f.graph.set_phase_expr(PhaseTree::idle());
  EXPECT_EQ(completion_time(f.graph, f.procs, f.routing, f.topo, {}),
            40 + 4);
}

/// Every scorer composes per-phase costs through the phase expression
/// the same way. Comm phase "a" and exec phase "w" each appear twice,
/// in a Seq and in a Par under a Repeat; comm phase "b" and exec phase
/// "x" are left out (multiplicity 0). Every route is one uncontended
/// hop, so the simulator's makespans equal the analytic phase costs.
TEST(CompletionModel, EveryScorerComposesPhasesAlike) {
  TaskGraph graph;
  for (int i = 0; i < 4; ++i) {
    graph.add_task("t" + std::to_string(i));
  }
  const int a = graph.add_comm_phase("a");
  const int b = graph.add_comm_phase("b");
  for (int i = 0; i < 4; ++i) {
    graph.add_comm_edge(a, i, (i + 1) % 4, 3);
    graph.add_comm_edge(b, (i + 1) % 4, i, 1);
  }
  const int w = graph.add_exec_phase("w", {1, 2, 3, 4});
  graph.add_exec_phase("x", {5, 6, 7, 8});
  graph.set_phase_expr(PhaseTree::repeat(
      PhaseTree::seq({PhaseTree::comm(a), PhaseTree::exec(w),
                      PhaseTree::par({PhaseTree::comm(a),
                                      PhaseTree::exec(w)})}),
      3));

  const Topology topo = Topology::ring(4);
  const std::vector<int> procs{0, 1, 2, 3};
  std::vector<PhaseRouting> routing(2);
  for (std::size_t k = 0; k < 2; ++k) {
    for (const auto& e : graph.comm_phases()[k].edges) {
      routing[k].route_of_edge.push_back(
          greedy_shortest_route(topo, e.src, e.dst));
    }
  }
  CostModel model;
  model.hop_latency = 5;
  model.per_unit_cost = 2;
  SimConfig sim;
  sim.model = model;
  const FaultedTopology healthy(topo, FaultSpec{});

  // Phase costs: a = 3*2 + 5 = 11, b = 1*2 + 5 = 7, w = 4, x = 8.
  const auto expect_every_scorer = [&](std::int64_t expected) {
    EXPECT_EQ(completion_time(graph, procs, routing, topo, model),
              expected);
    EXPECT_EQ(compute_metrics(graph, procs, routing, topo, model).completion,
              expected);
    EXPECT_EQ(simulate(graph, procs, routing, topo, sim).total_cycles,
              expected);
    EXPECT_EQ(degraded_completion_time(graph, procs, routing, healthy, model),
              expected);
  };
  // IncrementalCompletion scores the default model (a = 3 + 1 = 4,
  // b = 1 + 1 = 2), and agrees with every other scorer run at it.
  const auto expect_default_scorers = [&](std::int64_t expected) {
    EXPECT_EQ(IncrementalCompletion(graph, topo, procs, routing).completion(),
              expected);
    EXPECT_EQ(completion_time(graph, procs, routing, topo), expected);
    EXPECT_EQ(compute_metrics(graph, procs, routing, topo).completion,
              expected);
    EXPECT_EQ(simulate(graph, procs, routing, topo).total_cycles, expected);
    EXPECT_EQ(degraded_completion_time(graph, procs, routing, healthy),
              expected);
  };
  // (a; w; (a || w))^3 = 3 * (11 + 4 + max(11, 4)).
  expect_every_scorer(78);
  expect_default_scorers(3 * (4 + 4 + 4));

  // Slow the link under a's first message by 3: a = 3*3*2 + 5 = 23.
  const int link = routing[0].route_of_edge[0].links.front();
  const FaultedTopology slowed(
      topo, FaultSpec::parse("s" + std::to_string(link) + ":3", topo));
  std::vector<std::int64_t> factors;
  for (int l = 0; l < topo.num_links(); ++l) {
    factors.push_back(slowed.link_slowdown(l));
  }
  EXPECT_EQ(degraded_completion_time(graph, procs, routing, slowed, model),
            3 * (23 + 4 + 23));
  // At the default model: a = 3*3 + 1 = 10.
  EXPECT_EQ(degraded_completion_time(graph, procs, routing, slowed),
            3 * (10 + 4 + 10));
  EXPECT_EQ(IncrementalCompletion(graph, topo, procs, routing, factors)
                .completion(),
            3 * (10 + 4 + 10));

  // An Idle expression runs every phase once, the unused ones included.
  graph.set_phase_expr(PhaseTree::idle());
  expect_every_scorer(11 + 7 + 4 + 8);
  expect_default_scorers(4 + 2 + 4 + 8);
}

TEST(IncrementalCompletion, MappingMovesOutPlacementAndRoutes) {
  const Fixture f;
  IncrementalCompletion inc(f.graph, f.topo, f.procs, f.routing);
  (void)inc.apply_move(0, 2);
  const std::vector<int> procs = inc.proc_of_task();
  const std::vector<PhaseRouting> routing = inc.routing();
  const Mapping mapping = std::move(inc).mapping();
  EXPECT_EQ(mapping.proc_of_task(), procs);
  EXPECT_EQ(mapping.proc_of_task(), (std::vector<int>{2, 1, 2, 3}));
  ASSERT_EQ(mapping.routing.size(), routing.size());
  const auto& routes = mapping.routing[0].route_of_edge;
  ASSERT_EQ(routes.size(), routing[0].route_of_edge.size());
  for (std::size_t i = 0; i < routes.size(); ++i) {
    EXPECT_EQ(routes[i].links, routing[0].route_of_edge[i].links) << i;
  }
}

TEST(Metrics, LoadSide) {
  const Fixture f;
  const auto m =
      compute_metrics(f.graph, f.procs, f.routing, f.topo, {});
  EXPECT_EQ(m.load.tasks_per_proc, (std::vector<int>{1, 1, 1, 1}));
  EXPECT_EQ(m.load.max_tasks, 1);
  EXPECT_DOUBLE_EQ(m.load.avg_tasks, 1.0);
  // exec multiplicity 2: loads 20, 40, 60, 80.
  EXPECT_EQ(m.load.exec_per_proc,
            (std::vector<std::int64_t>{20, 40, 60, 80}));
  EXPECT_EQ(m.load.max_exec, 80);
  EXPECT_DOUBLE_EQ(m.load.exec_imbalance, 80.0 * 4 / 200.0);
}

TEST(Metrics, LinkSide) {
  const Fixture f;
  const auto m =
      compute_metrics(f.graph, f.procs, f.routing, f.topo, {});
  ASSERT_EQ(m.phases.size(), 1u);
  const auto& pm = m.phases[0];
  EXPECT_EQ(pm.phase_name, "ring");
  EXPECT_EQ(pm.max_contention, 1);
  EXPECT_DOUBLE_EQ(pm.avg_contention, 1.0);
  EXPECT_EQ(pm.max_dilation, 1);
  EXPECT_DOUBLE_EQ(pm.avg_dilation, 1.0);
  for (const auto v : pm.volume_per_link) {
    EXPECT_EQ(v, 3);
  }
}

TEST(Metrics, TotalIpcWeightedByMultiplicity) {
  const Fixture f;
  const auto m =
      compute_metrics(f.graph, f.procs, f.routing, f.topo, {});
  // 4 edges x volume 3 x multiplicity 2.
  EXPECT_EQ(m.total_ipc, 24);
}

TEST(Metrics, CoLocatedEdgesDoNotCountAsIpc) {
  Fixture f;
  // Move task 1 onto processor 0; re-route accordingly.
  f.procs = {0, 0, 2, 3};
  f.routing[0].route_of_edge[0] = Route{};  // 0 -> 1 internal
  f.routing[0].route_of_edge[1] =
      greedy_shortest_route(f.topo, 0, 2);  // 1 -> 2 now 0 -> 2
  const auto m =
      compute_metrics(f.graph, f.procs, f.routing, f.topo, {});
  // Edge 0->1 internalised: IPC = (4 - 1) edges x 3 x 2.
  EXPECT_EQ(m.total_ipc, 18);
  EXPECT_EQ(m.max_dilation, 2);
}

TEST(Metrics, MappingOverloadAgreesWithVectors) {
  const Fixture f;
  const Mapping mapping(f.procs, f.routing);
  const auto a = compute_metrics(f.graph, mapping, f.topo, {});
  const auto b =
      compute_metrics(f.graph, f.procs, f.routing, f.topo, {});
  EXPECT_EQ(a.completion, b.completion);
  EXPECT_EQ(a.total_ipc, b.total_ipc);
}

}  // namespace
}  // namespace oregami
