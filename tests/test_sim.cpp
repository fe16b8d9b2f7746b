#include <gtest/gtest.h>

#include "oregami/arch/routes.hpp"
#include "oregami/larcs/compiler.hpp"
#include "oregami/larcs/programs.hpp"
#include "oregami/mapper/driver.hpp"
#include "oregami/metrics/metrics.hpp"
#include "oregami/sim/network_sim.hpp"
#include "oregami/support/trace.hpp"

namespace oregami {
namespace {

/// Two tasks on a 2-processor chain with one message.
struct SingleMessage {
  TaskGraph graph;
  Topology topo = Topology::chain(2);
  PhaseRouting routing;

  explicit SingleMessage(std::int64_t volume) {
    graph.add_task("a");
    graph.add_task("b");
    const int p = graph.add_comm_phase("send");
    graph.add_comm_edge(p, 0, 1, volume);
    routing.route_of_edge.push_back(greedy_shortest_route(topo, 0, 1));
  }
};

TEST(Sim, SingleMessageTakesTransferTime) {
  const SingleMessage f(10);
  SimConfig config;
  config.model.hop_latency = 3;
  config.model.per_unit_cost = 2;
  const auto result =
      simulate_comm_phase(f.graph, 0, f.routing, f.topo, config);
  EXPECT_EQ(result.makespan, 10 * 2 + 3);
  EXPECT_EQ(result.link_busy[0], 23);
  EXPECT_EQ(result.delivery[0], 23);
}

TEST(Sim, TwoMessagesOnOneLinkSerialise) {
  TaskGraph g;
  g.add_task("a");
  g.add_task("b");
  g.add_task("c");
  g.add_task("d");
  const int p = g.add_comm_phase("send");
  g.add_comm_edge(p, 0, 1, 5);
  g.add_comm_edge(p, 2, 3, 5);
  const auto topo = Topology::chain(2);
  // All four tasks split across the two processors; both messages use
  // the single link.
  PhaseRouting routing;
  routing.route_of_edge.push_back(greedy_shortest_route(topo, 0, 1));
  routing.route_of_edge.push_back(greedy_shortest_route(topo, 0, 1));
  const auto result = simulate_comm_phase(g, 0, routing, topo, {});
  // Each transfer is 5 + 1 = 6; serialised: second finishes at 12.
  EXPECT_EQ(result.makespan, 12);
  EXPECT_EQ(result.delivery[0], 6);
  EXPECT_EQ(result.delivery[1], 12);
  EXPECT_EQ(result.link_busy[0], 12);
}

TEST(Sim, MultiHopStoreAndForward) {
  TaskGraph g;
  g.add_task("a");
  g.add_task("b");
  const int p = g.add_comm_phase("send");
  g.add_comm_edge(p, 0, 1, 4);
  const auto topo = Topology::chain(4);
  PhaseRouting routing;
  routing.route_of_edge.push_back(greedy_shortest_route(topo, 0, 3));
  const auto result = simulate_comm_phase(g, 0, routing, topo, {});
  // 3 hops x (4 + 1) cycles, store-and-forward.
  EXPECT_EQ(result.makespan, 15);
}

TEST(Sim, DisjointLinksRunInParallel) {
  TaskGraph g;
  for (int i = 0; i < 4; ++i) {
    g.add_task("t" + std::to_string(i));
  }
  const int p = g.add_comm_phase("send");
  g.add_comm_edge(p, 0, 1, 7);
  g.add_comm_edge(p, 2, 3, 7);
  const auto topo = Topology::chain(4);
  PhaseRouting routing;
  routing.route_of_edge.push_back(greedy_shortest_route(topo, 0, 1));
  routing.route_of_edge.push_back(greedy_shortest_route(topo, 2, 3));
  const auto result = simulate_comm_phase(g, 0, routing, topo, {});
  EXPECT_EQ(result.makespan, 8);  // both at once
}

TEST(Sim, CoLocatedMessagesAreFree) {
  TaskGraph g;
  g.add_task("a");
  g.add_task("b");
  const int p = g.add_comm_phase("send");
  g.add_comm_edge(p, 0, 1, 100);
  const auto topo = Topology::chain(2);
  PhaseRouting routing;
  routing.route_of_edge.push_back(Route{});
  const auto result = simulate_comm_phase(g, 0, routing, topo, {});
  EXPECT_EQ(result.makespan, 0);
}

TEST(Sim, DeterministicTieBreakByMessageId) {
  const SingleMessage unused(1);
  TaskGraph g;
  g.add_task("a");
  g.add_task("b");
  const int p = g.add_comm_phase("send");
  g.add_comm_edge(p, 0, 1, 2);
  g.add_comm_edge(p, 0, 1, 3);
  const auto topo = Topology::chain(2);
  PhaseRouting routing;
  routing.route_of_edge.push_back(greedy_shortest_route(topo, 0, 1));
  routing.route_of_edge.push_back(greedy_shortest_route(topo, 0, 1));
  const auto a = simulate_comm_phase(g, 0, routing, topo, {});
  const auto b = simulate_comm_phase(g, 0, routing, topo, {});
  EXPECT_EQ(a.delivery, b.delivery);
  EXPECT_EQ(a.delivery[0], 3);      // message 0 first
  EXPECT_EQ(a.delivery[1], 3 + 4);  // then message 1
}

TEST(Sim, FullSimulationComposesPhaseTree) {
  TaskGraph g;
  g.add_task("a");
  g.add_task("b");
  const int send = g.add_comm_phase("send");
  g.add_comm_edge(send, 0, 1, 5);
  g.add_exec_phase("work", {10, 20});
  g.set_phase_expr(PhaseTree::repeat(
      PhaseTree::seq({PhaseTree::exec(0), PhaseTree::comm(0)}), 3));
  const auto topo = Topology::chain(2);
  std::vector<PhaseRouting> routing(1);
  routing[0].route_of_edge.push_back(greedy_shortest_route(topo, 0, 1));
  const std::vector<int> procs{0, 1};
  const auto result = simulate(g, procs, routing, topo, {});
  // Each iteration: exec max(10, 20) + comm (5 + 1) = 26; x3 = 78.
  EXPECT_EQ(result.total_cycles, 78);
  EXPECT_EQ(result.comm_phase_cycles, std::vector<std::int64_t>{6});
  EXPECT_EQ(result.exec_phase_cycles, std::vector<std::int64_t>{20});
}

TEST(Sim, IdleExpressionFallsBackToOnceEach) {
  TaskGraph g;
  g.add_task("a");
  g.add_task("b");
  const int send = g.add_comm_phase("send");
  g.add_comm_edge(send, 0, 1, 5);
  g.add_exec_phase("work", {4, 9});
  const auto topo = Topology::chain(2);
  std::vector<PhaseRouting> routing(1);
  routing[0].route_of_edge.push_back(greedy_shortest_route(topo, 0, 1));
  const auto result = simulate(g, {0, 1}, routing, topo, {});
  EXPECT_EQ(result.total_cycles, 6 + 9);
}

TEST(Sim, EmptyPhaseHasZeroMakespan) {
  TaskGraph g;
  g.add_task("a");
  g.add_task("b");
  g.add_comm_phase("silent");
  const auto topo = Topology::chain(2);
  const auto result = simulate_comm_phase(g, 0, PhaseRouting{}, topo, {});
  EXPECT_EQ(result.makespan, 0);
  EXPECT_EQ(result.avg_link_utilisation, 0.0);
  const auto sim = simulate(g, {0, 1}, {PhaseRouting{}}, topo, {});
  EXPECT_EQ(sim.total_cycles, 0);
}

TEST(Sim, AgreesWithAnalyticModelOnUncontendedPhases) {
  // When every link carries at most one message per phase, the
  // store-and-forward makespan matches the analytic bound for 1-hop
  // routes (volume + latency).
  const auto cp = larcs::compile_source(larcs::programs::ring_pipeline(),
                                        {{"n", 8}, {"stages", 1}});
  const auto topo = Topology::ring(8);
  const auto report = map_computation(cp.graph, topo);
  const auto procs = report.mapping.proc_of_task();
  const auto metrics = compute_metrics(cp.graph, report.mapping, topo);
  const auto sim = simulate(cp.graph, procs, report.mapping.routing, topo);
  EXPECT_EQ(sim.total_cycles, metrics.completion);
}

TEST(Sim, SimAtLeastModelUnderEqualUnitCosts) {
  // The analytic model's comm bound (max link volume + max hops) never
  // exceeds the serialised store-and-forward simulation.
  const auto cp = larcs::compile_source(larcs::programs::nbody(),
                                        {{"n", 15}, {"s", 2}, {"m", 4}});
  const auto topo = Topology::hypercube(3);
  const auto report = map_computation(cp.graph, topo);
  const auto procs = report.mapping.proc_of_task();
  const auto metrics = compute_metrics(cp.graph, report.mapping, topo);
  const auto sim = simulate(cp.graph, procs, report.mapping.routing, topo);
  EXPECT_GE(sim.total_cycles, metrics.completion);
  // ... and stays within a small factor (no pathological blow-up).
  EXPECT_LE(sim.total_cycles, 3 * metrics.completion);
}

TEST(Sim, FaultedRunTracesLinkVolumeWithSlowdownCharged) {
  // chain:3 with processor 2 dead and link 0 (0-1) slowed by 3.
  const Topology topo = Topology::chain(3);
  const FaultedTopology faults(topo, FaultSpec::parse("p2,s0:3", topo));
  TaskGraph graph;
  graph.add_task("a");
  graph.add_task("b");
  graph.add_comm_edge(graph.add_comm_phase("send"), 0, 1, 10);
  const std::vector<PhaseRouting> routing{
      {{greedy_shortest_route(topo, 0, 1)}}};
  SimConfig config;
  config.faults = &faults;

  trace::clear();
  trace::enable();
  const SimResult sim = simulate(graph, {0, 1}, routing, topo, config);
  trace::disable();
  std::int64_t max_link_volume = -1;
  for (const trace::Event& e : trace::snapshot()) {
    if (e.kind == trace::Event::Kind::Counter &&
        e.path == "sim/send/max_link_volume") {
      max_link_volume = e.value;
    }
  }
  trace::clear();
  EXPECT_EQ(sim.total_cycles, 10 * 3 + 1);
  EXPECT_EQ(max_link_volume, 10 * 3);
}

}  // namespace
}  // namespace oregami
