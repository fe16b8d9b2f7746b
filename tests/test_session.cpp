#include <gtest/gtest.h>

#include "mapping_text.hpp"
#include "oregami/arch/routes.hpp"
#include "oregami/larcs/compiler.hpp"
#include "oregami/larcs/programs.hpp"
#include "oregami/mapper/driver.hpp"
#include "oregami/metrics/session.hpp"

namespace oregami {
namespace {

struct Fixture {
  larcs::CompiledProgram cp;
  Topology topo;
  MapperReport report;

  Fixture()
      : cp(larcs::compile_source(larcs::programs::nbody(),
                                 {{"n", 8}, {"s", 2}, {"m", 4}})),
        topo(Topology::hypercube(3)),
        report(map_computation(cp.graph, topo)) {}
};

TEST(Session, StartsFromMapping) {
  const Fixture f;
  MetricsSession session(f.cp.graph, f.topo, f.report.mapping);
  EXPECT_EQ(session.proc_of_task(), f.report.mapping.proc_of_task());
  EXPECT_EQ(session.history_size(), 0u);
  EXPECT_GT(session.metrics().completion, 0);
}

TEST(Session, MoveTaskChangesAssignmentAndReroutes) {
  const Fixture f;
  MetricsSession session(f.cp.graph, f.topo, f.report.mapping);
  const int old_proc = session.proc_of_task()[0];
  const int new_proc = (old_proc + 1) % 8;
  const auto report = session.move_task(0, new_proc);
  EXPECT_EQ(session.proc_of_task()[0], new_proc);
  EXPECT_EQ(session.history_size(), 1u);
  // Every route incident to task 0 is valid for the new placement.
  for (std::size_t k = 0; k < f.cp.graph.comm_phases().size(); ++k) {
    const auto& phase = f.cp.graph.comm_phases()[k];
    for (std::size_t i = 0; i < phase.edges.size(); ++i) {
      const auto& e = phase.edges[i];
      const int src = session.proc_of_task()[static_cast<std::size_t>(e.src)];
      const int dst = session.proc_of_task()[static_cast<std::size_t>(e.dst)];
      EXPECT_TRUE(is_valid_route(f.topo, session.routing()[k].route_of_edge[i],
                                 src, dst));
    }
  }
  // Deltas are consistent with before/after.
  EXPECT_EQ(report.completion_delta(),
            report.after.completion - report.before.completion);
}

TEST(Session, UndoRestoresEverything) {
  const Fixture f;
  MetricsSession session(f.cp.graph, f.topo, f.report.mapping);
  const auto before_procs = session.proc_of_task();
  const auto before_completion = session.metrics().completion;
  (void)session.move_task(3, (session.proc_of_task()[3] + 2) % 8);
  EXPECT_NE(session.proc_of_task(), before_procs);
  EXPECT_TRUE(session.undo());
  EXPECT_EQ(session.proc_of_task(), before_procs);
  EXPECT_EQ(session.metrics().completion, before_completion);
  EXPECT_FALSE(session.undo());  // history exhausted
}

TEST(Session, RerouteEdgeValidatesWalk) {
  const Fixture f;
  MetricsSession session(f.cp.graph, f.topo, f.report.mapping);
  const auto& e = f.cp.graph.comm_phases()[0].edges[0];
  const int src = session.proc_of_task()[static_cast<std::size_t>(e.src)];
  const int dst = session.proc_of_task()[static_cast<std::size_t>(e.dst)];
  // A deliberately scenic valid walk: go through a third processor.
  if (src != dst) {
    // Build a 2-hop detour when possible; otherwise use the direct one.
    std::vector<int> detour;
    for (int mid = 0; mid < 8 && detour.empty(); ++mid) {
      if (mid != src && mid != dst &&
          f.topo.link_between(src, mid).has_value() &&
          f.topo.link_between(mid, dst).has_value()) {
        detour = {src, mid, dst};
      }
    }
    if (!detour.empty()) {
      const auto report =
          session.reroute_edge(0, 0, route_from_nodes(f.topo, detour));
      EXPECT_EQ(
          route_nodes(f.topo, src, session.routing()[0].route_of_edge[0]),
          detour);
      EXPECT_GE(report.after.max_dilation, report.before.max_dilation);
    }
  }
  // Invalid route (wrong endpoint) must throw.
  const Route bogus = greedy_shortest_route(f.topo, src, (dst + 1) % 8);
  EXPECT_THROW((void)session.reroute_edge(0, 0, bogus), MappingError);
}

TEST(Session, RangeChecks) {
  const Fixture f;
  MetricsSession session(f.cp.graph, f.topo, f.report.mapping);
  EXPECT_THROW((void)session.move_task(-1, 0), MappingError);
  EXPECT_THROW((void)session.move_task(0, 99), MappingError);
  EXPECT_THROW((void)session.reroute_edge(9, 0, Route{}), MappingError);
  EXPECT_THROW((void)session.reroute_edge(0, 999, Route{}), MappingError);
}

TEST(Session, ConsolidatingTasksReducesIpc) {
  // Moving a task next to its heaviest neighbour should never *increase*
  // total IPC when it lands on the neighbour's processor.
  const Fixture f;
  MetricsSession session(f.cp.graph, f.topo, f.report.mapping);
  const auto& e = f.cp.graph.comm_phases()[0].edges[0];
  const int dst_proc =
      session.proc_of_task()[static_cast<std::size_t>(e.dst)];
  const auto report = session.move_task(e.src, dst_proc);
  EXPECT_LE(report.after.total_ipc, report.before.total_ipc);
}

}  // namespace
}  // namespace oregami
