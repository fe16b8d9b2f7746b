#include <gtest/gtest.h>

#include <set>

#include "oregami/arch/routes.hpp"
#include "oregami/larcs/compiler.hpp"
#include "oregami/larcs/programs.hpp"
#include "oregami/mapper/driver.hpp"
#include "oregami/schedule/synchrony.hpp"

namespace oregami {
namespace {

struct Fixture {
  larcs::CompiledProgram cp;
  Topology topo;
  MapperReport report;
  std::vector<int> procs;

  Fixture()
      : cp(larcs::compile_source(larcs::programs::nbody(),
                                 {{"n", 16}, {"s", 2}, {"m", 4}})),
        topo(Topology::hypercube(3)),
        report(map_computation(cp.graph, topo)),
        procs(report.mapping.proc_of_task()) {}
};

TEST(Synchrony, SetsPartitionTasksOnePerProcessor) {
  const Fixture f;
  const auto schedule =
      derive_synchrony_sets(f.cp.graph, f.procs, f.topo.num_procs());
  // 16 tasks on 8 processors, 2 per processor: exactly 2 sets of 8.
  ASSERT_EQ(schedule.sets.size(), 2u);
  std::set<int> covered;
  for (const auto& set : schedule.sets) {
    EXPECT_EQ(set.tasks.size(), 8u);
    std::set<int> procs_in_set;
    for (const int t : set.tasks) {
      EXPECT_TRUE(procs_in_set.insert(f.procs[static_cast<std::size_t>(t)])
                      .second)
          << "two tasks of one set share a processor";
      EXPECT_TRUE(covered.insert(t).second);
      EXPECT_EQ(schedule.set_of_task[static_cast<std::size_t>(t)],
                set.index);
    }
  }
  EXPECT_EQ(covered.size(), 16u);
}

TEST(Synchrony, LocalOrderSortedByTaskId) {
  const Fixture f;
  const auto schedule =
      derive_synchrony_sets(f.cp.graph, f.procs, f.topo.num_procs());
  for (const auto& order : schedule.local_order) {
    EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
  }
}

TEST(Synchrony, UnevenLoadsGiveRaggedSets) {
  TaskGraph g;
  for (int i = 0; i < 5; ++i) {
    g.add_task("t" + std::to_string(i));
  }
  g.add_comm_phase("p");
  const std::vector<int> procs{0, 0, 0, 1, 1};
  const auto schedule = derive_synchrony_sets(g, procs, 2);
  ASSERT_EQ(schedule.sets.size(), 3u);
  EXPECT_EQ(schedule.sets[0].tasks.size(), 2u);
  EXPECT_EQ(schedule.sets[1].tasks.size(), 2u);
  EXPECT_EQ(schedule.sets[2].tasks.size(), 1u);  // only proc 0's third
}

TEST(Synchrony, DirectiveExpandsExecPhases) {
  const Fixture f;
  const auto schedule =
      derive_synchrony_sets(f.cp.graph, f.procs, f.topo.num_procs());
  const auto directive = local_directive(f.cp.graph, schedule, 0);
  // Shape mirrors the phase expression with the processor's tasks
  // spliced in for each exec phase.
  EXPECT_NE(directive.find("ring"), std::string::npos);
  EXPECT_NE(directive.find("chordal"), std::string::npos);
  EXPECT_NE(directive.find("body("), std::string::npos);
  EXPECT_NE(directive.find("^2"), std::string::npos);  // outer repeat s=2
}

TEST(Synchrony, DirectivePinnedForOneProcessor) {
  const Fixture f;
  const auto schedule =
      derive_synchrony_sets(f.cp.graph, f.procs, f.topo.num_procs());
  EXPECT_EQ(local_directive(f.cp.graph, schedule, 0),
            "((ring; (body(0); body(8)))^8; chordal; (body(0); body(8)))^2");
}

TEST(Synchrony, DirectiveForIdleProcessorSaysIdle) {
  TaskGraph g;
  g.add_task("only");
  g.add_comm_phase("p");
  g.add_exec_phase("w", {1});
  g.set_phase_expr(PhaseTree::exec(0));
  const auto schedule = derive_synchrony_sets(g, {0}, 3);
  EXPECT_EQ(local_directive(g, schedule, 2), "idle");
}

TEST(SynchronyRoute, RoutesValidAndAlignedWithOriginalEdges) {
  const Fixture f;
  const auto schedule =
      derive_synchrony_sets(f.cp.graph, f.procs, f.topo.num_procs());
  const auto routing =
      synchrony_route(f.cp.graph, f.procs, f.topo, schedule);
  ASSERT_EQ(routing.size(), f.cp.graph.comm_phases().size());
  for (std::size_t k = 0; k < routing.size(); ++k) {
    const auto& phase = f.cp.graph.comm_phases()[k];
    ASSERT_EQ(routing[k].route_of_edge.size(), phase.edges.size());
    for (std::size_t i = 0; i < phase.edges.size(); ++i) {
      const auto& e = phase.edges[i];
      EXPECT_TRUE(is_shortest_route(
          f.topo, routing[k].route_of_edge[i],
          f.procs[static_cast<std::size_t>(e.src)],
          f.procs[static_cast<std::size_t>(e.dst)]))
          << "phase " << phase.name << " edge " << i;
    }
  }
}

TEST(SynchronyRoute, Deterministic) {
  const Fixture f;
  const auto schedule =
      derive_synchrony_sets(f.cp.graph, f.procs, f.topo.num_procs());
  const auto a = synchrony_route(f.cp.graph, f.procs, f.topo, schedule);
  const auto b = synchrony_route(f.cp.graph, f.procs, f.topo, schedule);
  for (std::size_t k = 0; k < a.size(); ++k) {
    for (std::size_t i = 0; i < a[k].route_of_edge.size(); ++i) {
      EXPECT_EQ(a[k].route_of_edge[i].links, b[k].route_of_edge[i].links);
    }
  }
}

TEST(SynchronyRoute, ContentionComparableToPlainMmRoute) {
  const Fixture f;
  const auto schedule =
      derive_synchrony_sets(f.cp.graph, f.procs, f.topo.num_procs());
  const auto sync = synchrony_route(f.cp.graph, f.procs, f.topo, schedule);
  const auto plain = mm_route(f.cp.graph, f.procs, f.topo);
  auto max_contention = [&](const std::vector<PhaseRouting>& routing) {
    int worst = 0;
    for (const auto& pr : routing) {
      std::vector<int> count(
          static_cast<std::size_t>(f.topo.num_links()), 0);
      for (const auto& r : pr.route_of_edge) {
        for (const int link : r.links) {
          worst = std::max(worst, ++count[static_cast<std::size_t>(link)]);
        }
      }
    }
    return worst;
  };
  // Reordering must not blow up contention (same matching machinery).
  EXPECT_LE(max_contention(sync), max_contention(plain) + 1);
}

}  // namespace
}  // namespace oregami
