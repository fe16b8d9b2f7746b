#include <gtest/gtest.h>

#include <set>

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

}  // namespace
}  // namespace oregami
