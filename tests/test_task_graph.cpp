#include <gtest/gtest.h>

#include "oregami/core/mapping.hpp"
#include "oregami/core/task_graph.hpp"
#include "oregami/support/error.hpp"

namespace oregami {
namespace {

TaskGraph two_phase_graph() {
  TaskGraph g;
  for (int i = 0; i < 4; ++i) {
    const long label[] = {i};
    g.add_task("t" + std::to_string(i), label);
  }
  const int ring = g.add_comm_phase("ring");
  const int chord = g.add_comm_phase("chord");
  for (int i = 0; i < 4; ++i) {
    g.add_comm_edge(ring, i, (i + 1) % 4, 2);
  }
  g.add_comm_edge(chord, 0, 2, 5);
  g.add_comm_edge(chord, 1, 3, 5);
  g.add_exec_phase("work", {1, 2, 3, 4});
  return g;
}

TEST(TaskGraph, BasicAccessors) {
  const auto g = two_phase_graph();
  EXPECT_EQ(g.num_tasks(), 4);
  EXPECT_EQ(g.task_name(2), "t2");
  ASSERT_EQ(g.task_label(3).size(), 1u);
  EXPECT_EQ(g.task_label(3)[0], 3);
  EXPECT_EQ(g.comm_phases().size(), 2u);
  EXPECT_EQ(g.num_comm_edges(), 6);
  EXPECT_EQ(g.total_volume(), 4 * 2 + 2 * 5);
}

TEST(TaskGraph, AggregateGraphCollapsesAntiparallelEdges) {
  TaskGraph g;
  g.add_task("a");
  g.add_task("b");
  const int p = g.add_comm_phase("p");
  g.add_comm_edge(p, 0, 1, 3);
  g.add_comm_edge(p, 1, 0, 4);
  const Graph agg = g.aggregate_graph();
  EXPECT_EQ(agg.num_edges(), 1);
  EXPECT_EQ(agg.edge_weight(0, 1), 7);
}

TEST(TaskGraph, ValidateCatchesBadCost) {
  TaskGraph g;
  g.add_task("a");
  g.add_task("b");
  EXPECT_THROW(g.add_exec_phase("w", {1}), std::exception);
}

TEST(TaskGraph, EmptyCostVectorMeansZeros) {
  TaskGraph g;
  g.add_task("a");
  g.add_task("b");
  g.add_exec_phase("w", {});
  EXPECT_EQ(g.exec_phases()[0].cost, (std::vector<std::int64_t>{0, 0}));
}

TEST(PhaseTree, BuildersAndToString) {
  auto g = two_phase_graph();
  const auto expr = PhaseTree::repeat(
      PhaseTree::seq({PhaseTree::comm(0), PhaseTree::exec(0),
                      PhaseTree::comm(1)}),
      3);
  g.set_phase_expr(expr);
  EXPECT_EQ(expr.to_string(g.comm_phases(), g.exec_phases()),
            "(ring; work; chord)^3");
}

TEST(PhaseTree, ParallelToString) {
  const auto g = two_phase_graph();
  const auto expr =
      PhaseTree::par({PhaseTree::comm(0), PhaseTree::comm(1)});
  EXPECT_EQ(expr.to_string(g.comm_phases(), g.exec_phases()),
            "(ring || chord)");
  EXPECT_EQ(PhaseTree::idle().to_string(g.comm_phases(), g.exec_phases()),
            "eps");
}

TEST(PhaseTree, MultiplicitiesThroughNestedRepeats) {
  auto g = two_phase_graph();
  // ((ring; work)^5; chord)^2: ring and work x10, chord x2.
  g.set_phase_expr(PhaseTree::repeat(
      PhaseTree::seq(
          {PhaseTree::repeat(
               PhaseTree::seq({PhaseTree::comm(0), PhaseTree::exec(0)}), 5),
           PhaseTree::comm(1)}),
      2));
  EXPECT_EQ(g.comm_phase_multiplicity(), (std::vector<long>{10, 2}));
  EXPECT_EQ(g.exec_phase_multiplicity(), (std::vector<long>{10}));
}

TEST(PhaseTree, IdleExpressionDefaultsToOnceEach) {
  const auto g = two_phase_graph();
  EXPECT_EQ(g.comm_phase_multiplicity(), (std::vector<long>{1, 1}));
  EXPECT_EQ(g.exec_phase_multiplicity(), (std::vector<long>{1}));
}

TEST(PhaseTree, ParallelBranchesBothCount) {
  auto g = two_phase_graph();
  g.set_phase_expr(PhaseTree::repeat(
      PhaseTree::par({PhaseTree::comm(0), PhaseTree::comm(1)}), 4));
  EXPECT_EQ(g.comm_phase_multiplicity(), (std::vector<long>{4, 4}));
}

TEST(TaskGraph, ValidateChecksPhaseIndices) {
  auto g = two_phase_graph();
  g.set_phase_expr(PhaseTree::comm(7));
  EXPECT_THROW(g.validate(), MappingError);
  g.set_phase_expr(PhaseTree::exec(1));
  EXPECT_THROW(g.validate(), MappingError);
  g.set_phase_expr(PhaseTree::comm(1));
  EXPECT_NO_THROW(g.validate());
}

// --- mapping data types ---------------------------------------------------

TEST(Contraction, IdentityAndSizes) {
  const auto c = Contraction::identity(5);
  EXPECT_EQ(c.num_clusters, 5);
  EXPECT_EQ(c.cluster_sizes(), (std::vector<int>{1, 1, 1, 1, 1}));
  EXPECT_EQ(c.max_cluster_size(), 1);
  EXPECT_NO_THROW(c.validate(5));
}

TEST(Contraction, ValidateRejectsGapsAndBadIds) {
  Contraction c;
  c.num_clusters = 3;
  c.cluster_of_task = {0, 0, 2, 2};  // cluster 1 empty
  EXPECT_THROW(c.validate(4), MappingError);
  c.cluster_of_task = {0, 1, 2, 3};  // id 3 out of range
  EXPECT_THROW(c.validate(4), MappingError);
  c.cluster_of_task = {0, 1, 2};  // wrong size
  EXPECT_THROW(c.validate(4), MappingError);
}

TEST(Embedding, ValidateRejectsCollisionsAndRange) {
  Embedding e;
  e.proc_of_cluster = {0, 2, 2};
  EXPECT_THROW(e.validate(4), MappingError);
  e.proc_of_cluster = {0, 5};
  EXPECT_THROW(e.validate(4), MappingError);
  e.proc_of_cluster = {3, 1, 0};
  EXPECT_NO_THROW(e.validate(4));
}

TEST(Route, HopCount) {
  Route r;
  r.links = {0, 1};
  EXPECT_EQ(r.hops(), 2);
}

}  // namespace
}  // namespace oregami
