// Tests for the HEFT-style critical-path list scheduler
// (mapper/list_schedule.hpp): hand-computed upward ranks on a classic
// diamond DAG, SCC condensation on cyclic LaRCS graphs, pinned rank
// orders for the paper's Fig-2 examples, EFT placement validity, the
// 0/-1/positive deadline idiom, and the portfolio candidate wiring.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "oregami/larcs/compiler.hpp"
#include "oregami/larcs/parser.hpp"
#include "oregami/larcs/programs.hpp"
#include "oregami/mapper/list_schedule.hpp"
#include "oregami/mapper/portfolio.hpp"

namespace oregami {
namespace {

struct Compiled {
  larcs::Program ast;
  larcs::CompiledProgram cp;
};

Compiled compile_named(const std::string& name,
                       std::map<std::string, long> bindings) {
  const auto* entry = larcs::programs::find(name);
  if (entry == nullptr) {
    throw std::runtime_error("program not in catalog: " + name);
  }
  larcs::Program ast = larcs::parse_program(entry->source);
  larcs::CompiledProgram cp = larcs::compile(ast, bindings);
  return {std::move(ast), std::move(cp)};
}

// -------------------------------------------------------- upward ranks

// The textbook diamond: 0 -> {1, 2} -> 3 with exec weights [2, 3, 4, 5]
// and volumes 0->1: 4, 0->2: 6, 1->3: 3, 2->3: 1. Under the default
// cost model c(e) = vol + 1 hop, classic HEFT gives
//   rank(3) = 5
//   rank(1) = 3 + (3+1) + 5 = 12
//   rank(2) = 4 + (1+1) + 5 = 11
//   rank(0) = 2 + max(4+1+12, 6+1+11) = 20
TEST(HeftRanks, HandComputedDiamondDag) {
  TaskGraph g;
  for (int i = 0; i < 4; ++i) {
    g.add_task("t" + std::to_string(i));
  }
  const int comm = g.add_comm_phase("c");
  g.add_comm_edge(comm, 0, 1, 4);
  g.add_comm_edge(comm, 0, 2, 6);
  g.add_comm_edge(comm, 1, 3, 3);
  g.add_comm_edge(comm, 2, 3, 1);
  g.add_exec_phase("e", {2, 3, 4, 5});
  g.validate();

  const std::vector<std::int64_t> expected = {20, 12, 11, 5};
  EXPECT_EQ(heft_upward_ranks(g), expected);
}

// A 2-cycle condenses to one macro-task: base = 1 + 1 (exec) + (2+1) +
// (2+1) (serialised internal comm) = 8; the cross edge to the sink adds
// (1+1) + rank(sink) = 2 + 1. Both cycle members inherit rank 11.
TEST(HeftRanks, CyclicGraphCondensesToMacroTasks) {
  TaskGraph g;
  for (int i = 0; i < 3; ++i) {
    g.add_task("t" + std::to_string(i));
  }
  const int comm = g.add_comm_phase("c");
  g.add_comm_edge(comm, 0, 1, 2);
  g.add_comm_edge(comm, 1, 0, 2);
  g.add_comm_edge(comm, 1, 2, 1);
  g.add_exec_phase("e", {1, 1, 1});
  g.validate();

  const std::vector<std::int64_t> expected = {11, 11, 1};
  EXPECT_EQ(heft_upward_ranks(g), expected);
}

// Phase-expression multiplicities scale both exec and comm weights:
// repeating (comm; exec) 3 times triples every rank contribution.
TEST(HeftRanks, FoldsPhaseExpressionMultiplicities) {
  TaskGraph g;
  g.add_task("a");
  g.add_task("b");
  const int comm = g.add_comm_phase("c");
  g.add_comm_edge(comm, 0, 1, 5);
  const int exec = g.add_exec_phase("e", {2, 4});
  g.validate();
  // Without an expression: rank(b) = 4, rank(a) = 2 + (5+1) + 4 = 12.
  const std::vector<std::int64_t> once = {12, 4};
  EXPECT_EQ(heft_upward_ranks(g), once);

  g.set_phase_expr(PhaseTree::repeat(
      PhaseTree::seq({PhaseTree::comm(comm), PhaseTree::exec(exec)}), 3));
  // Tripled volumes/costs: rank(b) = 12, rank(a) = 6 + (15+1) + 12 = 34.
  const std::vector<std::int64_t> thrice = {34, 12};
  EXPECT_EQ(heft_upward_ranks(g), thrice);
}

TEST(HeftRanks, RanksRespectTopologicalDominance) {
  // On a DAG, rank(u) > rank(succ(u)) whenever u has positive weight:
  // the recurrence adds w(u) + c(e) on top of the successor's rank.
  TaskGraph g;
  for (int i = 0; i < 6; ++i) {
    g.add_task("t" + std::to_string(i));
  }
  const int comm = g.add_comm_phase("c");
  for (int i = 0; i + 1 < 6; ++i) {
    g.add_comm_edge(comm, i, i + 1, 2);
  }
  g.add_exec_phase("e", {1, 1, 1, 1, 1, 1});
  g.validate();
  const auto rank = heft_upward_ranks(g);
  for (int i = 0; i + 1 < 6; ++i) {
    EXPECT_GT(rank[static_cast<std::size_t>(i)],
              rank[static_cast<std::size_t>(i + 1)]);
  }
}

// Pinned rank order for the paper's Fig-2 n-body pipeline (n=15, s=4,
// m=8). The synchronous exchange phases make the whole 15-task graph
// one strongly connected component, so every task inherits the single
// macro-task rank (12450: all exec weight + serialised exchange
// traffic) and the placement order falls back to ascending task id.
TEST(HeftRanks, UpwardRankOrderPinnedOnFig2Nbody) {
  const auto c = compile_named("nbody", {{"n", 15}, {"s", 4}, {"m", 8}});
  const ListScheduleResult r =
      list_schedule(c.cp.graph, Topology::mesh(4, 4));
  ASSERT_EQ(r.rank.size(), 15u);
  for (const std::int64_t v : r.rank) {
    EXPECT_EQ(v, 12450);
  }
  const std::vector<int> expected_order = {0, 1,  2,  3,  4,  5,  6, 7,
                                           8, 9, 10, 11, 12, 13, 14};
  EXPECT_EQ(r.order, expected_order);
}

// Pinned rank order for the Fig-2 Jacobi relaxation (n=8, iters=10):
// the bidirectional neighbour exchanges likewise condense the 64-task
// grid into one SCC with shared rank 5664 and id-ordered placement.
TEST(HeftRanks, UpwardRankOrderPinnedOnJacobi) {
  const auto c = compile_named("jacobi", {{"n", 8}, {"iters", 10}});
  const ListScheduleResult r =
      list_schedule(c.cp.graph, Topology::mesh(4, 4));
  ASSERT_EQ(r.rank.size(), 64u);
  for (const std::int64_t v : r.rank) {
    EXPECT_EQ(v, 5664);
  }
  ASSERT_EQ(r.order.size(), 64u);
  for (int t = 0; t < 64; ++t) {
    EXPECT_EQ(r.order[static_cast<std::size_t>(t)], t);
  }
}

// ---------------------------------------------------------- placement

TEST(ListSchedule, PlacementIsValidAndDeterministic) {
  const auto c = compile_named("nbody", {{"n", 15}, {"s", 4}, {"m", 8}});
  const Topology topo = Topology::mesh(4, 4);
  const ListScheduleResult a = list_schedule(c.cp.graph, topo);
  ASSERT_EQ(a.proc_of_task.size(),
            static_cast<std::size_t>(c.cp.graph.num_tasks()));
  for (const int p : a.proc_of_task) {
    EXPECT_GE(p, 0);
    EXPECT_LT(p, topo.num_procs());
  }
  // The placement order is a permutation of the task ids.
  std::vector<int> sorted = a.order;
  std::sort(sorted.begin(), sorted.end());
  for (int t = 0; t < c.cp.graph.num_tasks(); ++t) {
    EXPECT_EQ(sorted[static_cast<std::size_t>(t)], t);
  }
  // Makespan covers every finish time.
  for (const std::int64_t f : a.finish) {
    EXPECT_LE(f, a.makespan);
  }
  const ListScheduleResult b = list_schedule(c.cp.graph, topo);
  EXPECT_EQ(a.proc_of_task, b.proc_of_task);
  EXPECT_EQ(a.order, b.order);
  EXPECT_EQ(a.rank, b.rank);
  EXPECT_EQ(a.finish, b.finish);
}

TEST(ListSchedule, SingleProcessorSerialisesEverything) {
  const auto c = compile_named("jacobi", {{"n", 4}, {"iters", 2}});
  const ListScheduleResult r =
      list_schedule(c.cp.graph, Topology::ring(3));
  for (const int p : r.proc_of_task) {
    EXPECT_GE(p, 0);
    EXPECT_LT(p, 3);
  }
}

// The 0 / -1 / positive deadline idiom: 0 never reads the clock; a
// negative budget deterministically places EVERY task by the fallback
// rule; a generous positive budget matches the no-deadline result.
TEST(ListSchedule, DeadlineIdiom) {
  const auto c = compile_named("nbody", {{"n", 15}, {"s", 4}, {"m", 8}});
  const Topology topo = Topology::mesh(4, 4);

  const ListScheduleResult r_none =
      list_schedule(c.cp.graph, topo, Deadline(0));
  EXPECT_EQ(r_none.deadline_degraded, 0);

  const ListScheduleResult r_expired =
      list_schedule(c.cp.graph, topo, Deadline(-1));
  EXPECT_EQ(r_expired.deadline_degraded, c.cp.graph.num_tasks());
  const ListScheduleResult r_expired2 =
      list_schedule(c.cp.graph, topo, Deadline(-1));
  EXPECT_EQ(r_expired.proc_of_task, r_expired2.proc_of_task);
  // Fallback least-ready placement still visits tasks in rank order.
  EXPECT_EQ(r_expired.order, r_none.order);

  const ListScheduleResult r_generous =
      list_schedule(c.cp.graph, topo, Deadline(60'000));
  EXPECT_EQ(r_generous.deadline_degraded, 0);
  EXPECT_EQ(r_generous.proc_of_task, r_none.proc_of_task);
}

// ------------------------------------------------- portfolio candidate

TEST(ListSchedule, RunsAsPortfolioCandidateBehindHeftFlag) {
  const auto c = compile_named("nbody", {{"n", 15}, {"s", 4}, {"m", 8}});
  const Topology topo = Topology::mesh(4, 4);
  PortfolioOptions popts;
  popts.num_seeded = 2;
  popts.heft = true;
  const auto result =
      portfolio_map_program(c.ast, c.cp, topo, {}, popts);
  const PortfolioCandidate* heft = nullptr;
  for (const auto& cand : result.candidates) {
    if (cand.label == "heft critical-path") {
      heft = &cand;
    }
  }
  ASSERT_NE(heft, nullptr);
  EXPECT_TRUE(heft->ok);
  EXPECT_EQ(heft->strategy, MapStrategy::ListSchedule);
  // The portfolio scored it with the real completion model and the
  // mapping validates like any other candidate's.
  EXPECT_GT(heft->completion, 0);

  // Off by default: without the flag the candidate does not exist.
  PortfolioOptions off;
  off.num_seeded = 2;
  const auto plain = portfolio_map_program(c.ast, c.cp, topo, {}, off);
  for (const auto& cand : plain.candidates) {
    EXPECT_NE(cand.label, "heft critical-path");
  }
}

}  // namespace
}  // namespace oregami
