#include <gtest/gtest.h>

#include <set>

#include "oregami/larcs/compiler.hpp"
#include "oregami/larcs/parser.hpp"
#include "oregami/larcs/programs.hpp"

namespace oregami::larcs {
namespace {

TEST(Compiler, NbodyFig2Structure) {
  const auto cp = compile_source(programs::nbody(),
                                 {{"n", 15}, {"s", 4}, {"m", 8}});
  const auto& g = cp.graph;
  EXPECT_EQ(g.num_tasks(), 15);
  EXPECT_TRUE(g.declared_node_symmetric());
  ASSERT_EQ(g.comm_phases().size(), 2u);

  // Ring phase: i -> (i+1) mod 15.
  const auto& ring = g.comm_phases()[0];
  EXPECT_EQ(ring.name, "ring");
  ASSERT_EQ(ring.edges.size(), 15u);
  for (const auto& e : ring.edges) {
    EXPECT_EQ(e.dst, (e.src + 1) % 15);
    EXPECT_EQ(e.volume, 8);  // imported m
  }

  // Chordal phase: i -> (i+8) mod 15; task 0 sends to task 8 (Fig 6).
  const auto& chordal = g.comm_phases()[1];
  ASSERT_EQ(chordal.edges.size(), 15u);
  for (const auto& e : chordal.edges) {
    EXPECT_EQ(e.dst, (e.src + 8) % 15);
  }

  // Phase expression ((ring; compute1)^8; chordal; compute2)^4.
  const auto comm_mult = g.comm_phase_multiplicity();
  EXPECT_EQ(comm_mult, (std::vector<long>{4 * 8, 4}));
  const auto exec_mult = g.exec_phase_multiplicity();
  EXPECT_EQ(exec_mult, (std::vector<long>{32, 4}));
  EXPECT_EQ(g.phase_expr().to_string(g.comm_phases(), g.exec_phases()),
            "((ring; compute1)^8; chordal; compute2)^4");
}

TEST(Compiler, TaskNamesAndLabels) {
  const auto cp = compile_source(programs::nbody(),
                                 {{"n", 5}, {"s", 1}, {"m", 1}});
  EXPECT_EQ(cp.graph.task_name(3), "body(3)");
  EXPECT_EQ(cp.graph.task_label(3), std::vector<long>{3});
}

TEST(Compiler, JacobiMeshEdgesRespectGuards) {
  const auto cp = compile_source(programs::jacobi(), {{"n", 4}, {"iters", 2}});
  const auto& g = cp.graph;
  EXPECT_EQ(g.num_tasks(), 16);
  // 4-point stencil without wrap: each direction has n*(n-1) = 12 edges.
  ASSERT_EQ(g.comm_phases().size(), 1u);
  EXPECT_EQ(g.comm_phases()[0].edges.size(), 4 * 12u);
  // Aggregate is the mesh with both directions collapsed.
  const Graph agg = g.aggregate_graph();
  EXPECT_EQ(agg.num_edges(), 24);
  // exec cost 5 everywhere.
  for (const auto c : g.exec_phases()[0].cost) {
    EXPECT_EQ(c, 5);
  }
}

TEST(Compiler, MultiDimTaskIndexRowMajor) {
  const auto cp = compile_source(programs::jacobi(), {{"n", 3}, {"iters", 1}});
  // task_of uses row-major with last dim fastest: cell(i,j) = 3i + j.
  const auto* layout = cp.find_layout("cell");
  ASSERT_NE(layout, nullptr);
  EXPECT_EQ(layout->task_of({1, 2}), 5);
  EXPECT_EQ(cp.graph.task_name(5), "cell(1,2)");
  EXPECT_TRUE(layout->contains({2, 2}));
  EXPECT_FALSE(layout->contains({3, 0}));
}

TEST(Compiler, ForallExpandsBinomialTree) {
  const auto cp = compile_source(programs::binomial_dnc(), {{"k", 3}});
  const auto& g = cp.graph;
  EXPECT_EQ(g.num_tasks(), 8);
  // Scatter = binomial tree edges = 7; gather mirrors them.
  ASSERT_EQ(g.comm_phases().size(), 2u);
  EXPECT_EQ(g.comm_phases()[0].edges.size(), 7u);
  EXPECT_EQ(g.comm_phases()[1].edges.size(), 7u);
  std::set<std::pair<int, int>> scatter;
  for (const auto& e : g.comm_phases()[0].edges) {
    scatter.insert({e.src, e.dst});
  }
  EXPECT_TRUE(scatter.count({0, 1}));
  EXPECT_TRUE(scatter.count({0, 2}));
  EXPECT_TRUE(scatter.count({0, 4}));
  EXPECT_TRUE(scatter.count({2, 3}));
  EXPECT_TRUE(scatter.count({4, 5}));
  EXPECT_TRUE(scatter.count({4, 6}));
  EXPECT_TRUE(scatter.count({6, 7}));
  // Gather is the reverse.
  for (const auto& e : g.comm_phases()[1].edges) {
    EXPECT_TRUE(scatter.count({e.dst, e.src}));
  }
}

TEST(Compiler, BroadcastVoteMatchesFig4Generators) {
  const auto cp = compile_source(programs::broadcast_vote(8), {{"n", 8}});
  const auto& g = cp.graph;
  ASSERT_EQ(g.comm_phases().size(), 3u);
  for (int j = 0; j < 3; ++j) {
    const auto& phase = g.comm_phases()[static_cast<std::size_t>(j)];
    ASSERT_EQ(phase.edges.size(), 8u);
    for (const auto& e : phase.edges) {
      EXPECT_EQ(e.dst, (e.src + (1 << j)) % 8);
    }
  }
}

TEST(Compiler, WholeCatalogCompiles) {
  for (const auto& entry : programs::catalog()) {
    std::map<std::string, long> bindings(entry.example_bindings.begin(),
                                         entry.example_bindings.end());
    const auto cp = compile(parse_program(entry.source), bindings);
    EXPECT_GT(cp.graph.num_tasks(), 0) << entry.name;
    EXPECT_NO_THROW(cp.graph.validate()) << entry.name;
  }
}

TEST(Compiler, FftStagesFormButterfly) {
  const auto cp = compile_source(programs::fft(3), {{"n", 8}});
  const auto& g = cp.graph;
  ASSERT_EQ(g.comm_phases().size(), 3u);
  for (int stage = 0; stage < 3; ++stage) {
    const auto& phase = g.comm_phases()[static_cast<std::size_t>(stage)];
    ASSERT_EQ(phase.edges.size(), 8u) << "stage " << stage;
    for (const auto& e : phase.edges) {
      EXPECT_EQ(e.dst, e.src ^ (1 << stage));
    }
  }
}

TEST(Compiler, ConstDeclarationsEvaluateInOrder) {
  const auto cp = compile_source(
      "algorithm t(n);\n"
      "const half = n / 2;\n"
      "const quarter = half / 2;\n"
      "nodetype x[i: 0 .. quarter - 1];\n"
      "comphase a { x(i) -> x((i + 1) mod quarter); }\n",
      {{"n", 16}});
  EXPECT_EQ(cp.graph.num_tasks(), 4);
  EXPECT_EQ(cp.env.get("half"), 8);
  EXPECT_EQ(cp.env.get("quarter"), 4);
}

TEST(CompilerErrors, MissingParameterBinding) {
  EXPECT_THROW(
      (void)compile_source(programs::nbody(), {{"n", 15}, {"s", 4}}),
      LarcsError);  // m missing
}

TEST(CompilerErrors, UnknownBindingRejected) {
  EXPECT_THROW((void)compile_source(programs::jacobi(),
                                    {{"n", 4}, {"iters", 1}, {"zz", 9}}),
               LarcsError);
}

TEST(CompilerErrors, EmptyDomain) {
  EXPECT_THROW((void)compile_source(
                   "algorithm t(n);\n"
                   "nodetype x[i: 0 .. n-1];\n"
                   "comphase a { x(i) -> x(i + 1) when i < n - 1; }\n",
                   {{"n", 0}}),
               LarcsError);
}

TEST(CompilerErrors, TargetOutsideDomain) {
  EXPECT_THROW((void)compile_source(
                   "algorithm t(n);\n"
                   "nodetype x[i: 0 .. n-1];\n"
                   "comphase a { x(i) -> x(i + 1); }\n",  // no guard
                   {{"n", 4}}),
               LarcsError);
}

TEST(CompilerErrors, SelfLoopRejected) {
  EXPECT_THROW((void)compile_source(
                   "algorithm t(n);\n"
                   "nodetype x[i: 0 .. n-1];\n"
                   "comphase a { x(i) -> x(i); }\n",
                   {{"n", 4}}),
               LarcsError);
}

TEST(CompilerErrors, TaskLimitEnforced) {
  // The domain is checked against kMaxTasks before any task is built.
  static_assert(kMaxTasks < 2'000'000);
  EXPECT_THROW((void)compile_source(
                   "algorithm t(n);\n"
                   "nodetype x[i: 0 .. n-1];\n"
                   "comphase a { x(i) -> x((i + 1) mod n); }\n",
                   {{"n", 2'000'000}}),
               LarcsError);
}

TEST(CompilerErrors, NegativeVolumeRejected) {
  EXPECT_THROW((void)compile_source(
                   "algorithm t(n);\n"
                   "nodetype x[i: 0 .. n-1];\n"
                   "comphase a { x(i) -> x((i + 1) mod n) volume 0 - 5; }\n",
                   {{"n", 4}}),
               LarcsError);
}

TEST(Compiler, ExecCostMayUseNodeBinders) {
  const auto cp = compile_source(
      "algorithm t(n);\n"
      "nodetype x[i: 0 .. n-1];\n"
      "comphase a { x(i) -> x((i + 1) mod n); }\n"
      "exphase w cost i + 1;\n",
      {{"n", 4}});
  EXPECT_EQ(cp.graph.exec_phases()[0].cost,
            (std::vector<std::int64_t>{1, 2, 3, 4}));
}

TEST(Compiler, FftParametricMatchesGeneratedUnion) {
  // The xor-based single-phase FFT produces exactly the union of the
  // generated program's per-stage edge sets.
  const auto parametric = compile_source(programs::fft_parametric(),
                                         {{"d", 4}});
  const auto staged = compile_source(programs::fft(4), {{"n", 16}});
  std::set<std::pair<int, int>> union_edges;
  for (const auto& phase : staged.graph.comm_phases()) {
    for (const auto& e : phase.edges) {
      union_edges.insert({e.src, e.dst});
    }
  }
  const auto& butterfly = parametric.graph.comm_phases()[0];
  EXPECT_EQ(butterfly.edges.size(), union_edges.size());
  for (const auto& e : butterfly.edges) {
    EXPECT_TRUE(union_edges.count({e.src, e.dst}))
        << e.src << " -> " << e.dst;
  }
  // And the source is size-independent while the staged one grows.
  EXPECT_EQ(programs::fft_parametric(), programs::fft_parametric());
  EXPECT_LT(programs::fft(3).size(), programs::fft(8).size());
}

TEST(Compiler, HypercubeExchangeBothDirections) {
  const auto cp = compile_source(programs::hypercube_exchange(),
                                 {{"d", 3}, {"iters", 1}});
  const auto& phase = cp.graph.comm_phases()[0];
  // 8 nodes x 3 dims = 24 directed edges.
  EXPECT_EQ(phase.edges.size(), 24u);
  const Graph agg = cp.graph.aggregate_graph();
  EXPECT_EQ(agg.num_edges(), 12);  // Q3 undirected
}

}  // namespace
}  // namespace oregami::larcs
