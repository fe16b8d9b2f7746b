#include <gtest/gtest.h>

#include <cstdint>
#include <set>

#include "oregami/larcs/compiler.hpp"
#include "oregami/larcs/parser.hpp"
#include "oregami/larcs/programs.hpp"
#include "oregami/server/digest.hpp"

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
  ASSERT_EQ(cp.graph.task_label(3).size(), 1u);
  EXPECT_EQ(cp.graph.task_label(3)[0], 3);
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
  EXPECT_EQ(layout->task_of(std::vector<long>{1, 2}), 5);
  EXPECT_EQ(cp.graph.task_name(5), "cell(1,2)");
  EXPECT_TRUE(layout->contains(std::vector<long>{2, 2}));
  EXPECT_FALSE(layout->contains(std::vector<long>{3, 0}));
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


// --- Output pins -----------------------------------------------------------
//
// The compiler's whole output, folded by the daemon's own graph digest
// (task names and labels, edges in order with volumes, exec costs, the
// phase tree, node symmetry), so a change to how rules expand cannot
// move a cached result unnoticed.

std::uint64_t graph_digest(const TaskGraph& graph) {
  Fnv1a h;
  server::fold_task_graph(h, graph);
  return h.digest();
}

std::uint64_t compiled_digest(const std::string& source,
                              const std::map<std::string, long>& bindings) {
  return graph_digest(compile_source(source, bindings).graph);
}

TEST(CompilerPins, CatalogAtExampleAndLargerBindings) {
  // The larger size is the one perfbench's serve_misses stream uses.
  struct Pin {
    const char* program;
    std::uint64_t example_digest;
    std::map<std::string, long> larger;
    std::uint64_t larger_digest;
  };
  const std::vector<Pin> pins = {
      {"nbody", 0xb00f58b7f7d1fd2eULL,
       {{"n", 31}, {"s", 4}, {"m", 8}}, 0x3e4f607c1b9e5a5cULL},
      {"ring_pipeline", 0x49f57a712eebc6d7ULL,
       {{"n", 128}, {"stages", 8}}, 0x52cc246c538ce817ULL},
      {"jacobi", 0x013587900fc0ec40ULL,
       {{"n", 12}, {"iters", 10}}, 0x49f7e8572dc025baULL},
      {"sor", 0x2222b325ae455a9fULL,
       {{"n", 10}, {"iters", 10}}, 0x9dd04920a5c14d2bULL},
      {"binomial_dnc", 0xc9ee15636fb0bb5fULL,
       {{"k", 6}}, 0x4e314bbf66f78167ULL},
      {"matmul", 0x6994261e4ae0597bULL,
       {{"n", 5}}, 0x0752b8136379ae9eULL},
      {"cbt_reduce", 0x456f240593d05e3dULL,
       {{"h", 6}}, 0x0898f47dfe346986ULL},
      {"torus_stencil", 0xf8195cb0182b35adULL,
       {{"r", 12}, {"c", 12}, {"iters", 5}}, 0x82c4c84bdb31ceedULL},
      {"hypercube_exchange", 0x306ee1ec57c4f847ULL,
       {{"d", 6}, {"iters", 3}}, 0xf245d388fb48059eULL},
      {"fft_parametric", 0x90b0b5d186f4e815ULL,
       {{"d", 5}}, 0xe8f9251397c22f3cULL},
  };
  ASSERT_EQ(pins.size(), programs::catalog().size());
  for (const Pin& pin : pins) {
    const auto* entry = programs::find(pin.program);
    ASSERT_NE(entry, nullptr) << pin.program;
    const std::map<std::string, long> example(entry->example_bindings.begin(),
                                              entry->example_bindings.end());
    EXPECT_EQ(compiled_digest(entry->source, example), pin.example_digest)
        << pin.program << " at its example bindings";
    EXPECT_EQ(compiled_digest(entry->source, pin.larger), pin.larger_digest)
        << pin.program << " at the larger size";
  }
}

TEST(CompilerPins, GeneratedPrograms) {
  EXPECT_EQ(compiled_digest(programs::fft(4), {{"n", 16}}),
            0x203b0f757ee88366ULL);
  EXPECT_EQ(compiled_digest(programs::broadcast_vote(8), {{"n", 8}}),
            0x60bc2bb7b84bd0c2ULL);
}

TEST(CompilerPins, TorusStencil316) {
  // perfbench map_100k's graph: 99,856 tasks and 399,424 edges.
  const auto cp = compile_source(programs::torus_stencil(),
                                 {{"r", 316}, {"c", 316}, {"iters", 1}});
  EXPECT_EQ(cp.graph.num_tasks(), 99'856);
  EXPECT_EQ(cp.graph.num_comm_edges(), 399'424);
  EXPECT_EQ(graph_digest(cp.graph), 0x3fb1c9b4bb5cf31dULL);
}

// --- Scoping and lazy errors ------------------------------------------------

/// The full text of the LarcsError compiling `source` throws ("LaRCS
/// error at line:column: message"), or "" when it compiles.
std::string compile_error(const std::string& source,
                          const std::map<std::string, long>& bindings) {
  try {
    (void)compile_source(source, bindings);
  } catch (const LarcsError& e) {
    return e.what();
  }
  return "";
}

std::vector<std::int64_t> volumes(const CommPhase& phase) {
  std::vector<std::int64_t> out;
  for (const auto& e : phase.edges) {
    out.push_back(e.volume);
  }
  return out;
}

TEST(CompilerScopes, UnknownVariableBehindShortCircuitCompiles) {
  const auto cp = compile_source(
      "algorithm t(n);\n"
      "nodetype x[i: 0 .. n-1];\n"
      "comphase a { x(i) -> x((i + 1) mod n) when i >= 0 or zz == 1; }\n"
      "comphase b { x(i) -> x((i + 1) mod n) when i < 0 and zz == 1; }\n"
      "comphase c { x(i) -> x((i + 1) mod n) volume 0 * 0 + (1 or zz); }\n",
      {{"n", 4}});
  EXPECT_EQ(cp.graph.comm_phases()[0].edges.size(), 4u);
  EXPECT_EQ(cp.graph.comm_phases()[1].edges.size(), 0u);
  EXPECT_EQ(volumes(cp.graph.comm_phases()[2]),
            (std::vector<std::int64_t>{1, 1, 1, 1}));
}

TEST(CompilerScopes, UnknownVariableFailsAtItsOwnLocation) {
  // zz is evaluated only once i reaches 2, and reported where it stands.
  EXPECT_EQ(compile_error("algorithm t(n);\n"
                          "nodetype x[i: 0 .. n-1];\n"
                          "comphase a {\n"
                          "  x(i) -> x((i + 1) mod n) volume i < 2 or zz;\n"
                          "}\n",
                          {{"n", 4}}),
            "LaRCS error at 4:44: unknown variable 'zz'");
  EXPECT_EQ(compile_error("algorithm t(n);\n"
                          "nodetype x[i: 0 .. n-1];\n"
                          "comphase a { x(i) -> x((i + 1) mod n); }\n"
                          "exphase w cost 1 + j;\n",
                          {{"n", 4}}),
            "LaRCS error at 4:20: unknown variable 'j'");
  EXPECT_EQ(compile_error("algorithm t(n);\n"
                          "nodetype x[i: 0 .. m];\n",
                          {{"n", 4}}),
            "LaRCS error at 2:20: unknown variable 'm'");
}

TEST(CompilerScopes, PatternBinderShadowsParameter) {
  // The domain bound reads the parameter i; the rule reads the binder.
  const auto cp = compile_source(
      "algorithm t(n, i);\n"
      "nodetype x[k: 0 .. n - 1 + i - i];\n"
      "comphase a { x(i) -> x((i + 1) mod n) volume i * 10 + 1; }\n",
      {{"n", 4}, {"i", 100}});
  const auto& edges = cp.graph.comm_phases()[0].edges;
  ASSERT_EQ(edges.size(), 4u);
  EXPECT_EQ(edges[3].dst, 0);
  EXPECT_EQ(volumes(cp.graph.comm_phases()[0]),
            (std::vector<std::int64_t>{1, 11, 21, 31}));
}

TEST(CompilerScopes, ExecCostDimensionBinderShadowsParameter) {
  const auto cp = compile_source(
      "algorithm t(n, i);\n"
      "nodetype x[i: 0 .. n-1];\n"
      "nodetype y[j: 0 .. 1];\n"
      "comphase a { x(i) -> x((i + 1) mod n); }\n"
      "exphase w cost i * 10 + n;\n",
      {{"n", 3}, {"i", 100}});
  // x's tasks read their binder; y's tasks have no i binder and read
  // the parameter.
  EXPECT_EQ(cp.graph.exec_phases()[0].cost,
            (std::vector<std::int64_t>{3, 13, 23, 1003, 1003}));
}

TEST(CompilerScopes, ConstsUseEarlierConstsEverywhere) {
  const auto cp = compile_source(
      "algorithm t(n);\n"
      "import m;\n"
      "const a = n + m;\n"
      "const b = a * 2;\n"
      "const c = b - a + 1;\n"
      "nodetype x[i: 0 .. c - 1];\n"
      "comphase p { x(i) -> x((i + a) mod c) volume b + i; }\n"
      "exphase w cost c * i;\n"
      "phases (p; w)^b;\n",
      {{"n", 2}, {"m", 1}});
  // a = 3, b = 6, c = 4.
  EXPECT_EQ(cp.graph.num_tasks(), 4);
  const auto& edges = cp.graph.comm_phases()[0].edges;
  ASSERT_EQ(edges.size(), 4u);
  EXPECT_EQ(edges[1].dst, 0);
  EXPECT_EQ(volumes(cp.graph.comm_phases()[0]),
            (std::vector<std::int64_t>{6, 7, 8, 9}));
  EXPECT_EQ(cp.graph.exec_phases()[0].cost,
            (std::vector<std::int64_t>{0, 4, 8, 12}));
  EXPECT_EQ(cp.graph.comm_phase_multiplicity(), std::vector<long>{6});
  EXPECT_EQ(cp.env.get("c"), 4);
}

TEST(CompilerScopes, ForallBoundsReadTheParameterItsBinderShadows) {
  const auto cp = compile_source(
      "algorithm q(n);\n"
      "nodetype a[i: 0 .. 0];\n"
      "nodetype b[j: 0 .. 3];\n"
      "comphase link { a(i) -> b(n - 1) forall n: 1 .. n when n <= 2 "
      "volume 1; }\n"
      "exphase w cost 1;\n"
      "phases link; w;\n",
      {{"n", 4}});
  const auto& edges = cp.graph.comm_phases()[0].edges;
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_EQ(edges[0].src, 0);
  EXPECT_EQ(edges[0].dst, 1);  // b(0)
  EXPECT_EQ(edges[1].dst, 2);  // b(1)
}

TEST(CompilerScopes, ForallBinderDoesNotEraseTheNameItShadows) {
  // Every source tuple's bounds read the parameter n, not only the
  // first one's.
  const std::string ring =
      "algorithm q(n);\n"
      "nodetype node[i: 0 .. 3];\n"
      "comphase ring { node(i) -> node((i + 1) mod 4) forall n: 1 .. n "
      "when n == 1 volume 1; }\n"
      "exphase w cost 1;\n"
      "phases ring; w;\n";
  const auto cp = compile_source(ring, {{"n", 4}});
  const auto& edges = cp.graph.comm_phases()[0].edges;
  ASSERT_EQ(edges.size(), 4u);
  for (const auto& e : edges) {
    EXPECT_EQ(e.dst, (e.src + 1) % 4);
  }
}

TEST(CompilerScopes, MinAndMaxReportTheLeftArgumentsError) {
  const auto error_in_volume = [](const std::string& volume) {
    return compile_error(
        "algorithm q(n);\n"
        "nodetype node[i: 0 .. 3];\n"
        "comphase ring { node(i) -> node((i + 1) mod 4) volume " +
            volume + "; }\n",
        {{"n", 4}});
  };
  EXPECT_EQ(error_in_volume("min(1 / 0, 1 mod 0)"),
            "LaRCS error at 3:61: division by zero");
  EXPECT_EQ(error_in_volume("max(1 mod 0, 1 / 0)"),
            "LaRCS error at 3:61: mod by zero");
}

TEST(CompilerScopes, EveryBuiltinInARule) {
  const auto cp = compile_source(
      "algorithm t(n);\n"
      "nodetype x[i: 0 .. n-1];\n"
      "comphase p {\n"
      "  x(i) -> x((i + 1) mod n) volume pow(i + 1, 2) + pow(3, 0);\n"
      "  x(i) -> x((i + 1) mod n) volume log2(i + 1) + log2(9);\n"
      "  x(i) -> x((i + 1) mod n) volume min(i, 2) * 10 + max(i, 2);\n"
      "  x(i) -> x((i + 1) mod n) volume abs(0 - i) + abs(i);\n"
      "  x(i) -> x(xor(i, 1)) volume xor(i, 3);\n"
      "  x(i) -> x((i + 1) mod n) volume bit(i, 0) + 2 * bit(i, 1);\n"
      "}\n",
      {{"n", 4}});
  EXPECT_EQ(volumes(cp.graph.comm_phases()[0]),
            (std::vector<std::int64_t>{2, 5, 10, 17,      // pow
                                       3, 4, 4, 5,        // log2
                                       2, 12, 22, 23,     // min, max
                                       0, 2, 4, 6,        // abs
                                       3, 2, 1, 0,        // xor
                                       0, 1, 2, 3}));     // bit
  const auto& xor_edges = cp.graph.comm_phases()[0].edges;
  EXPECT_EQ(xor_edges[16].dst, 1);
  EXPECT_EQ(xor_edges[19].dst, 2);
}

TEST(CompilerScopes, EveryBuiltinErrorKeepsItsTextAndLocation) {
  const auto error_in_volume = [](const std::string& volume) {
    return compile_error(
        "algorithm t(n);\n"
        "nodetype x[i: 0 .. n-1];\n"
        "comphase p { x(i) -> x((i + 1) mod n) volume " +
            volume + "; }\n",
        {{"n", 4}});
  };
  // Column 46 is where the volume expression starts.
  EXPECT_EQ(error_in_volume("i + pow(2, i - 1)"),
            "LaRCS error at 3:50: pow with negative exponent");
  EXPECT_EQ(error_in_volume("pow(10, 30 + i)"),
            "LaRCS error at 3:46: pow overflows");
  EXPECT_EQ(error_in_volume("log2(i)"),
            "LaRCS error at 3:46: log2 of a non-positive value");
  EXPECT_EQ(error_in_volume("xor(i - 1, 2)"),
            "LaRCS error at 3:46: xor requires non-negative arguments");
  EXPECT_EQ(error_in_volume("bit(1, 63 - i)"),
            "LaRCS error at 3:46: bit requires x >= 0 and 0 <= j <= 62");
  EXPECT_EQ(error_in_volume("bit(i - 1, 0)"),
            "LaRCS error at 3:46: bit requires x >= 0 and 0 <= j <= 62");
  EXPECT_EQ(error_in_volume("min(i)"),
            "LaRCS error at 3:46: call to 'min' expects 2 argument(s)");
  EXPECT_EQ(error_in_volume("abs(i, 1)"),
            "LaRCS error at 3:46: call to 'abs' expects 1 argument(s)");
  EXPECT_EQ(error_in_volume("frob(i)"),
            "LaRCS error at 3:46: unknown function 'frob'");
  EXPECT_EQ(error_in_volume("1 + 1 / i"),
            "LaRCS error at 3:52: division by zero");
  EXPECT_EQ(error_in_volume("1 + 1 mod i"),
            "LaRCS error at 3:52: mod by zero");
  // Binary operators evaluate left then right.
  EXPECT_EQ(error_in_volume("1 / 0 + 1 mod 0"),
            "LaRCS error at 3:48: division by zero");
  // Calls check arity and names before evaluating their arguments.
  EXPECT_EQ(error_in_volume("frob(1 / 0)"),
            "LaRCS error at 3:46: unknown function 'frob'");
  EXPECT_EQ(error_in_volume("pow(1 / 0)"),
            "LaRCS error at 3:46: call to 'pow' expects 2 argument(s)");
}

}  // namespace
}  // namespace oregami::larcs
