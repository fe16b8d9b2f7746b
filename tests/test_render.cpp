#include <gtest/gtest.h>

#include "oregami/larcs/compiler.hpp"
#include "oregami/larcs/programs.hpp"
#include "oregami/mapper/driver.hpp"
#include "oregami/metrics/render.hpp"

namespace oregami {
namespace {

struct Mapped {
  TaskGraph graph;
  Topology topo;
  MapperReport report;
  MappingMetrics metrics;

  static Mapped nbody_on_cube() {
    auto cp = larcs::compile_source(larcs::programs::nbody(),
                                    {{"n", 8}, {"s", 2}, {"m", 4}});
    Topology topo = Topology::hypercube(3);
    MapperReport report = map_computation(cp.graph, topo);
    MappingMetrics metrics = compute_metrics(cp.graph, report.mapping, topo);
    return {std::move(cp.graph), std::move(topo), std::move(report),
            std::move(metrics)};
  }
};

TEST(Render, AssignmentTableListsEveryProcessor) {
  const auto m = Mapped::nbody_on_cube();
  const auto out = render_assignment_table(
      m.graph, m.report.mapping.proc_of_task(), m.topo);
  EXPECT_NE(out.find("proc"), std::string::npos);
  EXPECT_NE(out.find("exec load"), std::string::npos);
  EXPECT_NE(out.find("body(0)"), std::string::npos);
  // One row per processor (8) + header + underline.
  EXPECT_EQ(static_cast<int>(std::count(out.begin(), out.end(), '\n')),
            10);
}

TEST(Render, LinkTableShowsPhases) {
  const auto m = Mapped::nbody_on_cube();
  const auto out = render_link_table(m.metrics, m.topo);
  EXPECT_NE(out.find("phase 'ring'"), std::string::npos);
  EXPECT_NE(out.find("phase 'chordal'"), std::string::npos);
  EXPECT_NE(out.find("contention"), std::string::npos);
}

TEST(Render, SummaryHasHeadlineMetrics) {
  const auto m = Mapped::nbody_on_cube();
  const auto out = render_summary(m.metrics);
  EXPECT_NE(out.find("completion time"), std::string::npos);
  EXPECT_NE(out.find("total IPC volume"), std::string::npos);
  EXPECT_NE(out.find("avg dilation"), std::string::npos);
}

TEST(Render, AsciiLayoutMesh) {
  auto cp = larcs::compile_source(larcs::programs::jacobi(),
                                  {{"n", 4}, {"iters", 1}});
  const auto topo = Topology::mesh(4, 4);
  const auto report = map_computation(cp.graph, topo);
  const auto out = render_ascii_layout(
      cp.graph, report.mapping.proc_of_task(), topo);
  // 4 mesh rows.
  EXPECT_EQ(static_cast<int>(std::count(out.begin(), out.end(), '\n')), 4);
  EXPECT_NE(out.find("cell(0,0)"), std::string::npos);
}

TEST(Render, AsciiLayoutRingWraps) {
  const auto m = Mapped::nbody_on_cube();
  const auto ring_topo = Topology::ring(8);
  const auto report = map_computation(m.graph, ring_topo);
  const auto out = render_ascii_layout(
      m.graph, report.mapping.proc_of_task(), ring_topo);
  EXPECT_NE(out.find("(wraps)"), std::string::npos);
  EXPECT_NE(out.find(" -- "), std::string::npos);
}

TEST(Render, AsciiLayoutFallsBackToTable) {
  const auto m = Mapped::nbody_on_cube();
  const auto out = render_ascii_layout(
      m.graph, m.report.mapping.proc_of_task(), m.topo);
  EXPECT_NE(out.find("proc"), std::string::npos);  // table header
}

TEST(Render, TaskGraphDotIsWellFormed) {
  const auto m = Mapped::nbody_on_cube();
  const auto dot = render_task_graph_dot(m.graph);
  EXPECT_EQ(dot.rfind("digraph task_graph {", 0), 0u);
  EXPECT_NE(dot.find("t0 -> t1"), std::string::npos);
  EXPECT_NE(dot.find("label=\"ring\""), std::string::npos);
  EXPECT_NE(dot.find("label=\"chordal\""), std::string::npos);
  EXPECT_EQ(dot.back(), '\n');
  EXPECT_NE(dot.find("}"), std::string::npos);
}

}  // namespace
}  // namespace oregami
