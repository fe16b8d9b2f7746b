#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "mapping_text.hpp"
#include "oregami/arch/routes.hpp"
#include "oregami/mapper/baselines.hpp"
#include "oregami/mapper/mm_route.hpp"
#include "oregami/mapper/paper_examples.hpp"

namespace oregami {
namespace {

/// Max number of routes of one phase crossing any single link.
int phase_max_contention(const PhaseRouting& routing, int num_links) {
  std::vector<int> count(static_cast<std::size_t>(num_links), 0);
  for (const auto& r : routing.route_of_edge) {
    for (const int link : r.links) {
      ++count[static_cast<std::size_t>(link)];
    }
  }
  return count.empty() ? 0
                       : *std::max_element(count.begin(), count.end());
}

void expect_all_shortest(const TaskGraph& g,
                         const std::vector<int>& proc_of_task,
                         const std::vector<PhaseRouting>& routing,
                         const Topology& topo) {
  for (std::size_t k = 0; k < g.comm_phases().size(); ++k) {
    const auto& phase = g.comm_phases()[k];
    ASSERT_EQ(routing[k].route_of_edge.size(), phase.edges.size());
    for (std::size_t i = 0; i < phase.edges.size(); ++i) {
      const auto& e = phase.edges[i];
      const int src = proc_of_task[static_cast<std::size_t>(e.src)];
      const int dst = proc_of_task[static_cast<std::size_t>(e.dst)];
      EXPECT_TRUE(
          is_shortest_route(topo, routing[k].route_of_edge[i], src, dst))
          << "phase " << phase.name << " edge " << i;
    }
  }
}

/// Identity-ish placement for n tasks on p >= n processors.
std::vector<int> direct_placement(int n) {
  std::vector<int> proc(static_cast<std::size_t>(n));
  for (int t = 0; t < n; ++t) {
    proc[static_cast<std::size_t>(t)] = t;
  }
  return proc;
}

TEST(MmRoute, CoLocatedTasksGetTrivialRoutes) {
  TaskGraph g;
  g.add_task("a");
  g.add_task("b");
  const int p = g.add_comm_phase("p");
  g.add_comm_edge(p, 0, 1);
  const auto topo = Topology::ring(4);
  const std::vector<int> procs{2, 2};
  const auto routing = mm_route(g, procs, topo);
  ASSERT_EQ(routing[0].route_of_edge.size(), 1u);
  EXPECT_EQ(routing[0].route_of_edge[0].hops(), 0);
  EXPECT_EQ(route_nodes(topo, 2, routing[0].route_of_edge[0]),
            std::vector<int>{2});
}

TEST(MmRoute, RoutesAreShortestOnHypercube) {
  const auto g = paper::fig6_nbody15();
  const auto topo = Topology::hypercube(4);  // 16 procs, 15 tasks
  const auto procs = direct_placement(15);
  const auto routing = mm_route(g, procs, topo);
  expect_all_shortest(g, procs, routing, topo);
}

TEST(MmRoute, Fig6ChordalPhaseLowContention) {
  // 15 bodies on an 8-node hypercube (two tasks share processors);
  // chordal messages i -> i+8 mod 15. MM-Route spreads first hops via
  // maximal matchings, so per-link contention stays near the lower
  // bound ceil(15 / 12 links)... in practice <= 3 and well under the
  // naive worst case.
  const auto g = paper::fig6_nbody15();
  const auto topo = Topology::hypercube(3);
  std::vector<int> procs(15);
  for (int t = 0; t < 15; ++t) {
    procs[static_cast<std::size_t>(t)] = t % 8;
  }
  std::vector<PhaseRouteTrace> trace;
  const auto routing = mm_route(g, procs, topo, {}, &trace);
  expect_all_shortest(g, procs, routing, topo);

  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace[1].phase_name, "chordal");
  // Within any single matching round every link appears at most once.
  for (const auto& phase_trace : trace) {
    for (const auto& round : phase_trace.rounds) {
      std::map<int, int> link_uses;
      for (const auto& [edge, link] : round.assignments) {
        EXPECT_EQ(++link_uses[link], 1)
            << "link reused within one matching round";
      }
    }
  }
  const int contention =
      phase_max_contention(routing[1], topo.num_links());
  EXPECT_LE(contention, 3);
}

TEST(MmRoute, MatchingRoundsRecordHops) {
  const auto g = paper::fig6_nbody15();
  const auto topo = Topology::hypercube(3);
  std::vector<int> procs(15);
  for (int t = 0; t < 15; ++t) {
    procs[static_cast<std::size_t>(t)] = t % 8;
  }
  std::vector<PhaseRouteTrace> trace;
  (void)mm_route(g, procs, topo, {}, &trace);
  // Hops are non-decreasing within a phase trace.
  for (const auto& pt : trace) {
    int last = 0;
    for (const auto& round : pt.rounds) {
      EXPECT_GE(round.hop, last);
      last = round.hop;
    }
  }
}

TEST(MmRoute, HopcroftKarpVariantAlsoValid) {
  const auto g = paper::fig6_nbody15();
  const auto topo = Topology::hypercube(4);
  const auto procs = direct_placement(15);
  RouteOptions options;
  options.matcher = RouteOptions::Matcher::HopcroftKarp;
  const auto routing = mm_route(g, procs, topo, options);
  expect_all_shortest(g, procs, routing, topo);
}

TEST(MmRoute, LowerContentionThanGreedyObliviousRouting) {
  // Compare against the contention-oblivious deterministic baseline on
  // the chordal phase of the 15-body problem (Fig 6 scenario).
  const auto g = paper::fig6_nbody15();
  const auto topo = Topology::hypercube(3);
  std::vector<int> procs(15);
  for (int t = 0; t < 15; ++t) {
    procs[static_cast<std::size_t>(t)] = t % 8;
  }
  const auto mm = mm_route(g, procs, topo);
  const auto greedy = route_greedy_shortest(g, procs, topo);
  const int mm_contention = phase_max_contention(mm[1], topo.num_links());
  const int greedy_contention =
      phase_max_contention(greedy[1], topo.num_links());
  EXPECT_LE(mm_contention, greedy_contention);
}

TEST(MmRoute, AllPhasesRouted) {
  const auto g = paper::fig6_nbody15();
  const auto topo = Topology::mesh(4, 4);
  const auto procs = direct_placement(15);
  const auto routing = mm_route(g, procs, topo);
  ASSERT_EQ(routing.size(), 2u);
  expect_all_shortest(g, procs, routing, topo);
}

TEST(Baselines, DimensionOrderRoutesValid) {
  const auto g = paper::fig6_nbody15();
  const auto topo = Topology::hypercube(4);
  const auto procs = direct_placement(15);
  const auto routing = route_dimension_order(g, procs, topo);
  expect_all_shortest(g, procs, routing, topo);
}

TEST(Baselines, RandomShortestRoutesValidAndSeeded) {
  const auto g = paper::fig6_nbody15();
  const auto topo = Topology::hypercube(4);
  const auto procs = direct_placement(15);
  const auto a = route_random_shortest(g, procs, topo, 42);
  const auto b = route_random_shortest(g, procs, topo, 42);
  expect_all_shortest(g, procs, a, topo);
  // Same seed, same routes.
  for (std::size_t k = 0; k < a.size(); ++k) {
    for (std::size_t i = 0; i < a[k].route_of_edge.size(); ++i) {
      EXPECT_EQ(a[k].route_of_edge[i].links,
                b[k].route_of_edge[i].links);
    }
  }
}

}  // namespace
}  // namespace oregami
