#include <gtest/gtest.h>

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "mapping_text.hpp"
#include "oregami/arch/fault_model.hpp"
#include "oregami/arch/routes.hpp"
#include "oregami/support/error.hpp"

namespace oregami {
namespace {

TEST(NextHop, ChoicesOnHypercube) {
  const auto t = Topology::hypercube(3);
  // 0 -> 7: any of the three bit flips starts a shortest path.
  EXPECT_EQ(next_hop_choices(t, 0, 7), (std::vector<int>{1, 2, 4}));
  // 0 -> 1: only the single bit flip.
  EXPECT_EQ(next_hop_choices(t, 0, 1), (std::vector<int>{1}));
  EXPECT_TRUE(next_hop_choices(t, 5, 5).empty());
}

TEST(NextHop, ChoicesOnMeshInterior) {
  const auto t = Topology::mesh(3, 3);
  // (0,0) -> (2,2): east and south both shorten.
  const auto choices = next_hop_choices(t, t.at2d(0, 0), t.at2d(2, 2));
  EXPECT_EQ(choices.size(), 2u);
}

TEST(AllShortestRoutes, CountOnHypercube) {
  // Antipodal pairs: d! shortest routes, one per order of bit flips.
  EXPECT_EQ(count_shortest_routes(Topology::hypercube(3), 0, 7), 6u);
  EXPECT_EQ(count_shortest_routes(Topology::hypercube(4), 0, 15), 24u);
}

TEST(AllShortestRoutes, MeshBinomialCount) {
  const auto t = Topology::mesh(3, 3);
  // (0,0)->(2,2): C(4,2) = 6 monotone lattice paths.
  EXPECT_EQ(count_shortest_routes(t, t.at2d(0, 0), t.at2d(2, 2)), 6u);
}

TEST(AllShortestRoutes, TrivialRouteForSameNode) {
  const auto t = Topology::ring(5);
  EXPECT_EQ(count_shortest_routes(t, 2, 2), 1u);
  const auto route = greedy_shortest_route(t, 2, 2);
  EXPECT_EQ(route.hops(), 0);
  EXPECT_EQ(route_nodes(t, 2, route), std::vector<int>{2});
}

TEST(GreedyRoute, IsShortest) {
  const auto t = Topology::torus(4, 4);
  for (int u = 0; u < 16; ++u) {
    for (int v = 0; v < 16; ++v) {
      const auto r = greedy_shortest_route(t, u, v);
      EXPECT_TRUE(is_shortest_route(t, r, u, v));
    }
  }
}

/// The greedy rule spelled out the long way: at each step take the
/// first (lowest-numbered) of next_hop_choices.
std::vector<int> reference_greedy_nodes(const Topology& topo, int src,
                                        int dst) {
  std::vector<int> nodes{src};
  int current = src;
  while (current != dst) {
    current = next_hop_choices(topo, current, dst).front();
    nodes.push_back(current);
  }
  return nodes;
}

TEST(GreedyRoute, MatchesNextHopReference) {
  std::vector<Topology> topos = {
      Topology::ring(5),         Topology::ring(12),
      Topology::chain(4),        Topology::chain(9),
      Topology::mesh(3, 4),      Topology::mesh(5, 5),
      Topology::torus(3, 5),     Topology::torus(6, 4),
      Topology::hypercube(3),    Topology::hypercube(5),
      Topology::complete_binary_tree(3),
      Topology::complete_binary_tree(5),
      Topology::star(5),         Topology::star(11),
      Topology::complete(4),     Topology::complete(9),
      Topology::butterfly(2),    Topology::butterfly(3),
      Topology::mesh3d(2, 3, 2), Topology::mesh3d(3, 3, 3)};
  // Adjacency lists in insertion order, not ascending (neighbors(0) is
  // 6, 3, 1, 4), with several shortest paths between most pairs, so the
  // lowest-id rule is what picks the hop.
  Graph g(8);
  for (const auto [u, v] : std::vector<std::pair<int, int>>{
           {0, 6}, {0, 3}, {0, 1}, {6, 7}, {3, 7}, {1, 7}, {7, 5},
           {7, 2}, {5, 4}, {2, 4}, {4, 0}, {6, 5}, {3, 2}}) {
    g.add_edge(u, v);
  }
  topos.push_back(Topology::custom("unsorted8", std::move(g)));

  for (const Topology& t : topos) {
    SCOPED_TRACE(t.name());
    for (int u = 0; u < t.num_procs(); ++u) {
      for (int v = 0; v < t.num_procs(); ++v) {
        const Route got = greedy_shortest_route(t, u, v);
        const std::vector<int> want = reference_greedy_nodes(t, u, v);
        ASSERT_EQ(route_nodes(t, u, got), want) << u << " -> " << v;
        ASSERT_EQ(got.links, route_from_nodes(t, want).links)
            << u << " -> " << v;
      }
    }
  }
}

/// The links walk_oracle_route visits from src to dst.
std::vector<int> oracle_links(const Topology& topo, int src, int dst) {
  std::vector<int> links;
  walk_oracle_route(topo, src, dst,
                    [&links](int link) { links.push_back(link); });
  return links;
}

/// Every pair's greedy route must be the oracle walk's, whether it
/// comes from the route table, from walk_greedy_route, or from
/// greedy_shortest_route.
void expect_table_matches_walk(const Topology& t) {
  SCOPED_TRACE(t.name());
  const Topology::GreedyRouteTable* table = t.greedy_route_table();
  ASSERT_EQ(table != nullptr, t.num_procs() <= Topology::kRouteTableMaxProcs);
  for (int u = 0; u < t.num_procs(); ++u) {
    for (int v = 0; v < t.num_procs(); ++v) {
      const std::vector<int> want = oracle_links(t, u, v);
      if (table != nullptr) {
        const std::span<const int> got = table->route(u, v);
        ASSERT_EQ(std::vector<int>(got.begin(), got.end()), want)
            << u << " -> " << v;
      }
      std::vector<int> walked;
      const int hops = walk_greedy_route(
          t, u, v, [&walked](int link) { walked.push_back(link); });
      ASSERT_EQ(walked, want) << u << " -> " << v;
      ASSERT_EQ(hops, static_cast<int>(want.size()));
      ASSERT_EQ(greedy_shortest_route(t, u, v).links, want)
          << u << " -> " << v;
    }
  }
}

TEST(GreedyRouteTable, MatchesOracleWalkOnBothSidesOfTheBound) {
  static_assert(Topology::kRouteTableMaxProcs == 16,
                "the sizes below straddle a bound of 16");
  const std::vector<Topology> topos = {
      // At or under the bound: the table.
      Topology::ring(5), Topology::ring(16), Topology::chain(9),
      Topology::chain(16), Topology::mesh(3, 4), Topology::mesh(4, 4),
      Topology::torus(3, 5), Topology::torus(4, 4), Topology::hypercube(3),
      Topology::hypercube(4), Topology::complete_binary_tree(4),
      Topology::star(16), Topology::complete(16), Topology::butterfly(2),
      Topology::mesh3d(2, 2, 4),
      // Over it: the oracle walk.
      Topology::ring(17), Topology::ring(40), Topology::chain(17),
      Topology::mesh(5, 4), Topology::mesh(9, 9), Topology::torus(3, 6),
      Topology::torus(8, 9), Topology::hypercube(5), Topology::hypercube(7),
      Topology::complete_binary_tree(5), Topology::star(17),
      Topology::complete(17), Topology::butterfly(3),
      Topology::mesh3d(3, 3, 3)};
  for (const Topology& t : topos) {
    expect_table_matches_walk(t);
  }
  // The healthy sub-machine of a faulted machine is a Custom topology,
  // on each side of the bound.
  const Topology small = Topology::mesh(4, 4);
  const Topology large = Topology::mesh(6, 6);
  const FaultedTopology small_ft(small, FaultSpec::parse("p5,l3,l17", small));
  const FaultedTopology large_ft(large,
                                 FaultSpec::parse("p7,p20,l3,l30", large));
  for (const FaultedTopology* ft : {&small_ft, &large_ft}) {
    const Topology& sub = ft->healthy_subtopology().topo;
    ASSERT_EQ(sub.family(), TopoFamily::Custom);
    expect_table_matches_walk(sub);
  }
  EXPECT_LE(small_ft.healthy_subtopology().topo.num_procs(),
            Topology::kRouteTableMaxProcs);
  EXPECT_GT(large_ft.healthy_subtopology().topo.num_procs(),
            Topology::kRouteTableMaxProcs);
}

TEST(GreedyRouteTable, CopiesShareOneTable) {
  const Topology t = Topology::mesh(4, 4);
  const Topology copy = t;
  EXPECT_EQ(copy.greedy_route_table(), t.greedy_route_table());
  EXPECT_EQ(Topology::mesh(5, 4).greedy_route_table(), nullptr);
}

TEST(GreedyRouteTable, DisconnectedCustomRoutesItsReachablePairs) {
  // A 4-ring {0, 2, 4, 6} and a 3-chain {1, 3, 5}: building the table
  // must not trip on a pair across the components.
  Graph g(7);
  for (const auto [u, v] : std::vector<std::pair<int, int>>{
           {0, 2}, {2, 4}, {4, 6}, {6, 0}, {1, 3}, {3, 5}}) {
    g.add_edge(u, v);
  }
  const Topology t = Topology::custom("split7", std::move(g));
  const Topology::GreedyRouteTable* table = t.greedy_route_table();
  ASSERT_NE(table, nullptr);
  for (int u = 0; u < t.num_procs(); ++u) {
    for (int v = 0; v < t.num_procs(); ++v) {
      SCOPED_TRACE(std::to_string(u) + " -> " + std::to_string(v));
      const std::span<const int> got = table->route(u, v);
      if (t.distance(u, v) < 0) {
        EXPECT_TRUE(got.empty());
        continue;
      }
      EXPECT_EQ(std::vector<int>(got.begin(), got.end()),
                oracle_links(t, u, v));
      EXPECT_EQ(greedy_shortest_route(t, u, v).links, oracle_links(t, u, v));
    }
  }
  EXPECT_EQ(greedy_shortest_route(t, 0, 4).hops(), 2);
  EXPECT_EQ(greedy_shortest_route(t, 1, 5).hops(), 2);
  // Asking for an unreachable pair still fails the walk's assertion.
  EXPECT_DEATH((void)greedy_shortest_route(t, 0, 1),
               "destination must be reachable");
}

TEST(DimensionOrder, HypercubeAscendingBits) {
  const auto t = Topology::hypercube(3);
  const auto r = dimension_order_route(t, 1, 6);  // 001 -> 110
  // Corrections ascending: flip bit0 (->000), bit1 (->010), bit2 (->110).
  EXPECT_EQ(route_nodes(t, 1, r), (std::vector<int>{1, 0, 2, 6}));
  EXPECT_TRUE(is_shortest_route(t, r, 1, 6));
}

TEST(DimensionOrder, MeshColumnFirst) {
  const auto t = Topology::mesh(3, 3);
  const auto r = dimension_order_route(t, t.at2d(0, 0), t.at2d(2, 2));
  // Column to 2 first, then rows.
  EXPECT_EQ(route_nodes(t, t.at2d(0, 0), r),
            (std::vector<int>{t.at2d(0, 0), t.at2d(0, 1), t.at2d(0, 2),
                              t.at2d(1, 2), t.at2d(2, 2)}));
}

TEST(DimensionOrder, TorusTakesShortWrap) {
  const auto t = Topology::torus(5, 5);
  const auto r = dimension_order_route(t, t.at2d(0, 0), t.at2d(0, 4));
  EXPECT_EQ(r.hops(), 1);  // wraps backwards
}

TEST(DimensionOrder, RingAndChain) {
  const auto ring = Topology::ring(6);
  EXPECT_EQ(dimension_order_route(ring, 5, 1).hops(), 2);
  const auto chain = Topology::chain(6);
  EXPECT_EQ(dimension_order_route(chain, 4, 1).hops(), 3);
}

TEST(DimensionOrder, UnsupportedFamilyThrows) {
  const auto t = Topology::star(5);
  EXPECT_THROW((void)dimension_order_route(t, 1, 2), MappingError);
}

TEST(RouteFromNodes, RejectsNonAdjacentSteps) {
  const auto t = Topology::ring(6);
  EXPECT_THROW((void)route_from_nodes(t, {0, 2}), MappingError);
  const auto r = route_from_nodes(t, {0, 1, 2});
  EXPECT_EQ(r.links.size(), 2u);
}

TEST(RouteValidity, ChecksEndpointsAndLinks) {
  const auto t = Topology::ring(6);
  auto r = route_from_nodes(t, {0, 1, 2});
  EXPECT_TRUE(is_valid_route(t, r, 0, 2));
  EXPECT_FALSE(is_valid_route(t, r, 0, 3));
  EXPECT_FALSE(is_valid_route(t, r, 1, 2));
  // Tamper with a link id.
  r.links[0] = r.links[0] == 0 ? 1 : 0;
  EXPECT_FALSE(is_valid_route(t, r, 0, 2));
  // Link ids out of range.
  r.links[0] = t.num_links();
  EXPECT_FALSE(is_valid_route(t, r, 0, 2));
  r.links[0] = -1;
  EXPECT_FALSE(is_valid_route(t, r, 0, 2));
  // The 0-hop route is valid exactly between a processor and itself.
  EXPECT_TRUE(is_valid_route(t, Route{}, 3, 3));
  EXPECT_FALSE(is_valid_route(t, Route{}, 3, 4));
}

TEST(RouteValidity, NonShortestDetected) {
  const auto t = Topology::ring(6);
  const auto r = route_from_nodes(t, {0, 5, 4, 3});  // 3 hops backwards
  EXPECT_TRUE(is_valid_route(t, r, 0, 3));
  EXPECT_TRUE(is_shortest_route(t, r, 0, 3));  // both directions are 3
  const auto longer = route_from_nodes(t, {0, 1, 2, 3, 4});
  EXPECT_FALSE(is_shortest_route(t, longer, 0, 4));
}

}  // namespace
}  // namespace oregami
