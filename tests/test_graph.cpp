#include <gtest/gtest.h>

#include "oregami/graph/graph.hpp"
#include "oregami/graph/gray_code.hpp"
#include "oregami/graph/shortest_paths.hpp"
#include "oregami/support/error.hpp"

namespace oregami {
namespace {

Graph path_graph(int n) {
  Graph g(n);
  for (int i = 0; i + 1 < n; ++i) {
    g.add_edge(i, i + 1);
  }
  return g;
}

Graph cycle_graph(int n) {
  Graph g = path_graph(n);
  g.add_edge(n - 1, 0);
  return g;
}

TEST(Graph, StartsEmpty) {
  Graph g;
  EXPECT_EQ(g.num_vertices(), 0);
  EXPECT_EQ(g.num_edges(), 0);
}

TEST(Graph, AddEdgeNormalisesEndpoints) {
  Graph g(3);
  g.add_edge(2, 0, 5);
  ASSERT_EQ(g.num_edges(), 1);
  EXPECT_EQ(g.edges()[0].u, 0);
  EXPECT_EQ(g.edges()[0].v, 2);
  EXPECT_EQ(g.edges()[0].weight, 5);
}

TEST(Graph, DuplicateEdgeAccumulatesWeight) {
  Graph g(2);
  const int id1 = g.add_edge(0, 1, 3);
  const int id2 = g.add_edge(1, 0, 4);
  EXPECT_EQ(id1, id2);
  EXPECT_EQ(g.num_edges(), 1);
  EXPECT_EQ(g.edge_weight(0, 1), 7);
  EXPECT_EQ(g.edge_weight(1, 0), 7);
  // Both adjacency mirrors must see the merged weight.
  EXPECT_EQ(g.neighbors(0)[0].weight, 7);
  EXPECT_EQ(g.neighbors(1)[0].weight, 7);
}

TEST(Graph, EdgeWeightAbsent) {
  Graph g(3);
  g.add_edge(0, 1);
  EXPECT_FALSE(g.edge_weight(0, 2).has_value());
  EXPECT_FALSE(g.edge_weight(1, 2).has_value());
  EXPECT_TRUE(g.edge_weight(0, 1).has_value());
}

TEST(Graph, DegreesAndTotalWeight) {
  Graph g(4);
  g.add_edge(0, 1, 2);
  g.add_edge(0, 2, 3);
  g.add_edge(0, 3, 4);
  EXPECT_EQ(g.degree(0), 3);
  EXPECT_EQ(g.degree(1), 1);
  EXPECT_EQ(g.total_weight(), 9);
}

TEST(Graph, CutWeightSumsEdgesBetweenParts) {
  Graph g(4);
  g.add_edge(0, 1, 5);
  g.add_edge(1, 2, 3);
  g.add_edge(2, 3, 7);
  EXPECT_EQ(cut_weight(g, {0, 0, 1, 1}), 3);
  EXPECT_EQ(cut_weight(g, {0, 1, 0, 1}), 15);
  EXPECT_EQ(cut_weight(g, {2, 2, 2, 2}), 0);
}

TEST(Components, SingleComponent) {
  EXPECT_TRUE(is_connected(cycle_graph(5)));
  const auto comp = connected_components(cycle_graph(5));
  for (const int c : comp) {
    EXPECT_EQ(c, 0);
  }
}

TEST(Components, TwoComponents) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  EXPECT_FALSE(is_connected(g));
  const auto comp = connected_components(g);
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[2], comp[3]);
  EXPECT_NE(comp[0], comp[2]);
}

TEST(Components, EmptyGraphIsConnected) {
  EXPECT_TRUE(is_connected(Graph(0)));
}

TEST(Bfs, DistancesOnPath) {
  const auto dist = bfs_distances(path_graph(5), 0);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(dist[static_cast<std::size_t>(i)], i);
  }
}

TEST(Bfs, UnreachableIsMinusOne) {
  Graph g(3);
  g.add_edge(0, 1);
  const auto dist = bfs_distances(g, 0);
  EXPECT_EQ(dist[2], -1);
}

// --- Gray code -----------------------------------------------------------

TEST(GrayCode, ConsecutiveCodesDifferInOneBit) {
  for (std::uint32_t i = 0; i + 1 < 1024; ++i) {
    EXPECT_EQ(popcount32(gray_code(i) ^ gray_code(i + 1)), 1);
  }
}

TEST(GrayCode, SequenceIsPermutation) {
  std::vector<bool> seen(64, false);
  for (std::uint32_t i = 0; i < 64; ++i) {
    const auto code = gray_code(i);
    ASSERT_LT(code, 64u);
    EXPECT_FALSE(seen[code]);
    seen[code] = true;
  }
}

TEST(BitHelpers, PowerOfTwoAndLog) {
  EXPECT_TRUE(is_power_of_two(1));
  EXPECT_TRUE(is_power_of_two(64));
  EXPECT_FALSE(is_power_of_two(0));
  EXPECT_FALSE(is_power_of_two(48));
  EXPECT_EQ(floor_log2(1), 0);
  EXPECT_EQ(floor_log2(64), 6);
  EXPECT_EQ(floor_log2(100), 6);
}

}  // namespace
}  // namespace oregami
