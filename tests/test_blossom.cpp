#include <gtest/gtest.h>

#include <algorithm>

#include "oregami/graph/blossom.hpp"
#include "oregami/support/rng.hpp"

namespace oregami {
namespace {

void expect_valid(const Graph& g, const GeneralMatching& m) {
  ASSERT_EQ(m.mate.size(), static_cast<std::size_t>(g.num_vertices()));
  std::int64_t weight = 0;
  for (int v = 0; v < g.num_vertices(); ++v) {
    const int u = m.mate[static_cast<std::size_t>(v)];
    if (u == -1) {
      continue;
    }
    ASSERT_GE(u, 0);
    ASSERT_LT(u, g.num_vertices());
    EXPECT_EQ(m.mate[static_cast<std::size_t>(u)], v);
    EXPECT_NE(u, v);
    const auto w = g.edge_weight(u, v);
    ASSERT_TRUE(w.has_value()) << "matched pair must be an edge";
    if (u < v) {
      weight += *w;
    }
  }
  EXPECT_EQ(weight, m.total_weight);
}

/// Number of matched pairs.
int num_pairs(const GeneralMatching& m) {
  return static_cast<int>(std::count_if(m.mate.begin(), m.mate.end(),
                                        [](int u) { return u != -1; })) /
         2;
}

TEST(Blossom, EmptyGraph) {
  const auto m = max_weight_matching(Graph(0));
  EXPECT_EQ(m.total_weight, 0);
  EXPECT_EQ(num_pairs(m), 0);
}

TEST(Blossom, SingleEdge) {
  Graph g(2);
  g.add_edge(0, 1, 7);
  const auto m = max_weight_matching(g);
  EXPECT_EQ(m.total_weight, 7);
  EXPECT_EQ(m.mate[0], 1);
  EXPECT_EQ(m.mate[1], 0);
}

TEST(Blossom, PathPicksBestAlternation) {
  // Path 0-1-2-3 with weights 1, 5, 1: best is the middle edge alone.
  Graph g(4);
  g.add_edge(0, 1, 1);
  g.add_edge(1, 2, 5);
  g.add_edge(2, 3, 1);
  const auto m = max_weight_matching(g);
  EXPECT_EQ(m.total_weight, 5);
  EXPECT_EQ(num_pairs(m), 1);
}

TEST(Blossom, PathPrefersTwoEdgesWhenHeavier) {
  // Weights 4, 5, 4: the two outer edges (8) beat the middle (5).
  Graph g(4);
  g.add_edge(0, 1, 4);
  g.add_edge(1, 2, 5);
  g.add_edge(2, 3, 4);
  const auto m = max_weight_matching(g);
  EXPECT_EQ(m.total_weight, 8);
  EXPECT_EQ(num_pairs(m), 2);
}

TEST(Blossom, TriangleTakesHeaviestEdge) {
  Graph g(3);
  g.add_edge(0, 1, 2);
  g.add_edge(1, 2, 3);
  g.add_edge(0, 2, 4);
  const auto m = max_weight_matching(g);
  EXPECT_EQ(m.total_weight, 4);
}

TEST(Blossom, OddCycleForcesBlossom) {
  // C5 with unit-ish weights; optimum = 2 disjoint edges.
  Graph g(5);
  g.add_edge(0, 1, 3);
  g.add_edge(1, 2, 3);
  g.add_edge(2, 3, 3);
  g.add_edge(3, 4, 3);
  g.add_edge(4, 0, 3);
  const auto m = max_weight_matching(g);
  EXPECT_EQ(m.total_weight, 6);
  EXPECT_EQ(num_pairs(m), 2);
  expect_valid(g, m);
}

TEST(Blossom, PetersenLikeBlossomExpansion) {
  // Two triangles joined by a bridge; forces shrink + expand.
  Graph g(6);
  g.add_edge(0, 1, 5);
  g.add_edge(1, 2, 5);
  g.add_edge(2, 0, 5);
  g.add_edge(2, 3, 1);
  g.add_edge(3, 4, 5);
  g.add_edge(4, 5, 5);
  g.add_edge(5, 3, 5);
  const auto m = max_weight_matching(g);
  expect_valid(g, m);
  // Best: one edge in each triangle avoiding vertices 2/3, plus bridge?
  // Pairs (0,1), (4,5) weight 10, plus bridge (2,3) weight 1 -> 11.
  EXPECT_EQ(m.total_weight, 11);
  EXPECT_EQ(num_pairs(m), 3);
}

TEST(Blossom, MaximisesWeightNotCardinality) {
  // Star-ish: center 0 with heavy edge to 1; 1 also pairs with 2 and 0
  // pairs with 3 lightly. Max cardinality = 2 (weight 2+2=4 or ...),
  // but a single heavy edge (10) wins only if alternatives are lighter.
  Graph g(4);
  g.add_edge(0, 1, 10);
  g.add_edge(1, 2, 2);
  g.add_edge(0, 3, 2);
  const auto m = max_weight_matching(g);
  // (0,1) = 10 beats (1,2)+(0,3) = 4.
  EXPECT_EQ(m.total_weight, 10);
  EXPECT_EQ(num_pairs(m), 1);
}

TEST(Blossom, CompleteGraphEvenPerfect) {
  Graph g(6);
  for (int u = 0; u < 6; ++u) {
    for (int v = u + 1; v < 6; ++v) {
      g.add_edge(u, v, 1 + ((u + v) % 3));
    }
  }
  const auto m = max_weight_matching(g);
  expect_valid(g, m);
  const auto brute = brute_force_max_weight_matching(g);
  EXPECT_EQ(m.total_weight, brute.total_weight);
}

class BlossomProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BlossomProperty, MatchesBruteForceOnRandomGraphs) {
  SplitMix64 rng(GetParam());
  const int n = static_cast<int>(3 + rng.next_below(6));  // 3..8
  Graph g(n);
  int edges = 0;
  for (int u = 0; u < n && edges < 24; ++u) {
    for (int v = u + 1; v < n && edges < 24; ++v) {
      if (rng.next_double() < 0.55) {
        g.add_edge(u, v, rng.next_in(1, 20));
        ++edges;
      }
    }
  }
  const auto fast = max_weight_matching(g);
  const auto brute = brute_force_max_weight_matching(g);
  expect_valid(g, fast);
  EXPECT_EQ(fast.total_weight, brute.total_weight)
      << "seed " << GetParam() << " n=" << n;
}

INSTANTIATE_TEST_SUITE_P(Seeds, BlossomProperty,
                         ::testing::Range<std::uint64_t>(0, 60));

TEST(Blossom, LargerRandomGraphStaysConsistent) {
  SplitMix64 rng(12345);
  const int n = 60;
  Graph g(n);
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) {
      if (rng.next_double() < 0.15) {
        g.add_edge(u, v, rng.next_in(1, 100));
      }
    }
  }
  const auto m = max_weight_matching(g);
  expect_valid(g, m);
  EXPECT_GT(m.total_weight, 0);
}

}  // namespace
}  // namespace oregami
