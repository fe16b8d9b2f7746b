#include <gtest/gtest.h>

#include <set>

#include "oregami/core/recognize.hpp"
#include "oregami/graph/gray_code.hpp"
#include "oregami/support/rng.hpp"

namespace oregami {
namespace {

Graph ring_graph(int n) {
  Graph g(n);
  for (int i = 0; i < n; ++i) {
    g.add_edge(i, (i + 1) % n);
  }
  return g;
}

Graph chain_graph(int n) {
  Graph g(n);
  for (int i = 0; i + 1 < n; ++i) {
    g.add_edge(i, i + 1);
  }
  return g;
}

Graph mesh_graph(int r, int c) {
  Graph g(r * c);
  for (int i = 0; i < r; ++i) {
    for (int j = 0; j < c; ++j) {
      if (j + 1 < c) {
        g.add_edge(i * c + j, i * c + j + 1);
      }
      if (i + 1 < r) {
        g.add_edge(i * c + j, (i + 1) * c + j);
      }
    }
  }
  return g;
}

Graph hypercube_graph(int d) {
  Graph g(1 << d);
  for (int v = 0; v < (1 << d); ++v) {
    for (int b = 0; b < d; ++b) {
      if (v < (v ^ (1 << b))) {
        g.add_edge(v, v ^ (1 << b));
      }
    }
  }
  return g;
}

Graph cbt_graph(int h) {
  const int n = (1 << h) - 1;
  Graph g(n);
  for (int v = 1; v < n; ++v) {
    g.add_edge(v, (v - 1) / 2);
  }
  return g;
}

Graph binomial_graph(int k) {
  Graph g(1 << k);
  for (int m = 1; m < (1 << k); ++m) {
    int bit = 0;
    int x = m;
    while (x >> 1) {
      x >>= 1;
      ++bit;
    }
    g.add_edge(m, m & ~(1 << bit));
  }
  return g;
}

/// Applies a deterministic vertex relabeling so detectors cannot rely
/// on input order.
Graph shuffled(const Graph& g, std::uint64_t seed) {
  std::vector<int> perm(static_cast<std::size_t>(g.num_vertices()));
  for (std::size_t i = 0; i < perm.size(); ++i) {
    perm[i] = static_cast<int>(i);
  }
  SplitMix64 rng(seed);
  for (std::size_t i = perm.size(); i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.next_below(i)]);
  }
  Graph out(g.num_vertices());
  for (const auto& e : g.edges()) {
    out.add_edge(perm[static_cast<std::size_t>(e.u)],
                 perm[static_cast<std::size_t>(e.v)], e.weight);
  }
  return out;
}

void expect_bijective_labels(const RecognizedFamily& fam, int n) {
  ASSERT_EQ(fam.canonical_label.size(), static_cast<std::size_t>(n));
  std::set<int> seen(fam.canonical_label.begin(),
                     fam.canonical_label.end());
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(n));
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), n - 1);
}

TEST(DetectRing, PositiveWithWalkLabels) {
  const auto g = shuffled(ring_graph(9), 1);
  const auto fam = detect_ring(g);
  ASSERT_TRUE(fam.has_value());
  EXPECT_EQ(fam->params, std::vector<int>{9});
  expect_bijective_labels(*fam, 9);
  // Consecutive positions must be adjacent (including the wrap).
  std::vector<int> vertex_at(9);
  for (int v = 0; v < 9; ++v) {
    vertex_at[static_cast<std::size_t>(
        fam->canonical_label[static_cast<std::size_t>(v)])] = v;
  }
  for (int p = 0; p < 9; ++p) {
    EXPECT_TRUE(
        g.edge_weight(vertex_at[static_cast<std::size_t>(p)],
                      vertex_at[static_cast<std::size_t>((p + 1) % 9)])
            .has_value());
  }
}

TEST(DetectRing, RejectsChainAndTwoTriangles) {
  EXPECT_FALSE(detect_ring(chain_graph(5)).has_value());
  // Two disjoint triangles: 2-regular but disconnected.
  Graph g(6);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);
  g.add_edge(3, 4);
  g.add_edge(4, 5);
  g.add_edge(5, 3);
  EXPECT_FALSE(detect_ring(g).has_value());
}

TEST(DetectChain, PositiveAndSingleton) {
  const auto fam = detect_chain(shuffled(chain_graph(7), 2));
  ASSERT_TRUE(fam.has_value());
  expect_bijective_labels(*fam, 7);
  const auto single = detect_chain(Graph(1));
  ASSERT_TRUE(single.has_value());
  EXPECT_EQ(single->params, std::vector<int>{1});
}

TEST(DetectChain, RejectsRingAndStar) {
  EXPECT_FALSE(detect_chain(ring_graph(5)).has_value());
  Graph star(4);
  star.add_edge(0, 1);
  star.add_edge(0, 2);
  star.add_edge(0, 3);
  EXPECT_FALSE(detect_chain(star).has_value());
}

class HypercubeDetect : public ::testing::TestWithParam<int> {};

TEST_P(HypercubeDetect, RecoversAddresses) {
  const int d = GetParam();
  const auto g = shuffled(hypercube_graph(d), 100 + static_cast<std::uint64_t>(d));
  const auto fam = detect_hypercube(g);
  ASSERT_TRUE(fam.has_value());
  EXPECT_EQ(fam->params, std::vector<int>{d});
  expect_bijective_labels(*fam, 1 << d);
  for (const auto& e : g.edges()) {
    const auto diff = static_cast<std::uint32_t>(
        fam->canonical_label[static_cast<std::size_t>(e.u)] ^
        fam->canonical_label[static_cast<std::size_t>(e.v)]);
    EXPECT_EQ(popcount32(diff), 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, HypercubeDetect, ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(DetectHypercube, RejectsNearMisses) {
  // Right size and regularity but wrong structure: K_{3,3} plus a
  // perfect matching is 4-regular on 6 nodes (not power of two anyway);
  // use the 3-cube with one edge rewired instead.
  Graph g(8);
  for (int v = 0; v < 8; ++v) {
    for (int b = 0; b < 3; ++b) {
      if (v < (v ^ (1 << b))) {
        g.add_edge(v, v ^ (1 << b));
      }
    }
  }
  EXPECT_TRUE(detect_hypercube(g).has_value());
  // A ring of 8 is 2-regular: wrong degree.
  EXPECT_FALSE(detect_hypercube(ring_graph(8)).has_value());
  // K4 has 4 vertices and degree 3 != 2.
  Graph k4(4);
  for (int u = 0; u < 4; ++u) {
    for (int v = u + 1; v < 4; ++v) {
      k4.add_edge(u, v);
    }
  }
  EXPECT_FALSE(detect_hypercube(k4).has_value());
}

class MeshDetect
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(MeshDetect, RecoversCoordinates) {
  const auto [r, c] = GetParam();
  const auto g =
      shuffled(mesh_graph(r, c),
               static_cast<std::uint64_t>(r * 31 + c));
  const auto fam = detect_mesh(g);
  ASSERT_TRUE(fam.has_value());
  // Transposed detection is acceptable; normalise.
  const int dr = fam->params[0];
  const int dc = fam->params[1];
  EXPECT_TRUE((dr == r && dc == c) || (dr == c && dc == r));
  expect_bijective_labels(*fam, r * c);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MeshDetect,
    ::testing::Values(std::pair{2, 2}, std::pair{2, 3}, std::pair{2, 7},
                      std::pair{3, 3}, std::pair{4, 5}, std::pair{6, 6},
                      std::pair{3, 8}));

TEST(DetectMesh, RejectsTorusAndTree) {
  // 4x4 torus: 4-regular, no corners.
  Graph torus(16);
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      torus.add_edge(i * 4 + j, i * 4 + (j + 1) % 4);
      torus.add_edge(i * 4 + j, ((i + 1) % 4) * 4 + j);
    }
  }
  EXPECT_FALSE(detect_mesh(torus).has_value());
  EXPECT_FALSE(detect_mesh(cbt_graph(3)).has_value());
}

class CbtDetect : public ::testing::TestWithParam<int> {};

TEST_P(CbtDetect, RecoversHeapIndices) {
  const int h = GetParam();
  const int n = (1 << h) - 1;
  const auto g = shuffled(cbt_graph(h), static_cast<std::uint64_t>(h));
  const auto fam = detect_complete_binary_tree(g);
  ASSERT_TRUE(fam.has_value());
  EXPECT_EQ(fam->params, std::vector<int>{h});
  expect_bijective_labels(*fam, n);
  // Every edge joins heap parent and child.
  for (const auto& e : g.edges()) {
    const int a = fam->canonical_label[static_cast<std::size_t>(e.u)];
    const int b = fam->canonical_label[static_cast<std::size_t>(e.v)];
    const int child = std::max(a, b);
    const int parent = std::min(a, b);
    EXPECT_EQ((child - 1) / 2, parent);
  }
}

INSTANTIATE_TEST_SUITE_P(Heights, CbtDetect, ::testing::Values(2, 3, 4, 6));

TEST(DetectCbt, RejectsUnbalancedTree) {
  // 7-node path is a tree with 2^3-1 nodes but not a CBT.
  EXPECT_FALSE(detect_complete_binary_tree(chain_graph(7)).has_value());
}

class BinomialDetect : public ::testing::TestWithParam<int> {};

TEST_P(BinomialDetect, RecoversBitmaskAddresses) {
  const int k = GetParam();
  const auto g =
      shuffled(binomial_graph(k), static_cast<std::uint64_t>(k + 77));
  const auto fam = detect_binomial_tree(g);
  ASSERT_TRUE(fam.has_value());
  EXPECT_EQ(fam->params, std::vector<int>{k});
  expect_bijective_labels(*fam, 1 << k);
  // Every edge must clear the child's lowest set bit (the canonical
  // binomial addressing: subtree B_j roots carry bit j).
  for (const auto& e : g.edges()) {
    const int a = fam->canonical_label[static_cast<std::size_t>(e.u)];
    const int b = fam->canonical_label[static_cast<std::size_t>(e.v)];
    const int child = std::max(a, b);
    const int parent = std::min(a, b);
    EXPECT_EQ(child & (child - 1), parent);
  }
}

INSTANTIATE_TEST_SUITE_P(Orders, BinomialDetect,
                         ::testing::Values(3, 4, 5, 6));

TEST(DetectBinomial, RejectsCbtAndStarOfWrongSize) {
  EXPECT_FALSE(detect_binomial_tree(cbt_graph(3)).has_value());
  // Star on 8 vertices: tree with 2^3 nodes, root degree 7 != 3.
  Graph star(8);
  for (int v = 1; v < 8; ++v) {
    star.add_edge(0, v);
  }
  EXPECT_FALSE(detect_binomial_tree(star).has_value());
}

TEST(DetectStarAndComplete, Basics) {
  Graph star(5);
  for (int v = 1; v < 5; ++v) {
    star.add_edge(0, v);
  }
  const auto s = detect_star(star);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->canonical_label[0], 0);

  Graph k5(5);
  for (int u = 0; u < 5; ++u) {
    for (int v = u + 1; v < 5; ++v) {
      k5.add_edge(u, v);
    }
  }
  EXPECT_TRUE(detect_complete(k5).has_value());
  EXPECT_FALSE(detect_complete(star).has_value());
  EXPECT_FALSE(detect_star(k5).has_value());
}

TEST(RecognizeFamily, DispatchPriorities) {
  // C4 == Q2: the hypercube detector wins by order.
  EXPECT_EQ(recognize_family(ring_graph(4)).family,
            GraphFamily::Hypercube);
  EXPECT_EQ(recognize_family(ring_graph(5)).family, GraphFamily::Ring);
  EXPECT_EQ(recognize_family(mesh_graph(3, 4)).family, GraphFamily::Mesh);
  EXPECT_EQ(recognize_family(cbt_graph(4)).family,
            GraphFamily::CompleteBinaryTree);
  EXPECT_EQ(recognize_family(binomial_graph(4)).family,
            GraphFamily::BinomialTree);
  EXPECT_EQ(recognize_family(chain_graph(6)).family, GraphFamily::Chain);
}

TEST(RecognizeFamily, UnknownForIrregularGraph) {
  Graph g(5);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(3, 4);
  g.add_edge(1, 4);
  EXPECT_EQ(recognize_family(g).family, GraphFamily::Unknown);
}

TEST(FamilyNames, ToString) {
  EXPECT_EQ(to_string(GraphFamily::Ring), "ring");
  EXPECT_EQ(to_string(GraphFamily::BinomialTree), "binomial-tree");
  EXPECT_EQ(to_string(GraphFamily::Unknown), "unknown");
}

}  // namespace
}  // namespace oregami
