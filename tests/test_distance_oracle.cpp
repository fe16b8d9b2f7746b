// Exhaustive equivalence of the closed-form distance oracles, read both
// through distance() and through the with_oracle visitor, against BFS
// ground truth (a Custom topology built from the same link graph), for
// every TopoFamily across a sweep of shapes reaching P >= 256 per
// family, plus diameter() cross-checks, the weighted-row primitive
// against pairwise distance(), and concurrency tests on the unwarmed
// Custom lazy table and the lazy greedy-route table.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <latch>
#include <thread>
#include <utility>
#include <vector>

#include "oregami/arch/routes.hpp"
#include "oregami/arch/topology.hpp"
#include "oregami/graph/shortest_paths.hpp"

namespace oregami {
namespace {

/// Checks every pair (u, v) of `topo` against BFS on its own link
/// graph, through both distance() and the with_oracle visitor, plus
/// diameter().
void expect_oracle_matches_bfs(const Topology& topo) {
  SCOPED_TRACE(topo.name());
  const int p = topo.num_procs();
  int true_diameter = 0;
  for (int u = 0; u < p; ++u) {
    const std::vector<int> truth = bfs_distances(topo.graph(), u);
    topo.with_oracle([&](const auto& dist) {
      for (int v = 0; v < p; ++v) {
        ASSERT_EQ(topo.distance(u, v), truth[static_cast<std::size_t>(v)])
            << "u=" << u << " v=" << v;
        ASSERT_EQ(dist(u, v), truth[static_cast<std::size_t>(v)])
            << "u=" << u << " v=" << v;
        true_diameter =
            std::max(true_diameter, truth[static_cast<std::size_t>(v)]);
      }
    });
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
    ASSERT_EQ(topo.distance(u, u), 0);
  }
  EXPECT_EQ(topo.diameter(), true_diameter);
}

TEST(DistanceOracle, Ring) {
  for (const int p : {3, 4, 5, 6, 7, 8, 13, 32, 256, 257}) {
    expect_oracle_matches_bfs(Topology::ring(p));
  }
}

TEST(DistanceOracle, Chain) {
  for (const int p : {1, 2, 3, 4, 7, 8, 19, 64, 256}) {
    expect_oracle_matches_bfs(Topology::chain(p));
  }
}

TEST(DistanceOracle, Mesh) {
  for (const auto [r, c] : std::vector<std::pair<int, int>>{
           {1, 1}, {1, 7}, {2, 2}, {3, 5}, {4, 4}, {5, 3}, {8, 8},
           {16, 16}, {2, 128}}) {
    expect_oracle_matches_bfs(Topology::mesh(r, c));
  }
}

TEST(DistanceOracle, Torus) {
  for (const auto [r, c] : std::vector<std::pair<int, int>>{
           {3, 3}, {3, 4}, {4, 4}, {3, 7}, {5, 5}, {4, 6}, {8, 8},
           {16, 16}, {3, 86}}) {
    expect_oracle_matches_bfs(Topology::torus(r, c));
  }
}

TEST(DistanceOracle, Hypercube) {
  for (int dim = 0; dim <= 8; ++dim) {
    expect_oracle_matches_bfs(Topology::hypercube(dim));
  }
}

TEST(DistanceOracle, CompleteBinaryTree) {
  for (int levels = 1; levels <= 8; ++levels) {  // levels 8 -> 255 nodes
    expect_oracle_matches_bfs(Topology::complete_binary_tree(levels));
  }
}

TEST(DistanceOracle, Star) {
  for (const int p : {2, 3, 4, 5, 17, 64, 256}) {
    expect_oracle_matches_bfs(Topology::star(p));
  }
}

TEST(DistanceOracle, Complete) {
  for (const int p : {2, 3, 4, 9, 33, 256}) {
    expect_oracle_matches_bfs(Topology::complete(p));
  }
}

TEST(DistanceOracle, Butterfly) {
  for (int k = 1; k <= 6; ++k) {  // k = 6 -> 448 switches
    expect_oracle_matches_bfs(Topology::butterfly(k));
  }
}

TEST(DistanceOracle, Mesh3D) {
  for (const auto [x, y, z] : std::vector<std::array<int, 3>>{
           {1, 1, 1}, {2, 2, 2}, {1, 4, 2}, {3, 3, 3}, {4, 4, 4},
           {5, 2, 7}, {8, 8, 4}}) {
    expect_oracle_matches_bfs(Topology::mesh3d(x, y, z));
  }
}

TEST(DistanceOracle, CustomMatchesItsOwnBfs) {
  // A Custom topology is the ground truth path -- still verify the flat
  // table agrees with per-row BFS and diameter.
  Graph g(7);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(3, 0);
  g.add_edge(2, 4);
  g.add_edge(4, 5);
  g.add_edge(5, 6);
  expect_oracle_matches_bfs(Topology::custom("bowtie", std::move(g)));
}

TEST(DistanceOracle, CustomDisconnectedReportsMinusOne) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  const Topology topo = Topology::custom("split", std::move(g));
  EXPECT_EQ(topo.distance(0, 1), 1);
  EXPECT_EQ(topo.distance(0, 2), -1);
  EXPECT_EQ(topo.distance(3, 1), -1);
  topo.with_oracle([](const auto& dist) {
    EXPECT_EQ(dist(0, 1), 1);
    EXPECT_EQ(dist(0, 2), -1);
    EXPECT_EQ(dist(3, 1), -1);
  });
}

TEST(DistanceOracle, CopiesShareTheCustomTable) {
  Graph g(5);
  for (int i = 0; i + 1 < 5; ++i) {
    g.add_edge(i, i + 1);
  }
  const Topology original = Topology::custom("path5", std::move(g));
  const Topology copy = original;  // NOLINT(performance-unnecessary-copy-initialization)
  EXPECT_EQ(original.distance(0, 4), 4);
  EXPECT_EQ(copy.distance(0, 4), 4);
  EXPECT_EQ(copy.diameter(), 4);
}

// The weighted-row primitive adds exactly weight * distance(u, v) to
// every entry, for every shape the family tests above check, a
// butterfly wide enough to span two column chunks, the Custom shapes
// (a disconnected one's -1 entries included), and weights of either
// sign.
TEST(DistanceOracle, WeightedRowMatchesPairwise) {
  std::vector<Topology> shapes;
  for (const int p : {3, 4, 5, 6, 7, 8, 13, 32, 256, 257}) {
    shapes.push_back(Topology::ring(p));
  }
  for (const int p : {1, 2, 3, 4, 7, 8, 19, 64, 256}) {
    shapes.push_back(Topology::chain(p));
  }
  for (const auto [r, c] : std::vector<std::pair<int, int>>{
           {1, 1}, {1, 7}, {2, 2}, {3, 5}, {4, 4}, {5, 3}, {8, 8},
           {16, 16}, {2, 128}}) {
    shapes.push_back(Topology::mesh(r, c));
  }
  for (const auto [r, c] : std::vector<std::pair<int, int>>{
           {3, 3}, {3, 4}, {4, 4}, {3, 7}, {5, 5}, {4, 6}, {8, 8},
           {16, 16}, {3, 86}}) {
    shapes.push_back(Topology::torus(r, c));
  }
  for (int n = 0; n <= 8; ++n) {
    shapes.push_back(Topology::hypercube(n));
    if (n >= 1) {
      shapes.push_back(Topology::complete_binary_tree(n));
    }
    if (n >= 1 && n <= 7) {
      shapes.push_back(Topology::butterfly(n));
    }
  }
  for (const int p : {2, 3, 4, 5, 17, 64, 256}) {
    shapes.push_back(Topology::star(p));
  }
  for (const int p : {2, 3, 4, 9, 33, 256}) {
    shapes.push_back(Topology::complete(p));
  }
  for (const auto [x, y, z] : std::vector<std::array<int, 3>>{
           {1, 1, 1}, {2, 2, 2}, {1, 4, 2}, {3, 3, 3}, {4, 4, 4},
           {5, 2, 7}, {8, 8, 4}}) {
    shapes.push_back(Topology::mesh3d(x, y, z));
  }
  Graph bowtie(7);
  for (const auto [a, b] : std::vector<std::pair<int, int>>{
           {0, 1}, {1, 2}, {2, 3}, {3, 0}, {2, 4}, {4, 5}, {5, 6}}) {
    bowtie.add_edge(a, b);
  }
  shapes.push_back(Topology::custom("bowtie", std::move(bowtie)));
  Graph split(4);
  split.add_edge(0, 1);
  split.add_edge(2, 3);
  shapes.push_back(Topology::custom("split", std::move(split)));

  for (const Topology& topo : shapes) {
    SCOPED_TRACE(topo.name());
    const int p = topo.num_procs();
    std::vector<std::int64_t> acc(static_cast<std::size_t>(p));
    for (int u = 0; u < p; ++u) {
      const std::int64_t weight = u % 2 == 0 ? 3 + u : -2 - u;
      for (int v = 0; v < p; ++v) {
        acc[static_cast<std::size_t>(v)] = 1000 * v + 7;  // adds, not sets
      }
      topo.accumulate_distance_row(u, weight, acc);
      for (int v = 0; v < p; ++v) {
        ASSERT_EQ(acc[static_cast<std::size_t>(v)],
                  1000 * v + 7 + weight * topo.distance(u, v))
            << "u=" << u << " v=" << v;
      }
    }
  }
}

// Regular families must answer distance queries without ever touching
// lazy state; Custom publishes its table under std::call_once. Hammer
// an unwarmed topology from many threads (run under TSan in CI).
TEST(DistanceOracleThreads, UnwarmedConcurrentQueries) {
  Graph g(64);
  for (int i = 0; i < 64; ++i) {
    g.add_edge(i, (i + 1) % 64);
    g.add_edge(i, (i + 7) % 64);
  }
  // Two separate tables, each filled first by whichever thread gets
  // there: one through the oracle visitor, one through weighted rows.
  const Topology custom = Topology::custom("chordal64", g);
  const Topology custom_rows = Topology::custom("chordal64", std::move(g));
  const Topology mesh = Topology::mesh(8, 8);

  constexpr int kThreads = 8;
  std::vector<std::thread> workers;
  std::vector<std::int64_t> checksums(kThreads, 0);
  workers.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      std::int64_t sum = 0;
      std::vector<std::int64_t> acc(64, 0);
      for (int u = 0; u < 64; ++u) {
        custom_rows.accumulate_distance_row(u, u + 1, acc);
        custom.with_oracle([&](const auto& dist) {
          for (int v = 0; v < 64; ++v) {
            sum += dist(u, v) + mesh.distance(u, v);
          }
        });
      }
      for (const std::int64_t a : acc) {
        sum += a;
      }
      sum += custom.diameter() + mesh.diameter();
      checksums[static_cast<std::size_t>(w)] = sum;
    });
  }
  for (auto& worker : workers) {
    worker.join();
  }
  for (int w = 1; w < kThreads; ++w) {
    EXPECT_EQ(checksums[static_cast<std::size_t>(w)], checksums[0]);
  }
}

// The greedy-route table is filled by whichever thread first asks for
// a route; every thread must see the whole table (run under TSan in
// CI). Each thread's first route comes from the same unwarmed
// topologies, released together.
TEST(DistanceOracleThreads, FirstGreedyRouteFromUnwarmedTopology) {
  Graph g(16);
  for (int i = 0; i < 16; ++i) {
    g.add_edge(i, (i + 1) % 16);
    g.add_edge(i, (i + 5) % 16);
  }
  const Topology custom = Topology::custom("chordal16", std::move(g));
  const Topology torus = Topology::torus(4, 4);
  ASSERT_LE(custom.num_procs(), Topology::kRouteTableMaxProcs);
  ASSERT_LE(torus.num_procs(), Topology::kRouteTableMaxProcs);
  constexpr int kThreads = 6;
  std::latch start(kThreads);
  std::vector<std::thread> workers;
  std::vector<std::vector<int>> walked(kThreads);
  workers.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      std::vector<int>& out = walked[static_cast<std::size_t>(w)];
      start.arrive_and_wait();
      for (const Topology* t : {&custom, &torus}) {
        for (int u = 0; u < t->num_procs(); ++u) {
          for (int v = 0; v < t->num_procs(); ++v) {
            walk_greedy_route(*t, u, v,
                              [&out](int link) { out.push_back(link); });
          }
        }
      }
    });
  }
  for (auto& worker : workers) {
    worker.join();
  }
  std::vector<int> want;
  for (const Topology* t : {&custom, &torus}) {
    for (int u = 0; u < t->num_procs(); ++u) {
      for (int v = 0; v < t->num_procs(); ++v) {
        walk_oracle_route(*t, u, v,
                          [&want](int link) { want.push_back(link); });
      }
    }
  }
  for (int w = 0; w < kThreads; ++w) {
    EXPECT_EQ(walked[static_cast<std::size_t>(w)], want) << "thread " << w;
  }
}

}  // namespace
}  // namespace oregami
