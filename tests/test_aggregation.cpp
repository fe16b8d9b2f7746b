#include <gtest/gtest.h>

#include "oregami/arch/routes.hpp"
#include "oregami/mapper/aggregation.hpp"

namespace oregami {
namespace {

void expect_valid_tree(const AggregationTree& tree, const Topology& topo) {
  ASSERT_EQ(tree.parent.size(), static_cast<std::size_t>(topo.num_procs()));
  EXPECT_EQ(tree.parent[static_cast<std::size_t>(tree.root)], -1);
  for (int v = 0; v < topo.num_procs(); ++v) {
    if (v == tree.root) {
      continue;
    }
    const int parent = tree.parent[static_cast<std::size_t>(v)];
    ASSERT_NE(parent, -1) << "node " << v << " unreachable";
    const auto link = topo.link_between(v, parent);
    ASSERT_TRUE(link.has_value());
    EXPECT_EQ(*link, tree.uplink[static_cast<std::size_t>(v)]);
    // Walking up terminates at the root (no cycles).
    int at = v;
    int steps = 0;
    while (at != tree.root) {
      at = tree.parent[static_cast<std::size_t>(at)];
      ASSERT_LE(++steps, topo.num_procs());
    }
  }
}

TEST(Aggregation, SpanningTreeOnHypercube) {
  const auto topo = Topology::hypercube(3);
  const auto tree = choose_aggregation_tree(topo, 0);
  expect_valid_tree(tree, topo);
  // With no existing load the tree is hop-minimal: every processor's
  // parent chain is as long as its cube distance to the root.
  for (int v = 0; v < 8; ++v) {
    int hops = 0;
    for (int at = v; at != tree.root;
         at = tree.parent[static_cast<std::size_t>(at)]) {
      ++hops;
    }
    EXPECT_EQ(hops, topo.distance(v, 0));
  }
}

TEST(Aggregation, TreeLoadEqualsSubtreeSizes) {
  const auto topo = Topology::chain(5);
  const auto tree = choose_aggregation_tree(topo, 0);
  expect_valid_tree(tree, topo);
  // Chain: link i--i+1 carries everything right of it.
  std::int64_t total = 0;
  for (const auto load : tree.tree_load) {
    total += load;
  }
  // Sum over links of subtree sizes = sum over procs of depth.
  std::int64_t depth_sum = 0;
  for (int v = 1; v < 5; ++v) {
    depth_sum += topo.distance(v, 0);
  }
  EXPECT_EQ(total, depth_sum);
  EXPECT_EQ(tree.bottleneck, 4);  // the root's link carries all 4
}

TEST(Aggregation, AvoidsLoadedLinks) {
  // Ring of 6, root 0. Pre-load the clockwise root link heavily: the
  // tree should route node 1's neighbourhood... specifically node 3
  // can reach the root both ways; loading one side pushes traffic to
  // the other.
  const auto topo = Topology::ring(6);
  std::vector<std::int64_t> load(
      static_cast<std::size_t>(topo.num_links()), 0);
  const auto hot = topo.link_between(0, 1);
  ASSERT_TRUE(hot.has_value());
  load[static_cast<std::size_t>(*hot)] = 100;
  const auto tree = choose_aggregation_tree(topo, 0, load);
  expect_valid_tree(tree, topo);
  // Node 1 has no choice (its only links are 0-1 and 1-2; going away
  // from the root is worse for everyone behind it), but node 2 and 3
  // must come round the far side.
  EXPECT_EQ(tree.parent[3], 4);
  EXPECT_EQ(tree.parent[2], 3);
  // The hot link carries at most node 1's own message.
  EXPECT_LE(tree.tree_load[static_cast<std::size_t>(*hot)], 1);
}

TEST(Aggregation, BottleneckAccountsExistingLoad) {
  const auto topo = Topology::star(5);
  std::vector<std::int64_t> load(
      static_cast<std::size_t>(topo.num_links()), 2);
  const auto tree = choose_aggregation_tree(topo, 0, load);
  // Star root: each leaf link carries 1 tree message on top of 2.
  EXPECT_EQ(tree.bottleneck, 3);
}

TEST(Aggregation, CommittedLinkLoadCountsRoutes) {
  const auto topo = Topology::ring(4);
  std::vector<PhaseRouting> routing(1);
  routing[0].route_of_edge.push_back(greedy_shortest_route(topo, 0, 2));
  routing[0].route_of_edge.push_back(greedy_shortest_route(topo, 1, 2));
  const auto load = committed_link_load(routing, topo.num_links());
  std::int64_t total = 0;
  for (const auto l : load) {
    total += l;
  }
  EXPECT_EQ(total, 3);  // 2 hops + 1 hop
}

TEST(Aggregation, RootedAnywhere) {
  const auto topo = Topology::mesh(3, 3);
  for (int root = 0; root < 9; ++root) {
    const auto tree = choose_aggregation_tree(topo, root);
    expect_valid_tree(tree, topo);
  }
}

}  // namespace
}  // namespace oregami
