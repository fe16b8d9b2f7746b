#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "oregami/mapper/driver.hpp"
#include "oregami/mapper/mm_route.hpp"
#include "oregami/mapper/mwm_contract.hpp"
#include "oregami/mapper/refine.hpp"
#include "oregami/support/rng.hpp"

namespace oregami {
namespace {

Graph random_graph(int n, double density, std::uint64_t seed) {
  SplitMix64 rng(seed);
  Graph g(n);
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) {
      if (rng.next_double() < density) {
        g.add_edge(u, v, rng.next_in(1, 20));
      }
    }
  }
  return g;
}

/// Weight of the edges of `g` whose ends `part` puts apart (`part` maps
/// each vertex to a cluster or to a processor).
std::int64_t external(const Graph& g, const std::vector<int>& part) {
  std::int64_t total = 0;
  for (const auto& e : g.edges()) {
    if (part[static_cast<std::size_t>(e.u)] !=
        part[static_cast<std::size_t>(e.v)]) {
      total += e.weight;
    }
  }
  return total;
}

TEST(Refine, FixesDeliberatelyBadAssignment) {
  // Two weight-heavy cliques split the wrong way: refinement must
  // recover the natural bipartition.
  Graph g(8);
  for (int u = 0; u < 4; ++u) {
    for (int v = u + 1; v < 4; ++v) {
      g.add_edge(u, v, 10);
      g.add_edge(u + 4, v + 4, 10);
    }
  }
  g.add_edge(0, 4, 1);  // weak bridge
  Contraction bad;
  bad.num_clusters = 2;
  bad.cluster_of_task = {0, 1, 0, 1, 0, 1, 0, 1};  // interleaved: awful
  const auto before = external(g, bad.cluster_of_task);
  const auto result = refine_contraction(g, bad, 4);
  EXPECT_EQ(result.external_before, before);
  EXPECT_EQ(result.external_after, 1);  // only the bridge remains
  EXPECT_GT(result.moves + result.swaps, 0);
}

TEST(Refine, RespectsLoadBoundAndClusterCount) {
  const Graph g = random_graph(20, 0.3, 3);
  const auto base = mwm_contract(g, 4);
  const auto result =
      refine_contraction(g, base.contraction, base.load_bound);
  EXPECT_EQ(result.contraction.num_clusters,
            base.contraction.num_clusters);
  EXPECT_LE(result.contraction.max_cluster_size(), base.load_bound);
  EXPECT_NO_THROW(result.contraction.validate(20));
}

class RefineProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RefineProperty, NeverWorsensAndIsIdempotentAtFixpoint) {
  SplitMix64 rng(GetParam());
  const int n = static_cast<int>(10 + rng.next_below(30));
  const int procs = static_cast<int>(2 + rng.next_below(5));
  const Graph g = random_graph(n, 0.35, GetParam() * 31 + 5);
  const auto base = mwm_contract(g, procs);
  const auto once =
      refine_contraction(g, base.contraction, base.load_bound);
  EXPECT_LE(once.external_after, once.external_before);
  EXPECT_EQ(once.external_after,
            external(g, once.contraction.cluster_of_task));
  // Running again from the fixpoint changes nothing.
  const auto twice =
      refine_contraction(g, once.contraction, base.load_bound);
  EXPECT_EQ(twice.external_after, once.external_after);
  EXPECT_EQ(twice.moves + twice.swaps, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RefineProperty,
                         ::testing::Range<std::uint64_t>(0, 20));

TEST(Refine, DriverOptionAppliesIt) {
  TaskGraph tg;
  SplitMix64 rng(9);
  for (int i = 0; i < 20; ++i) {
    tg.add_task("t" + std::to_string(i));
  }
  const int p = tg.add_comm_phase("p");
  for (int u = 0; u < 20; ++u) {
    for (int v = u + 1; v < 20; ++v) {
      if (rng.next_double() < 0.3) {
        tg.add_comm_edge(p, u, v, rng.next_in(1, 9));
      }
    }
  }
  MapperOptions options;
  options.refine = true;
  const auto report =
      map_computation(tg, Topology::mesh(2, 3), options);
  EXPECT_EQ(report.strategy, MapStrategy::General);
  EXPECT_NE(report.details.find("KL refinement"), std::string::npos);

  // Refined mapping never has higher IPC than the unrefined one.
  MapperOptions plain;
  const auto base = map_computation(tg, Topology::mesh(2, 3), plain);
  const Graph agg = tg.aggregate_graph();
  EXPECT_LE(external(agg, report.mapping.proc_of_task()),
            external(agg, base.mapping.proc_of_task()));
}

// ------------------------------------------------- placement refinement

TEST(RefinePlacement, PullsChattyNeighboursTogether) {
  // Two tasks that talk a lot, deliberately placed at opposite ends of
  // a chain: refinement must close the gap (or at least the completion
  // model's view of it).
  TaskGraph tg;
  for (int i = 0; i < 4; ++i) {
    tg.add_task("t" + std::to_string(i));
  }
  const int p = tg.add_comm_phase("p");
  tg.add_comm_edge(p, 0, 1, 100);
  tg.add_comm_edge(p, 2, 3, 1);
  const Topology topo = Topology::chain(8);
  std::vector<int> procs = {0, 7, 3, 4};  // heavy pair maximally apart
  std::vector<PhaseRouting> routing = mm_route(tg, procs, topo);

  const auto before = completion_time(tg, procs, routing, topo);
  const auto refined = refine_placement(tg, topo, procs, routing);
  EXPECT_EQ(refined.completion_before, before);
  EXPECT_LT(refined.completion_after, before);
  EXPECT_GT(refined.moves, 0);
  // The heavy pair ends up adjacent or co-located.
  const std::vector<int>& after = refined.mapping.proc_of_task();
  EXPECT_LE(topo.distance(after[0], after[1]), 1);
}

TEST(RefinePlacement, RespectsLoadBound) {
  TaskGraph tg;
  for (int i = 0; i < 6; ++i) {
    tg.add_task("t" + std::to_string(i));
  }
  const int p = tg.add_comm_phase("p");
  for (int i = 1; i < 6; ++i) {
    tg.add_comm_edge(p, 0, i, 50);  // star pulls everything onto one proc
  }
  const Topology topo = Topology::ring(6);
  std::vector<int> procs = {0, 1, 2, 3, 4, 5};
  std::vector<PhaseRouting> routing = mm_route(tg, procs, topo);

  const auto refined =
      refine_placement(tg, topo, procs, routing, /*load_bound_B=*/1);
  // Bound 1 forbids every move: each processor already hosts one task.
  EXPECT_EQ(refined.moves, 0);
  EXPECT_EQ(refined.mapping.proc_of_task(), procs);

  const auto loose =
      refine_placement(tg, topo, procs, routing, /*load_bound_B=*/2);
  std::vector<int> count(6, 0);
  for (const int proc : loose.mapping.proc_of_task()) {
    ++count[static_cast<std::size_t>(proc)];
  }
  EXPECT_LE(*std::max_element(count.begin(), count.end()), 2);
  EXPECT_LE(loose.completion_after, loose.completion_before);
}

TEST(RefinePlacement, DriverFlagNeverWorsensAndStaysValid) {
  TaskGraph tg;
  SplitMix64 rng(21);
  for (int i = 0; i < 18; ++i) {
    tg.add_task("t" + std::to_string(i));
  }
  const int p = tg.add_comm_phase("p");
  for (int u = 0; u < 18; ++u) {
    for (int v = u + 1; v < 18; ++v) {
      if (rng.next_double() < 0.25) {
        tg.add_comm_edge(p, u, v, rng.next_in(1, 9));
      }
    }
  }
  const Topology topo = Topology::mesh(3, 3);
  MapperOptions plain;
  const auto base = map_computation(tg, topo, plain);
  MapperOptions polished = plain;
  polished.refine_placement = true;
  const auto report = map_computation(tg, topo, polished);

  ASSERT_NO_THROW(validate_mapping(report.mapping, tg, topo));
  EXPECT_LE(completion_time(tg, report.mapping.proc_of_task(),
                            report.mapping.routing, topo),
            completion_time(tg, base.mapping.proc_of_task(),
                            base.mapping.routing, topo));
  // Deterministic: a second run reproduces the same mapping.
  const auto again = map_computation(tg, topo, polished);
  EXPECT_EQ(again.mapping.proc_of_task(), report.mapping.proc_of_task());
}

}  // namespace
}  // namespace oregami
