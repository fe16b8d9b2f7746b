// FaultSpec / FaultedTopology unit tests: parsing grammar, normalise /
// validate behaviour, deterministic random specs, the structural
// invariants of the healthy machine (stable base ids, base order kept,
// exact link-id bijection, largest-component healthy set, route
// translation) and the one liveness check the scorer and the simulator
// share.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>
#include <string>
#include <utility>

#include "mapping_text.hpp"
#include "oregami/arch/fault_model.hpp"
#include "oregami/arch/routes.hpp"
#include "oregami/arch/topology_spec.hpp"
#include "oregami/metrics/completion_model.hpp"
#include "oregami/sim/network_sim.hpp"
#include "oregami/support/error.hpp"
#include "oregami/support/rng.hpp"

namespace oregami {
namespace {

TEST(FaultSpec, ParsesEveryTokenKind) {
  const Topology topo = Topology::mesh(4, 4);
  const FaultSpec spec = FaultSpec::parse("p5,l0,s3:4", topo);
  EXPECT_EQ(spec.dead_procs, std::vector<int>{5});
  EXPECT_EQ(spec.dead_links, std::vector<int>{0});
  ASSERT_EQ(spec.slow_links.size(), 1u);
  EXPECT_EQ(spec.slow_links[0].link, 3);
  EXPECT_EQ(spec.slow_links[0].factor, 4);
}

TEST(FaultSpec, ParsesEndpointPairSyntax) {
  const Topology topo = Topology::ring(6);
  // In a ring, processors 2 and 3 share a link.
  const FaultSpec spec = FaultSpec::parse("l2-3,s4-5:7", topo);
  ASSERT_EQ(spec.dead_links.size(), 1u);
  ASSERT_EQ(spec.slow_links.size(), 1u);
  const auto [u1, v1] = topo.link_endpoints(spec.dead_links[0]);
  EXPECT_EQ(std::make_pair(std::min(u1, v1), std::max(u1, v1)),
            std::make_pair(2, 3));
  const auto [u2, v2] = topo.link_endpoints(spec.slow_links[0].link);
  EXPECT_EQ(std::make_pair(std::min(u2, v2), std::max(u2, v2)),
            std::make_pair(4, 5));
}

TEST(FaultSpec, RejectsMalformedTokens) {
  const Topology topo = Topology::ring(6);
  for (const char* bad :
       {"", "q1", "p", "pX", "p99", "l99", "l0-2", "s0", "s0:0", "s0:x",
        "p1,,p2", "rand:1x1", "rand:axbxc"}) {
    EXPECT_THROW((void)FaultSpec::parse(bad, topo), MappingError)
        << "accepted '" << bad << "'";
  }
}

TEST(FaultSpec, NormaliseSortsAndDeduplicates) {
  FaultSpec spec;
  spec.dead_procs = {3, 1, 3, 2};
  spec.dead_links = {5, 5, 0};
  spec.slow_links = {{2, 3}, {2, 2}};  // duplicate factors multiply
  spec.normalise();
  EXPECT_EQ(spec.dead_procs, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(spec.dead_links, (std::vector<int>{0, 5}));
  ASSERT_EQ(spec.slow_links.size(), 1u);
  EXPECT_EQ(spec.slow_links[0].factor, 6);
}

TEST(FaultSpec, ToStringRoundTrips) {
  const Topology topo = Topology::mesh(4, 4);
  FaultSpec spec = FaultSpec::parse("s3:4,p5,l0,p2", topo);
  const std::string text = spec.to_string();
  const FaultSpec again = FaultSpec::parse(text, topo);
  EXPECT_EQ(again.to_string(), text);
  EXPECT_EQ(again.dead_procs, spec.dead_procs);
  EXPECT_EQ(again.dead_links, spec.dead_links);
}

TEST(FaultSpec, RandomSpecIsDeterministicAndInRange) {
  const Topology topo = Topology::hypercube(4);
  const FaultSpec a = FaultSpec::random_spec(topo, 3, 4, 5, 42);
  const FaultSpec b = FaultSpec::random_spec(topo, 3, 4, 5, 42);
  EXPECT_EQ(a.to_string(), b.to_string());
  const FaultSpec c = FaultSpec::random_spec(topo, 3, 4, 5, 43);
  EXPECT_NE(a.to_string(), c.to_string());  // overwhelmingly likely
  EXPECT_EQ(a.dead_procs.size(), 3u);
  EXPECT_EQ(a.dead_links.size(), 4u);
  EXPECT_EQ(a.slow_links.size(), 5u);
  EXPECT_NO_THROW(a.validate(topo));
  // Dead and slowed links are disjoint.
  for (const SlowLink& s : a.slow_links) {
    EXPECT_EQ(std::find(a.dead_links.begin(), a.dead_links.end(), s.link),
              a.dead_links.end());
  }
}

TEST(FaultSpec, RandomSpecClampsToMachineSize) {
  const Topology topo = Topology::chain(3);  // 3 procs, 2 links
  const FaultSpec spec = FaultSpec::random_spec(topo, 99, 99, 99, 7);
  EXPECT_LE(spec.dead_procs.size(), 3u);
  EXPECT_LE(spec.dead_links.size(), 2u);
  EXPECT_NO_THROW(spec.validate(topo));
}

TEST(FaultedTopology, ProcessorIdsAreStable) {
  const Topology topo = Topology::mesh(4, 4);
  const FaultedTopology ft(topo, FaultSpec::parse("p5,p10", topo));
  EXPECT_FALSE(ft.proc_alive(5));
  EXPECT_FALSE(ft.proc_alive(10));
  // Base ids keep their meaning; the healthy machine leaves out the
  // dead processors and every link at them.
  const auto& sub = ft.healthy_subtopology();
  EXPECT_EQ(sub.topo.num_procs(), 14);
  EXPECT_EQ(sub.from_base_proc[5], -1);
  EXPECT_EQ(sub.from_base_proc[10], -1);
  for (const int l : sub.to_base_link) {
    const auto [u, v] = topo.link_endpoints(l);
    EXPECT_NE(u, 5);
    EXPECT_NE(v, 5);
    EXPECT_NE(u, 10);
    EXPECT_NE(v, 10);
  }
}

TEST(FaultedTopology, LinkBijectionIsExact) {
  const Topology topo = Topology::torus(4, 4);
  const FaultedTopology ft(topo, FaultSpec::parse("l0,l7,p3", topo));
  int surviving = 0;
  for (int l = 0; l < topo.num_links(); ++l) {
    surviving += ft.link_alive(l) ? 1 : 0;
  }
  EXPECT_EQ(surviving, ft.num_alive_links());
  // The survivors stay connected (the healthy machine holds all 15
  // alive processors), so it holds every surviving link, each joining
  // the images of its base endpoints.
  ASSERT_EQ(ft.healthy_procs().size(), 15u);
  const auto& sub = ft.healthy_subtopology();
  ASSERT_EQ(sub.topo.num_links(), surviving);
  std::set<int> images;
  for (int i = 0; i < sub.topo.num_links(); ++i) {
    const int l = sub.to_base_link[static_cast<std::size_t>(i)];
    EXPECT_TRUE(ft.link_alive(l));
    images.insert(l);
    const auto [u, v] = sub.topo.link_endpoints(i);
    EXPECT_EQ(topo.link_between(sub.to_base_proc[static_cast<std::size_t>(u)],
                                sub.to_base_proc[static_cast<std::size_t>(v)]),
              l);
  }
  EXPECT_EQ(static_cast<int>(images.size()), surviving);
}

TEST(FaultedTopology, HealthyIsLargestComponent) {
  // Chain 0-1-2-3-4-5: killing link 2-3 splits {0,1,2} / {3,4,5};
  // the tie breaks toward the component with processor 0.
  const Topology topo = Topology::chain(6);
  const FaultedTopology ft(topo, FaultSpec::parse("l2-3", topo));
  EXPECT_EQ(ft.healthy_procs(), (std::vector<int>{0, 1, 2}));
  EXPECT_TRUE(ft.healthy(1));
  EXPECT_FALSE(ft.healthy(4));
  // Killing 0 and 1 as well leaves {3,4,5} as the largest component.
  const FaultedTopology ft2(topo, FaultSpec::parse("l2-3,p0,p1", topo));
  EXPECT_EQ(ft2.healthy_procs(), (std::vector<int>{3, 4, 5}));
}

TEST(FaultedTopology, EmptySpecIsFullyHealthy) {
  const Topology topo = Topology::hypercube(3);
  const FaultedTopology ft(topo, FaultSpec{});
  for (int p = 0; p < topo.num_procs(); ++p) {
    EXPECT_TRUE(ft.proc_alive(p));
  }
  EXPECT_EQ(ft.num_alive_links(), topo.num_links());
  EXPECT_EQ(static_cast<int>(ft.healthy_procs().size()), 8);
  for (int l = 0; l < topo.num_links(); ++l) {
    EXPECT_EQ(ft.link_slowdown(l), 1);
  }
}

TEST(FaultedTopology, RouteTranslationAndLiveness) {
  const Topology topo = Topology::mesh(3, 3);
  const FaultedTopology ft(topo, FaultSpec::parse("p4", topo));  // center
  // A route through the dead centre is not alive; the perimeter is.
  const Route through = greedy_shortest_route(topo, 3, 5);  // 3-4-5
  EXPECT_FALSE(ft.route_alive(through));
  PhaseRouting phase;
  phase.route_of_edge.push_back(through);
  EXPECT_THROW(ft.check_routes(0, phase), MappingError);
  // A route on the healthy machine leaves through map_to_base alive.
  const auto& sub = ft.healthy_subtopology();
  Mapping on_sub;
  on_sub.routing.resize(1);
  on_sub.routing[0].route_of_edge.push_back(greedy_shortest_route(
      sub.topo, sub.from_base_proc[3], sub.from_base_proc[5]));
  const Route around = map_to_base(sub, on_sub).routing[0].route_of_edge[0];
  EXPECT_EQ(route_nodes(topo, 3, around), (std::vector<int>{3, 0, 1, 2, 5}));
  EXPECT_TRUE(is_valid_route(topo, around, 3, 5));
  EXPECT_TRUE(ft.route_alive(around));
  phase.route_of_edge[0] = around;
  EXPECT_NO_THROW(ft.check_routes(0, phase));
}

TEST(FaultedTopology, SlowdownFactorsExposedPerFaultedLink) {
  const Topology topo = Topology::ring(5);
  const FaultedTopology ft(topo, FaultSpec::parse("s0:3,l1", topo));
  const auto& sub = ft.healthy_subtopology();
  ASSERT_EQ(sub.topo.num_links(), ft.num_alive_links());
  ASSERT_EQ(static_cast<int>(sub.link_factor.size()), sub.topo.num_links());
  for (std::size_t i = 0; i < sub.link_factor.size(); ++i) {
    EXPECT_EQ(sub.link_factor[i], ft.link_slowdown(sub.to_base_link[i]));
  }
  EXPECT_EQ(ft.link_slowdown(0), 3);
  EXPECT_EQ(sub.link_factor.front(), 3);  // base link 0 is sub link 0
}

TEST(FaultedTopology, HealthySubtopologyIsCompactAndConsistent) {
  const Topology topo = Topology::mesh(4, 4);
  const FaultedTopology ft(topo, FaultSpec::parse("p0,p6,l10", topo));
  const auto& sub = ft.healthy_subtopology();
  EXPECT_EQ(sub.topo.num_procs(),
            static_cast<int>(ft.healthy_procs().size()));
  EXPECT_EQ(static_cast<int>(sub.to_base_proc.size()),
            sub.topo.num_procs());
  // Every sub link joins the base images of its endpoints via an alive
  // base link.
  for (int l = 0; l < sub.topo.num_links(); ++l) {
    const auto [u, v] = sub.topo.link_endpoints(l);
    const int bu = sub.to_base_proc[static_cast<std::size_t>(u)];
    const int bv = sub.to_base_proc[static_cast<std::size_t>(v)];
    const auto base_link = topo.link_between(bu, bv);
    ASSERT_TRUE(base_link.has_value());
    EXPECT_TRUE(ft.link_alive(*base_link));
    EXPECT_EQ(sub.to_base_link[static_cast<std::size_t>(l)], *base_link);
  }
  // Sub processors are exactly the healthy set.
  std::set<int> sub_procs(sub.to_base_proc.begin(), sub.to_base_proc.end());
  std::set<int> healthy(ft.healthy_procs().begin(),
                        ft.healthy_procs().end());
  EXPECT_EQ(sub_procs, healthy);
}

TEST(FaultedTopology, DeterministicAcrossConstructions) {
  const Topology topo = Topology::mesh3d(3, 3, 3);
  const FaultSpec spec =
      FaultSpec::random_spec(topo, 4, 6, 3, 0xDEADBEEF);
  const FaultedTopology a(topo, spec);
  const FaultedTopology b(topo, spec);
  EXPECT_EQ(a.healthy_procs(), b.healthy_procs());
  EXPECT_EQ(a.healthy_subtopology().to_base_link,
            b.healthy_subtopology().to_base_link);
  EXPECT_EQ(a.healthy_subtopology().link_factor,
            b.healthy_subtopology().link_factor);
  EXPECT_EQ(a.spec().to_string(), b.spec().to_string());
  EXPECT_EQ(a.num_alive_links(), b.num_alive_links());
}

/// The invariant that keeps every degraded output byte-identical to the
/// base machine's: the healthy machine numbers processors and links in
/// ascending base-id order, so every lowest-id tie-break on it resolves
/// as on the base machine.
TEST(FaultedTopology, HealthySubKeepsBaseOrder) {
  std::vector<Topology> machines;
  for (const char* spec :
       {"ring:12", "chain:9", "mesh:4x5", "torus:4x4", "hypercube:4",
        "cbt:4", "star:8", "complete:7", "butterfly:2", "mesh3d:3x3x2"}) {
    machines.push_back(parse_topology_spec(spec));
  }
  Graph custom(10);
  for (const auto& [u, v] :
       std::vector<std::pair<int, int>>{{0, 1}, {1, 2}, {2, 0}, {2, 3},
                                        {3, 4}, {4, 5}, {5, 3}, {5, 6},
                                        {6, 7}, {7, 8}, {8, 9}, {9, 6},
                                        {1, 7}}) {
    custom.add_edge(u, v);
  }
  machines.push_back(Topology::custom("custom", std::move(custom)));

  const auto strictly_ascends = [](const std::vector<int>& ids) {
    return std::adjacent_find(ids.begin(), ids.end(),
                              std::greater_equal<>()) == ids.end();
  };
  for (const Topology& topo : machines) {
    for (int seed = 1; seed <= 8; ++seed) {
      const FaultedTopology ft(
          topo, FaultSpec::random_spec(topo, seed % 3, 1 + seed % 4, 2,
                                       static_cast<std::uint64_t>(seed)));
      SCOPED_TRACE(topo.name() + " " + ft.spec().to_string());
      const auto& sub = ft.healthy_subtopology();
      EXPECT_TRUE(strictly_ascends(sub.to_base_proc));
      EXPECT_TRUE(strictly_ascends(sub.to_base_link));
      for (std::size_t i = 0; i < sub.to_base_proc.size(); ++i) {
        EXPECT_EQ(sub.from_base_proc[static_cast<std::size_t>(
                      sub.to_base_proc[i])],
                  static_cast<int>(i));
      }
      ASSERT_EQ(sub.link_factor.size(), sub.to_base_link.size());
      ASSERT_EQ(static_cast<int>(sub.to_base_link.size()),
                sub.topo.num_links());
      for (int i = 0; i < sub.topo.num_links(); ++i) {
        const int l = sub.to_base_link[static_cast<std::size_t>(i)];
        EXPECT_EQ(sub.link_factor[static_cast<std::size_t>(i)],
                  ft.link_slowdown(l));
        const auto [su, sv] = sub.topo.link_endpoints(i);
        EXPECT_EQ(std::make_pair(sub.to_base_proc[static_cast<std::size_t>(su)],
                                 sub.to_base_proc[static_cast<std::size_t>(sv)]),
                  topo.link_endpoints(l));
      }
      // Every surviving base link between two healthy processors
      // appears exactly once; no other link appears.
      for (int l = 0; l < topo.num_links(); ++l) {
        const auto [u, v] = topo.link_endpoints(l);
        const bool inside = ft.link_alive(l) && ft.healthy(u) && ft.healthy(v);
        EXPECT_EQ(std::count(sub.to_base_link.begin(), sub.to_base_link.end(),
                             l),
                  inside ? 1 : 0);
      }
    }
  }
}

/// The scorer and the simulator reach a dead placement and a dead route
/// only through the one FaultedTopology check, so they reject alike.
TEST(FaultedTopology, ScorerAndSimulatorRejectAlike) {
  TaskGraph graph;
  graph.add_task("a");
  graph.add_task("b");
  graph.add_comm_edge(graph.add_comm_phase("send"), 0, 1, 4);
  // ring:4 links: l0 = 0-1, l1 = 1-2, l2 = 2-3, l3 = 3-0.
  const Topology topo = Topology::ring(4);
  const FaultedTopology ft(topo, FaultSpec::parse("p3,l1", topo));
  SimConfig config;
  config.faults = &ft;

  const auto rejections = [&](const std::vector<int>& procs) {
    const std::vector<PhaseRouting> routing{{{greedy_shortest_route(
        topo, procs[0], procs[1])}}};
    std::string scorer;
    std::string simulator;
    try {
      (void)degraded_completion_time(graph, procs, routing, ft);
    } catch (const MappingError& e) {
      scorer = e.what();
    }
    try {
      (void)simulate(graph, procs, routing, topo, config);
    } catch (const MappingError& e) {
      simulator = e.what();
    }
    EXPECT_EQ(scorer, simulator);
    return scorer;
  };
  EXPECT_EQ(rejections({3, 0}),
            "task 0 is placed on dead processor 3 (spec: p3,l1)");
  EXPECT_EQ(rejections({1, 2}),
            "comm phase 0 message 0 is routed across a dead link or "
            "processor (spec: p3,l1)");
}

TEST(FaultedTopology, ValidateRejectsOverlapAndBadFactors) {
  const Topology topo = Topology::ring(4);
  FaultSpec overlap;
  overlap.dead_links = {1};
  overlap.slow_links = {{1, 2}};
  EXPECT_THROW(overlap.validate(topo), MappingError);
  FaultSpec bad_factor;
  bad_factor.slow_links = {{0, 0}};
  EXPECT_THROW(bad_factor.validate(topo), MappingError);
  FaultSpec out_of_range;
  out_of_range.dead_procs = {99};
  EXPECT_THROW(out_of_range.validate(topo), MappingError);
}

}  // namespace
}  // namespace oregami
