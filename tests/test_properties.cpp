// Property-based validity harness: instead of hand-picked examples,
// generate hundreds of random (task graph, topology) instances from a
// seeded SplitMix64 and assert the pipeline invariants the MAPPER
// stages promise (SpiNNTools-style machine-checkable validity at every
// stage):
//   * every task lands on a valid processor, the contraction covers
//     the tasks, the embedding is injective;
//   * MWM-Contract respects its load bound B and the cluster budget P;
//   * every routed path is a connected walk in the host topology whose
//     endpoints match the communicating tasks' processors;
//   * MetricsSession::move_task followed by undo returns to the exact
//     starting metrics (the edit loop's delta accounting has no leaks).
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "mapping_text.hpp"
#include "oregami/arch/routes.hpp"
#include "oregami/arch/topology_spec.hpp"
#include "oregami/core/csr_graph.hpp"
#include "oregami/core/synthetic.hpp"
#include "oregami/mapper/anneal.hpp"
#include "oregami/mapper/driver.hpp"
#include "oregami/mapper/list_schedule.hpp"
#include "oregami/mapper/mm_route.hpp"
#include "oregami/mapper/mwm_contract.hpp"
#include "oregami/mapper/refine.hpp"
#include "oregami/metrics/incremental.hpp"
#include "oregami/metrics/metrics.hpp"
#include "oregami/metrics/session.hpp"
#include "oregami/support/rng.hpp"

namespace oregami {
namespace {

constexpr int kCases = 220;
constexpr std::uint64_t kBaseSeed = 0x0E6A4D1ULL;

/// Random topology drawn via the textual spec layer (so the parser is
/// exercised too). Sizes stay small enough that kCases full pipeline
/// runs finish quickly in ctest.
Topology random_topology(SplitMix64& rng) {
  const auto pick = rng.next_below(9);
  switch (pick) {
    case 0:
      return parse_topology_spec(
          "ring:" + std::to_string(rng.next_in(3, 10)));
    case 1:
      return parse_topology_spec(
          "chain:" + std::to_string(rng.next_in(2, 10)));
    case 2:
      return parse_topology_spec("mesh:" + std::to_string(rng.next_in(2, 4)) +
                                 "x" + std::to_string(rng.next_in(2, 4)));
    case 3:
      return parse_topology_spec("torus:" + std::to_string(rng.next_in(3, 4)) +
                                 "x" + std::to_string(rng.next_in(3, 4)));
    case 4:
      return parse_topology_spec(
          "hypercube:" + std::to_string(rng.next_in(1, 4)));
    case 5:
      return parse_topology_spec(
          "cbt:" + std::to_string(rng.next_in(2, 4)));
    case 6:
      return parse_topology_spec(
          "star:" + std::to_string(rng.next_in(3, 10)));
    case 7:
      return parse_topology_spec(
          "complete:" + std::to_string(rng.next_in(2, 8)));
    default:
      return parse_topology_spec("mesh3d:2x2x" +
                                 std::to_string(rng.next_in(2, 3)));
  }
}

/// Random multi-phase task graph: 1-24 tasks, 1-3 comm phases with
/// random directed edges and volumes, 0-2 exec phases with random
/// costs, and (half the time) a phase expression sequencing every
/// phase with a random repetition count.
TaskGraph random_task_graph(SplitMix64& rng) {
  TaskGraph g;
  const int n = static_cast<int>(rng.next_in(1, 24));
  for (int i = 0; i < n; ++i) {
    g.add_task("t" + std::to_string(i));
  }
  const int num_comm = static_cast<int>(rng.next_in(1, 3));
  std::vector<PhaseTree> leaves;
  for (int k = 0; k < num_comm; ++k) {
    const int phase = g.add_comm_phase("comm" + std::to_string(k));
    const int edges =
        n < 2 ? 0 : static_cast<int>(rng.next_below(
                        static_cast<std::uint64_t>(2 * n))) ;
    for (int e = 0; e < edges; ++e) {
      const int u = static_cast<int>(rng.next_below(
          static_cast<std::uint64_t>(n)));
      int v = static_cast<int>(rng.next_below(
          static_cast<std::uint64_t>(n)));
      if (u == v) {
        v = (v + 1) % n;
      }
      if (u != v) {
        g.add_comm_edge(phase, u, v, rng.next_in(1, 9));
      }
    }
    leaves.push_back(PhaseTree::comm(phase));
  }
  const int num_exec = static_cast<int>(rng.next_in(0, 2));
  for (int k = 0; k < num_exec; ++k) {
    std::vector<std::int64_t> cost(static_cast<std::size_t>(n));
    for (auto& c : cost) {
      c = rng.next_in(0, 20);
    }
    const int phase = g.add_exec_phase("exec" + std::to_string(k),
                                       std::move(cost));
    leaves.push_back(PhaseTree::exec(phase));
  }
  if (rng.next_below(2) == 0) {
    g.set_phase_expr(PhaseTree::repeat(PhaseTree::seq(std::move(leaves)),
                                       rng.next_in(1, 4)));
  }
  g.validate();
  return g;
}

/// Walk-level route check, independent of is_valid_route: the node walk
/// derived from the links ends at dst, consecutive nodes are adjacent,
/// and each link joins its node pair.
void assert_connected_walk(const Topology& topo, const Route& route,
                           int src, int dst) {
  const std::vector<int> nodes = route_nodes(topo, src, route);
  EXPECT_EQ(nodes.back(), dst);
  for (std::size_t h = 0; h < route.links.size(); ++h) {
    const int a = nodes[h];
    const int b = nodes[h + 1];
    const auto link = topo.link_between(a, b);
    ASSERT_TRUE(link.has_value())
        << "route hops between non-adjacent processors " << a << ", " << b;
    EXPECT_EQ(route.links[h], *link);
  }
  EXPECT_TRUE(is_valid_route(topo, route, src, dst));
}

void assert_metrics_equal(const MappingMetrics& a, const MappingMetrics& b) {
  EXPECT_EQ(a.completion, b.completion);
  EXPECT_EQ(a.total_ipc, b.total_ipc);
  EXPECT_EQ(a.max_dilation, b.max_dilation);
  EXPECT_DOUBLE_EQ(a.avg_dilation, b.avg_dilation);
  EXPECT_EQ(a.load.tasks_per_proc, b.load.tasks_per_proc);
  EXPECT_EQ(a.load.exec_per_proc, b.load.exec_per_proc);
  EXPECT_EQ(a.load.max_tasks, b.load.max_tasks);
  EXPECT_EQ(a.load.max_exec, b.load.max_exec);
  EXPECT_DOUBLE_EQ(a.load.exec_imbalance, b.load.exec_imbalance);
  ASSERT_EQ(a.phases.size(), b.phases.size());
  for (std::size_t k = 0; k < a.phases.size(); ++k) {
    EXPECT_EQ(a.phases[k].contention_per_link,
              b.phases[k].contention_per_link);
    EXPECT_EQ(a.phases[k].volume_per_link, b.phases[k].volume_per_link);
    EXPECT_EQ(a.phases[k].max_contention, b.phases[k].max_contention);
    EXPECT_EQ(a.phases[k].max_dilation, b.phases[k].max_dilation);
    EXPECT_EQ(a.phases[k].phase_time, b.phases[k].phase_time);
  }
}

/// One generated case, all invariants. Split into a helper so the
/// kCases loop reports the failing case seed.
void check_case(std::uint64_t case_seed) {
  SCOPED_TRACE("case seed " + std::to_string(case_seed));
  SplitMix64 rng(case_seed);
  const Topology topo = random_topology(rng);
  const TaskGraph graph = random_task_graph(rng);

  MapperOptions options;
  options.refine = rng.next_below(2) == 0;
  const MapperReport report = map_computation(graph, topo, options);

  // Invariant 1: placement validity. validate_mapping throws on any
  // violation; the explicit checks below keep the properties readable
  // and guard validate_mapping itself against regressions.
  ASSERT_NO_THROW(validate_mapping(report.mapping, graph, topo));
  const auto procs = report.mapping.proc_of_task();
  ASSERT_EQ(procs.size(), static_cast<std::size_t>(graph.num_tasks()));
  for (const int p : procs) {
    EXPECT_GE(p, 0);
    EXPECT_LT(p, topo.num_procs());
  }

  // Invariant 2: MWM-Contract honours its load bound.
  {
    const Graph aggregate = graph.aggregate_graph();
    const auto contract = mwm_contract(aggregate, topo.num_procs());
    EXPECT_LE(contract.contraction.num_clusters, topo.num_procs());
    EXPECT_LE(contract.contraction.max_cluster_size(), contract.load_bound);
    EXPECT_GE(contract.load_bound * topo.num_procs(), graph.num_tasks());
  }

  // Invariant 3: every route is a connected walk with matching
  // endpoints.
  ASSERT_EQ(report.mapping.routing.size(), graph.comm_phases().size());
  for (std::size_t k = 0; k < graph.comm_phases().size(); ++k) {
    const auto& phase = graph.comm_phases()[k];
    const auto& routing = report.mapping.routing[k];
    ASSERT_EQ(routing.route_of_edge.size(), phase.edges.size());
    for (std::size_t i = 0; i < phase.edges.size(); ++i) {
      const auto& e = phase.edges[i];
      assert_connected_walk(
          topo, routing.route_of_edge[i],
          procs[static_cast<std::size_t>(e.src)],
          procs[static_cast<std::size_t>(e.dst)]);
    }
  }

  // Invariant 4: session move + undo is an exact round trip.
  MetricsSession session(graph, topo, report.mapping);
  const auto procs_before = session.proc_of_task();
  const auto metrics_before = session.metrics();
  const int task = static_cast<int>(
      rng.next_below(static_cast<std::uint64_t>(graph.num_tasks())));
  const int target = static_cast<int>(
      rng.next_below(static_cast<std::uint64_t>(topo.num_procs())));
  const auto edit = session.move_task(task, target);
  EXPECT_EQ(edit.completion_delta(),
            edit.after.completion - edit.before.completion);
  EXPECT_EQ(session.proc_of_task()[static_cast<std::size_t>(task)], target);
  ASSERT_TRUE(session.undo());
  EXPECT_EQ(session.proc_of_task(), procs_before);
  assert_metrics_equal(session.metrics(), metrics_before);
}

TEST(Properties, GeneratedPipelineInvariants) {
  SplitMix64 seeder(kBaseSeed);
  for (int i = 0; i < kCases; ++i) {
    check_case(seeder.next_u64());
    if (HasFatalFailure()) {
      return;
    }
  }
}

/// A topology for the evaluator's cases: half the time one of
/// random_topology's (at most 16 processors, so they keep a greedy-route
/// table), half the time a machine over Topology::kRouteTableMaxProcs,
/// whose routes are walked.
Topology random_incremental_topology(SplitMix64& rng) {
  static_assert(Topology::kRouteTableMaxProcs == 16,
                "random_topology stays at or under the bound");
  if (rng.next_below(2) == 0) {
    return random_topology(rng);
  }
  const auto side = [&rng](int lo, int hi) {
    return std::to_string(rng.next_in(lo, hi));
  };
  switch (rng.next_below(5)) {
    case 0:
      return parse_topology_spec("ring:" + side(17, 40));
    case 1:
      return parse_topology_spec("mesh:" + side(5, 7) + "x" + side(4, 6));
    case 2:
      return parse_topology_spec("torus:" + side(5, 6) + "x" + side(4, 5));
    case 3:
      return parse_topology_spec("hypercube:" + side(5, 6));
    default:
      return parse_topology_spec("butterfly:3");
  }
}

/// IncrementalCompletion invariants on a generated case: the cached
/// completion matches completion_time(), every delta_move probe equals
/// the realised apply_move delta (which in turn matches a from-scratch
/// recompute), and every undo restores the placement, the routing and
/// the completion of the state before its move exactly. Moves and undos
/// interleave at random, and an undone move is often re-applied at
/// once, so commits reuse the undo pool after it shrinks. Counts the
/// case in `table_cases` when its machine keeps a greedy-route table.
void check_incremental_case(std::uint64_t case_seed, int& table_cases) {
  SCOPED_TRACE("case seed " + std::to_string(case_seed));
  SplitMix64 rng(case_seed);
  const Topology topo = random_incremental_topology(rng);
  const TaskGraph graph = random_task_graph(rng);
  const MapperReport report = map_computation(graph, topo, {});
  table_cases += topo.greedy_route_table() != nullptr ? 1 : 0;

  IncrementalCompletion inc(graph, topo, report.mapping);
  ASSERT_EQ(inc.completion(), completion_time(graph, inc.proc_of_task(),
                                              inc.routing(), topo));

  struct State {
    std::vector<int> procs;
    std::vector<PhaseRouting> routing;
    std::int64_t completion;
  };
  const auto expect_state = [&inc](const State& want) {
    ASSERT_EQ(inc.completion(), want.completion);
    ASSERT_EQ(inc.proc_of_task(), want.procs);
    ASSERT_EQ(inc.routing().size(), want.routing.size());
    for (std::size_t k = 0; k < want.routing.size(); ++k) {
      const auto& a = inc.routing()[k].route_of_edge;
      const auto& b = want.routing[k].route_of_edge;
      ASSERT_EQ(a.size(), b.size());
      for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].links, b[i].links) << "phase " << k << " edge " << i;
      }
    }
  };
  // states[h] is the state with h moves in the history.
  std::vector<State> states{
      {inc.proc_of_task(), inc.routing(), inc.completion()}};
  const auto move = [&](int task, int target) {
    const std::int64_t probed = inc.delta_move(task, target);
    const std::int64_t before = inc.completion();
    const std::int64_t realised = inc.apply_move(task, target);
    ASSERT_EQ(realised, probed) << "task " << task << " -> " << target;
    ASSERT_EQ(inc.completion(), before + realised);
    // Ground truth: full recompute over the evaluator's own state.
    ASSERT_EQ(inc.completion(),
              completion_time(graph, inc.proc_of_task(), inc.routing(),
                              topo))
        << "task " << task << " -> " << target;
    if (inc.history_size() + 1 > states.size()) {
      states.push_back({inc.proc_of_task(), inc.routing(), inc.completion()});
    }
  };

  constexpr int kSteps = 12;
  for (int step = 0; step < kSteps; ++step) {
    if (inc.history_size() > 0 && rng.next_below(3) == 0) {
      // Undo, then half the time re-apply the same move.
      const std::size_t h = inc.history_size();
      const State undone = states[h];
      ASSERT_TRUE(inc.undo());
      states.pop_back();
      expect_state(states.back());
      if (::testing::Test::HasFailure()) {
        return;
      }
      if (rng.next_below(2) == 0) {
        int task = 0;
        while (undone.procs[static_cast<std::size_t>(task)] ==
               states.back().procs[static_cast<std::size_t>(task)]) {
          ++task;
        }
        move(task, undone.procs[static_cast<std::size_t>(task)]);
        expect_state(undone);
      }
      continue;
    }
    const int task = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(graph.num_tasks())));
    const int target = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(topo.num_procs())));
    move(task, target);
    if (::testing::Test::HasFailure()) {
      return;
    }
  }
  while (inc.history_size() > 0) {
    ASSERT_TRUE(inc.undo());
    states.pop_back();
    expect_state(states.back());
  }
  EXPECT_FALSE(inc.undo());
}

TEST(Properties, IncrementalCompletionMatchesFullRecompute) {
  SplitMix64 seeder(kBaseSeed ^ 0xD15C0ULL);
  int table_cases = 0;
  for (int i = 0; i < kCases; ++i) {
    check_incremental_case(seeder.next_u64(), table_cases);
    if (HasFatalFailure()) {
      return;
    }
  }
  // Both sides of the route-table bound get a fair share of the cases.
  RecordProperty("route_table_cases", table_cases);
  RecordProperty("route_walk_cases", kCases - table_cases);
  std::printf("%d cases on a machine with a greedy-route table, %d without\n",
              table_cases, kCases - table_cases);
  EXPECT_GE(table_cases, kCases / 4);
  EXPECT_GE(kCases - table_cases, kCases / 4);
}

/// refine_placement never worsens the completion model, keeps every
/// route valid, and is deterministic.
void check_refine_placement_case(std::uint64_t case_seed) {
  SCOPED_TRACE("case seed " + std::to_string(case_seed));
  SplitMix64 rng(case_seed);
  const Topology topo = random_topology(rng);
  const TaskGraph graph = random_task_graph(rng);
  const MapperReport report = map_computation(graph, topo, {});
  const auto procs = report.mapping.proc_of_task();

  const PlacementRefineResult refined = refine_placement(
      graph, topo, procs, report.mapping.routing);
  EXPECT_LE(refined.completion_after, refined.completion_before);
  EXPECT_EQ(refined.completion_before,
            completion_time(graph, procs, report.mapping.routing, topo));
  EXPECT_EQ(refined.completion_after,
            completion_time(graph, refined.mapping.proc_of_task(),
                            refined.mapping.routing, topo));
  for (std::size_t k = 0; k < graph.comm_phases().size(); ++k) {
    const auto& phase = graph.comm_phases()[k];
    for (std::size_t i = 0; i < phase.edges.size(); ++i) {
      const auto& e = phase.edges[i];
      EXPECT_TRUE(is_valid_route(
          topo, refined.mapping.routing[k].route_of_edge[i],
          refined.mapping.proc_of_task()[static_cast<std::size_t>(e.src)],
          refined.mapping.proc_of_task()[static_cast<std::size_t>(e.dst)]));
    }
  }

  const PlacementRefineResult again = refine_placement(
      graph, topo, procs, report.mapping.routing);
  EXPECT_EQ(again.mapping.proc_of_task(), refined.mapping.proc_of_task());
  EXPECT_EQ(again.completion_after, refined.completion_after);
  EXPECT_EQ(again.moves, refined.moves);
}

TEST(Properties, RefinePlacementNeverWorsensAndIsDeterministic) {
  SplitMix64 seeder(kBaseSeed ^ 0xEF12EULL);
  for (int i = 0; i < 80; ++i) {
    check_refine_placement_case(seeder.next_u64());
    if (HasFatalFailure()) {
      return;
    }
  }
}

/// Differential harness over the candidate families: for each generated
/// (graph, topology) instance run every placement family -- the MAPPER
/// pipeline, placement refinement, simulated annealing, and the HEFT
/// list scheduler -- and cross-check each one's own score against an
/// independent full completion_time() re-score. Also asserts placement
/// validity per family, the MWM load bound, and the SA apply/undo
/// round-trip invariant (no improvement => bit-identical to the init).
void check_candidate_families_case(std::uint64_t case_seed) {
  SCOPED_TRACE("case seed " + std::to_string(case_seed));
  SplitMix64 rng(case_seed);
  const Topology topo = random_topology(rng);
  const TaskGraph graph = random_task_graph(rng);

  // Family 1: the MAPPER pipeline (contract/embed/route).
  const MapperReport base = map_computation(graph, topo, {});
  ASSERT_NO_THROW(validate_mapping(base.mapping, graph, topo));
  const auto base_procs = base.mapping.proc_of_task();
  const std::int64_t base_completion =
      completion_time(graph, base_procs, base.mapping.routing, topo);

  // MWM load bound holds for the aggregate contraction.
  {
    const Graph aggregate = graph.aggregate_graph();
    const auto contract = mwm_contract(aggregate, topo.num_procs());
    EXPECT_LE(contract.contraction.max_cluster_size(), contract.load_bound);
  }

  // Family 2: placement refinement. Its incremental bookkeeping must
  // agree with the from-scratch model on the final state.
  const PlacementRefineResult refined =
      refine_placement(graph, topo, base_procs, base.mapping.routing);
  EXPECT_LE(refined.completion_after, base_completion);
  EXPECT_EQ(refined.completion_after,
            completion_time(graph, refined.mapping.proc_of_task(),
                            refined.mapping.routing, topo));

  // Family 3: simulated annealing from the base mapping.
  AnnealOptions aopts;
  aopts.iterations = 200;
  aopts.seed = rng.next_u64();
  const AnnealResult annealed = anneal_placement(
      graph, topo, base_procs, base.mapping.routing, aopts);
  EXPECT_EQ(annealed.completion_before, base_completion);
  EXPECT_LE(annealed.completion_after, annealed.completion_before);
  // Differential: the incremental evaluator's final score equals a full
  // completion-model re-score of the returned state.
  ASSERT_EQ(annealed.completion_after,
            completion_time(graph, annealed.mapping.proc_of_task(),
                            annealed.mapping.routing, topo));
  for (const int p : annealed.mapping.proc_of_task()) {
    EXPECT_GE(p, 0);
    EXPECT_LT(p, topo.num_procs());
  }
  // Every re-routed edge is still a connected walk.
  for (std::size_t k = 0; k < graph.comm_phases().size(); ++k) {
    const auto& phase = graph.comm_phases()[k];
    for (std::size_t i = 0; i < phase.edges.size(); ++i) {
      const auto& e = phase.edges[i];
      assert_connected_walk(
          topo, annealed.mapping.routing[k].route_of_edge[i],
          annealed.mapping.proc_of_task()[static_cast<std::size_t>(e.src)],
          annealed.mapping.proc_of_task()[static_cast<std::size_t>(e.dst)]);
    }
  }
  // Acceptance-with-undo: when no proposal strictly improved, the whole
  // apply/undo chain must round-trip to the exact starting state.
  if (annealed.completion_after == annealed.completion_before) {
    EXPECT_EQ(annealed.mapping.proc_of_task(), base_procs);
  }

  // Family 4: HEFT list schedule, routed with MM-Route and re-scored.
  const ListScheduleResult heft = list_schedule(graph, topo);
  ASSERT_EQ(heft.proc_of_task.size(),
            static_cast<std::size_t>(graph.num_tasks()));
  for (const int p : heft.proc_of_task) {
    EXPECT_GE(p, 0);
    EXPECT_LT(p, topo.num_procs());
  }
  const auto heft_routing = mm_route(graph, heft.proc_of_task, topo);
  const std::int64_t heft_completion =
      completion_time(graph, heft.proc_of_task, heft_routing, topo);
  EXPECT_GE(heft_completion, 0);
  // extract_objectives agrees with the standalone model on every family.
  const PlacementObjectives obj = extract_objectives(
      graph, heft.proc_of_task, heft_routing, topo);
  EXPECT_EQ(obj.completion, heft_completion);
  EXPECT_GE(obj.external_ipc, 0);
  EXPECT_GE(obj.max_load, 0);
}

TEST(Properties, DifferentialCandidateFamilies) {
  SplitMix64 seeder(kBaseSeed ^ 0xCAFD1FFULL);
  for (int i = 0; i < 200; ++i) {
    check_candidate_families_case(seeder.next_u64());
    if (HasFatalFailure()) {
      return;
    }
  }
}

/// Applies a processor relabeling (an automorphism of the topology) to
/// a placement + routing and returns the relabelled pair. Links are
/// rebuilt from the relabelled node walk; the automorphism guarantees
/// adjacency is preserved.
std::pair<std::vector<int>, std::vector<PhaseRouting>> relabel(
    const TaskGraph& graph, const Topology& topo,
    const std::vector<int>& proc_of_task,
    const std::vector<PhaseRouting>& routing,
    const std::vector<int>& sigma) {
  std::vector<int> procs(proc_of_task.size());
  for (std::size_t t = 0; t < proc_of_task.size(); ++t) {
    procs[t] = sigma[static_cast<std::size_t>(proc_of_task[t])];
  }
  std::vector<PhaseRouting> routed(routing.size());
  for (std::size_t k = 0; k < routing.size(); ++k) {
    routed[k].route_of_edge.resize(routing[k].route_of_edge.size());
    for (std::size_t i = 0; i < routing[k].route_of_edge.size(); ++i) {
      const int src = proc_of_task[static_cast<std::size_t>(
          graph.comm_phases()[k].edges[i].src)];
      std::vector<int> nodes =
          route_nodes(topo, src, routing[k].route_of_edge[i]);
      for (int& node : nodes) {
        node = sigma[static_cast<std::size_t>(node)];
      }
      Route& out = routed[k].route_of_edge[i];
      for (std::size_t h = 0; h + 1 < nodes.size(); ++h) {
        const auto link = topo.link_between(nodes[h], nodes[h + 1]);
        if (!link.has_value()) {
          ADD_FAILURE() << "relabeling broke adjacency between "
                        << nodes[h] << " and " << nodes[h + 1];
          return {procs, routed};
        }
        out.links.push_back(*link);
      }
    }
  }
  return {procs, routed};
}

/// Metamorphic relation: rotating every processor label of a ring (or
/// one torus dimension) is a topology automorphism, so the completion
/// score of ANY candidate's placement must be unchanged under it.
void check_relabel_case(std::uint64_t case_seed, const Topology& topo,
                        const std::vector<int>& sigma) {
  SCOPED_TRACE("case seed " + std::to_string(case_seed));
  SplitMix64 rng(case_seed);
  const TaskGraph graph = random_task_graph(rng);

  // Candidate placements from three different families.
  const MapperReport base = map_computation(graph, topo, {});
  AnnealOptions aopts;
  aopts.iterations = 100;
  aopts.seed = rng.next_u64();
  const AnnealResult annealed =
      anneal_placement(graph, topo, base.mapping.proc_of_task(),
                       base.mapping.routing, aopts);
  const ListScheduleResult heft = list_schedule(graph, topo);
  const auto heft_routing = mm_route(graph, heft.proc_of_task, topo);

  const std::vector<std::pair<std::vector<int>, std::vector<PhaseRouting>>>
      candidates = {
          {base.mapping.proc_of_task(), base.mapping.routing},
          {annealed.mapping.proc_of_task(), annealed.mapping.routing},
          {heft.proc_of_task, heft_routing},
      };
  for (const auto& [procs, routing] : candidates) {
    const std::int64_t before = completion_time(graph, procs, routing, topo);
    const auto [relabelled_procs, relabelled_routing] =
        relabel(graph, topo, procs, routing, sigma);
    const std::int64_t after = completion_time(
        graph, relabelled_procs, relabelled_routing, topo);
    EXPECT_EQ(after, before);
    // The full objective triple is invariant, not just completion.
    const PlacementObjectives oa =
        extract_objectives(graph, procs, routing, topo);
    const PlacementObjectives ob = extract_objectives(
        graph, relabelled_procs, relabelled_routing, topo);
    EXPECT_EQ(ob.completion, oa.completion);
    EXPECT_EQ(ob.external_ipc, oa.external_ipc);
    EXPECT_EQ(ob.max_load, oa.max_load);
  }
}

TEST(Properties, RingRelabelingLeavesScoresInvariant) {
  const int p = 7;
  const Topology topo = Topology::ring(p);
  std::vector<int> sigma(static_cast<std::size_t>(p));
  for (int q = 0; q < p; ++q) {
    sigma[static_cast<std::size_t>(q)] = (q + 1) % p;
  }
  SplitMix64 seeder(kBaseSeed ^ 0x51BB0ULL);
  for (int i = 0; i < 40; ++i) {
    check_relabel_case(seeder.next_u64(), topo, sigma);
    if (HasFatalFailure()) {
      return;
    }
  }
}

TEST(Properties, TorusRelabelingLeavesScoresInvariant) {
  const int rows = 3;
  const int cols = 4;
  const Topology topo = parse_topology_spec("torus:3x4");
  std::vector<int> sigma(static_cast<std::size_t>(rows * cols));
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      sigma[static_cast<std::size_t>(r * cols + c)] =
          r * cols + (c + 1) % cols;
    }
  }
  SplitMix64 seeder(kBaseSeed ^ 0x70A05ULL);
  for (int i = 0; i < 40; ++i) {
    check_relabel_case(seeder.next_u64(), topo, sigma);
    if (HasFatalFailure()) {
      return;
    }
  }
}

/// Checks every coarsening invariant for one fine graph / seed pair,
/// walking a full V-cycle's coarsening side (halve until <= 2 or
/// stall). Reports the number of levels built via `levels_out`.
void check_coarsen_case(const TaskGraph& graph, std::uint64_t seed,
                        int* levels_out = nullptr) {
  CsrTaskGraph fine = CsrTaskGraph::from_task_graph(graph);
  int levels = 0;
  while (fine.num_vertices() > 2) {
    const int target = std::max(2, fine.num_vertices() / 2);
    const CoarsenResult step = coarsen_heavy_edge(fine, seed + levels,
                                                  target);
    const CsrTaskGraph& coarse = step.coarse;
    // Comm volume is conserved: every undirected edge either survives
    // (possibly merged) or is internalized, never dropped.
    ASSERT_EQ(coarse.total_edge_weight + step.internalized_weight,
              fine.total_edge_weight);
    // Exec cost is conserved exactly.
    ASSERT_EQ(coarse.total_vertex_weight, fine.total_vertex_weight);
    // Projection maps onto the super-tasks: surjective, and each
    // super-task is a matching pair or a singleton (1-2 fine vertices).
    ASSERT_EQ(step.coarse_of_fine.size(),
              static_cast<std::size_t>(fine.num_vertices()));
    std::vector<int> members(
        static_cast<std::size_t>(coarse.num_vertices()), 0);
    std::vector<std::int64_t> folded_weight(
        static_cast<std::size_t>(coarse.num_vertices()), 0);
    for (int v = 0; v < fine.num_vertices(); ++v) {
      const int c = step.coarse_of_fine[static_cast<std::size_t>(v)];
      ASSERT_GE(c, 0);
      ASSERT_LT(c, coarse.num_vertices());
      ++members[static_cast<std::size_t>(c)];
      folded_weight[static_cast<std::size_t>(c)] +=
          fine.vertex_weight[static_cast<std::size_t>(v)];
    }
    for (int c = 0; c < coarse.num_vertices(); ++c) {
      ASSERT_GE(members[static_cast<std::size_t>(c)], 1);
      ASSERT_LE(members[static_cast<std::size_t>(c)], 2);
      // Per-super-task cost equals the sum of its members' costs.
      ASSERT_EQ(coarse.vertex_weight[static_cast<std::size_t>(c)],
                folded_weight[static_cast<std::size_t>(c)]);
    }
    if (coarse.num_vertices() == fine.num_vertices()) {
      break;  // matching stalled (e.g. edgeless graph)
    }
    fine = coarse;
    ++levels;
  }
  if (levels_out != nullptr) {
    *levels_out = levels;
  }
}

TEST(Properties, CoarseningConservesVolumeCostAndProjection) {
  // 100 random multi-phase graphs, each coarsened down a full V-cycle.
  SplitMix64 seeder(kBaseSeed ^ 0xC0A25EULL);
  for (int i = 0; i < 100; ++i) {
    SplitMix64 rng(seeder.next_u64());
    const TaskGraph graph = random_task_graph(rng);
    check_coarsen_case(graph, rng.next_u64());
    if (HasFatalFailure()) {
      return;
    }
  }
  // Plus the structured generators the size sweep uses; all should
  // support several genuine halving levels.
  int levels = 0;
  check_coarsen_case(make_stencil2d(12, 12, 7), 7, &levels);
  EXPECT_GE(levels, 4);
  check_coarsen_case(make_stencil3d(4, 4, 4, 7), 7, &levels);
  EXPECT_GE(levels, 3);
  check_coarsen_case(make_random_geometric(128, 0.2, 7), 7, &levels);
  EXPECT_GE(levels, 1);
  check_coarsen_case(make_power_law(128, 3, 7), 7, &levels);
  EXPECT_GE(levels, 1);
}

TEST(Properties, ProjectedPlacementScoresExactlyUnderIncremental) {
  // A coarse placement projected through coarse_of_fine must be a
  // valid placement of the real graph, and the incremental evaluator
  // seeded with it must agree with the full re-score to the unit.
  SplitMix64 seeder(kBaseSeed ^ 0xF1DE11ULL);
  for (int i = 0; i < 60; ++i) {
    SplitMix64 rng(seeder.next_u64());
    const TaskGraph graph = random_task_graph(rng);
    const Topology topo = random_topology(rng);
    const int n = graph.num_tasks();
    const CsrTaskGraph csr = CsrTaskGraph::from_task_graph(graph);
    const CoarsenResult step =
        coarsen_heavy_edge(csr, rng.next_u64(), std::max(1, n / 2));
    // Random coarse placement, projected to the fine tasks.
    std::vector<int> procs(static_cast<std::size_t>(n));
    std::vector<int> coarse_proc(
        static_cast<std::size_t>(step.coarse.num_vertices()));
    for (auto& p : coarse_proc) {
      p = static_cast<int>(rng.next_below(
          static_cast<std::uint64_t>(topo.num_procs())));
    }
    for (int v = 0; v < n; ++v) {
      procs[static_cast<std::size_t>(v)] = coarse_proc[static_cast<
          std::size_t>(step.coarse_of_fine[static_cast<std::size_t>(v)])];
      ASSERT_GE(procs[static_cast<std::size_t>(v)], 0);
      ASSERT_LT(procs[static_cast<std::size_t>(v)], topo.num_procs());
    }
    std::vector<PhaseRouting> routing(graph.comm_phases().size());
    for (std::size_t k = 0; k < graph.comm_phases().size(); ++k) {
      for (const CommEdge& e : graph.comm_phases()[k].edges) {
        routing[k].route_of_edge.push_back(greedy_shortest_route(
            topo, procs[static_cast<std::size_t>(e.src)],
            procs[static_cast<std::size_t>(e.dst)]));
      }
    }
    const std::int64_t full = completion_time(graph, procs, routing, topo);
    const IncrementalCompletion inc(graph, topo, procs, routing);
    EXPECT_EQ(inc.completion(), full);
    if (HasFatalFailure()) {
      return;
    }
  }
}

TEST(Properties, GeneratorIsDeterministic) {
  SplitMix64 a(kBaseSeed);
  SplitMix64 b(kBaseSeed);
  const TaskGraph ga = random_task_graph(a);
  const TaskGraph gb = random_task_graph(b);
  ASSERT_EQ(ga.num_tasks(), gb.num_tasks());
  ASSERT_EQ(ga.num_comm_edges(), gb.num_comm_edges());
  ASSERT_EQ(ga.total_volume(), gb.total_volume());
}

}  // namespace
}  // namespace oregami
