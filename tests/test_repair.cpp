// Degraded-mode repair tests, in two tiers:
//   * targeted ladder behaviour (migrate -> refine -> remap, deadlines,
//     disabled rungs, determinism);
//   * a generated safety suite (>= 200 random program x topology x
//     fault cases): repair either returns a valid mapping that places
//     every task on a healthy processor with routes avoiding every dead
//     link, or throws a clean MappingError -- never a crash, hang, or
//     OREGAMI_ASSERT abort.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "oregami/arch/fault_model.hpp"
#include "oregami/arch/topology_spec.hpp"
#include "oregami/mapper/driver.hpp"
#include "oregami/mapper/repair.hpp"
#include "oregami/metrics/completion_model.hpp"
#include "oregami/support/error.hpp"
#include "oregami/support/rng.hpp"

namespace oregami {
namespace {

/// A repaired mapping must avoid every dead processor and link.
void expect_avoids_faults(const Mapping& mapping, const TaskGraph& graph,
                          const FaultedTopology& ft,
                          const std::string& what) {
  validate_mapping(mapping, graph, ft.base());
  const auto procs = mapping.proc_of_task();
  for (std::size_t t = 0; t < procs.size(); ++t) {
    EXPECT_TRUE(ft.healthy(procs[t]))
        << what << ": task " << t << " on unhealthy proc " << procs[t];
  }
  for (const auto& phase : mapping.routing) {
    for (const auto& route : phase.route_of_edge) {
      EXPECT_TRUE(ft.route_alive(route))
          << what << ": route crosses a dead link/processor";
    }
  }
}

TaskGraph grid_graph(int rows, int cols) {
  TaskGraph g;
  for (int i = 0; i < rows * cols; ++i) {
    g.add_task("t" + std::to_string(i));
  }
  const int phase = g.add_comm_phase("halo");
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      const int id = r * cols + c;
      if (c + 1 < cols) {
        g.add_comm_edge(phase, id, id + 1, 2);
      }
      if (r + 1 < rows) {
        g.add_comm_edge(phase, id, id + cols, 2);
      }
    }
  }
  std::vector<std::int64_t> cost(
      static_cast<std::size_t>(rows * cols), 3);
  g.add_exec_phase("relax", std::move(cost));
  g.validate();
  return g;
}

TEST(Repair, EmptySpecIsIdentity) {
  const TaskGraph graph = grid_graph(4, 4);
  const Topology topo = Topology::mesh(4, 4);
  const auto report = map_computation(graph, topo);
  const FaultedTopology ft(topo, FaultSpec{});
  const RepairResult result = repair_mapping(graph, ft, report.mapping);
  EXPECT_EQ(result.rung, RepairRung::None);
  EXPECT_TRUE(result.migrations.empty());
  EXPECT_EQ(result.mapping.proc_of_task(), report.mapping.proc_of_task());
  EXPECT_EQ(result.healthy_completion, result.degraded_completion);
}

TEST(Repair, MigratesOnlyDisplacedTasks) {
  const TaskGraph graph = grid_graph(4, 4);
  const Topology topo = Topology::mesh(4, 4);
  const auto report = map_computation(graph, topo);
  const auto before = report.mapping.proc_of_task();
  // Kill one processor that actually hosts tasks.
  const int victim = before[0];
  const FaultedTopology ft(
      topo, FaultSpec::parse("p" + std::to_string(victim), topo));
  RepairOptions opts;
  opts.allow_refine = false;  // isolate the migrate rung
  const RepairResult result = repair_mapping(graph, ft, report.mapping, opts);
  EXPECT_EQ(result.rung, RepairRung::Migrate);
  expect_avoids_faults(result.mapping, graph, ft, "migrate");
  // Tasks that were not on the victim stayed put.
  const auto after = result.mapping.proc_of_task();
  std::set<int> moved;
  for (const RepairMove& m : result.migrations) {
    EXPECT_EQ(m.from_proc, victim);
    moved.insert(m.task);
  }
  for (std::size_t t = 0; t < before.size(); ++t) {
    if (before[t] != victim) {
      EXPECT_EQ(after[t], before[t]) << "undisplaced task " << t << " moved";
      EXPECT_EQ(moved.count(static_cast<int>(t)), 0u);
    } else {
      EXPECT_EQ(moved.count(static_cast<int>(t)), 1u);
    }
  }
}

TEST(Repair, RefineRungCanImproveOnMigration) {
  const TaskGraph graph = grid_graph(4, 4);
  const Topology topo = Topology::mesh(4, 4);
  const auto report = map_computation(graph, topo);
  const FaultedTopology ft(topo, FaultSpec::parse("p5,s0:6", topo));
  RepairOptions with_refine;
  RepairOptions without;
  without.allow_refine = false;
  const auto refined = repair_mapping(graph, ft, report.mapping, with_refine);
  const auto migrated = repair_mapping(graph, ft, report.mapping, without);
  expect_avoids_faults(refined.mapping, graph, ft, "refined");
  EXPECT_LE(refined.degraded_completion, migrated.degraded_completion);
}

TEST(Repair, FullRemapWhenMigrationDisabled) {
  const TaskGraph graph = grid_graph(4, 4);
  const Topology topo = Topology::mesh(4, 4);
  const auto report = map_computation(graph, topo);
  const FaultedTopology ft(topo, FaultSpec::parse("p3,p12", topo));
  RepairOptions opts;
  opts.allow_migrate = false;
  opts.allow_refine = false;
  const RepairResult result = repair_mapping(graph, ft, report.mapping, opts);
  EXPECT_EQ(result.rung, RepairRung::Remap);
  expect_avoids_faults(result.mapping, graph, ft, "remap");
}

TEST(Repair, AllRungsDisabledThrows) {
  const TaskGraph graph = grid_graph(2, 2);
  const Topology topo = Topology::mesh(2, 2);
  const auto report = map_computation(graph, topo);
  const FaultedTopology ft(topo, FaultSpec::parse("p0", topo));
  RepairOptions opts;
  opts.allow_migrate = false;
  opts.allow_refine = false;
  opts.allow_remap = false;
  EXPECT_THROW((void)repair_mapping(graph, ft, report.mapping, opts),
               MappingError);
}

TEST(Repair, NoHealthyProcessorsThrowsCleanly) {
  const TaskGraph graph = grid_graph(2, 2);
  const Topology topo = Topology::mesh(2, 2);
  const auto report = map_computation(graph, topo);
  const FaultedTopology ft(topo, FaultSpec::parse("p0,p1,p2,p3", topo));
  EXPECT_THROW((void)repair_mapping(graph, ft, report.mapping),
               MappingError);
}

TEST(Repair, ExpiredDeadlineStillProducesValidMapping) {
  const TaskGraph graph = grid_graph(4, 4);
  const Topology topo = Topology::mesh(4, 4);
  const auto report = map_computation(graph, topo);
  const FaultedTopology ft(topo, FaultSpec::parse("p5,p6", topo));
  RepairOptions opts;
  opts.remap_options.time_budget_ms = -1;  // already expired, deterministically
  const RepairResult result = repair_mapping(graph, ft, report.mapping, opts);
  EXPECT_TRUE(result.deadline_hit);
  expect_avoids_faults(result.mapping, graph, ft, "deadline");
}

TEST(Repair, DeterministicAcrossRuns) {
  const TaskGraph graph = grid_graph(4, 4);
  const Topology topo = Topology::mesh(4, 4);
  const auto report = map_computation(graph, topo);
  const FaultedTopology ft(topo, FaultSpec::parse("p5,l2,s7:3", topo));
  const RepairResult a = repair_mapping(graph, ft, report.mapping);
  const RepairResult b = repair_mapping(graph, ft, report.mapping);
  EXPECT_EQ(a.mapping.proc_of_task(), b.mapping.proc_of_task());
  EXPECT_EQ(a.degraded_completion, b.degraded_completion);
  EXPECT_EQ(a.details, b.details);
  ASSERT_EQ(a.migrations.size(), b.migrations.size());
  for (std::size_t i = 0; i < a.migrations.size(); ++i) {
    EXPECT_EQ(a.migrations[i].task, b.migrations[i].task);
    EXPECT_EQ(a.migrations[i].to_proc, b.migrations[i].to_proc);
  }
}

TEST(Repair, IndependentOfRemapWorkerCount) {
  // The remap rung runs the portfolio on the healthy sub-machine; its
  // determinism contract says worker count never changes the result.
  const TaskGraph graph = grid_graph(4, 4);
  const Topology topo = Topology::mesh(4, 4);
  const auto report = map_computation(graph, topo);
  const FaultedTopology ft(topo, FaultSpec::parse("p1,p14", topo));
  RepairOptions opts;
  opts.allow_migrate = false;
  opts.allow_refine = false;
  opts.remap_options.portfolio = 4;
  opts.remap_options.jobs = 1;
  const RepairResult serial = repair_mapping(graph, ft, report.mapping, opts);
  opts.remap_options.jobs = 5;
  const RepairResult wide = repair_mapping(graph, ft, report.mapping, opts);
  EXPECT_EQ(serial.mapping.proc_of_task(), wide.mapping.proc_of_task());
  EXPECT_EQ(serial.degraded_completion, wide.degraded_completion);
}

TEST(Repair, DegradedMappingThroughMapperOptions) {
  // MapperOptions::faults maps straight onto the healthy sub-machine.
  const TaskGraph graph = grid_graph(4, 4);
  const Topology topo = Topology::mesh(4, 4);
  const FaultedTopology ft(topo, FaultSpec::parse("p0,p15,l5", topo));
  MapperOptions opts;
  opts.faults = &ft;
  const auto report = map_computation(graph, topo, opts);
  expect_avoids_faults(report.mapping, graph, ft, "driver degraded");
  EXPECT_NE(report.details.find("degraded machine"), std::string::npos);
}

// ---------------------------------------------------------------------
// Generated safety suite: >= 200 random cases.
// ---------------------------------------------------------------------

Topology random_topology(SplitMix64& rng) {
  switch (rng.next_below(6)) {
    case 0:
      return parse_topology_spec("ring:" +
                                 std::to_string(rng.next_in(4, 10)));
    case 1:
      return parse_topology_spec("chain:" +
                                 std::to_string(rng.next_in(3, 10)));
    case 2:
      return parse_topology_spec("mesh:" + std::to_string(rng.next_in(2, 4)) +
                                 "x" + std::to_string(rng.next_in(2, 4)));
    case 3:
      return parse_topology_spec("torus:" + std::to_string(rng.next_in(3, 4)) +
                                 "x" + std::to_string(rng.next_in(3, 4)));
    case 4:
      return parse_topology_spec("hypercube:" +
                                 std::to_string(rng.next_in(2, 4)));
    default:
      return parse_topology_spec("cbt:" + std::to_string(rng.next_in(2, 4)));
  }
}

TaskGraph random_task_graph(SplitMix64& rng) {
  TaskGraph g;
  const int n = static_cast<int>(rng.next_in(2, 20));
  for (int i = 0; i < n; ++i) {
    g.add_task("t" + std::to_string(i));
  }
  const int phases = static_cast<int>(rng.next_in(1, 2));
  for (int k = 0; k < phases; ++k) {
    const int phase = g.add_comm_phase("c" + std::to_string(k));
    const int edges = static_cast<int>(rng.next_below(
        static_cast<std::uint64_t>(2 * n)));
    for (int e = 0; e < edges; ++e) {
      const int u =
          static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
      int v = static_cast<int>(rng.next_below(
          static_cast<std::uint64_t>(n)));
      if (u == v) {
        v = (v + 1) % n;
      }
      if (u != v) {
        g.add_comm_edge(phase, u, v, rng.next_in(1, 8));
      }
    }
  }
  if (rng.next_below(2) == 0) {
    std::vector<std::int64_t> cost(static_cast<std::size_t>(n));
    for (auto& c : cost) {
      c = rng.next_in(0, 9);
    }
    g.add_exec_phase("x", std::move(cost));
  }
  g.validate();
  return g;
}

TEST(RepairSafety, TwoHundredRandomCasesNeverCrash) {
  constexpr int kCases = 220;
  SplitMix64 rng(0xC0FFEE5AFE7Eull);
  int repaired = 0;
  int infeasible = 0;
  for (int i = 0; i < kCases; ++i) {
    const Topology topo = random_topology(rng);
    const TaskGraph graph = random_task_graph(rng);
    const FaultSpec spec = FaultSpec::random_spec(
        topo, static_cast<int>(rng.next_in(0, topo.num_procs() / 2)),
        static_cast<int>(rng.next_in(0, 3)),
        static_cast<int>(rng.next_in(0, 3)), rng.next_u64());
    const FaultedTopology ft(topo, spec);
    const std::string what =
        "case " + std::to_string(i) + " topo " + topo.name() + " spec '" +
        spec.to_string() + "'";
    try {
      const auto report = map_computation(graph, topo);
      const RepairResult result =
          repair_mapping(graph, ft, report.mapping);
      expect_avoids_faults(result.mapping, graph, ft, what);
      // The reported degraded completion matches an independent
      // recomputation through the metrics layer.
      EXPECT_EQ(result.degraded_completion,
                degraded_completion_time(graph,
                                         result.mapping.proc_of_task(),
                                         result.mapping.routing, ft))
          << what;
      ++repaired;
    } catch (const MappingError&) {
      ++infeasible;  // clean refusal is an acceptable outcome
    }
  }
  EXPECT_EQ(repaired + infeasible, kCases);
  // The suite must actually exercise the repair path, not refuse
  // everything.
  EXPECT_GT(repaired, kCases / 2);
}

}  // namespace
}  // namespace oregami
