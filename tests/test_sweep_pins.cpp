// Exact-output pins for the three placement polishers that share the
// greedy sweep (mapper/refine.hpp): refine_placement, repair's migrate
// rung and the multilevel V-cycle's per-round commit. The other suites
// check validity and invariance across --jobs; these pin the placements
// themselves, as the FNV-1a of the serialised mapping plus each caller's
// reported counts, so a rewrite of the shared loop cannot drift. The
// driver's redirect onto a faulted machine is pinned the same way, and
// so is every entry point of the strategy dispatch over the catalog, the
// annealing chain and the phase-migration analysis.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <vector>

#include "mapping_text.hpp"
#include "oregami/arch/fault_model.hpp"
#include "oregami/arch/topology_spec.hpp"
#include "oregami/core/synthetic.hpp"
#include "oregami/larcs/compiler.hpp"
#include "oregami/larcs/parser.hpp"
#include "oregami/larcs/programs.hpp"
#include "oregami/mapper/anneal.hpp"
#include "oregami/mapper/driver.hpp"
#include "oregami/mapper/migration.hpp"
#include "oregami/mapper/multilevel.hpp"
#include "oregami/mapper/portfolio.hpp"
#include "oregami/mapper/refine.hpp"
#include "oregami/mapper/repair.hpp"
#include "oregami/support/error.hpp"
#include "oregami/support/hash.hpp"

namespace oregami {
namespace {

struct Compiled {
  larcs::Program ast;
  larcs::CompiledProgram cp;
};

Compiled compile_named(const std::string& name,
                       const std::map<std::string, long>& bindings) {
  const auto* entry = larcs::programs::find(name);
  EXPECT_NE(entry, nullptr) << name;
  larcs::Program ast = larcs::parse_program(entry->source);
  larcs::CompiledProgram cp = larcs::compile(ast, bindings);
  return {std::move(ast), std::move(cp)};
}

Compiled compile_example(const std::string& name) {
  const auto* entry = larcs::programs::find(name);
  EXPECT_NE(entry, nullptr) << name;
  return compile_named(name, {entry->example_bindings.begin(),
                              entry->example_bindings.end()});
}

std::uint64_t digest(const TaskGraph& graph, const Topology& topo,
                     const Mapping& mapping) {
  const std::string text = mapping_text(graph, topo, mapping);
  Fnv1a h;
  h.bytes(text.data(), text.size());
  return h.digest();
}

// ------------------------------------------------------ refine_placement

struct PlacementPin {
  std::uint64_t digest = 0;
  int moves = 0;
  int passes = 0;
};

/// Maps `name`'s example instance onto `spec` twice: once with
/// MapperOptions::refine_placement (the pinned mapping and its reported
/// move count), once plain and then polished by a direct
/// refine_placement call with the driver's bound (the pass count, and a
/// cross-check that both routes land on the same mapping).
PlacementPin pin_placement(const std::string& name, const std::string& spec,
                           int load_bound_B) {
  const Compiled c = compile_example(name);
  const Topology topo = parse_topology_spec(spec);
  MapperOptions plain;
  plain.load_bound_B = load_bound_B;
  MapperOptions polished = plain;
  polished.refine_placement = true;
  const MapperReport report = map_program(c.ast, c.cp, topo, polished);
  const MapperReport base = map_program(c.ast, c.cp, topo, plain);

  std::vector<int> load(static_cast<std::size_t>(topo.num_procs()), 0);
  for (const int p : base.mapping.proc_of_task()) {
    ++load[static_cast<std::size_t>(p)];
  }
  const int bound = load_bound_B > 0
                        ? load_bound_B
                        : *std::max_element(load.begin(), load.end());
  const PlacementRefineResult direct =
      refine_placement(c.cp.graph, topo, base.mapping.proc_of_task(),
                       base.mapping.routing, bound);
  EXPECT_EQ(digest(c.cp.graph, topo, direct.mapping),
            digest(c.cp.graph, topo, report.mapping));
  EXPECT_NE(report.details.find("(" + std::to_string(direct.moves) +
                                " moves)"),
            std::string::npos)
      << report.details;
  return {digest(c.cp.graph, topo, report.mapping), direct.moves,
          direct.passes};
}

TEST(RefinePlacementPins, MatmulOnMesh3x3) {
  const PlacementPin pin = pin_placement("matmul", "mesh:3x3", -1);
  EXPECT_EQ(pin.digest, 0x3c1ef73f65b4cc56ULL);
  EXPECT_EQ(pin.moves, 4);
  EXPECT_EQ(pin.passes, 2);
}

TEST(RefinePlacementPins, NbodyOnTorus4x4) {
  const PlacementPin pin = pin_placement("nbody", "torus:4x4", -1);
  EXPECT_EQ(pin.digest, 0x03f6be7d1473adb6ULL);
  EXPECT_EQ(pin.moves, 2);
  EXPECT_EQ(pin.passes, 3);
}

TEST(RefinePlacementPins, SorOnRing8WithExplicitLoadBound) {
  // Bound 12 admits moves the default bound (the largest cluster) bars.
  const PlacementPin pin = pin_placement("sor", "ring:8", 12);
  EXPECT_EQ(pin.digest, 0x243e008265bfb9eaULL);
  EXPECT_EQ(pin.moves, 2);
  EXPECT_EQ(pin.passes, 2);
}

// ------------------------------------------------------- repair_mapping

/// A mapper outcome and the digest of its mapping.
template <class Result>
struct Pinned {
  Result result;
  std::uint64_t digest = 0;
};

/// The jacobi example mapped onto the healthy `topology`, then
/// repaired onto the machine degraded by `faults`.
Pinned<RepairResult> repair_jacobi(const std::string& topology,
                                   const std::string& faults,
                                   const RepairOptions& options) {
  const Compiled c = compile_example("jacobi");
  const Topology topo = parse_topology_spec(topology);
  const MapperReport healthy = map_program(c.ast, c.cp, topo);
  const FaultedTopology ft(topo, FaultSpec::parse(faults, topo));
  RepairResult r = repair_mapping(c.cp.graph, ft, healthy.mapping, options);
  const std::uint64_t d = digest(c.cp.graph, topo, r.mapping);
  return {std::move(r), d};
}

std::string migrations_of(const RepairResult& result) {
  std::string text;
  for (const RepairMove& m : result.migrations) {
    text += std::to_string(m.task) + ":" + std::to_string(m.from_proc) +
            "->" + std::to_string(m.to_proc) + " ";
  }
  return text;
}

TEST(RepairPins, JacobiDeadProcessorAndLink) {
  const auto [r, mapping_digest] = repair_jacobi("mesh:4x4", "p5,l3", {});
  EXPECT_EQ(mapping_digest, 0xe3e79eb0d68138f7ULL);
  EXPECT_EQ(to_string(r.rung), "migrate");
  EXPECT_EQ(r.attempts, 2);
  EXPECT_EQ(migrations_of(r), "18:5->0 19:5->2 26:5->0 27:5->2 ");
  EXPECT_EQ(r.details, "migrated 4 task(s) in 2 attempt(s)");
  EXPECT_FALSE(r.deadline_hit);
}

TEST(RepairPins, JacobiWithSlowedLinkReachesRefineRung) {
  const auto [r, mapping_digest] = repair_jacobi("mesh:4x4", "p5,l3,s1:8", {});
  EXPECT_EQ(mapping_digest, 0x692bdf884749c6ceULL);
  EXPECT_EQ(to_string(r.rung), "refine");
  EXPECT_EQ(r.attempts, 4);
  EXPECT_EQ(migrations_of(r), "18:5->10 19:5->1 26:5->9 27:5->2 ");
  EXPECT_EQ(r.details,
            "migrated 4 task(s) in 4 attempt(s); refinement -150 completion "
            "(2 moves)");
  EXPECT_FALSE(r.deadline_hit);
}

TEST(RepairPins, JacobiWithExpiredBudget) {
  RepairOptions expired;
  expired.remap_options.time_budget_ms = -1;
  const auto [r, mapping_digest] = repair_jacobi("mesh:4x4", "p5,l3", expired);
  EXPECT_EQ(mapping_digest, 0x4c39523ee89f84abULL);
  EXPECT_EQ(to_string(r.rung), "migrate");
  EXPECT_EQ(r.attempts, 0);
  EXPECT_EQ(migrations_of(r), "18:5->1 19:5->1 26:5->1 27:5->1 ");
  EXPECT_EQ(r.details,
            "migrated 4 task(s) in 0 attempt(s); refinement skipped "
            "(deadline)");
  EXPECT_TRUE(r.deadline_hit);
}

TEST(RepairPins, JacobiOnSplitRingKeepsProcessorZerosHalf) {
  // The halves {1..8} and {9..15, 0} tie at 8 processors; the tie goes
  // to processor 0's half, so the 32 tasks on processors 1-8 move.
  const auto [r, mapping_digest] = repair_jacobi("ring:16", "l0,l8", {});
  EXPECT_EQ(mapping_digest, 0x4d948933bdde6663ULL);
  EXPECT_EQ(to_string(r.rung), "migrate");
  EXPECT_EQ(r.attempts, 1);
  EXPECT_EQ(migrations_of(r),
            "16:1->0 17:1->0 18:2->0 19:2->0 20:3->0 21:3->0 22:4->0 "
            "23:4->0 24:1->0 25:1->0 26:2->0 27:2->0 28:3->0 29:3->0 "
            "30:4->0 31:4->0 32:5->9 33:5->9 34:6->9 35:6->9 36:7->9 "
            "37:7->9 38:8->9 39:8->9 40:5->9 41:5->9 42:6->9 43:6->9 "
            "44:7->9 45:7->9 46:8->9 47:8->9 ");
  EXPECT_EQ(r.details, "migrated 32 task(s) in 1 attempt(s)");
  EXPECT_FALSE(r.deadline_hit);
}

TEST(RepairPins, JacobiWithAliveProcessorCutOff) {
  // Processor 0 stays alive but loses both of its links.
  const auto [r, mapping_digest] = repair_jacobi("mesh:4x4", "l0-1,l0-4", {});
  EXPECT_EQ(mapping_digest, 0x2e9626778b5048a3ULL);
  EXPECT_EQ(to_string(r.rung), "migrate");
  EXPECT_EQ(r.attempts, 2);
  EXPECT_EQ(migrations_of(r), "0:0->2 1:0->2 8:0->1 9:0->1 ");
  EXPECT_EQ(r.details, "migrated 4 task(s) in 2 attempt(s)");
  EXPECT_FALSE(r.deadline_hit);
}

// ------------------------------------------ map_program on a faulted machine

/// The jacobi example mapped straight onto `topology` degraded by
/// `faults` (the driver's redirect to the healthy sub-machine).
Pinned<MapperReport> degraded_jacobi(const std::string& topology,
                                     const std::string& faults) {
  const Compiled c = compile_example("jacobi");
  const Topology topo = parse_topology_spec(topology);
  const FaultedTopology ft(topo, FaultSpec::parse(faults, topo));
  MapperOptions options;
  options.faults = &ft;
  MapperReport report = map_program(c.ast, c.cp, topo, options);
  const std::uint64_t d = digest(c.cp.graph, topo, report.mapping);
  return {std::move(report), d};
}

TEST(DegradedMapPins, JacobiOnSplitRing) {
  const auto [report, mapping_digest] = degraded_jacobi("ring:16", "l0,l8");
  EXPECT_EQ(mapping_digest, 0xfea23e90f78b580bULL);
  EXPECT_EQ(report.details,
            "degraded machine (l0,l8; 8/16 processors healthy); greedy "
            "pre-merge + maximum-weight matching pairing (blossom), IPC = "
            "64; NN-Embed greedy placement");
}

TEST(DegradedMapPins, JacobiWithAliveProcessorCutOff) {
  const auto [report, mapping_digest] =
      degraded_jacobi("mesh:4x4", "l0-1,l0-4");
  EXPECT_EQ(mapping_digest, 0xff89dc3c61a5a955ULL);
  EXPECT_EQ(report.details,
            "degraded machine (l0,l1; 15/16 processors healthy); greedy "
            "pre-merge + maximum-weight matching pairing (blossom), IPC = "
            "92; NN-Embed greedy placement");
}

TEST(DegradedMapPins, JacobiDeadProcessorAndLink) {
  const auto [report, mapping_digest] = degraded_jacobi("mesh:4x4", "p5,l3");
  EXPECT_EQ(mapping_digest, 0x36e49319eb3eded5ULL);
  EXPECT_EQ(report.details,
            "degraded machine (p5,l3; 15/16 processors healthy); greedy "
            "pre-merge + maximum-weight matching pairing (blossom), IPC = "
            "92; NN-Embed greedy placement");
}

// ------------------------------------------------------- map_multilevel

/// The torus_stencil program at r=c=64 (4096 tasks) mapped onto `spec`
/// by the V-cycle with `options`.
Pinned<MapperReport> multilevel_stencil(const std::string& spec,
                                        const MapperOptions& options) {
  const Compiled c =
      compile_named("torus_stencil", {{"r", 64}, {"c", 64}, {"iters", 1}});
  const Topology topo = parse_topology_spec(spec);
  MapperReport report = map_multilevel(c.cp.graph, topo, options);
  const std::uint64_t d = digest(c.cp.graph, topo, report.mapping);
  return {std::move(report), d};
}

Pinned<MapperReport> multilevel_stencil(int max_levels) {
  MapperOptions options;
  options.multilevel = max_levels;
  return multilevel_stencil("torus:8x8", options);
}

TEST(MultilevelPins, TorusStencilAutoDepth) {
  const auto [report, mapping_digest] = multilevel_stencil(0);
  EXPECT_EQ(mapping_digest, 0x06588af03ec09863ULL);
  EXPECT_EQ(report.details,
            "multilevel V-cycle: 8 level(s), 4096 -> 64 super-tasks; coarsest "
            "map NN-Embed; 8 refining moves");
}

TEST(MultilevelPins, TorusStencilLevelCap) {
  const auto [report, mapping_digest] = multilevel_stencil(2);
  EXPECT_EQ(mapping_digest, 0xacec4ddbd233c6edULL);
  EXPECT_EQ(report.details,
            "multilevel V-cycle: 3 level(s), 4096 -> 1214 super-tasks; "
            "coarsest map round-robin; 191 refining moves");
}

// One row per distance oracle the V-cycle's route walks and proposals
// read: the torus rows above, and here the mesh, hypercube, ring,
// tree, butterfly and 3-D mesh closed forms.
TEST(MultilevelPins, TorusStencilOnMesh) {
  const auto [report, mapping_digest] = multilevel_stencil("mesh:8x8", {});
  EXPECT_EQ(mapping_digest, 0x572de9de25c1c43eULL);
  EXPECT_EQ(report.details,
            "multilevel V-cycle: 8 level(s), 4096 -> 64 super-tasks; coarsest "
            "map NN-Embed; 11 refining moves");
}

TEST(MultilevelPins, TorusStencilOnHypercube) {
  const auto [report, mapping_digest] =
      multilevel_stencil("hypercube:6", {});
  EXPECT_EQ(mapping_digest, 0xc0eebea6304d3ff9ULL);
  EXPECT_EQ(report.details,
            "multilevel V-cycle: 8 level(s), 4096 -> 64 super-tasks; coarsest "
            "map NN-Embed; 11 refining moves");
}

TEST(MultilevelPins, TorusStencilOnRing) {
  const auto [report, mapping_digest] = multilevel_stencil("ring:64", {});
  EXPECT_EQ(mapping_digest, 0x18a1de9fbb648f0dULL);
  EXPECT_EQ(report.details,
            "multilevel V-cycle: 8 level(s), 4096 -> 64 super-tasks; coarsest "
            "map NN-Embed; 14 refining moves");
}

TEST(MultilevelPins, TorusStencilOnTree) {
  const auto [report, mapping_digest] = multilevel_stencil("cbt:6", {});
  EXPECT_EQ(mapping_digest, 0x667ae99a2a79ca4fULL);
  EXPECT_EQ(report.details,
            "multilevel V-cycle: 8 level(s), 4096 -> 63 super-tasks; coarsest "
            "map NN-Embed; 29 refining moves");
}

TEST(MultilevelPins, TorusStencilOnButterfly) {
  const auto [report, mapping_digest] =
      multilevel_stencil("butterfly:4", {});
  EXPECT_EQ(mapping_digest, 0xd35a1615b5c94007ULL);
  EXPECT_EQ(report.details,
            "multilevel V-cycle: 8 level(s), 4096 -> 80 super-tasks; coarsest "
            "map NN-Embed; 15 refining moves");
}

TEST(MultilevelPins, TorusStencilOnMesh3D) {
  const auto [report, mapping_digest] =
      multilevel_stencil("mesh3d:4x4x4", {});
  EXPECT_EQ(mapping_digest, 0x16d66ca3aab2c548ULL);
  EXPECT_EQ(report.details,
            "multilevel V-cycle: 8 level(s), 4096 -> 64 super-tasks; coarsest "
            "map NN-Embed; 14 refining moves");
}

// The driver's redirect runs the V-cycle on the healthy sub-machine, a
// Custom topology, so its distances come from the BFS table.
TEST(MultilevelPins, TorusStencilDeadProcessor) {
  const Compiled c =
      compile_named("torus_stencil", {{"r", 64}, {"c", 64}, {"iters", 1}});
  const Topology topo = parse_topology_spec("torus:8x8");
  const FaultedTopology ft(topo, FaultSpec::parse("p9", topo));
  MapperOptions options;
  options.faults = &ft;
  options.multilevel = -1;
  const MapperReport report = map_program(c.ast, c.cp, topo, options);
  EXPECT_EQ(digest(c.cp.graph, topo, report.mapping), 0xd11947f68f76c2f2ULL);
  EXPECT_EQ(report.details,
            "degraded machine (p9; 63/64 processors healthy); multilevel "
            "V-cycle: 8 level(s), 4096 -> 63 super-tasks; coarsest map "
            "NN-Embed; 13 refining moves");
}

TEST(MultilevelPins, PowerLawTenThousand) {
  const TaskGraph graph = make_power_law(10000, 3, 0x317EULL);
  const Topology topo = parse_topology_spec("torus:8x8");
  const MapperReport report = map_multilevel(graph, topo);
  EXPECT_EQ(digest(graph, topo, report.mapping), 0x2a6cb3af50e991d5ULL);
  EXPECT_EQ(report.details,
            "multilevel V-cycle: 12 level(s), 10000 -> 64 super-tasks; "
            "coarsest map NN-Embed; 565 refining moves");
}

// ------------------------------------------------------ the map dispatch

/// Folds a mapper outcome: strategy, details, placement and the links
/// of every route.
void fold_report(Fnv1a& h, const MapperReport& report) {
  h.str(to_string(report.strategy));
  h.str(report.details);
  for (const int p : report.mapping.proc_of_task()) {
    h.i32(p);
  }
  for (const PhaseRouting& phase : report.mapping.routing) {
    for (const Route& route : phase.route_of_edge) {
      h.u64(route.links.size());
      for (const int link : route.links) {
        h.i32(link);
      }
    }
  }
}

/// One FNV-1a over the catalog programs at their example bindings, each
/// mapped by `map_one` onto every target of `specs` (five by default).
/// An infeasible map folds its error text instead.
template <class MapOne>
std::uint64_t fold_catalog(MapOne map_one,
                           std::initializer_list<const char*> specs = {
                               "mesh:4x4", "ring:16", "hypercube:4",
                               "torus:4x4", "cbt:4"}) {
  Fnv1a h;
  for (const auto& entry : larcs::programs::catalog()) {
    const Compiled c = compile_example(entry.name);
    for (const char* spec : specs) {
      const Topology topo = parse_topology_spec(spec);
      try {
        map_one(h, c, topo);
      } catch (const MappingError& e) {
        h.str(e.what());
      }
    }
  }
  return h.digest();
}

std::uint64_t pin_map_program(const MapperOptions& options) {
  return fold_catalog([&](Fnv1a& h, const Compiled& c, const Topology& topo) {
    fold_report(h, map_program(c.ast, c.cp, topo, options));
  });
}

std::uint64_t pin_map_computation(const MapperOptions& options) {
  return fold_catalog([&](Fnv1a& h, const Compiled& c, const Topology& topo) {
    fold_report(h, map_computation(c.cp.graph, topo, options));
  });
}

MapperOptions without_systolic() {
  MapperOptions options;
  options.allow_systolic = false;
  return options;
}

MapperOptions general_only() {
  MapperOptions options;
  options.allow_canned = false;
  options.allow_group = false;
  return options;
}

MapperOptions with_refine() {
  MapperOptions options;
  options.refine = true;
  return options;
}

/// Folds a portfolio search: its table, its Pareto front and the
/// winner's placement.
void fold_portfolio(Fnv1a& h, const PortfolioReport& report) {
  h.str(report.table());
  h.str(report.pareto());
  for (const int p : report.best.mapping.proc_of_task()) {
    h.i32(p);
  }
}

PortfolioOptions pinned_portfolio() {
  PortfolioOptions options;
  options.num_seeded = 4;
  options.heft = true;
  options.num_anneal = 1;
  return options;
}

TEST(DispatchPins, MapProgramDefaults) {
  EXPECT_EQ(pin_map_program({}), 0xe220839fac2eb7d2ULL);
}

TEST(DispatchPins, MapProgramWithoutSystolic) {
  EXPECT_EQ(pin_map_program(without_systolic()), 0xfc4b46ef368675c1ULL);
}

TEST(DispatchPins, MapProgramGeneralOnly) {
  EXPECT_EQ(pin_map_program(general_only()), 0x3525c94d00bf049dULL);
}

TEST(DispatchPins, MapProgramWithRefine) {
  EXPECT_EQ(pin_map_program(with_refine()), 0xa6614330d4ed5daaULL);
}

TEST(DispatchPins, MapComputationDefaults) {
  EXPECT_EQ(pin_map_computation({}), 0x45444bb2cb5c7754ULL);
}

TEST(DispatchPins, MapComputationWithoutSystolic) {
  EXPECT_EQ(pin_map_computation(without_systolic()), 0x45444bb2cb5c7754ULL);
}

TEST(DispatchPins, MapComputationGeneralOnly) {
  EXPECT_EQ(pin_map_computation(general_only()), 0x59b83448051d9220ULL);
}

TEST(DispatchPins, MapComputationWithRefine) {
  EXPECT_EQ(pin_map_computation(with_refine()), 0x71f1042ec30796e4ULL);
}

TEST(DispatchPins, PortfolioMapProgram) {
  const std::uint64_t pin =
      fold_catalog([](Fnv1a& h, const Compiled& c, const Topology& topo) {
        fold_portfolio(h, portfolio_map_program(c.ast, c.cp, topo, {},
                                                pinned_portfolio()));
      });
  EXPECT_EQ(pin, 0x5bbb03d377e2bd26ULL);
}

TEST(DispatchPins, PortfolioMapComputation) {
  const std::uint64_t pin =
      fold_catalog([](Fnv1a& h, const Compiled& c, const Topology& topo) {
        fold_portfolio(h, portfolio_map_computation(c.cp.graph, topo, {},
                                                    pinned_portfolio()));
      });
  EXPECT_EQ(pin, 0x8d84d52f55f02ea1ULL);
}

// ------------------------------------------------------- anneal_placement

TEST(AnnealPins, CatalogFromDefaultMaps) {
  // The chain's start temperature and cooling schedule at their
  // defaults, from each program's default mapping.
  const std::uint64_t pin = fold_catalog(
      [](Fnv1a& h, const Compiled& c, const Topology& topo) {
        const MapperReport report = map_program(c.ast, c.cp, topo);
        const AnnealResult r =
            anneal_placement(c.cp.graph, topo, report.mapping.proc_of_task(),
                             report.mapping.routing);
        for (const int p : r.mapping.proc_of_task()) {
          h.i32(p);
        }
        h.i32(r.proposed);
        h.i32(r.accepted);
        h.i32(r.uphill);
        h.i64(r.completion_before);
        h.i64(r.completion_after);
      },
      {"mesh:4x4", "torus:4x4", "hypercube:4"});
  EXPECT_EQ(pin, 0x23d7b4bcd8e92685ULL);
}

// ------------------------------------------------ evaluate_phase_migration

TEST(MigrationPins, CatalogPerPhaseMaps) {
  const std::uint64_t pin = fold_catalog(
      [](Fnv1a& h, const Compiled& c, const Topology& topo) {
        const MigrationReport r = evaluate_phase_migration(c.cp.graph, topo);
        h.i64(r.static_time);
        h.i64(r.migrating_time);
        h.i64(r.task_moves);
        h.i32(r.migrations);
        for (const std::vector<int>& placement : r.placement_per_comm_phase) {
          h.u64(placement.size());
          for (const int p : placement) {
            h.i32(p);
          }
        }
      },
      {"mesh:4x4", "ring:16", "hypercube:4"});
  EXPECT_EQ(pin, 0xb94abee90afebfdaULL);
}

}  // namespace
}  // namespace oregami
