// Degraded-mode mapping repair (the "re-refinement after failure" half
// of the fault-tolerance subsystem; see arch/fault_model.hpp for the
// fault model itself).
//
// When processors or links die under a running mapping, recomputing the
// whole mapping from scratch throws away all the placement work that is
// still valid. repair_mapping() instead climbs a graceful-degradation
// ladder. Every rung works on the healthy sub-machine
// (FaultedTopology::healthy_subtopology()) and translates its result
// back to base ids with map_to_base:
//
//   1. Migrate -- move ONLY the displaced tasks (those on dead or
//      disconnected processors) to nearby healthy processors, re-route
//      every communication edge on the healthy machine, then improve
//      the displaced tasks' placement with the shared greedy sweep
//      (refine.hpp): sweep k probes the healthy processors within 2^k
//      hops (1, 2, 4, 8): at most four sweeps, cut short by the
//      wall-clock deadline.
//   2. Refine -- polish the migrated placement with refine_placement on
//      the healthy machine, weighted by the slow-link factors.
//   3. Remap -- run the full MAPPER pipeline on the healthy machine.
//      Migrate always produces a mapping, so this rung runs only when
//      forced through the rung switches (allow_migrate false).
//
// Every rung scores the completion model at its default costs.
//
// Determinism: with `remap_options.time_budget_ms` <= 0 the outcome is
// a pure function of (graph, mapping, FaultSpec, options) -- no wall
// clock, no thread count. A positive budget only ever *truncates* the
// improvement schedule, and the truncation point is the sole
// nondeterminism.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "oregami/arch/fault_model.hpp"
#include "oregami/core/mapping.hpp"
#include "oregami/core/task_graph.hpp"
#include "oregami/mapper/driver.hpp"

namespace oregami {

/// Which ladder rung produced the repaired mapping.
enum class RepairRung {
  None,     ///< nothing to repair (empty FaultSpec)
  Migrate,  ///< in-place migration of displaced tasks only
  Refine,   ///< migration + placement refinement polish
  Remap,    ///< full remap on the healthy sub-topology
};

[[nodiscard]] std::string to_string(RepairRung rung);

struct RepairOptions {
  /// Rung switches (benchmarks force a single rung through these).
  bool allow_migrate = true;
  bool allow_refine = true;
  bool allow_remap = true;
  /// Mapper options for the remap rung (portfolio settings and seed
  /// included). Its `time_budget_ms` is also the whole ladder's hard
  /// wall-clock deadline: 0 = none (fully deterministic); < 0 = already
  /// expired (the migrate rung does the provisional placement +
  /// re-route but skips all improvement -- useful for deterministic
  /// deadline tests).
  MapperOptions remap_options;
};

/// One task relocation performed by the repair.
struct RepairMove {
  int task = 0;
  int from_proc = 0;  ///< base id (dead or disconnected)
  int to_proc = 0;    ///< base id (healthy)
};

struct RepairResult {
  /// The repaired mapping in BASE ids: every task on a healthy
  /// processor, every route avoiding dead links and processors.
  Mapping mapping;
  RepairRung rung = RepairRung::None;
  std::string details;
  /// Completion of the INPUT mapping on the healthy machine.
  std::int64_t healthy_completion = 0;
  /// Degraded completion of the repaired mapping (slow links charged).
  std::int64_t degraded_completion = 0;
  /// Tasks relocated off dead/disconnected processors (migrate rung),
  /// in ascending task order. Empty for the remap rung (everything may
  /// have moved; diff the mappings instead).
  std::vector<RepairMove> migrations;
  int attempts = 0;         ///< migrate improvement sweeps run
  bool deadline_hit = false;
};

/// Repairs `mapping` (valid on `faults.base()`) so it is valid on the
/// degraded machine. Throws MappingError when the healthy component is
/// empty or every admissible rung is disabled; never asserts or hangs
/// on any connectivity pattern.
[[nodiscard]] RepairResult repair_mapping(const TaskGraph& graph,
                                          const FaultedTopology& faults,
                                          const Mapping& mapping,
                                          const RepairOptions& options = {});

}  // namespace oregami
