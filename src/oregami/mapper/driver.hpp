// The MAPPER driver: strategy selection per the paper's Fig 3.
//
//   1. Nameable task graphs -> canned contraction/embedding lookup
//      (LaRCS `family` hint first, structural recognition otherwise).
//   2. Regular structure:
//      a. uniform affine recurrences -> systolic synthesis (only via
//         map_program, which has the LaRCS AST);
//      b. node-symmetric / Cayley task graphs -> group-theoretic
//         contraction.
//   3. Arbitrary graphs -> MWM-Contract.
// Embedding: canned when the *cluster* graph is itself nameable, else
// NN-Embed. finish() checks the two layers, composes them into the
// placement the returned Mapping keeps, and routes it with MM-Route.
// The placement-only mappers (refinement, annealing, HEFT, the V-cycle,
// repair) hand over their placement as it is.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "oregami/arch/fault_model.hpp"
#include "oregami/arch/topology.hpp"
#include "oregami/core/mapping.hpp"
#include "oregami/core/recognize.hpp"
#include "oregami/core/task_graph.hpp"
#include "oregami/larcs/compiler.hpp"

namespace oregami {

struct PortfolioReport;  // mapper/portfolio.hpp

enum class MapStrategy {
  Canned,
  GroupTheoretic,
  Systolic,
  General,       ///< MWM-Contract + NN-Embed
  Anneal,        ///< simulated annealing over placements (portfolio only)
  ListSchedule,  ///< HEFT critical-path list scheduling (portfolio only)
  Multilevel,    ///< coarsen/map/refine V-cycle for large graphs
};

[[nodiscard]] std::string to_string(MapStrategy strategy);

struct MapperOptions {
  bool allow_canned = true;
  bool allow_group = true;
  bool allow_systolic = true;
  int load_bound_B = -1;  ///< MWM-Contract bound; < 0 = default
  /// Polish the general path's contraction with the KL/FM boundary
  /// refinement pass (see refine.hpp).
  bool refine = false;
  /// Polish the final placement of *any* strategy by hill climbing on
  /// the completion model itself (refine_placement in refine.hpp,
  /// powered by the incremental evaluator). Off by default: it may
  /// change outputs, and the portfolio's bit-determinism contract pins
  /// the default pipeline.
  bool refine_placement = false;
  /// Portfolio mode (mapper/portfolio.hpp): when > 0,
  /// map_computation/map_program run every admissible Fig-3 strategy
  /// plus this many seeded general-path variants concurrently and
  /// return the best-scoring mapping. The result is bit-deterministic
  /// in `portfolio_seed` and independent of `jobs`.
  int portfolio = 0;
  /// Portfolio-only extensions (both off by default so every golden
  /// portfolio output stays byte-identical): `anneal` > 0 adds that
  /// many seeded simulated-annealing candidates (mapper/anneal.hpp);
  /// `heft` adds the HEFT critical-path list-scheduling candidate
  /// (mapper/list_schedule.hpp). Both are ignored when portfolio == 0.
  int anneal = 0;
  bool heft = false;
  /// Multilevel V-cycle mapper (mapper/multilevel.hpp) for large
  /// graphs: 0 = off (default, keeping every existing output
  /// byte-identical), < 0 = on with automatic coarsening depth, > 0 =
  /// on with that many coarsening levels at most. When on it replaces
  /// the whole Fig-3 decision tree (and the portfolio); the degraded-
  /// mode redirect still composes — faults are applied first, then the
  /// V-cycle runs on the healthy sub-topology.
  int multilevel = 0;
  /// Wall-clock budget in milliseconds for the portfolio search
  /// (PortfolioOptions::time_budget_ms), the multilevel refinement
  /// sweeps and, as RepairOptions::remap_options, the whole repair
  /// ladder (support/deadline.hpp idiom: 0 = none, < 0 = already
  /// expired). The single-shot Fig-3 pipeline ignores it.
  std::int64_t time_budget_ms = 0;
  int jobs = 1;  ///< portfolio workers; 0 = hardware_concurrency
  /// Base seed of the portfolio's candidate RNG streams and of the
  /// multilevel V-cycle's coarsening shuffles and coarsest NN-Embed.
  std::uint64_t portfolio_seed = 0x09E6A311u;
  /// Degraded-mode mapping (not owned; must outlive the call). When set
  /// with a non-empty FaultSpec, map_computation/map_program run the
  /// whole pipeline on the compacted healthy sub-topology and translate
  /// the result back to base processor/link ids, so the returned
  /// mapping avoids every dead processor and link. nullptr (or an empty
  /// spec) leaves the pipeline byte-identical to the healthy path.
  const FaultedTopology* faults = nullptr;
};

struct MapperReport {
  MapStrategy strategy = MapStrategy::General;
  std::string details;  ///< human-readable algorithm description
  Mapping mapping;
};

/// Maps a task graph (no LaRCS context) to `topo`. The dispatch, in
/// order: the degraded-machine redirect (`faults`), the V-cycle
/// (`multilevel`), the portfolio (`portfolio`), then canned,
/// group-theoretic and the general path.
[[nodiscard]] MapperReport map_computation(
    const TaskGraph& graph, const Topology& topo,
    const MapperOptions& options = {});

/// Maps a compiled LaRCS program by the same dispatch, which here also
/// tries systolic synthesis for uniform recurrences onto an array-like
/// target and the `family` hint before canned. When the portfolio ran
/// and `portfolio_report` is given, the full report lands there; on a
/// degraded machine it describes the search on the healthy sub-machine
/// (FaultedTopology::healthy_subtopology() ids).
[[nodiscard]] MapperReport map_program(
    const larcs::Program& program, const larcs::CompiledProgram& compiled,
    const Topology& topo, const MapperOptions& options = {},
    PortfolioReport* portfolio_report = nullptr);

/// The option contract every front end enforces: ranges, then
/// combinations. Returns the first violation, naming each field as
/// `prefix` + its name ("options." for a daemon job, "--" for the
/// command line), or an empty string when `options` is valid.
[[nodiscard]] std::string option_violation(const MapperOptions& options,
                                           const std::string& prefix);

/// The Fig-3 strategies one at a time, without falling through to the
/// next (the portfolio runs each as its own candidate). Each returns
/// nullopt when inadmissible: canned when `family` has no entry for
/// `topo`, group-theoretic when no admissible subgroup contracts the
/// graph onto `topo`'s size, systolic unless a uniform recurrence fits
/// an array-like target.
[[nodiscard]] std::optional<MapperReport> try_canned(
    const TaskGraph& graph, const Topology& topo,
    const MapperOptions& options, const RecognizedFamily& family);
[[nodiscard]] std::optional<MapperReport> try_group(
    const TaskGraph& graph, const Topology& topo,
    const MapperOptions& options);
[[nodiscard]] std::optional<MapperReport> try_systolic(
    const larcs::Program& program, const larcs::CompiledProgram& compiled,
    const Topology& topo, const MapperOptions& options = {});

/// The general path (MWM-Contract [+ refine] + NN-Embed + MM-Route)
/// with an explicit NN-Embed tie-break seed; `nn_seed` = 0 keeps the
/// deterministic lowest-id rule (and the canned cluster-graph
/// shortcut), a non-zero seed forces seeded NN-Embed so each portfolio
/// candidate explores a different corner of the tie space.
[[nodiscard]] MapperReport map_general_seeded(const TaskGraph& graph,
                                              const Topology& topo,
                                              const MapperOptions& options,
                                              std::uint64_t nn_seed);

/// Embeds an arbitrary contraction: canned lookup when the cluster
/// graph is nameable, NN-Embed otherwise. Exposed for reuse by tools.
/// A non-zero `nn_seed` skips the canned shortcut and uses seeded
/// NN-Embed tie-breaking (see nn_embed.hpp).
[[nodiscard]] Embedding embed_clusters(const TaskGraph& graph,
                                       const Contraction& contraction,
                                       const Topology& topo,
                                       std::string* how = nullptr,
                                       std::uint64_t nn_seed = 0);

/// Builds the weighted cluster graph induced by a contraction
/// (inter-cluster aggregate communication).
[[nodiscard]] Graph cluster_graph_of(const TaskGraph& graph,
                                     const Contraction& contraction);

/// Full-mapping consistency check: the placement gives every task a
/// processor of `topo`, and every route is a valid walk from the source
/// task's processor to the destination task's processor. Throws
/// MappingError on the first violation.
void validate_mapping(const Mapping& mapping, const TaskGraph& graph,
                      const Topology& topo);

}  // namespace oregami
