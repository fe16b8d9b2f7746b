// Canonical content digests for mapping jobs: a job is addressed by
// the FNV-1a digest (support/hash.hpp) of its *compiled* inputs --
// (TaskGraph, Topology, normalized MapperOptions) -- so two requests
// that mean the same mapping problem share one cache entry no matter
// how they were spelled (built-in program vs. identical inline source,
// different --jobs values, reordered option fields).
//
// Canonicalization rules (DESIGN.md §"Service architecture"):
//   * the task graph is folded structurally: task names + label
//     tuples, comm phases as (name, edge list) in declaration order,
//     exec phases as (name, cost vector), the phase-expression tree,
//     and the node-symmetry declaration. Declaration order is part of
//     the identity: the compiler emits it deterministically.
//   * the topology is folded structurally (family, shape, P, L, and
//     for Custom the full normalized link list), NOT by its display
//     name.
//   * MapperOptions folds only fields that can change the produced
//     mapping: strategy gates, load bound, refinement toggles,
//     portfolio/anneal/heft/multilevel knobs, seeds, and budgets.
//     `jobs` is excluded (worker count never changes results -- the
//     portfolio determinism contract), and an attached FaultedTopology
//     folds its FaultSpec string.
//   * kDigestVersion is folded first, so changing any rule above can
//     never alias an old cache entry.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "oregami/arch/topology.hpp"
#include "oregami/core/task_graph.hpp"
#include "oregami/mapper/driver.hpp"
#include "oregami/support/hash.hpp"

namespace oregami::server {

/// Folds the task graph structurally into `h`.
void fold_task_graph(Fnv1a& h, const TaskGraph& graph);

/// Folds the topology structurally into `h`.
void fold_topology(Fnv1a& h, const Topology& topo);

/// Folds the result-affecting subset of MapperOptions into `h`.
void fold_options(Fnv1a& h, const MapperOptions& options);

/// The canonical job digest: version + graph + topology + options.
[[nodiscard]] std::uint64_t job_digest(const TaskGraph& graph,
                                       const Topology& topo,
                                       const MapperOptions& options);

/// A job's request key: its inputs as spelled, before compiling, for
/// the result cache's alias index (matched on the full bytes). Folds
/// the catalog `program` name, or `source` (the LaRCS text) when
/// `program` is empty; the bindings; the topology spec string; and the
/// options fold_options folds, so `jobs` is excluded here too.
[[nodiscard]] std::string request_key(
    std::string_view program, std::string_view source,
    const std::map<std::string, long>& bindings, std::string_view topology,
    const MapperOptions& options);

}  // namespace oregami::server
