#include "oregami/mapper/repair.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <utility>

#include "oregami/mapper/baselines.hpp"
#include "oregami/mapper/driver.hpp"
#include "oregami/mapper/refine.hpp"
#include "oregami/metrics/incremental.hpp"
#include "oregami/support/deadline.hpp"
#include "oregami/support/error.hpp"
#include "oregami/support/trace.hpp"

namespace oregami {

std::string to_string(RepairRung rung) {
  switch (rung) {
    case RepairRung::None:
      return "none";
    case RepairRung::Migrate:
      return "migrate";
    case RepairRung::Refine:
      return "refine";
    case RepairRung::Remap:
      return "remap";
  }
  return "?";
}

namespace {

/// Nearest healthy processor to `from` by base-topology hop distance
/// (ties: lowest processor id; unreachable-in-base pairs sort last).
int nearest_healthy(const FaultedTopology& faults, int from) {
  return faults.base().with_oracle([&](const auto& dist) {
    int best = -1;
    long best_d = std::numeric_limits<long>::max();
    for (const int q : faults.healthy_procs()) {
      const int d = dist(from, q);
      const long key = d < 0 ? std::numeric_limits<long>::max() - 1 : d;
      if (key < best_d) {
        best_d = key;
        best = q;
      }
    }
    return best;
  });
}

}  // namespace

RepairResult repair_mapping(const TaskGraph& graph,
                            const FaultedTopology& faults,
                            const Mapping& mapping,
                            const RepairOptions& options) {
  const Topology& base = faults.base();
  const Deadline deadline(options.remap_options.time_budget_ms);
  const trace::Span span("repair");

  std::vector<int> proc = mapping.proc_of_task();
  if (static_cast<int>(proc.size()) != graph.num_tasks()) {
    throw MappingError("repair: mapping does not cover the task graph");
  }
  if (mapping.routing.size() != graph.comm_phases().size()) {
    throw MappingError("repair: routing does not cover the comm phases");
  }

  RepairResult result;
  result.healthy_completion =
      completion_time(graph, proc, mapping.routing, base);

  if (faults.spec().empty()) {
    result.mapping = mapping;
    result.rung = RepairRung::None;
    result.details = "no faults injected; mapping unchanged";
    result.degraded_completion = result.healthy_completion;
    return result;
  }

  if (faults.healthy_procs().empty()) {
    throw MappingError(
        "repair: no healthy processors remain (spec: " +
        faults.spec().to_string() + ")");
  }

  // Migrate and refine run on the healthy machine, in its ids.
  const FaultedTopology::HealthySub& sub = faults.healthy_subtopology();

  if (options.allow_migrate) {
    // --- Rung 1: migrate displaced tasks, re-route everything. ---
    const trace::Span rung_span("migrate");
    std::vector<int> displaced;
    for (int t = 0; t < graph.num_tasks(); ++t) {
      int& p = proc[static_cast<std::size_t>(t)];
      if (!faults.healthy(p)) {
        const int to = nearest_healthy(faults, p);
        result.migrations.push_back({t, p, to});
        displaced.push_back(t);
        p = to;
      }
      p = sub.from_base_proc[static_cast<std::size_t>(p)];
    }
    std::vector<PhaseRouting> routing =
        route_greedy_shortest(graph, proc, sub.topo);

    IncrementalCompletion inc(graph, sub.topo, std::move(proc),
                              std::move(routing), sub.link_factor);

    // Improve the displaced tasks only. Sweep k probes the processors
    // within 2^k hops of the task's current processor.
    constexpr int kMaxSweeps = 4;
    const SweepResult sweep = greedy_sweep(
        inc, displaced,
        [&](int t, int pass, std::vector<int>& out) {
          const int radius = 1 << pass;
          const int here = inc.proc_of_task()[static_cast<std::size_t>(t)];
          sub.topo.with_oracle([&](const auto& dist) {
            for (int q = 0; q < sub.topo.num_procs(); ++q) {
              if (dist(here, q) <= radius) {
                out.push_back(q);
              }
            }
          });
        },
        /*load_bound=*/0, kMaxSweeps, deadline);
    result.attempts = sweep.passes;
    result.deadline_hit = sweep.deadline_hit;
    // Record where each displaced task actually landed.
    for (RepairMove& move : result.migrations) {
      move.to_proc = sub.to_base_proc[static_cast<std::size_t>(
          inc.proc_of_task()[static_cast<std::size_t>(move.task)])];
    }

    result.rung = RepairRung::Migrate;
    result.details =
        "migrated " + std::to_string(result.migrations.size()) +
        " task(s) in " + std::to_string(result.attempts) + " attempt(s)";
    trace::counter("migrations",
                   static_cast<std::int64_t>(result.migrations.size()));
    trace::counter("attempts", result.attempts);
    if (result.deadline_hit) {
      trace::instant("deadline_hit", "migrate improvement loop");
    }

    Mapping repaired = std::move(inc).mapping();

    // --- Rung 2: local refinement polish. ---
    if (options.allow_refine && !deadline.passed()) {
      const trace::Span refine_span("refine");
      PlacementRefineResult refined = refine_placement(
          graph, sub.topo, repaired.proc_of_task(),
          std::move(repaired.routing), /*load_bound_B=*/0, sub.link_factor);
      if (refined.moves > 0) {
        result.rung = RepairRung::Refine;
        result.details += "; refinement -" +
                          std::to_string(refined.improvement()) +
                          " completion (" + std::to_string(refined.moves) +
                          " moves)";
      }
      trace::counter("refine_moves", refined.moves);
      trace::counter("refine_improvement", refined.improvement());
      repaired = std::move(refined.mapping);
    } else if (options.allow_refine) {
      result.deadline_hit = true;
      result.details += "; refinement skipped (deadline)";
      trace::instant("deadline_hit", "refine rung skipped");
    }

    result.mapping = map_to_base(sub, std::move(repaired));
  } else if (options.allow_remap) {
    // --- Rung 3: full remap on the healthy machine. ---
    const trace::Span rung_span("remap");
    MapperReport report =
        map_computation(graph, sub.topo, options.remap_options);
    result.mapping = map_to_base(sub, std::move(report.mapping));
    result.rung = RepairRung::Remap;
    result.details = "full remap on " +
                     std::to_string(sub.topo.num_procs()) +
                     " healthy processor(s): " + report.details;
  } else {
    throw MappingError(
        "repair: every admissible rung is disabled "
        "(allow_migrate and allow_remap are both false)");
  }

  validate_mapping(result.mapping, graph, base);
  result.degraded_completion = degraded_completion_time(
      graph, result.mapping.proc_of_task(), result.mapping.routing, faults);
  if (trace::enabled()) {
    trace::counter("healthy_completion", result.healthy_completion);
    trace::counter("degraded_completion", result.degraded_completion);
    trace::instant("rung", to_string(result.rung));
  }
  return result;
}

}  // namespace oregami
