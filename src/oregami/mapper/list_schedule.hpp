// HEFT-style critical-path list scheduling (Topcuoglu et al.'s
// Heterogeneous Earliest Finish Time, adapted to OREGAMI's homogeneous
// machines and phase-structured task graphs).
//
// Stage 1 -- upward ranks. Classic HEFT ranks a DAG task by
//   rank(t) = w(t) + max over successors s of (c(t, s) + rank(s))
// where w is the execution weight and c the communication weight.
// LaRCS task graphs are not DAGs (synchronous exchange phases create
// directed cycles), so ranks are computed on the strongly-connected-
// component condensation: an SCC is a macro-task whose weight is the
// sum of its members' execution weights plus its serialised internal
// communication, and every member task inherits the SCC's rank. On a
// DAG every SCC is a singleton and the definition collapses to classic
// HEFT exactly. Weights fold in the phase-expression multiplicities:
//   w(t)    = sum over exec phases  k of mult_k * cost_k[t]
//   c(u, v) = sum over comm phases k of mult_k * volume_k(u, v)
//             scaled by the default cost model (per-unit cost + one
//             nominal hop of latency; ranking is machine-independent).
//
// Stage 2 -- earliest-finish placement. Tasks are visited in
// descending rank (ties: descending execution weight, then ascending
// task id -- fully deterministic) and greedily placed on the processor
// minimising the modelled finish time: processor-ready time vs the
// arrival of data from every already-placed communication partner,
// charged per hop via the O(1) distance oracle. Ties break to the
// lowest processor id.
//
// The result is a bare placement; the portfolio candidate routes it
// with mm_route into a Mapping.
#pragma once

#include <cstdint>
#include <vector>

#include "oregami/metrics/completion_model.hpp"
#include "oregami/support/deadline.hpp"

namespace oregami {

struct ListScheduleResult {
  std::vector<int> proc_of_task;
  std::vector<std::int64_t> rank;    ///< upward rank per task
  std::vector<int> order;            ///< task ids in placement order
  std::vector<std::int64_t> finish;  ///< modelled finish time per task
  std::int64_t makespan = 0;  ///< max finish (the EFT objective; the
                              ///< portfolio still scores the completion
                              ///< model)
  int deadline_degraded = 0;  ///< tasks placed by the fallback rule
};

/// Upward rank of every task at the default costs (stage 1 alone,
/// exposed so tests can pin the rank order of the paper examples).
[[nodiscard]] std::vector<std::int64_t> heft_upward_ranks(
    const TaskGraph& graph);

/// Full HEFT-style placement of `graph` onto `topo`. A timed
/// `deadline` is checked between task placements; once it has passed,
/// every remaining task is placed by the cheap fallback rule
/// (least-ready processor, no communication scan), so a schedule is
/// always produced. An expired deadline (budget < 0) never reads the
/// clock: the whole placement deterministically uses the fallback rule.
[[nodiscard]] ListScheduleResult list_schedule(
    const TaskGraph& graph, const Topology& topo,
    const Deadline& deadline = Deadline(0));

}  // namespace oregami
