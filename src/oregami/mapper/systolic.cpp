#include "oregami/mapper/systolic.hpp"

#include <algorithm>

#include "oregami/support/error.hpp"

namespace oregami {

long SystolicMapping::time_of(std::span<const long> point) const {
  OREGAMI_ASSERT(point.size() == schedule.size(),
                 "point dimensionality mismatch");
  long t = 0;
  for (std::size_t d = 0; d < point.size(); ++d) {
    // Offset so the schedule's minimum over the box is zero: positive
    // coefficients anchor at lo, negative ones at hi.
    const long anchor = schedule[d] >= 0 ? domain_lo[d] : domain_hi[d];
    t += schedule[d] * (point[d] - anchor);
  }
  return t;
}

std::optional<SystolicMapping> systolic_map(
    const larcs::Program& program,
    const larcs::CompiledProgram& compiled) {
  const auto analysis = larcs::analyze_affine(program, compiled.env);
  if (!analysis.systolic_applicable()) {
    return std::nullopt;
  }
  const auto deps = analysis.dependence_vectors();
  if (deps.empty()) {
    return std::nullopt;
  }
  const auto& layout = compiled.layouts.front();
  const auto dims = layout.lo.size();
  if (dims < 1 || dims > 3) {
    return std::nullopt;
  }
  std::vector<long> extent(dims);
  for (std::size_t d = 0; d < dims; ++d) {
    extent[d] = layout.hi[d] - layout.lo[d] + 1;
  }

  // Enumerate integer schedules with coefficients in [-3, 3].
  constexpr long kMaxCoeff = 3;
  std::vector<long> best;
  long best_makespan = 0;
  std::vector<long> lambda(dims, -kMaxCoeff);
  for (;;) {
    const bool feasible = std::all_of(
        deps.begin(), deps.end(), [&](const std::vector<long>& d) {
          long dot = 0;
          for (std::size_t i = 0; i < dims; ++i) {
            dot += lambda[i] * d[i];
          }
          return dot >= 1;
        });
    if (feasible) {
      long makespan = 1;
      for (std::size_t i = 0; i < dims; ++i) {
        makespan += std::abs(lambda[i]) * (extent[i] - 1);
      }
      if (best.empty() || makespan < best_makespan ||
          (makespan == best_makespan && lambda < best)) {
        best = lambda;
        best_makespan = makespan;
      }
    }
    // Next lambda.
    std::size_t d = 0;
    while (d < dims) {
      if (lambda[d] < kMaxCoeff) {
        ++lambda[d];
        break;
      }
      lambda[d] = -kMaxCoeff;
      ++d;
    }
    if (d == dims) {
      break;
    }
  }
  if (best.empty()) {
    return std::nullopt;
  }

  // Projection axis: lambda_j != 0 (so co-located points differ in
  // time), minimising the PE count; ties to the lowest axis.
  int best_axis = -1;
  long best_pes = 0;
  for (std::size_t j = 0; j < dims; ++j) {
    if (best[j] == 0) {
      continue;
    }
    long pes = 1;
    for (std::size_t i = 0; i < dims; ++i) {
      if (i != j) {
        pes *= extent[i];
      }
    }
    if (best_axis == -1 || pes < best_pes) {
      best_axis = static_cast<int>(j);
      best_pes = pes;
    }
  }
  OREGAMI_ASSERT(best_axis != -1,
                 "a feasible schedule has a nonzero coefficient");

  SystolicMapping out;
  out.schedule = best;
  out.projection_axis = best_axis;
  out.makespan = best_makespan;
  out.domain_lo = layout.lo;
  out.domain_hi = layout.hi;
  for (std::size_t i = 0; i < dims; ++i) {
    if (static_cast<int>(i) != best_axis) {
      out.pe_extent.push_back(extent[i]);
    }
  }

  // Contraction: PE id = row-major index over remaining axes.
  const auto& graph = compiled.graph;
  out.contraction.num_clusters = static_cast<int>(best_pes);
  out.contraction.cluster_of_task.resize(
      static_cast<std::size_t>(graph.num_tasks()));
  for (int t = 0; t < graph.num_tasks(); ++t) {
    const std::span<const long> label = graph.task_label(t);
    long pe = 0;
    for (std::size_t i = 0; i < dims; ++i) {
      if (static_cast<int>(i) == best_axis) {
        continue;
      }
      pe = pe * extent[i] + (label[i] - layout.lo[i]);
    }
    out.contraction.cluster_of_task[static_cast<std::size_t>(t)] =
        static_cast<int>(pe);
  }
  out.contraction.validate(graph.num_tasks());

  std::string sched = "(";
  for (std::size_t i = 0; i < dims; ++i) {
    if (i != 0) {
      sched += ",";
    }
    sched += std::to_string(best[i]);
  }
  sched += ")";
  out.description = "systolic schedule lambda = " + sched +
                    ", projection along axis " +
                    std::to_string(best_axis) + ", makespan " +
                    std::to_string(best_makespan) + ", " +
                    std::to_string(best_pes) + " PEs";
  return out;
}

}  // namespace oregami
