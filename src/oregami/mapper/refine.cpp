#include "oregami/mapper/refine.hpp"

#include <algorithm>
#include <numeric>

#include "oregami/metrics/incremental.hpp"
#include "oregami/support/error.hpp"

namespace oregami {

namespace {

/// Weight from task t to cluster c under the current assignment.
std::int64_t weight_to_cluster(const Graph& g,
                               const std::vector<int>& assign, int t,
                               int c) {
  std::int64_t total = 0;
  for (const auto& a : g.neighbors(t)) {
    if (assign[static_cast<std::size_t>(a.neighbor)] == c) {
      total += a.weight;
    }
  }
  return total;
}

}  // namespace

RefineResult refine_contraction(const Graph& task_graph,
                                Contraction contraction, int load_bound_B) {
  const int n = task_graph.num_vertices();
  contraction.validate(n);
  OREGAMI_ASSERT(load_bound_B >= contraction.max_cluster_size(),
                 "load bound must admit the input contraction");

  RefineResult result;
  result.external_before =
      cut_weight(task_graph, contraction.cluster_of_task);

  auto& assign = contraction.cluster_of_task;
  std::vector<int> size = contraction.cluster_sizes();

  constexpr int kMaxPasses = 8;
  for (int pass = 0; pass < kMaxPasses; ++pass) {
    ++result.passes;
    bool improved = false;
    // One sweep applies every best-positive action it finds, task by
    // task (FM-flavoured: cheap, deterministic, monotone).
    for (int t = 0; t < n; ++t) {
      const int ct = assign[static_cast<std::size_t>(t)];
      const std::int64_t internal =
          weight_to_cluster(task_graph, assign, t, ct);

      // Move candidates: clusters of t's neighbours (moving anywhere
      // else can only lose weight).
      std::int64_t best_gain = 0;
      int best_cluster = -1;
      int best_swap = -1;
      for (const auto& a : task_graph.neighbors(t)) {
        const int cn = assign[static_cast<std::size_t>(a.neighbor)];
        if (cn == ct) {
          continue;
        }
        if (size[static_cast<std::size_t>(cn)] < load_bound_B &&
            size[static_cast<std::size_t>(ct)] > 1) {
          const std::int64_t gain =
              weight_to_cluster(task_graph, assign, t, cn) - internal;
          if (gain > best_gain) {
            best_gain = gain;
            best_cluster = cn;
            best_swap = -1;
          }
        }
      }
      // Swap candidates: any task of another cluster (KL gain formula;
      // restricting to neighbours would miss the classic 2-2 split
      // plateau where the profitable partner shares no edge with t).
      for (int u = 0; u < n; ++u) {
        const int cu = assign[static_cast<std::size_t>(u)];
        if (cu == ct) {
          continue;
        }
        const std::int64_t w_tu =
            task_graph.edge_weight(t, u).value_or(0);
        const std::int64_t d_t =
            weight_to_cluster(task_graph, assign, t, cu) - internal;
        const std::int64_t d_u =
            weight_to_cluster(task_graph, assign, u, ct) -
            weight_to_cluster(task_graph, assign, u, cu);
        const std::int64_t gain = d_t + d_u - 2 * w_tu;
        if (gain > best_gain) {
          best_gain = gain;
          best_cluster = cu;
          best_swap = u;
        }
      }

      if (best_gain <= 0) {
        continue;
      }
      improved = true;
      if (best_swap == -1) {
        --size[static_cast<std::size_t>(ct)];
        ++size[static_cast<std::size_t>(best_cluster)];
        assign[static_cast<std::size_t>(t)] = best_cluster;
        ++result.moves;
      } else {
        assign[static_cast<std::size_t>(t)] = best_cluster;
        assign[static_cast<std::size_t>(best_swap)] = ct;
        ++result.swaps;
      }
    }
    if (!improved) {
      break;
    }
  }

  result.external_after =
      cut_weight(task_graph, contraction.cluster_of_task);
  OREGAMI_ASSERT(result.external_after <= result.external_before,
                 "refinement must never worsen the contraction");
  contraction.validate(n);
  result.contraction = std::move(contraction);
  return result;
}

SweepResult greedy_sweep(IncrementalCompletion& inc,
                         const std::vector<int>& order,
                         const SweepCandidates& candidates, int load_bound,
                         int max_passes, const Deadline& deadline) {
  std::vector<int> load;
  if (load_bound > 0) {
    load.assign(static_cast<std::size_t>(inc.topology().num_procs()), 0);
    for (const int p : inc.proc_of_task()) {
      ++load[static_cast<std::size_t>(p)];
    }
  }
  SweepResult result;
  std::vector<int> listed;
  for (int pass = 0; pass < max_passes; ++pass) {
    if (deadline.passed()) {
      result.deadline_hit = true;
      break;
    }
    ++result.passes;
    bool moved = false;
    for (const int t : order) {
      if (deadline.passed()) {
        result.deadline_hit = true;
        break;
      }
      const int here = inc.proc_of_task()[static_cast<std::size_t>(t)];
      listed.clear();
      candidates(t, pass, listed);
      std::int64_t best_delta = 0;
      int best_proc = -1;
      for (const int q : listed) {
        if (q == here || (load_bound > 0 &&
                          load[static_cast<std::size_t>(q)] >= load_bound)) {
          continue;
        }
        const std::int64_t delta = inc.delta_move(t, q);
        ++result.probes;
        if (delta < best_delta) {
          best_delta = delta;
          best_proc = q;
        }
      }
      if (best_proc < 0) {
        continue;
      }
      inc.apply_move(t, best_proc);
      if (load_bound > 0) {
        --load[static_cast<std::size_t>(here)];
        ++load[static_cast<std::size_t>(best_proc)];
      }
      ++result.moves;
      moved = true;
    }
    if (result.deadline_hit || !moved) {
      break;
    }
  }
  return result;
}

PlacementRefineResult refine_placement(const TaskGraph& graph,
                                       const Topology& topo,
                                       std::vector<int> proc_of_task,
                                       std::vector<PhaseRouting> routing,
                                       int load_bound_B,
                                       std::vector<std::int64_t> link_factor) {
  const int n = graph.num_tasks();
  IncrementalCompletion inc(graph, topo, std::move(proc_of_task),
                            std::move(routing), std::move(link_factor));

  PlacementRefineResult result;
  result.completion_before = inc.completion();

  // Communication partners of each task under the static aggregate
  // (phase-independent, so computed once).
  std::vector<std::vector<int>> partners(static_cast<std::size_t>(n));
  for (const auto& phase : graph.comm_phases()) {
    for (const auto& e : phase.edges) {
      if (e.src != e.dst) {
        partners[static_cast<std::size_t>(e.src)].push_back(e.dst);
        partners[static_cast<std::size_t>(e.dst)].push_back(e.src);
      }
    }
  }
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  constexpr int kMaxPasses = 4;
  const SweepResult sweep = greedy_sweep(
      inc, order,
      [&](int t, int /*pass*/, std::vector<int>& out) {
        const int here = inc.proc_of_task()[static_cast<std::size_t>(t)];
        for (const auto& a : topo.graph().neighbors(here)) {
          out.push_back(a.neighbor);
        }
        for (const int u : partners[static_cast<std::size_t>(t)]) {
          out.push_back(inc.proc_of_task()[static_cast<std::size_t>(u)]);
        }
        std::sort(out.begin(), out.end());
        out.erase(std::unique(out.begin(), out.end()), out.end());
      },
      load_bound_B, kMaxPasses);
  result.moves = sweep.moves;
  result.passes = sweep.passes;

  result.completion_after = inc.completion();
  OREGAMI_ASSERT(result.completion_after <= result.completion_before,
                 "placement refinement must never worsen completion");
  result.mapping = std::move(inc).mapping();
  return result;
}

}  // namespace oregami
