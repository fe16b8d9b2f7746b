#include "oregami/mapper/list_schedule.hpp"

#include <algorithm>
#include <limits>
#include <tuple>
#include <utility>

#include "oregami/support/error.hpp"
#include "oregami/support/trace.hpp"

namespace oregami {

namespace {

constexpr std::int64_t kInfeasible =
    std::numeric_limits<std::int64_t>::max() / 4;

/// Ranks and finish times charge communication at the completion
/// model's default costs.
constexpr CostModel kModel{};

/// Directed mult-weighted communication volumes, aggregated over all
/// phases: parallel edges within and across phases merge, volumes sum.
struct CommVolumes {
  std::vector<std::vector<std::pair<int, std::int64_t>>> out;
  std::vector<std::vector<std::pair<int, std::int64_t>>> in;
};

CommVolumes weighted_volumes(const TaskGraph& graph) {
  const int n = graph.num_tasks();
  const std::vector<long> mult = graph.comm_phase_multiplicity();
  std::vector<std::tuple<int, int, std::int64_t>> triples;
  const auto& phases = graph.comm_phases();
  for (std::size_t k = 0; k < phases.size(); ++k) {
    const std::int64_t m = k < mult.size() ? mult[k] : 1;
    if (m <= 0) {
      continue;
    }
    for (const CommEdge& e : phases[k].edges) {
      if (e.src == e.dst) {
        continue;  // a task talking to itself never crosses the network
      }
      triples.emplace_back(e.src, e.dst, e.volume * m);
    }
  }
  std::sort(triples.begin(), triples.end());

  CommVolumes vols;
  vols.out.resize(static_cast<std::size_t>(n));
  vols.in.resize(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < triples.size();) {
    const int u = std::get<0>(triples[i]);
    const int v = std::get<1>(triples[i]);
    std::int64_t total = 0;
    for (; i < triples.size() && std::get<0>(triples[i]) == u &&
           std::get<1>(triples[i]) == v;
         ++i) {
      total += std::get<2>(triples[i]);
    }
    vols.out[static_cast<std::size_t>(u)].emplace_back(v, total);
    vols.in[static_cast<std::size_t>(v)].emplace_back(u, total);
  }
  return vols;
}

/// Iterative Kosaraju. Returns the SCC id of every task; ids are
/// assigned so that every cross-SCC edge u -> v has comp[u] < comp[v]
/// (the condensation is emitted in topological order), which is what
/// the rank recurrence below relies on.
std::vector<int> strongly_connected_components(const CommVolumes& vols,
                                               int n, int* num_comps) {
  std::vector<int> finish_order;
  finish_order.reserve(static_cast<std::size_t>(n));
  std::vector<char> seen(static_cast<std::size_t>(n), 0);
  std::vector<std::pair<int, std::size_t>> stack;
  for (int root = 0; root < n; ++root) {
    if (seen[static_cast<std::size_t>(root)]) {
      continue;
    }
    seen[static_cast<std::size_t>(root)] = 1;
    stack.emplace_back(root, 0);
    while (!stack.empty()) {
      auto& [u, next] = stack.back();
      const auto& edges = vols.out[static_cast<std::size_t>(u)];
      if (next < edges.size()) {
        const int v = edges[next].first;
        ++next;
        if (!seen[static_cast<std::size_t>(v)]) {
          seen[static_cast<std::size_t>(v)] = 1;
          stack.emplace_back(v, 0);
        }
      } else {
        finish_order.push_back(u);
        stack.pop_back();
      }
    }
  }

  std::vector<int> comp(static_cast<std::size_t>(n), -1);
  int comps = 0;
  for (auto it = finish_order.rbegin(); it != finish_order.rend(); ++it) {
    if (comp[static_cast<std::size_t>(*it)] >= 0) {
      continue;
    }
    const int id = comps++;
    std::vector<int> dfs{*it};
    comp[static_cast<std::size_t>(*it)] = id;
    while (!dfs.empty()) {
      const int u = dfs.back();
      dfs.pop_back();
      for (const auto& [v, vol] : vols.in[static_cast<std::size_t>(u)]) {
        (void)vol;
        if (comp[static_cast<std::size_t>(v)] < 0) {
          comp[static_cast<std::size_t>(v)] = id;
          dfs.push_back(v);
        }
      }
    }
  }
  *num_comps = comps;
  return comp;
}

}  // namespace

std::vector<std::int64_t> heft_upward_ranks(const TaskGraph& graph) {
  const int n = graph.num_tasks();
  std::vector<std::int64_t> rank(static_cast<std::size_t>(n), 0);
  if (n == 0) {
    return rank;
  }
  const CommVolumes vols = weighted_volumes(graph);
  const std::vector<std::int64_t> w = graph.exec_weights();
  // Ranking charges one nominal hop per message (machine-independent).
  const auto comm_cost = [](std::int64_t vol) {
    return kModel.comm_time(vol, 1);
  };

  int num_comps = 0;
  const std::vector<int> comp =
      strongly_connected_components(vols, n, &num_comps);

  // Macro-task weight of each SCC: member exec weights plus serialised
  // internal communication.
  std::vector<std::int64_t> base(static_cast<std::size_t>(num_comps), 0);
  for (int t = 0; t < n; ++t) {
    base[static_cast<std::size_t>(comp[static_cast<std::size_t>(t)])] +=
        w[static_cast<std::size_t>(t)];
  }
  for (int u = 0; u < n; ++u) {
    for (const auto& [v, vol] : vols.out[static_cast<std::size_t>(u)]) {
      if (comp[static_cast<std::size_t>(u)] ==
          comp[static_cast<std::size_t>(v)]) {
        base[static_cast<std::size_t>(comp[static_cast<std::size_t>(u)])] +=
            comm_cost(vol);
      }
    }
  }

  // Cross edges of the condensation, bucketed by source component.
  std::vector<std::vector<std::pair<int, std::int64_t>>> cross(
      static_cast<std::size_t>(num_comps));
  for (int u = 0; u < n; ++u) {
    for (const auto& [v, vol] : vols.out[static_cast<std::size_t>(u)]) {
      const int cu = comp[static_cast<std::size_t>(u)];
      const int cv = comp[static_cast<std::size_t>(v)];
      if (cu != cv) {
        OREGAMI_ASSERT(cu < cv, "condensation must be topological");
        cross[static_cast<std::size_t>(cu)].emplace_back(cv,
                                                         comm_cost(vol));
      }
    }
  }

  // Kosaraju emits the condensation topologically (cross edges go from
  // lower to higher id), so a high-to-low sweep sees every successor's
  // final rank before folding it in.
  std::vector<std::int64_t> comp_rank(base);
  for (int c = num_comps - 1; c >= 0; --c) {
    std::int64_t best_succ = 0;
    for (const auto& [cv, cost] : cross[static_cast<std::size_t>(c)]) {
      best_succ = std::max(best_succ,
                           cost + comp_rank[static_cast<std::size_t>(cv)]);
    }
    comp_rank[static_cast<std::size_t>(c)] += best_succ;
  }

  for (int t = 0; t < n; ++t) {
    rank[static_cast<std::size_t>(t)] =
        comp_rank[static_cast<std::size_t>(comp[static_cast<std::size_t>(t)])];
  }
  return rank;
}

ListScheduleResult list_schedule(const TaskGraph& graph, const Topology& topo,
                                 const Deadline& deadline) {
  const trace::Span span("list_schedule");
  const int n = graph.num_tasks();
  const int p = topo.num_procs();
  ListScheduleResult result;
  result.proc_of_task.assign(static_cast<std::size_t>(n), 0);
  result.finish.assign(static_cast<std::size_t>(n), 0);
  result.rank = heft_upward_ranks(graph);
  if (n == 0 || p == 0) {
    return result;
  }

  const std::vector<std::int64_t> w = graph.exec_weights();

  // Placement order: descending rank, ties descending exec weight,
  // then ascending id -- fully deterministic.
  result.order.resize(static_cast<std::size_t>(n));
  for (int t = 0; t < n; ++t) {
    result.order[static_cast<std::size_t>(t)] = t;
  }
  std::sort(result.order.begin(), result.order.end(), [&](int a, int b) {
    const auto ka = std::make_tuple(-result.rank[static_cast<std::size_t>(a)],
                                    -w[static_cast<std::size_t>(a)], a);
    const auto kb = std::make_tuple(-result.rank[static_cast<std::size_t>(b)],
                                    -w[static_cast<std::size_t>(b)], b);
    return ka < kb;
  });

  // Undirected partner volumes (a message in either direction must
  // arrive before the receiver's phase can fire).
  const CommVolumes vols = weighted_volumes(graph);
  std::vector<std::vector<std::pair<int, std::int64_t>>> partners(
      static_cast<std::size_t>(n));
  for (int u = 0; u < n; ++u) {
    for (const auto& [v, vol] : vols.out[static_cast<std::size_t>(u)]) {
      partners[static_cast<std::size_t>(u)].emplace_back(v, vol);
      partners[static_cast<std::size_t>(v)].emplace_back(u, vol);
    }
  }
  for (auto& list : partners) {
    std::sort(list.begin(), list.end());
    // Merge the two directions of an antiparallel pair.
    std::size_t out = 0;
    for (std::size_t i = 0; i < list.size();) {
      std::int64_t total = 0;
      const int v = list[i].first;
      for (; i < list.size() && list[i].first == v; ++i) {
        total += list[i].second;
      }
      list[out++] = {v, total};
    }
    list.resize(out);
  }

  bool degraded = !deadline.timed() && deadline.passed();
  std::vector<std::int64_t> proc_ready(static_cast<std::size_t>(p), 0);
  std::vector<char> placed(static_cast<std::size_t>(n), 0);

  for (const int t : result.order) {
    if (!degraded && deadline.passed()) {
      degraded = true;
      trace::instant("deadline_hit",
                     "falling back to least-ready placement");
    }

    int best_proc = 0;
    std::int64_t best_finish = kInfeasible;
    if (degraded) {
      // Fallback rule: least-ready processor, no communication scan.
      ++result.deadline_degraded;
      for (int q = 1; q < p; ++q) {
        if (proc_ready[static_cast<std::size_t>(q)] <
            proc_ready[static_cast<std::size_t>(best_proc)]) {
          best_proc = q;
        }
      }
      best_finish = proc_ready[static_cast<std::size_t>(best_proc)] +
                    w[static_cast<std::size_t>(t)];
    } else {
      for (int q = 0; q < p; ++q) {
        std::int64_t est = proc_ready[static_cast<std::size_t>(q)];
        for (const auto& [u, vol] : partners[static_cast<std::size_t>(t)]) {
          if (!placed[static_cast<std::size_t>(u)]) {
            continue;
          }
          const int src =
              result.proc_of_task[static_cast<std::size_t>(u)];
          std::int64_t comm = 0;
          if (src != q) {
            const int hops = topo.distance(src, q);
            if (hops < 0) {  // unreachable on a disconnected Custom
              est = kInfeasible;
              break;
            }
            comm = kModel.comm_time(vol, hops);
          }
          est = std::max(est,
                         result.finish[static_cast<std::size_t>(u)] + comm);
        }
        if (est >= kInfeasible) {
          continue;
        }
        const std::int64_t cand = est + w[static_cast<std::size_t>(t)];
        if (cand < best_finish) {
          best_finish = cand;
          best_proc = q;
        }
      }
      if (best_finish >= kInfeasible) {
        // Every processor is unreachable from some placed partner
        // (disconnected Custom topology): fall back to least-ready.
        for (int q = 1; q < p; ++q) {
          if (proc_ready[static_cast<std::size_t>(q)] <
              proc_ready[static_cast<std::size_t>(best_proc)]) {
            best_proc = q;
          }
        }
        best_finish = proc_ready[static_cast<std::size_t>(best_proc)] +
                      w[static_cast<std::size_t>(t)];
      }
    }

    result.proc_of_task[static_cast<std::size_t>(t)] = best_proc;
    result.finish[static_cast<std::size_t>(t)] = best_finish;
    proc_ready[static_cast<std::size_t>(best_proc)] = best_finish;
    placed[static_cast<std::size_t>(t)] = 1;
    result.makespan = std::max(result.makespan, best_finish);
  }

  trace::counter("makespan", result.makespan);
  trace::counter("deadline_degraded", result.deadline_degraded);
  return result;
}

}  // namespace oregami
