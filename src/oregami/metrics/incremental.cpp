#include "oregami/metrics/incremental.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "oregami/arch/routes.hpp"
#include "oregami/support/error.hpp"
#include "oregami/support/trace.hpp"

namespace oregami {

namespace {
constexpr std::int64_t kNoSecond = std::numeric_limits<std::int64_t>::min();
constexpr CostModel kModel{};

std::int64_t cost_of(const ExecPhase& phase, int task) {
  // An empty cost vector means all-zero (TaskGraph contract).
  return phase.cost.empty()
             ? 0
             : phase.cost[static_cast<std::size_t>(task)];
}
}  // namespace

IncrementalCompletion::IncrementalCompletion(
    const TaskGraph& graph, const Topology& topo,
    std::vector<int> proc_of_task, std::vector<PhaseRouting> routing,
    std::vector<std::int64_t> link_factor)
    : graph_(graph),
      topo_(topo),
      proc_of_task_(std::move(proc_of_task)),
      routing_(std::move(routing)),
      link_factor_(std::move(link_factor)) {
  const int num_tasks = graph_.num_tasks();
  const int num_procs = topo_.num_procs();
  OREGAMI_ASSERT(static_cast<int>(proc_of_task_.size()) == num_tasks,
                 "placement must cover every task");
  OREGAMI_ASSERT(link_factor_.empty() ||
                     static_cast<int>(link_factor_.size()) ==
                         topo_.num_links(),
                 "link factors must cover every link");
  for (const std::int64_t f : link_factor_) {
    OREGAMI_ASSERT(f >= 1, "link factors must be >= 1");
  }
  OREGAMI_ASSERT(routing_.size() == graph_.comm_phases().size(),
                 "routing must cover every comm phase");
  for (const int p : proc_of_task_) {
    OREGAMI_ASSERT(p >= 0 && p < num_procs, "task placed off-topology");
  }

  comm_.resize(graph_.comm_phases().size());
  for (std::size_t k = 0; k < graph_.comm_phases().size(); ++k) {
    const auto& phase = graph_.comm_phases()[k];
    OREGAMI_ASSERT(routing_[k].route_of_edge.size() == phase.edges.size(),
                   "routing must cover the phase");
    auto& state = comm_[k];
    state.volume.assign(static_cast<std::size_t>(topo_.num_links()), 0);
    for (std::size_t i = 0; i < phase.edges.size(); ++i) {
      const auto& edge = phase.edges[i];
      OREGAMI_ASSERT(edge.volume >= 0, "negative comm volume");
      const auto& route = routing_[k].route_of_edge[i];
      for (const int link : route.links) {
        state.volume[static_cast<std::size_t>(link)] +=
            edge.volume * link_weight(link);
      }
      const int hb = hop_bucket(route.hops());
      if (static_cast<int>(state.hops_hist.size()) <= hb) {
        state.hops_hist.resize(static_cast<std::size_t>(hb) + 1, 0);
      }
      ++state.hops_hist[static_cast<std::size_t>(hb)];
    }
    rebuild_comm_maxima(state);
    comm_times_.push_back(kModel.comm_time(state.max_volume, state.max_hops));
  }

  // The incidence index: count each task's edge endpoints, turn the
  // counts into offsets, then fill in (phase, edge) order. Filling
  // advances incident_begin_[t] to the end of t's range, so a shift by
  // one restores the offsets.
  auto for_each_incidence = [this](auto&& visit) {
    for (std::size_t k = 0; k < graph_.comm_phases().size(); ++k) {
      const auto& edges = graph_.comm_phases()[k].edges;
      for (std::size_t i = 0; i < edges.size(); ++i) {
        const EdgeRef ref{static_cast<int>(k), static_cast<int>(i)};
        visit(static_cast<std::size_t>(edges[i].src), ref);
        if (edges[i].dst != edges[i].src) {
          visit(static_cast<std::size_t>(edges[i].dst), ref);
        }
      }
    }
  };
  incident_begin_.assign(static_cast<std::size_t>(num_tasks) + 1, 0);
  for_each_incidence(
      [this](std::size_t t, EdgeRef /*ref*/) { ++incident_begin_[t + 1]; });
  std::int64_t total = 0;
  for (std::int32_t& offset : incident_begin_) {
    total += offset;
    OREGAMI_ASSERT(total <= std::numeric_limits<std::int32_t>::max(),
                   "incidence index exceeds 2^31 entries");
    offset = static_cast<std::int32_t>(total);
  }
  incident_.resize(static_cast<std::size_t>(total));
  for_each_incidence([this](std::size_t t, EdgeRef ref) {
    incident_[static_cast<std::size_t>(incident_begin_[t]++)] = ref;
  });
  std::copy_backward(incident_begin_.begin(), incident_begin_.end() - 1,
                     incident_begin_.end());
  incident_begin_[0] = 0;

  exec_.resize(graph_.exec_phases().size());
  for (std::size_t k = 0; k < graph_.exec_phases().size(); ++k) {
    const auto& phase = graph_.exec_phases()[k];
    auto& state = exec_[k];
    state.load.assign(static_cast<std::size_t>(num_procs), 0);
    for (int t = 0; t < num_tasks; ++t) {
      const std::int64_t c = cost_of(phase, t);
      OREGAMI_ASSERT(c >= 0, "negative exec cost");
      state.load[static_cast<std::size_t>(
          proc_of_task_[static_cast<std::size_t>(t)])] += c;
    }
    rebuild_exec_tracker(state);
    exec_times_.push_back(state.max);
  }

  completion_ = compose_phase_times(graph_, comm_times_, exec_times_);
  link_delta_.assign(static_cast<std::size_t>(topo_.num_links()), 0);
}

IncrementalCompletion::IncrementalCompletion(
    const TaskGraph& graph, const Topology& topo, const Mapping& mapping,
    std::vector<std::int64_t> link_factor)
    : IncrementalCompletion(graph, topo, mapping.proc_of_task(),
                            mapping.routing, std::move(link_factor)) {}

CommPhaseSnapshot IncrementalCompletion::comm_snapshot(int phase) const {
  const auto& state = comm_[static_cast<std::size_t>(phase)];
  CommPhaseSnapshot snap;
  snap.max_volume = state.max_volume;
  snap.max_hops = state.max_hops;
  snap.hops_hist = state.hops_hist;
  for (const std::int64_t v : state.volume) {
    if (v > 0) {
      snap.total_volume += v;
      ++snap.used_links;
    }
  }
  return snap;
}

std::int64_t IncrementalCompletion::exec_max_load(int phase) const {
  return exec_[static_cast<std::size_t>(phase)].max;
}

void IncrementalCompletion::trace_phase_counters() const {
  if (!trace::enabled()) {
    return;
  }
  for (std::size_t k = 0; k < comm_.size(); ++k) {
    const std::string name = graph_.comm_phases()[k].name;
    const CommPhaseSnapshot snap = comm_snapshot(static_cast<int>(k));
    trace::counter(name + "/max_link_volume", snap.max_volume);
    trace::counter(name + "/total_volume", snap.total_volume);
    trace::counter(name + "/used_links", snap.used_links);
    trace::counter(name + "/max_hops", snap.max_hops);
    for (std::size_t h = 0; h < snap.hops_hist.size(); ++h) {
      if (snap.hops_hist[h] > 0) {
        trace::counter(name + "/hops=" + std::to_string(h),
                       snap.hops_hist[h]);
      }
    }
  }
  for (std::size_t k = 0; k < exec_.size(); ++k) {
    trace::counter(graph_.exec_phases()[k].name + "/max_load",
                   exec_[k].max);
  }
}

void IncrementalCompletion::rebuild_exec_tracker(ExecState& state) const {
  state.max = 0;
  state.count_at_max = 0;
  state.second = kNoSecond;
  for (const std::int64_t load : state.load) {
    if (load > state.max) {
      state.second = state.max;
      state.max = load;
      state.count_at_max = 1;
    } else if (load == state.max) {
      ++state.count_at_max;
    } else if (load > state.second) {
      state.second = load;
    }
  }
  // All-zero loads leave second at the sentinel; normalise so the
  // "unique max holder shrinks" branch can use it directly.
  if (state.second == kNoSecond) {
    state.second = 0;
  }
}

void IncrementalCompletion::rebuild_comm_maxima(CommState& state) const {
  state.max_volume =
      state.volume.empty()
          ? 0
          : *std::max_element(state.volume.begin(), state.volume.end());
  state.max_hops = 0;
  for (std::size_t h = state.hops_hist.size(); h-- > 0;) {
    if (state.hops_hist[h] > 0) {
      state.max_hops = static_cast<int>(h);
      break;
    }
  }
}

std::int64_t IncrementalCompletion::delta_move(int task, int to_proc) const {
  OREGAMI_ASSERT(task >= 0 && task < graph_.num_tasks(),
                 "task out of range");
  OREGAMI_ASSERT(to_proc >= 0 && to_proc < topo_.num_procs(),
                 "processor out of range");
  const int from = proc_of_task_[static_cast<std::size_t>(task)];
  if (from == to_proc) {
    return 0;
  }

  probe_exec_times_ = exec_times_;
  for (std::size_t k = 0; k < exec_.size(); ++k) {
    const std::int64_t c =
        cost_of(graph_.exec_phases()[k], task);
    if (c == 0) {
      continue;
    }
    const auto& state = exec_[k];
    const std::int64_t from_load =
        state.load[static_cast<std::size_t>(from)];
    // What remains after `from` gives up c: if `from` was the unique
    // max holder the runner-up takes over, otherwise the max stands.
    const std::int64_t base =
        (from_load == state.max && state.count_at_max == 1) ? state.second
                                                            : state.max;
    probe_exec_times_[k] =
        std::max({base, from_load - c,
                  state.load[static_cast<std::size_t>(to_proc)] + c});
  }

  probe_comm_times_ = comm_times_;
  const std::span<const EdgeRef> incident = this->incident(task);
  for (std::size_t start = 0; start < incident.size();) {
    const int k = incident[start].phase;
    std::size_t stop = start;
    while (stop < incident.size() && incident[stop].phase == k) {
      ++stop;
    }
    const auto& state = comm_[static_cast<std::size_t>(k)];
    const auto& phase = graph_.comm_phases()[static_cast<std::size_t>(k)];

    touched_links_.clear();
    hops_scratch_.assign(state.hops_hist.begin(), state.hops_hist.end());
    // touched_links_ may hold duplicates when a link's delta crosses
    // zero; harmless (reads and cleanup are idempotent).
    auto touch = [&](int link, std::int64_t delta) {
      auto& cell = link_delta_[static_cast<std::size_t>(link)];
      if (cell == 0) {
        touched_links_.push_back(link);
      }
      cell += delta;
    };
    for (std::size_t j = start; j < stop; ++j) {
      const int i = incident[j].edge;
      const auto& edge = phase.edges[static_cast<std::size_t>(i)];
      const auto& old_route =
          routing_[static_cast<std::size_t>(k)]
              .route_of_edge[static_cast<std::size_t>(i)];
      for (const int link : old_route.links) {
        touch(link, -edge.volume * link_weight(link));
      }
      --hops_scratch_[static_cast<std::size_t>(
          hop_bucket(old_route.hops()))];
      const int src_task = edge.src;
      const int dst_task = edge.dst;
      const int src =
          src_task == task
              ? to_proc
              : proc_of_task_[static_cast<std::size_t>(src_task)];
      const int dst =
          dst_task == task
              ? to_proc
              : proc_of_task_[static_cast<std::size_t>(dst_task)];
      // The route apply_move would store, walked without building it.
      const int new_hops = walk_greedy_route(topo_, src, dst, [&](int link) {
        touch(link, edge.volume * link_weight(link));
      });
      const int hb = hop_bucket(new_hops);
      if (static_cast<int>(hops_scratch_.size()) <= hb) {
        hops_scratch_.resize(static_cast<std::size_t>(hb) + 1, 0);
      }
      ++hops_scratch_[static_cast<std::size_t>(hb)];
    }

    int new_max_hops = 0;
    for (std::size_t h = hops_scratch_.size(); h-- > 0;) {
      if (hops_scratch_[h] > 0) {
        new_max_hops = static_cast<int>(h);
        break;
      }
    }

    // If some link currently at max_volume is untouched, the old max
    // still stands as a floor and only touched links can exceed it.
    // Otherwise (every max holder was touched) rescan the phase.
    bool max_holder_touched = false;
    for (const int link : touched_links_) {
      if (state.volume[static_cast<std::size_t>(link)] ==
          state.max_volume) {
        max_holder_touched = true;
        break;
      }
    }
    std::int64_t new_max_volume = 0;
    if (max_holder_touched) {
      // The move disturbed (at least) one bottleneck link, so the old
      // max no longer bounds the answer from below. Rescan: O(L), rare
      // in practice (only when the moving task's routes crossed the
      // bottleneck link).
      for (std::size_t l = 0; l < state.volume.size(); ++l) {
        new_max_volume =
            std::max(new_max_volume, state.volume[l] + link_delta_[l]);
      }
    } else {
      new_max_volume = state.max_volume;
      for (const int link : touched_links_) {
        new_max_volume = std::max(
            new_max_volume, state.volume[static_cast<std::size_t>(link)] +
                                link_delta_[static_cast<std::size_t>(link)]);
      }
    }

    for (const int link : touched_links_) {
      link_delta_[static_cast<std::size_t>(link)] = 0;
    }

    probe_comm_times_[static_cast<std::size_t>(k)] =
        kModel.comm_time(new_max_volume, new_max_hops);
    start = stop;
  }

  return compose_phase_times(graph_, probe_comm_times_, probe_exec_times_) -
         completion_;
}

void IncrementalCompletion::place_task(int task, int to_proc,
                                       const int* replaced) {
  const int from = proc_of_task_[static_cast<std::size_t>(task)];
  for (std::size_t k = 0; k < exec_.size(); ++k) {
    const std::int64_t c = cost_of(graph_.exec_phases()[k], task);
    if (c == 0) {
      continue;
    }
    auto& state = exec_[k];
    state.load[static_cast<std::size_t>(from)] -= c;
    state.load[static_cast<std::size_t>(to_proc)] += c;
    rebuild_exec_tracker(state);
    exec_times_[k] = state.max;
  }

  proc_of_task_[static_cast<std::size_t>(task)] = to_proc;

  const std::span<const EdgeRef> incident = this->incident(task);
  for (std::size_t j = 0; j < incident.size(); ++j) {
    const int k = incident[j].phase;
    const int i = incident[j].edge;
    auto& state = comm_[static_cast<std::size_t>(k)];
    const auto& edge = graph_.comm_phases()[static_cast<std::size_t>(k)]
                           .edges[static_cast<std::size_t>(i)];
    Route& slot = routing_[static_cast<std::size_t>(k)]
                      .route_of_edge[static_cast<std::size_t>(i)];
    for (const int link : slot.links) {
      state.volume[static_cast<std::size_t>(link)] -=
          edge.volume * link_weight(link);
    }
    --state.hops_hist[static_cast<std::size_t>(hop_bucket(slot.hops()))];
    if (replaced == nullptr) {
      const int src = proc_of_task_[static_cast<std::size_t>(edge.src)];
      const int dst = proc_of_task_[static_cast<std::size_t>(edge.dst)];
      slot.links.clear();
      walk_greedy_route(topo_, src, dst,
                        [&slot](int link) { slot.links.push_back(link); });
    } else {
      const int hops = *replaced++;
      slot.links.assign(replaced, replaced + hops);
      replaced += hops;
    }
    for (const int link : slot.links) {
      state.volume[static_cast<std::size_t>(link)] +=
          edge.volume * link_weight(link);
    }
    const int hb = hop_bucket(slot.hops());
    if (static_cast<int>(state.hops_hist.size()) <= hb) {
      state.hops_hist.resize(static_cast<std::size_t>(hb) + 1, 0);
    }
    ++state.hops_hist[static_cast<std::size_t>(hb)];
  }
  // Refresh the maxima of each affected phase exactly once.
  for (std::size_t j = 0; j < incident.size(); ++j) {
    if (j > 0 && incident[j].phase == incident[j - 1].phase) {
      continue;
    }
    auto& state = comm_[static_cast<std::size_t>(incident[j].phase)];
    rebuild_comm_maxima(state);
    comm_times_[static_cast<std::size_t>(incident[j].phase)] =
        kModel.comm_time(state.max_volume, state.max_hops);
  }

  completion_ = compose_phase_times(graph_, comm_times_, exec_times_);
}

std::int64_t IncrementalCompletion::apply_move(int task, int to_proc) {
  OREGAMI_ASSERT(task >= 0 && task < graph_.num_tasks(),
                 "task out of range");
  OREGAMI_ASSERT(to_proc >= 0 && to_proc < topo_.num_procs(),
                 "processor out of range");
  const int from = proc_of_task_[static_cast<std::size_t>(task)];
  if (from == to_proc) {
    return 0;
  }
  history_.push_back({task, from, undo_pool_.size(), completion_});
  for (const auto& ref : incident(task)) {
    const auto& links = routing_[static_cast<std::size_t>(ref.phase)]
                            .route_of_edge[static_cast<std::size_t>(ref.edge)]
                            .links;
    undo_pool_.push_back(static_cast<int>(links.size()));
    undo_pool_.insert(undo_pool_.end(), links.begin(), links.end());
  }
  place_task(task, to_proc, nullptr);
  return completion_ - history_.back().old_completion;
}

bool IncrementalCompletion::undo() {
  if (history_.empty()) {
    return false;
  }
  const UndoRecord rec = history_.back();
  history_.pop_back();
  place_task(rec.task, rec.from_proc, undo_pool_.data() + rec.pool_begin);
  undo_pool_.resize(rec.pool_begin);
  OREGAMI_ASSERT(completion_ == rec.old_completion,
                 "undo must restore the exact completion time");
  return true;
}

}  // namespace oregami
