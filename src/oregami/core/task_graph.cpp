#include "oregami/core/task_graph.hpp"

#include <algorithm>

#include "oregami/support/error.hpp"

namespace oregami {

std::int64_t CommPhase::total_volume() const {
  std::int64_t sum = 0;
  for (const auto& e : edges) {
    sum += e.volume;
  }
  return sum;
}

PhaseTree PhaseTree::idle() { return {}; }

PhaseTree PhaseTree::comm(int phase_index) {
  PhaseTree t;
  t.kind = Kind::Comm;
  t.phase_index = phase_index;
  return t;
}

PhaseTree PhaseTree::exec(int phase_index) {
  PhaseTree t;
  t.kind = Kind::Exec;
  t.phase_index = phase_index;
  return t;
}

PhaseTree PhaseTree::seq(std::vector<PhaseTree> parts) {
  PhaseTree t;
  t.kind = Kind::Seq;
  t.children = std::move(parts);
  return t;
}

PhaseTree PhaseTree::par(std::vector<PhaseTree> parts) {
  PhaseTree t;
  t.kind = Kind::Par;
  t.children = std::move(parts);
  return t;
}

PhaseTree PhaseTree::repeat(PhaseTree body, long count) {
  OREGAMI_ASSERT(count >= 0, "repeat count must be non-negative");
  PhaseTree t;
  t.kind = Kind::Repeat;
  t.count = count;
  t.children.push_back(std::move(body));
  return t;
}

std::string PhaseTree::to_string(
    const std::vector<CommPhase>& comm_phases,
    const std::vector<ExecPhase>& exec_phases) const {
  switch (kind) {
    case Kind::Idle:
      return "eps";
    case Kind::Comm:
      return comm_phases[static_cast<std::size_t>(phase_index)].name;
    case Kind::Exec:
      return exec_phases[static_cast<std::size_t>(phase_index)].name;
    case Kind::Seq: {
      std::string out = "(";
      for (std::size_t i = 0; i < children.size(); ++i) {
        if (i != 0) {
          out += "; ";
        }
        out += children[i].to_string(comm_phases, exec_phases);
      }
      return out + ")";
    }
    case Kind::Par: {
      std::string out = "(";
      for (std::size_t i = 0; i < children.size(); ++i) {
        if (i != 0) {
          out += " || ";
        }
        out += children[i].to_string(comm_phases, exec_phases);
      }
      return out + ")";
    }
    case Kind::Repeat:
      return children.front().to_string(comm_phases, exec_phases) + "^" +
             std::to_string(count);
  }
  return "?";
}

int TaskGraph::add_task(std::string name, std::span<const long> label) {
  task_names_.push_back(std::move(name));
  label_values_.insert(label_values_.end(), label.begin(), label.end());
  label_end_.push_back(label_values_.size());
  return num_tasks() - 1;
}

int TaskGraph::add_comm_phase(std::string name) {
  comm_phases_.push_back({std::move(name), {}});
  return static_cast<int>(comm_phases_.size()) - 1;
}

void TaskGraph::reserve_comm_edges(int phase, std::size_t more) {
  OREGAMI_ASSERT(phase >= 0 &&
                     phase < static_cast<int>(comm_phases_.size()),
                 "comm phase index out of range");
  auto& edges = comm_phases_[static_cast<std::size_t>(phase)].edges;
  if (edges.capacity() - edges.size() < more) {
    edges.reserve(std::max(edges.size() + more, 2 * edges.capacity()));
  }
}

void TaskGraph::add_comm_edge(int phase, int src, int dst,
                              std::int64_t volume) {
  OREGAMI_ASSERT(phase >= 0 &&
                     phase < static_cast<int>(comm_phases_.size()),
                 "comm phase index out of range");
  OREGAMI_ASSERT(src >= 0 && src < num_tasks(), "edge src out of range");
  OREGAMI_ASSERT(dst >= 0 && dst < num_tasks(), "edge dst out of range");
  comm_phases_[static_cast<std::size_t>(phase)].edges.push_back(
      {src, dst, volume});
}

int TaskGraph::add_exec_phase(std::string name,
                              std::vector<std::int64_t> cost) {
  if (cost.empty()) {
    cost.assign(static_cast<std::size_t>(num_tasks()), 0);
  }
  if (cost.size() != static_cast<std::size_t>(num_tasks())) {
    throw MappingError("exec phase '" + name +
                       "' cost vector must cover every task");
  }
  exec_phases_.push_back({std::move(name), std::move(cost)});
  return static_cast<int>(exec_phases_.size()) - 1;
}

const std::string& TaskGraph::task_name(int t) const {
  OREGAMI_ASSERT(t >= 0 && t < num_tasks(), "task id out of range");
  return task_names_[static_cast<std::size_t>(t)];
}

std::span<const long> TaskGraph::task_label(int t) const {
  OREGAMI_ASSERT(t >= 0 && t < num_tasks(), "task id out of range");
  const auto index = static_cast<std::size_t>(t);
  const std::size_t begin = index == 0 ? 0 : label_end_[index - 1];
  return std::span(label_values_).subspan(begin, label_end_[index] - begin);
}

int TaskGraph::num_comm_edges() const {
  int count = 0;
  for (const auto& phase : comm_phases_) {
    count += static_cast<int>(phase.edges.size());
  }
  return count;
}

std::int64_t TaskGraph::total_volume() const {
  std::int64_t sum = 0;
  for (const auto& phase : comm_phases_) {
    sum += phase.total_volume();
  }
  return sum;
}

Graph TaskGraph::aggregate_graph() const {
  Graph g(num_tasks());
  for (const auto& phase : comm_phases_) {
    for (const auto& e : phase.edges) {
      if (e.src != e.dst) {
        g.add_edge(e.src, e.dst, e.volume);
      }
    }
  }
  return g;
}

namespace {

void accumulate_multiplicity(const PhaseTree& node, long factor,
                             std::vector<long>& comm,
                             std::vector<long>& exec) {
  switch (node.kind) {
    case PhaseTree::Kind::Idle:
      return;
    case PhaseTree::Kind::Comm:
      comm[static_cast<std::size_t>(node.phase_index)] += factor;
      return;
    case PhaseTree::Kind::Exec:
      exec[static_cast<std::size_t>(node.phase_index)] += factor;
      return;
    case PhaseTree::Kind::Seq:
    case PhaseTree::Kind::Par:
      for (const auto& child : node.children) {
        accumulate_multiplicity(child, factor, comm, exec);
      }
      return;
    case PhaseTree::Kind::Repeat:
      accumulate_multiplicity(node.children.front(), factor * node.count,
                              comm, exec);
      return;
  }
}

}  // namespace

std::vector<long> TaskGraph::comm_phase_multiplicity() const {
  std::vector<long> comm(comm_phases_.size(), 0);
  std::vector<long> exec(exec_phases_.size(), 0);
  if (phase_expr_.kind == PhaseTree::Kind::Idle) {
    std::fill(comm.begin(), comm.end(), 1);
    return comm;
  }
  accumulate_multiplicity(phase_expr_, 1, comm, exec);
  return comm;
}

std::vector<long> TaskGraph::exec_phase_multiplicity() const {
  std::vector<long> comm(comm_phases_.size(), 0);
  std::vector<long> exec(exec_phases_.size(), 0);
  if (phase_expr_.kind == PhaseTree::Kind::Idle) {
    std::fill(exec.begin(), exec.end(), 1);
    return exec;
  }
  accumulate_multiplicity(phase_expr_, 1, comm, exec);
  return exec;
}

std::vector<std::int64_t> TaskGraph::exec_weights() const {
  std::vector<std::int64_t> weight(static_cast<std::size_t>(num_tasks()),
                                   0);
  const std::vector<long> mult = exec_phase_multiplicity();
  for (std::size_t k = 0; k < exec_phases_.size(); ++k) {
    const auto& cost = exec_phases_[k].cost;
    if (mult[k] == 0 || cost.empty()) {
      continue;
    }
    for (std::size_t t = 0; t < weight.size(); ++t) {
      weight[t] += mult[k] * cost[t];
    }
  }
  return weight;
}

namespace {

void validate_phase_tree(const PhaseTree& node, int num_comm,
                         int num_exec) {
  switch (node.kind) {
    case PhaseTree::Kind::Idle:
      return;
    case PhaseTree::Kind::Comm:
      if (node.phase_index < 0 || node.phase_index >= num_comm) {
        throw MappingError("phase expression references unknown comm phase");
      }
      return;
    case PhaseTree::Kind::Exec:
      if (node.phase_index < 0 || node.phase_index >= num_exec) {
        throw MappingError("phase expression references unknown exec phase");
      }
      return;
    case PhaseTree::Kind::Seq:
    case PhaseTree::Kind::Par:
      for (const auto& child : node.children) {
        validate_phase_tree(child, num_comm, num_exec);
      }
      return;
    case PhaseTree::Kind::Repeat:
      if (node.count < 0) {
        throw MappingError("phase repetition count must be non-negative");
      }
      validate_phase_tree(node.children.front(), num_comm, num_exec);
      return;
  }
}

}  // namespace

void TaskGraph::validate() const {
  for (const auto& phase : comm_phases_) {
    for (const auto& e : phase.edges) {
      if (e.src < 0 || e.src >= num_tasks() || e.dst < 0 ||
          e.dst >= num_tasks()) {
        throw MappingError("comm edge endpoint out of range in phase '" +
                           phase.name + "'");
      }
      if (e.volume < 0) {
        throw MappingError("negative message volume in phase '" +
                           phase.name + "'");
      }
    }
  }
  for (const auto& phase : exec_phases_) {
    if (phase.cost.size() != static_cast<std::size_t>(num_tasks())) {
      throw MappingError("exec phase '" + phase.name +
                         "' cost vector size mismatch");
    }
  }
  validate_phase_tree(phase_expr_, static_cast<int>(comm_phases_.size()),
                      static_cast<int>(exec_phases_.size()));
}

}  // namespace oregami
