// OREGAMI's model of a parallel computation (paper §2): a weighted,
// colored directed graph G = (V, E_1, ..., E_c). Each E_k is one
// *communication phase* (a set of edges engaged in synchronous message
// passing); node weights are per-*execution-phase* task costs; and a
// *phase expression* describes the dynamic behaviour -- the order and
// repetition of phases over time.
//
// Every task keeps its name (one string) and its LaRCS label tuple. The
// labels of all tasks sit in one flat values array with one end offset
// per task, so adding a labelled task allocates nothing beyond the
// arrays' amortised growth.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "oregami/graph/graph.hpp"

namespace oregami {

/// One directed message edge within a communication phase.
struct CommEdge {
  int src = 0;
  int dst = 0;
  std::int64_t volume = 1;  ///< message volume (bytes or abstract units)
};

/// One communication phase ("color"): a named synchronous edge set.
struct CommPhase {
  std::string name;
  std::vector<CommEdge> edges;

  [[nodiscard]] std::int64_t total_volume() const;
};

/// One execution phase: per-task compute cost between two communication
/// phases.
struct ExecPhase {
  std::string name;
  std::vector<std::int64_t> cost;  ///< indexed by task id
};

/// A concrete (fully evaluated) phase-expression tree. Leaves reference
/// comm/exec phases by index; `Repeat` carries an evaluated count.
/// Mirrors the paper's grammar: epsilon | phase | r;s | r^expr | r||s.
struct PhaseTree {
  enum class Kind { Idle, Comm, Exec, Seq, Par, Repeat };

  Kind kind = Kind::Idle;
  int phase_index = -1;  ///< for Comm/Exec leaves
  long count = 1;        ///< for Repeat
  std::vector<PhaseTree> children;

  static PhaseTree idle();
  static PhaseTree comm(int phase_index);
  static PhaseTree exec(int phase_index);
  static PhaseTree seq(std::vector<PhaseTree> parts);
  static PhaseTree par(std::vector<PhaseTree> parts);
  static PhaseTree repeat(PhaseTree body, long count);

  /// Renders with the paper's notation, e.g.
  /// "((ring; compute1)^8; chordal; compute2)^s" (counts printed).
  [[nodiscard]] std::string to_string(
      const std::vector<CommPhase>& comm_phases,
      const std::vector<ExecPhase>& exec_phases) const;
};

/// The task graph: tasks + colored comm phases + exec phases + phase
/// expression. Task ids are dense [0, num_tasks).
class TaskGraph {
 public:
  TaskGraph() = default;

  /// Adds a task; returns its id. `label` is the LaRCS label tuple
  /// (may be empty for hand-built graphs); it is copied.
  int add_task(std::string name, std::span<const long> label = {});

  /// Declares a new communication phase; returns its index.
  int add_comm_phase(std::string name);

  /// Makes room for `more` edges in phase `phase` beyond those it has
  /// (growing its capacity at least geometrically, as push_back would).
  void reserve_comm_edges(int phase, std::size_t more);

  /// Adds a directed message edge to phase `phase`.
  void add_comm_edge(int phase, int src, int dst, std::int64_t volume = 1);

  /// Declares an execution phase with per-task costs (must have
  /// num_tasks entries, or be empty meaning all-zero).
  int add_exec_phase(std::string name, std::vector<std::int64_t> cost);

  void set_phase_expr(PhaseTree expr) { phase_expr_ = std::move(expr); }
  void set_node_symmetric(bool value) { declared_node_symmetric_ = value; }

  [[nodiscard]] int num_tasks() const {
    return static_cast<int>(task_names_.size());
  }
  [[nodiscard]] const std::string& task_name(int t) const;
  /// Task t's label tuple: a view into the flat label array, valid
  /// until the next add_task.
  [[nodiscard]] std::span<const long> task_label(int t) const;
  [[nodiscard]] const std::vector<CommPhase>& comm_phases() const {
    return comm_phases_;
  }
  [[nodiscard]] const std::vector<ExecPhase>& exec_phases() const {
    return exec_phases_;
  }
  [[nodiscard]] const PhaseTree& phase_expr() const { return phase_expr_; }
  [[nodiscard]] bool declared_node_symmetric() const {
    return declared_node_symmetric_;
  }

  /// Total number of directed comm edges over all phases.
  [[nodiscard]] int num_comm_edges() const;

  /// Sum of edge volumes over all phases.
  [[nodiscard]] std::int64_t total_volume() const;

  /// The static undirected aggregate of all phases: parallel/antiparallel
  /// edges collapse, volumes sum. This is the graph MWM-Contract and
  /// NN-Embed operate on.
  [[nodiscard]] Graph aggregate_graph() const;

  /// How many times each comm phase (index-aligned with comm_phases())
  /// executes according to the phase expression; exec likewise.
  /// A phase not mentioned in the expression has multiplicity 0; when
  /// the expression is Idle/default, every phase gets multiplicity 1
  /// (static fallback).
  [[nodiscard]] std::vector<long> comm_phase_multiplicity() const;
  [[nodiscard]] std::vector<long> exec_phase_multiplicity() const;

  /// Multiplicity-weighted execution cost of each task:
  /// w(t) = sum_k exec_phase_multiplicity()[k] * cost_k[t].
  [[nodiscard]] std::vector<std::int64_t> exec_weights() const;

  /// Structural checks (edge endpoints in range, cost vector sizes,
  /// phase indices in the expression valid); throws MappingError.
  void validate() const;

 private:
  std::vector<std::string> task_names_;
  /// Task t's label is label_values_[label_end_[t - 1], label_end_[t])
  /// (from 0 for t = 0).
  std::vector<std::size_t> label_end_;
  std::vector<long> label_values_;
  std::vector<CommPhase> comm_phases_;
  std::vector<ExecPhase> exec_phases_;
  PhaseTree phase_expr_;
  bool declared_node_symmetric_ = false;
};

}  // namespace oregami
