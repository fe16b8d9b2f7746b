// The LaRCS compiler: AST + parameter bindings -> concrete TaskGraph.
//
// The original OREGAMI prototype compiled LaRCS into Scheme functions
// consumed by MAPPER and METRICS; here we materialise the same
// information directly as the TaskGraph data structure (see DESIGN.md,
// substitution table).
//
// Each comm rule expands to one edge per (source tuple, forall value)
// that passes its guard, and each exec phase to one cost per task. Their
// expressions are resolved to slots once per rule or per (exec phase,
// nodetype) (expr_eval.hpp); the loops write the binders' values into a
// flat slot array and reuse one target buffer, so expanding an edge or a
// task does no name lookup and no heap allocation. Labels go into the
// TaskGraph's one flat label array (DESIGN.md §6, "The LaRCS compiler").
#pragma once

#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "oregami/core/task_graph.hpp"
#include "oregami/larcs/ast.hpp"
#include "oregami/larcs/expr_eval.hpp"

namespace oregami::larcs {

/// Upper bound on the number of tasks a program may expand to (guards
/// against runaway domains from bad parameter values). Checked on each
/// nodetype's domain before any of its tasks is built.
inline constexpr long kMaxTasks = 1'000'000;

/// Evaluated layout of one nodetype's label domain: rectangular box
/// [lo[d], hi[d]] per dimension, tasks numbered row-major (last
/// dimension fastest) starting at `base`.
struct NodeTypeLayout {
  std::string name;
  std::vector<long> lo;
  std::vector<long> hi;
  int base = 0;
  long count = 0;

  [[nodiscard]] bool contains(std::span<const long> tuple) const;

  /// Task id of a label tuple (must be in range).
  [[nodiscard]] int task_of(std::span<const long> tuple) const;
};

/// Compiler output: the task graph plus the layout/meta information the
/// MAPPER strategies use (family hint, evaluated environment, domains).
struct CompiledProgram {
  TaskGraph graph;
  std::optional<std::string> family_hint;
  std::vector<NodeTypeLayout> layouts;
  Env env;  ///< params + imports + consts

  [[nodiscard]] const NodeTypeLayout* find_layout(
      const std::string& nodetype) const;
};

/// Compiles `program` with `bindings` supplying every algorithm
/// parameter and imported variable. Throws LarcsError on missing or
/// inconsistent bindings, empty domains, out-of-range rule targets,
/// self-loop edges, or more than kMaxTasks tasks.
[[nodiscard]] CompiledProgram compile(
    const Program& program, const std::map<std::string, long>& bindings);

/// Convenience: parse + compile.
[[nodiscard]] CompiledProgram compile_source(
    std::string_view source, const std::map<std::string, long>& bindings);

}  // namespace oregami::larcs
