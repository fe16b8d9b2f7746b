// The LaRCS compiler: AST + parameter bindings -> concrete TaskGraph.
//
// The original OREGAMI prototype compiled LaRCS into Scheme functions
// consumed by MAPPER and METRICS; here we materialise the same
// information directly as the TaskGraph data structure (see DESIGN.md,
// substitution table).
#pragma once

#include <map>
#include <optional>
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

  [[nodiscard]] bool contains(const std::vector<long>& tuple) const;

  /// Task id of a label tuple (must be in range).
  [[nodiscard]] int task_of(const std::vector<long>& tuple) const;
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
