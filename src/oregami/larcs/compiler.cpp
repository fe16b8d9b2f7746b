#include "oregami/larcs/compiler.hpp"

#include <algorithm>

#include "oregami/larcs/parser.hpp"
#include "oregami/larcs/phase_expr.hpp"
#include "oregami/support/trace.hpp"

namespace oregami::larcs {

bool NodeTypeLayout::contains(const std::vector<long>& tuple) const {
  if (tuple.size() != lo.size()) {
    return false;
  }
  for (std::size_t d = 0; d < tuple.size(); ++d) {
    if (tuple[d] < lo[d] || tuple[d] > hi[d]) {
      return false;
    }
  }
  return true;
}

int NodeTypeLayout::task_of(const std::vector<long>& tuple) const {
  OREGAMI_ASSERT(contains(tuple), "label tuple outside nodetype domain");
  long offset = 0;
  for (std::size_t d = 0; d < tuple.size(); ++d) {
    offset = offset * (hi[d] - lo[d] + 1) + (tuple[d] - lo[d]);
  }
  return base + static_cast<int>(offset);
}

const NodeTypeLayout* CompiledProgram::find_layout(
    const std::string& nodetype) const {
  for (const auto& layout : layouts) {
    if (layout.name == nodetype) {
      return &layout;
    }
  }
  return nullptr;
}

namespace {

std::string tuple_name(const std::string& type,
                       const std::vector<long>& tuple) {
  std::string out = type + "(";
  for (std::size_t d = 0; d < tuple.size(); ++d) {
    if (d != 0) {
      out += ",";
    }
    out += std::to_string(tuple[d]);
  }
  return out + ")";
}

/// Iterates every tuple of the box [lo, hi], row-major (last dimension
/// fastest), invoking fn(tuple).
template <typename Fn>
void for_each_tuple(const std::vector<long>& lo, const std::vector<long>& hi,
                    Fn&& fn) {
  std::vector<long> tuple = lo;
  for (;;) {
    fn(tuple);
    int d = static_cast<int>(tuple.size()) - 1;
    while (d >= 0) {
      if (tuple[static_cast<std::size_t>(d)] < hi[static_cast<std::size_t>(d)]) {
        ++tuple[static_cast<std::size_t>(d)];
        break;
      }
      tuple[static_cast<std::size_t>(d)] = lo[static_cast<std::size_t>(d)];
      --d;
    }
    if (d < 0) {
      return;
    }
  }
}

}  // namespace

CompiledProgram compile(const Program& program,
                        const std::map<std::string, long>& bindings) {
  const trace::Span span("compile");
  CompiledProgram out;
  out.family_hint = program.family_hint;

  // 1. Environment: parameters and imports must be bound; consts are
  //    evaluated in declaration order (and may use earlier names).
  Env env;
  for (const auto& name : program.params) {
    const auto it = bindings.find(name);
    if (it == bindings.end()) {
      throw LarcsError("missing binding for algorithm parameter '" + name +
                           "'",
                       program.loc);
    }
    env.bind(name, it->second);
  }
  for (const auto& name : program.imports) {
    const auto it = bindings.find(name);
    if (it == bindings.end()) {
      throw LarcsError("missing binding for imported variable '" + name +
                           "'",
                       program.loc);
    }
    env.bind(name, it->second);
  }
  for (const auto& [key, value] : bindings) {
    if (!env.has(key)) {
      throw LarcsError("binding '" + key +
                           "' matches no parameter or import",
                       program.loc);
    }
    (void)value;
  }
  for (const auto& [name, expr] : program.consts) {
    env.bind(name, eval(expr, env));
  }

  // 2. Node domains -> tasks.
  long total_tasks = 0;
  for (const auto& nt : program.nodetypes) {
    NodeTypeLayout layout;
    layout.name = nt.name;
    layout.base = static_cast<int>(total_tasks);
    layout.count = 1;
    for (const auto& dim : nt.dims) {
      const long lo = eval(dim.lo, env);
      const long hi = eval(dim.hi, env);
      if (hi < lo) {
        throw LarcsError("empty dimension range for binder '" + dim.binder +
                             "' in nodetype '" + nt.name + "'",
                         nt.loc);
      }
      layout.lo.push_back(lo);
      layout.hi.push_back(hi);
      layout.count *= (hi - lo + 1);
      if (layout.count > kMaxTasks) {
        throw LarcsError("nodetype '" + nt.name + "' exceeds task limit",
                         nt.loc);
      }
    }
    total_tasks += layout.count;
    if (total_tasks > kMaxTasks) {
      throw LarcsError("program exceeds the task limit", nt.loc);
    }
    for_each_tuple(layout.lo, layout.hi, [&](const std::vector<long>& t) {
      out.graph.add_task(tuple_name(nt.name, t), t);
    });
    out.layouts.push_back(std::move(layout));
  }
  if (program.nodetypes.size() == 1 &&
      program.nodetypes.front().node_symmetric) {
    out.graph.set_node_symmetric(true);
  }

  // 3. Communication phases.
  for (const auto& cp : program.comm_phases) {
    const int phase = out.graph.add_comm_phase(cp.name);
    for (const auto& rule : cp.rules) {
      const auto* src = out.find_layout(rule.src_type);
      const auto* dst = out.find_layout(rule.dst_type);
      OREGAMI_ASSERT(src != nullptr && dst != nullptr,
                     "parser guarantees nodetypes resolve");
      Env rule_env = env;
      for_each_tuple(src->lo, src->hi, [&](const std::vector<long>& t) {
        for (std::size_t d = 0; d < rule.pattern.size(); ++d) {
          rule_env.bind(rule.pattern[d], t[d]);
        }
        long k_lo = 0;
        long k_hi = 0;
        if (rule.forall_binder) {
          k_lo = eval(rule.forall_lo, rule_env);
          k_hi = eval(rule.forall_hi, rule_env);
        }
        for (long k = k_lo; k <= k_hi; ++k) {
          if (rule.forall_binder) {
            rule_env.bind(*rule.forall_binder, k);
          }
          if (rule.guard && !eval_bool(rule.guard, rule_env)) {
            continue;
          }
          std::vector<long> target;
          target.reserve(rule.target.size());
          for (const auto& comp : rule.target) {
            target.push_back(eval(comp, rule_env));
          }
          if (!dst->contains(target)) {
            throw LarcsError(
                "rule target " + tuple_name(rule.dst_type, target) +
                    " is outside the nodetype domain (add a 'when' guard?)",
                rule.loc);
          }
          const int from = src->task_of(t);
          const int to = dst->task_of(target);
          if (from == to) {
            throw LarcsError("rule produces a self-loop at " +
                                 tuple_name(rule.src_type, t),
                             rule.loc);
          }
          const long volume =
              rule.volume ? eval(rule.volume, rule_env) : 1;
          if (volume < 0) {
            throw LarcsError("negative message volume", rule.loc);
          }
          out.graph.add_comm_edge(phase, from, to, volume);
        }
        if (rule.forall_binder) {
          rule_env.unbind(*rule.forall_binder);
        }
      });
    }
  }

  // 4. Execution phases: cost evaluated per task with that task's
  //    nodetype dimension binders in scope.
  for (const auto& ep : program.exec_phases) {
    std::vector<std::int64_t> cost(
        static_cast<std::size_t>(out.graph.num_tasks()), 0);
    for (std::size_t nt_index = 0; nt_index < program.nodetypes.size();
         ++nt_index) {
      const auto& nt = program.nodetypes[nt_index];
      const auto& layout = out.layouts[nt_index];
      Env cost_env = env;
      for_each_tuple(layout.lo, layout.hi, [&](const std::vector<long>& t) {
        for (std::size_t d = 0; d < nt.dims.size(); ++d) {
          cost_env.bind(nt.dims[d].binder, t[d]);
        }
        const long c = eval(ep.cost, cost_env);
        if (c < 0) {
          throw LarcsError("negative execution cost", ep.loc);
        }
        cost[static_cast<std::size_t>(layout.task_of(t))] = c;
      });
    }
    out.graph.add_exec_phase(ep.name, std::move(cost));
  }

  // 5. Phase expression.
  if (program.phase_expr) {
    PhaseNames names;
    for (const auto& cp : program.comm_phases) {
      names.comm.push_back(cp.name);
    }
    for (const auto& ep : program.exec_phases) {
      names.exec.push_back(ep.name);
    }
    out.graph.set_phase_expr(
        lower_phase_expr(*program.phase_expr, names, env));
  }

  out.env = std::move(env);
  out.graph.validate();
  trace::counter("tasks", out.graph.num_tasks());
  trace::counter("comm_edges", out.graph.num_comm_edges());
  return out;
}

CompiledProgram compile_source(std::string_view source,
                               const std::map<std::string, long>& bindings) {
  return compile(parse_program(source), bindings);
}

}  // namespace oregami::larcs
