#include "oregami/larcs/compiler.hpp"

#include <algorithm>
#include <string_view>

#include "oregami/larcs/parser.hpp"
#include "oregami/larcs/phase_expr.hpp"
#include "oregami/support/trace.hpp"

namespace oregami::larcs {

bool NodeTypeLayout::contains(std::span<const long> tuple) const {
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

int NodeTypeLayout::task_of(std::span<const long> tuple) const {
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
                       std::span<const long> tuple) {
  std::string out = type + "(";
  for (std::size_t d = 0; d < tuple.size(); ++d) {
    if (d != 0) {
      out += ",";
    }
    out += std::to_string(tuple[d]);
  }
  return out + ")";
}

/// Steps `tuple` through every point of the box [lo, hi], row-major
/// (last dimension fastest), invoking fn() at each.
template <typename Fn>
void for_each_tuple(const std::vector<long>& lo, const std::vector<long>& hi,
                    std::span<long> tuple, Fn&& fn) {
  std::copy(lo.begin(), lo.end(), tuple.begin());
  for (;;) {
    fn();
    std::size_t d = tuple.size();
    while (d > 0 && tuple[d - 1] >= hi[d - 1]) {
      tuple[d - 1] = lo[d - 1];
      --d;
    }
    if (d == 0) {
      return;
    }
    ++tuple[d - 1];
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
    std::vector<long> tuple(layout.lo.size());
    for_each_tuple(layout.lo, layout.hi, tuple, [&] {
      out.graph.add_task(tuple_name(nt.name, tuple), tuple);
    });
    out.layouts.push_back(std::move(layout));
  }
  if (program.nodetypes.size() == 1 &&
      program.nodetypes.front().node_symmetric) {
    out.graph.set_node_symmetric(true);
  }

  // 3. Communication phases. A rule's expressions are resolved once
  //    against the slots [env | pattern binders | forall binder]; the
  //    loops write each binder's value into its slot.
  const std::size_t num_env = env.values().size();
  std::vector<long> slots = env.values();
  std::vector<long> target;
  for (const auto& cp : program.comm_phases) {
    const int phase = out.graph.add_comm_phase(cp.name);
    for (const auto& rule : cp.rules) {
      const auto* src = out.find_layout(rule.src_type);
      const auto* dst = out.find_layout(rule.dst_type);
      OREGAMI_ASSERT(src != nullptr && dst != nullptr,
                     "parser guarantees nodetypes resolve");
      std::vector<std::string_view> binders(rule.pattern.begin(),
                                            rule.pattern.end());
      if (rule.forall_binder) {
        binders.push_back(*rule.forall_binder);
      }
      // The bounds are evaluated before the forall binder is bound, so
      // they resolve without it.
      const Scope outer{env, std::span(binders).first(rule.pattern.size())};
      const Scope inner{env, binders};
      SlotExprs code;
      const int k_lo = rule.forall_binder ? code.add(*rule.forall_lo, outer)
                                          : -1;
      const int k_hi = rule.forall_binder ? code.add(*rule.forall_hi, outer)
                                          : -1;
      const int guard = rule.guard ? code.add(*rule.guard, inner) : -1;
      std::vector<int> components;
      for (const auto& comp : rule.target) {
        components.push_back(code.add(*comp, inner));
      }
      const int volume = rule.volume ? code.add(*rule.volume, inner) : -1;

      slots.resize(num_env + binders.size());
      const std::span<long> tuple =
          std::span(slots).subspan(num_env, rule.pattern.size());
      const std::size_t k_slot = num_env + rule.pattern.size();
      target.resize(rule.target.size());
      out.graph.reserve_comm_edges(phase,
                                   static_cast<std::size_t>(src->count));
      for_each_tuple(src->lo, src->hi, tuple, [&] {
        const int from = src->task_of(tuple);
        const long first = k_lo < 0 ? 0 : code.eval(k_lo, slots);
        const long last = k_hi < 0 ? 0 : code.eval(k_hi, slots);
        for (long k = first; k <= last; ++k) {
          if (k_lo >= 0) {
            slots[k_slot] = k;
          }
          if (guard >= 0 && code.eval(guard, slots) == 0) {
            continue;
          }
          for (std::size_t d = 0; d < components.size(); ++d) {
            target[d] = code.eval(components[d], slots);
          }
          if (!dst->contains(target)) {
            throw LarcsError(
                "rule target " + tuple_name(rule.dst_type, target) +
                    " is outside the nodetype domain (add a 'when' guard?)",
                rule.loc);
          }
          const int to = dst->task_of(target);
          if (from == to) {
            throw LarcsError("rule produces a self-loop at " +
                                 tuple_name(rule.src_type, tuple),
                             rule.loc);
          }
          const long v = volume < 0 ? 1 : code.eval(volume, slots);
          if (v < 0) {
            throw LarcsError("negative message volume", rule.loc);
          }
          out.graph.add_comm_edge(phase, from, to, v);
        }
      });
    }
  }

  // 4. Execution phases: a cost is resolved per nodetype against the
  //    slots [env | the nodetype's dimension binders] and evaluated per
  //    task.
  for (const auto& ep : program.exec_phases) {
    std::vector<std::int64_t> cost(
        static_cast<std::size_t>(out.graph.num_tasks()), 0);
    for (std::size_t nt_index = 0; nt_index < program.nodetypes.size();
         ++nt_index) {
      const auto& layout = out.layouts[nt_index];
      std::vector<std::string_view> binders;
      for (const auto& dim : program.nodetypes[nt_index].dims) {
        binders.push_back(dim.binder);
      }
      SlotExprs code;
      const int cost_expr = code.add(*ep.cost, Scope{env, binders});
      slots.resize(num_env + binders.size());
      const std::span<long> tuple = std::span(slots).subspan(num_env);
      for_each_tuple(layout.lo, layout.hi, tuple, [&] {
        const long c = code.eval(cost_expr, slots);
        if (c < 0) {
          throw LarcsError("negative execution cost", ep.loc);
        }
        cost[static_cast<std::size_t>(layout.task_of(tuple))] = c;
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
