#include "oregami/larcs/expr_eval.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>

namespace oregami::larcs {

void Env::bind(const std::string& name, long value) {
  const auto [it, inserted] =
      slots_.try_emplace(name, static_cast<int>(values_.size()));
  if (inserted) {
    values_.push_back(value);
  } else {
    values_[static_cast<std::size_t>(it->second)] = value;
  }
}

long Env::get(std::string_view name) const {
  const int slot = slot_of(name);
  if (slot < 0) {
    throw LarcsError("unknown variable '" + std::string(name) + "'");
  }
  return values_[static_cast<std::size_t>(slot)];
}

int Env::slot_of(std::string_view name) const {
  const auto it = slots_.find(name);
  return it == slots_.end() ? -1 : it->second;
}

int Scope::slot_of(std::string_view name) const {
  for (std::size_t k = binders.size(); k > 0; --k) {
    if (binders[k - 1] == name) {
      return static_cast<int>(env.values().size() + k - 1);
    }
  }
  return env.slot_of(name);
}

int SlotExprs::add(const Expr& expr, const Scope& scope) {
  Node node;
  node.src = &expr;
  switch (expr.kind) {
    case Expr::Kind::IntLit:
      node.value = expr.value;
      break;
    case Expr::Kind::Var:
      node.value = scope.slot_of(expr.name);
      node.op = node.value < 0 ? Op::Unbound : Op::Slot;
      break;
    case Expr::Kind::Unary:
      node.op = expr.un_op == UnOp::Neg ? Op::Neg : Op::Not;
      node.lhs = add(*expr.args[0], scope);
      break;
    case Expr::Kind::Binary: {
      // Indexed by BinOp, in its declaration order.
      static constexpr Op kBinary[] = {Op::Add, Op::Sub, Op::Mul, Op::Div,
                                       Op::Mod, Op::Eq,  Op::Ne,  Op::Lt,
                                       Op::Le,  Op::Gt,  Op::Ge,  Op::And,
                                       Op::Or};
      static_assert(std::size(kBinary) ==
                    static_cast<std::size_t>(BinOp::Or) + 1);
      node.op = kBinary[static_cast<std::size_t>(expr.bin_op)];
      node.lhs = add(*expr.args[0], scope);
      node.rhs = add(*expr.args[1], scope);
      break;
    }
    case Expr::Kind::Call: {
      struct Builtin {
        std::string_view name;
        Op op;
        std::size_t arity;
      };
      static constexpr Builtin kBuiltins[] = {
          {"pow", Op::Pow, 2}, {"log2", Op::Log2, 1}, {"min", Op::Min, 2},
          {"max", Op::Max, 2}, {"abs", Op::Abs, 1},   {"xor", Op::Xor, 2},
          {"bit", Op::Bit, 2}};
      const auto* builtin = std::find_if(
          std::begin(kBuiltins), std::end(kBuiltins),
          [&expr](const Builtin& b) { return b.name == expr.name; });
      if (builtin == std::end(kBuiltins)) {
        node.op = Op::UnknownCall;
      } else if (expr.args.size() != builtin->arity) {
        node.op = Op::BadArity;
        node.value = static_cast<long>(builtin->arity);
      } else {
        node.op = builtin->op;
        node.lhs = add(*expr.args[0], scope);
        if (builtin->arity == 2) {
          node.rhs = add(*expr.args[1], scope);
        }
      }
      break;
    }
  }
  nodes_.push_back(node);
  return static_cast<int>(nodes_.size()) - 1;
}

long SlotExprs::eval_node(int index, const long* slots) const {
  const Node& node = nodes_[static_cast<std::size_t>(index)];
  const Expr& src = *node.src;
  switch (node.op) {
    case Op::Lit:
      return node.value;
    case Op::Slot:
      return slots[node.value];
    case Op::Unbound:
      throw LarcsError("unknown variable '" + src.name + "'", src.loc);
    case Op::Neg:
    case Op::Abs: {
      const long v = eval_node(node.lhs, slots);
      if (v == std::numeric_limits<long>::min()) {
        throw LarcsError(node.op == Op::Neg ? "negation overflows"
                                            : "abs overflows",
                         src.loc);
      }
      return node.op == Op::Neg ? -v : std::abs(v);
    }
    case Op::Not:
      return eval_node(node.lhs, slots) == 0 ? 1 : 0;
    case Op::And:
      return (eval_node(node.lhs, slots) != 0 &&
              eval_node(node.rhs, slots) != 0)
                 ? 1
                 : 0;
    case Op::Or:
      return (eval_node(node.lhs, slots) != 0 ||
              eval_node(node.rhs, slots) != 0)
                 ? 1
                 : 0;
    case Op::Log2: {
      long v = eval_node(node.lhs, slots);
      if (v <= 0) {
        throw LarcsError("log2 of a non-positive value", src.loc);
      }
      long result = 0;
      while (v > 1) {
        v /= 2;
        ++result;
      }
      return result;  // floor(log2(x))
    }
    case Op::BadArity:
      throw LarcsError("call to '" + src.name + "' expects " +
                           std::to_string(node.value) + " argument(s)",
                       src.loc);
    case Op::UnknownCall:
      throw LarcsError("unknown function '" + src.name + "'", src.loc);
    default:
      break;
  }
  // Two operands, evaluated left then right.
  const long a = eval_node(node.lhs, slots);
  const long b = eval_node(node.rhs, slots);
  long r = 0;
  switch (node.op) {
    case Op::Add:
      if (__builtin_add_overflow(a, b, &r)) {
        throw LarcsError("addition overflows", src.loc);
      }
      return r;
    case Op::Sub:
      if (__builtin_sub_overflow(a, b, &r)) {
        throw LarcsError("subtraction overflows", src.loc);
      }
      return r;
    case Op::Mul:
      if (__builtin_mul_overflow(a, b, &r)) {
        throw LarcsError("multiplication overflows", src.loc);
      }
      return r;
    case Op::Div:
      if (b == 0) {
        throw LarcsError("division by zero", src.loc);
      }
      if (b == -1 && a == std::numeric_limits<long>::min()) {
        throw LarcsError("division overflows", src.loc);
      }
      return a / b;
    case Op::Mod: {
      if (b == 0) {
        throw LarcsError("mod by zero", src.loc);
      }
      if (b == -1) {
        return 0;  // a % -1 traps for a = LONG_MIN
      }
      // The non-negative residue: m - b is m + |b| without forming |b|,
      // which LONG_MIN has not.
      const long m = a % b;
      if (m >= 0) {
        return m;
      }
      return b < 0 ? m - b : m + b;
    }
    case Op::Eq: return a == b ? 1 : 0;
    case Op::Ne: return a != b ? 1 : 0;
    case Op::Lt: return a < b ? 1 : 0;
    case Op::Le: return a <= b ? 1 : 0;
    case Op::Gt: return a > b ? 1 : 0;
    case Op::Ge: return a >= b ? 1 : 0;
    case Op::Min: return std::min(a, b);
    case Op::Max: return std::max(a, b);
    case Op::Pow: {
      if (b < 0) {
        throw LarcsError("pow with negative exponent", src.loc);
      }
      // |a| <= 1 never grows, so it needs no loop; any other base
      // passes the bound within 62 steps (LONG_MIN at the first).
      if (a == 0 || a == 1) {
        return b == 0 ? 1 : a;
      }
      if (a == -1) {
        return b % 2 == 0 ? 1 : -1;
      }
      const long bound = a == std::numeric_limits<long>::min()
                             ? 0
                             : (1L << 62) / std::abs(a);
      long result = 1;
      for (long k = 0; k < b; ++k) {
        if (std::abs(result) > bound) {
          throw LarcsError("pow overflows", src.loc);
        }
        result *= a;
      }
      return result;
    }
    case Op::Xor:
      if (a < 0 || b < 0) {
        throw LarcsError("xor requires non-negative arguments", src.loc);
      }
      return a ^ b;
    case Op::Bit:
      if (a < 0 || b < 0 || b > 62) {
        throw LarcsError("bit requires x >= 0 and 0 <= j <= 62", src.loc);
      }
      return (a >> b) & 1;
    default:
      break;
  }
  OREGAMI_ASSERT(false, "every operator is evaluated above");
  return 0;
}

long eval(const Expr& expr, const Env& env) {
  SlotExprs code;
  const int handle = code.add(expr, Scope{env, {}});
  return code.eval(handle, env.values());
}

long eval(const ExprPtr& expr, const Env& env) {
  OREGAMI_ASSERT(expr != nullptr, "evaluating a null expression");
  return eval(*expr, env);
}

}  // namespace oregami::larcs
