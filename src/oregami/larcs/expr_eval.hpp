// Evaluation of LaRCS expressions under a variable environment
// (algorithm parameters, imported variables, consts, and rule binders).
//
// An expression is resolved once and then evaluated. Resolving it
// against a slot layout (`SlotExprs::add`) turns each variable into the
// index of its slot in a flat `long` array -- the environment's names
// first, then the binders in scope -- and each builtin call into its own
// operator. Evaluating it then reads slots and does no name lookup. The
// compiler resolves each rule's and each exec phase's expressions once
// per compile, and its loops only write the binders' values into their
// slots. `eval(expr, env)` resolves on the fly, for the cold callers
// (consts, domain bounds, phase-expression counts, affine analysis).
//
// Errors stay lazy: an unknown variable, an unknown function and a call
// with the wrong number of arguments resolve to nodes that throw, at
// their own location, only when evaluated. So a guard that
// short-circuits past one still compiles.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "oregami/larcs/ast.hpp"

namespace oregami::larcs {

/// Variable bindings, name -> integer value. Booleans are 0/1. Each
/// name owns one slot, numbered in the order names are first bound.
class Env {
 public:
  Env() = default;

  /// Binds `name`; rebinding a bound name replaces the value in its slot.
  void bind(const std::string& name, long value);

  [[nodiscard]] bool has(std::string_view name) const {
    return slot_of(name) >= 0;
  }
  /// The value of `name`; throws LarcsError when it is unbound.
  [[nodiscard]] long get(std::string_view name) const;

  /// The slot of `name` (its index in values()), or -1 when unbound.
  [[nodiscard]] int slot_of(std::string_view name) const;

  /// Every bound value, indexed by slot.
  [[nodiscard]] const std::vector<long>& values() const { return values_; }

 private:
  std::map<std::string, int, std::less<>> slots_;
  std::vector<long> values_;
};

/// The names an expression resolves against: the environment's, then
/// `binders`, where binder k owns slot env.values().size() + k. A binder
/// shadows every environment name and every earlier binder of the same
/// name.
struct Scope {
  const Env& env;
  std::span<const std::string_view> binders;

  /// The slot `name` resolves to, or -1.
  [[nodiscard]] int slot_of(std::string_view name) const;
};

/// Expressions resolved against slot layouts, kept in one node array.
class SlotExprs {
 public:
  /// Resolves `expr` in `scope` and returns the handle eval() takes.
  /// Never throws on the expression's content: errors wait for eval(),
  /// which reads their names and locations from `expr`, so `expr` must
  /// outlive this object.
  [[nodiscard]] int add(const Expr& expr, const Scope& scope);

  /// Evaluates expression `handle` over `slots`, laid out as the scope
  /// it was resolved in. Semantics: / truncates toward zero; x mod y is
  /// mathematical (result in [0, |y|)); division/mod by zero and unknown
  /// variables throw LarcsError; pow/log2/min/max/abs/xor/bit are
  /// built-in calls; comparisons and and/or/not yield 0/1 (and/or
  /// short-circuit); every operator and call evaluates its operands left
  /// to right.
  [[nodiscard]] long eval(int handle, std::span<const long> slots) const {
    return eval_node(handle, slots.data());
  }

 private:
  enum class Op : std::uint8_t {
    Lit, Slot, Unbound, Neg, Not, And, Or,
    Add, Sub, Mul, Div, Mod, Eq, Ne, Lt, Le, Gt, Ge,
    Pow, Log2, Min, Max, Abs, Xor, Bit, BadArity, UnknownCall
  };
  struct Node {
    Op op = Op::Lit;
    int lhs = -1;       ///< first operand
    int rhs = -1;       ///< second operand
    long value = 0;     ///< Lit: the value; Slot: the slot; BadArity: the
                        ///< expected argument count
    const Expr* src = nullptr;  ///< names and locations for errors
  };

  [[nodiscard]] long eval_node(int node, const long* slots) const;

  std::vector<Node> nodes_;
};

/// Evaluates `expr` in `env` (resolved on the fly; see SlotExprs::eval
/// for the semantics).
[[nodiscard]] long eval(const Expr& expr, const Env& env);
[[nodiscard]] long eval(const ExprPtr& expr, const Env& env);

}  // namespace oregami::larcs
