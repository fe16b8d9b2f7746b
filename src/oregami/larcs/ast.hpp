// Abstract syntax of a LaRCS program (paper §3, Fig 2b).
//
// Concrete grammar implemented by the parser:
//
//   program   := 'algorithm' NAME '(' [param,*] ')' ';' decl*
//   decl      := 'import' NAME (',' NAME)* ';'
//              | 'const' NAME '=' expr ';'
//              | 'nodetype' NAME '[' dim (',' dim)* ']' ['nodesymmetric'] ';'
//              | 'family' NAME ';'
//              | 'comphase' NAME '{' rule* '}'
//              | 'exphase' NAME 'cost' expr ';'
//              | 'phases' phase-expr ';'
//   dim       := BINDER ':' expr '..' expr
//   rule      := NAME '(' BINDER,* ')' '->' NAME '(' expr,* ')'
//                ['forall' BINDER ':' expr '..' expr]
//                ['when' expr] ['volume' expr] ';'
//   phase-expr:= seq of par of rep of atom; rep = atom '^' primary;
//                atom = NAME | 'eps' | '(' phase-expr ')'
//
// Expressions: integer arithmetic (+ - * / mod %), unary minus,
// comparisons, and/or/not, and calls pow/log2/min/max/abs/xor/bit
// (binary labeling support). Division is integer (truncating toward
// zero), mod is mathematical (result >= 0).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "oregami/support/error.hpp"

namespace oregami::larcs {

enum class BinOp { Add, Sub, Mul, Div, Mod, Eq, Ne, Lt, Le, Gt, Ge, And, Or };
enum class UnOp { Neg, Not };

struct Expr;
using ExprPtr = std::shared_ptr<const Expr>;

/// Immutable expression node (shared between AST copies).
struct Expr {
  enum class Kind { IntLit, Var, Unary, Binary, Call };

  Kind kind = Kind::IntLit;
  long value = 0;            ///< IntLit
  std::string name;          ///< Var / Call
  UnOp un_op = UnOp::Neg;    ///< Unary
  BinOp bin_op = BinOp::Add; ///< Binary
  std::vector<ExprPtr> args; ///< Unary(1) / Binary(2) / Call(n)
  SourceLoc loc;
  /// Levels above the leaves (0 for a literal or variable); the parser
  /// caps it, since evaluation and destruction recurse over the tree.
  int height = 0;

  static ExprPtr int_lit(long v, SourceLoc loc = {});
  static ExprPtr var(std::string name, SourceLoc loc = {});
  static ExprPtr unary(UnOp op, ExprPtr operand, SourceLoc loc = {});
  static ExprPtr binary(BinOp op, ExprPtr lhs, ExprPtr rhs,
                        SourceLoc loc = {});
  static ExprPtr call(std::string name, std::vector<ExprPtr> args,
                      SourceLoc loc = {});

  /// Pretty-prints with minimal parentheses (tests use round-trips).
  [[nodiscard]] std::string to_string() const;
};

/// One dimension of a node label domain: binder : lo .. hi (inclusive).
struct DimDecl {
  std::string binder;
  ExprPtr lo;
  ExprPtr hi;
};

struct NodeTypeDecl {
  std::string name;
  std::vector<DimDecl> dims;
  bool node_symmetric = false;
  SourceLoc loc;
};

/// One edge rule inside a comphase.
struct CommRule {
  std::string src_type;
  std::vector<std::string> pattern;  ///< binder per source dimension
  std::string dst_type;
  std::vector<ExprPtr> target;       ///< expression per dest dimension
  std::optional<std::string> forall_binder;
  ExprPtr forall_lo;  ///< null unless forall present
  ExprPtr forall_hi;
  ExprPtr guard;      ///< null = unconditional
  ExprPtr volume;     ///< null = 1
  SourceLoc loc;
};

struct CommPhaseDecl {
  std::string name;
  std::vector<CommRule> rules;
  SourceLoc loc;
};

struct ExecPhaseDecl {
  std::string name;
  ExprPtr cost;  ///< may reference nodetype dimension binders
  SourceLoc loc;
};

/// Phase-expression AST (counts still unevaluated).
struct PhaseExprNode {
  enum class Kind { Idle, Ref, Seq, Par, Repeat };

  Kind kind = Kind::Idle;
  std::string ref_name;                 ///< Ref: comm or exec phase name
  ExprPtr count;                        ///< Repeat
  std::vector<PhaseExprNode> children;  ///< Seq/Par/Repeat
  SourceLoc loc;
  /// Levels above the leaves (0 for eps or a phase name); the parser
  /// caps it, since lowering and destruction recurse over the tree.
  int height = 0;

  [[nodiscard]] std::string to_string() const;
};

struct Program {
  std::string name;
  /// Location of the `algorithm` header keyword; the anchor for
  /// program-level diagnostics that have no finer position (missing
  /// bindings, "declares no nodetype", ...).
  SourceLoc loc;
  std::vector<std::string> params;
  std::vector<std::string> imports;
  std::vector<std::pair<std::string, ExprPtr>> consts;
  std::vector<NodeTypeDecl> nodetypes;
  std::optional<std::string> family_hint;
  std::vector<CommPhaseDecl> comm_phases;
  std::vector<ExecPhaseDecl> exec_phases;
  std::optional<PhaseExprNode> phase_expr;

  [[nodiscard]] const NodeTypeDecl* find_nodetype(
      const std::string& type_name) const;
};

}  // namespace oregami::larcs
