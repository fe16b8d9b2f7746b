#include "oregami/larcs/parser.hpp"

#include <algorithm>
#include <set>
#include <string>

#include "oregami/larcs/lexer.hpp"
#include "oregami/support/trace.hpp"

namespace oregami::larcs {

ExprPtr Expr::int_lit(long v, SourceLoc loc) {
  auto e = std::make_shared<Expr>();
  e->kind = Kind::IntLit;
  e->value = v;
  e->loc = loc;
  return e;
}

ExprPtr Expr::var(std::string name, SourceLoc loc) {
  auto e = std::make_shared<Expr>();
  e->kind = Kind::Var;
  e->name = std::move(name);
  e->loc = loc;
  return e;
}

ExprPtr Expr::unary(UnOp op, ExprPtr operand, SourceLoc loc) {
  auto e = std::make_shared<Expr>();
  e->kind = Kind::Unary;
  e->un_op = op;
  e->height = operand->height + 1;
  e->args.push_back(std::move(operand));
  e->loc = loc;
  return e;
}

ExprPtr Expr::binary(BinOp op, ExprPtr lhs, ExprPtr rhs, SourceLoc loc) {
  auto e = std::make_shared<Expr>();
  e->kind = Kind::Binary;
  e->bin_op = op;
  e->height = std::max(lhs->height, rhs->height) + 1;
  e->args.push_back(std::move(lhs));
  e->args.push_back(std::move(rhs));
  e->loc = loc;
  return e;
}

ExprPtr Expr::call(std::string name, std::vector<ExprPtr> args,
                   SourceLoc loc) {
  auto e = std::make_shared<Expr>();
  e->kind = Kind::Call;
  e->name = std::move(name);
  e->args = std::move(args);
  for (const auto& arg : e->args) {
    e->height = std::max(e->height, arg->height);
  }
  ++e->height;
  e->loc = loc;
  return e;
}

namespace {

std::string bin_op_text(BinOp op) {
  switch (op) {
    case BinOp::Add: return "+";
    case BinOp::Sub: return "-";
    case BinOp::Mul: return "*";
    case BinOp::Div: return "/";
    case BinOp::Mod: return "mod";
    case BinOp::Eq: return "==";
    case BinOp::Ne: return "!=";
    case BinOp::Lt: return "<";
    case BinOp::Le: return "<=";
    case BinOp::Gt: return ">";
    case BinOp::Ge: return ">=";
    case BinOp::And: return "and";
    case BinOp::Or: return "or";
  }
  return "?";
}

}  // namespace

std::string Expr::to_string() const {
  switch (kind) {
    case Kind::IntLit:
      return std::to_string(value);
    case Kind::Var:
      return name;
    case Kind::Unary:
      return (un_op == UnOp::Neg ? "-" : "not ") +
             std::string("(") + args[0]->to_string() + ")";
    case Kind::Binary: {
      std::string out = "(";
      out += args[0]->to_string();
      out += ' ';
      out += bin_op_text(bin_op);
      out += ' ';
      out += args[1]->to_string();
      out += ')';
      return out;
    }
    case Kind::Call: {
      std::string out = name + "(";
      for (std::size_t i = 0; i < args.size(); ++i) {
        if (i != 0) {
          out += ", ";
        }
        out += args[i]->to_string();
      }
      return out + ")";
    }
  }
  return "?";
}

std::string PhaseExprNode::to_string() const {
  switch (kind) {
    case Kind::Idle:
      return "eps";
    case Kind::Ref:
      return ref_name;
    case Kind::Seq: {
      std::string out = "(";
      for (std::size_t i = 0; i < children.size(); ++i) {
        if (i != 0) {
          out += "; ";
        }
        out += children[i].to_string();
      }
      return out + ")";
    }
    case Kind::Par: {
      std::string out = "(";
      for (std::size_t i = 0; i < children.size(); ++i) {
        if (i != 0) {
          out += " || ";
        }
        out += children[i].to_string();
      }
      return out + ")";
    }
    case Kind::Repeat:
      return children.front().to_string() + "^" + count->to_string();
  }
  return "?";
}

const NodeTypeDecl* Program::find_nodetype(
    const std::string& type_name) const {
  for (const auto& nt : nodetypes) {
    if (nt.name == type_name) {
      return &nt;
    }
  }
  return nullptr;
}

namespace {

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Program parse() {
    Program program;
    program.loc = current().loc;
    expect(TokenKind::KwAlgorithm);
    program.name = expect(TokenKind::Identifier).text;
    expect(TokenKind::LParen);
    if (!at(TokenKind::RParen)) {
      program.params.push_back(expect(TokenKind::Identifier).text);
      while (accept(TokenKind::Comma)) {
        program.params.push_back(expect(TokenKind::Identifier).text);
      }
    }
    expect(TokenKind::RParen);
    expect(TokenKind::Semicolon);

    while (!at(TokenKind::EndOfFile)) {
      parse_declaration(program);
    }
    check_semantics(program);
    return program;
  }

  ExprPtr parse_standalone_expression() {
    ExprPtr e = parse_expr();
    expect(TokenKind::EndOfFile);
    return e;
  }

 private:
  /// Deepest nesting the expression and phase-expression parsers
  /// accept, in levels. The parser may stand inside at most this many
  /// parentheses, unary operators and call argument lists, which bounds
  /// its recursion; and no tree it builds may be taller, which bounds
  /// the recursions of evaluation, phase lowering and the destructors
  /// (a chain of n binary or `^` operators is a tree n levels tall).
  static constexpr int kMaxNesting = 256;

  /// Throws at `loc` when `levels` passes kMaxNesting.
  static void check_nesting(int levels, SourceLoc loc) {
    if (levels > kMaxNesting) {
      throw LarcsError("nesting deeper than " +
                           std::to_string(kMaxNesting) + " levels",
                       loc);
    }
  }

  /// The node, once its height passes check_nesting.
  static ExprPtr capped(ExprPtr e) {
    check_nesting(e->height, e->loc);
    return e;
  }

  /// Sets the node's height from its children; check_nesting then
  /// passes it or throws at `loc`.
  static void set_height(PhaseExprNode& node, SourceLoc loc) {
    for (const auto& child : node.children) {
      node.height = std::max(node.height, child.height + 1);
    }
    check_nesting(node.height, loc);
  }

  /// Opens one nesting level for its scope; throws at the current token
  /// when that level would pass kMaxNesting.
  class Nested {
   public:
    explicit Nested(Parser& parser) : depth_(parser.depth_) {
      check_nesting(++depth_, parser.current().loc);
    }
    ~Nested() { --depth_; }
    Nested(const Nested&) = delete;
    Nested& operator=(const Nested&) = delete;

   private:
    int& depth_;
  };

  const Token& current() const { return tokens_[pos_]; }
  const Token& peek(std::size_t offset = 1) const {
    return tokens_[std::min(pos_ + offset, tokens_.size() - 1)];
  }
  bool at(TokenKind kind) const { return current().kind == kind; }

  bool accept(TokenKind kind) {
    if (at(kind)) {
      ++pos_;
      return true;
    }
    return false;
  }

  Token expect(TokenKind kind) {
    if (!at(kind)) {
      throw LarcsError("expected " + larcs::to_string(kind) + " but found " +
                           larcs::to_string(current().kind),
                       current().loc);
    }
    return tokens_[pos_++];
  }

  void parse_declaration(Program& program) {
    switch (current().kind) {
      case TokenKind::KwImport: {
        ++pos_;
        program.imports.push_back(expect(TokenKind::Identifier).text);
        while (accept(TokenKind::Comma)) {
          program.imports.push_back(expect(TokenKind::Identifier).text);
        }
        expect(TokenKind::Semicolon);
        return;
      }
      case TokenKind::KwConst: {
        ++pos_;
        std::string name = expect(TokenKind::Identifier).text;
        expect(TokenKind::Assign);
        ExprPtr value = parse_expr();
        expect(TokenKind::Semicolon);
        program.consts.emplace_back(std::move(name), std::move(value));
        return;
      }
      case TokenKind::KwNodetype: {
        NodeTypeDecl decl;
        decl.loc = current().loc;
        ++pos_;
        decl.name = expect(TokenKind::Identifier).text;
        expect(TokenKind::LBracket);
        decl.dims.push_back(parse_dim());
        while (accept(TokenKind::Comma)) {
          decl.dims.push_back(parse_dim());
        }
        expect(TokenKind::RBracket);
        decl.node_symmetric = accept(TokenKind::KwNodesymmetric);
        expect(TokenKind::Semicolon);
        program.nodetypes.push_back(std::move(decl));
        return;
      }
      case TokenKind::KwFamily: {
        ++pos_;
        program.family_hint = expect(TokenKind::Identifier).text;
        expect(TokenKind::Semicolon);
        return;
      }
      case TokenKind::KwComphase: {
        CommPhaseDecl decl;
        decl.loc = current().loc;
        ++pos_;
        decl.name = expect(TokenKind::Identifier).text;
        expect(TokenKind::LBrace);
        while (!accept(TokenKind::RBrace)) {
          decl.rules.push_back(parse_rule());
        }
        program.comm_phases.push_back(std::move(decl));
        return;
      }
      case TokenKind::KwExphase: {
        ExecPhaseDecl decl;
        decl.loc = current().loc;
        ++pos_;
        decl.name = expect(TokenKind::Identifier).text;
        expect(TokenKind::KwCost);
        decl.cost = parse_expr();
        expect(TokenKind::Semicolon);
        program.exec_phases.push_back(std::move(decl));
        return;
      }
      case TokenKind::KwPhases: {
        const SourceLoc loc = current().loc;
        ++pos_;
        if (program.phase_expr) {
          throw LarcsError("duplicate 'phases' declaration", loc);
        }
        program.phase_expr = parse_phase_expr();
        expect(TokenKind::Semicolon);
        return;
      }
      default:
        throw LarcsError("expected a declaration but found " +
                             larcs::to_string(current().kind),
                         current().loc);
    }
  }

  DimDecl parse_dim() {
    DimDecl dim;
    dim.binder = expect(TokenKind::Identifier).text;
    expect(TokenKind::Colon);
    dim.lo = parse_expr();
    expect(TokenKind::DotDot);
    dim.hi = parse_expr();
    return dim;
  }

  CommRule parse_rule() {
    CommRule rule;
    rule.loc = current().loc;
    rule.src_type = expect(TokenKind::Identifier).text;
    expect(TokenKind::LParen);
    rule.pattern.push_back(expect(TokenKind::Identifier).text);
    while (accept(TokenKind::Comma)) {
      rule.pattern.push_back(expect(TokenKind::Identifier).text);
    }
    expect(TokenKind::RParen);
    expect(TokenKind::Arrow);
    rule.dst_type = expect(TokenKind::Identifier).text;
    expect(TokenKind::LParen);
    rule.target.push_back(parse_expr());
    while (accept(TokenKind::Comma)) {
      rule.target.push_back(parse_expr());
    }
    expect(TokenKind::RParen);
    if (accept(TokenKind::KwForall)) {
      rule.forall_binder = expect(TokenKind::Identifier).text;
      expect(TokenKind::Colon);
      rule.forall_lo = parse_expr();
      expect(TokenKind::DotDot);
      rule.forall_hi = parse_expr();
    }
    if (accept(TokenKind::KwWhen)) {
      rule.guard = parse_expr();
    }
    if (accept(TokenKind::KwVolume)) {
      rule.volume = parse_expr();
    }
    expect(TokenKind::Semicolon);
    return rule;
  }

  // --- phase expressions -------------------------------------------------
  //
  // Sequence binds loosest; the list ends when after a ';' the next
  // token cannot start a phase expression (declaration keyword, EOF,
  // or a closing parenthesis that belongs to the surrounding level).

  PhaseExprNode parse_phase_expr() {
    PhaseExprNode first = parse_phase_par();
    if (!at(TokenKind::Semicolon) || !phase_follows_semicolon()) {
      return first;
    }
    PhaseExprNode seq;
    seq.kind = PhaseExprNode::Kind::Seq;
    seq.loc = first.loc;
    seq.children.push_back(std::move(first));
    while (at(TokenKind::Semicolon) && phase_follows_semicolon()) {
      expect(TokenKind::Semicolon);
      seq.children.push_back(parse_phase_par());
    }
    set_height(seq, seq.loc);
    return seq;
  }

  /// After the current ';', does a phase expression continue?
  bool phase_follows_semicolon() const {
    const TokenKind next = peek().kind;
    return next == TokenKind::Identifier || next == TokenKind::LParen ||
           next == TokenKind::KwEps;
  }

  PhaseExprNode parse_phase_par() {
    PhaseExprNode first = parse_phase_rep();
    if (!at(TokenKind::ParBar)) {
      return first;
    }
    PhaseExprNode par;
    par.kind = PhaseExprNode::Kind::Par;
    par.loc = first.loc;
    par.children.push_back(std::move(first));
    while (accept(TokenKind::ParBar)) {
      par.children.push_back(parse_phase_rep());
    }
    set_height(par, par.loc);
    return par;
  }

  PhaseExprNode parse_phase_rep() {
    PhaseExprNode body = parse_phase_atom();
    while (at(TokenKind::Caret)) {
      const SourceLoc caret = current().loc;
      ++pos_;
      PhaseExprNode rep;
      rep.kind = PhaseExprNode::Kind::Repeat;
      rep.loc = body.loc;
      rep.count = parse_primary();  // INT | IDENT | ( expr )
      rep.children.push_back(std::move(body));
      set_height(rep, caret);
      body = std::move(rep);
    }
    return body;
  }

  PhaseExprNode parse_phase_atom() {
    PhaseExprNode node;
    node.loc = current().loc;
    if (accept(TokenKind::KwEps)) {
      node.kind = PhaseExprNode::Kind::Idle;
      return node;
    }
    if (at(TokenKind::Identifier)) {
      node.kind = PhaseExprNode::Kind::Ref;
      node.ref_name = expect(TokenKind::Identifier).text;
      return node;
    }
    const Nested nested(*this);
    expect(TokenKind::LParen);
    node = parse_phase_expr();
    expect(TokenKind::RParen);
    return node;
  }

  // --- arithmetic / boolean expressions ----------------------------------

  ExprPtr parse_expr() { return parse_or(); }

  ExprPtr parse_or() {
    ExprPtr lhs = parse_and();
    while (at(TokenKind::KwOr)) {
      const SourceLoc loc = current().loc;
      ++pos_;
      lhs = capped(Expr::binary(BinOp::Or, std::move(lhs), parse_and(), loc));
    }
    return lhs;
  }

  ExprPtr parse_and() {
    ExprPtr lhs = parse_not();
    while (at(TokenKind::KwAnd)) {
      const SourceLoc loc = current().loc;
      ++pos_;
      lhs = capped(Expr::binary(BinOp::And, std::move(lhs), parse_not(), loc));
    }
    return lhs;
  }

  ExprPtr parse_not() {
    if (at(TokenKind::KwNot)) {
      const Nested nested(*this);
      const SourceLoc loc = current().loc;
      ++pos_;
      return capped(Expr::unary(UnOp::Not, parse_not(), loc));
    }
    return parse_cmp();
  }

  ExprPtr parse_cmp() {
    ExprPtr lhs = parse_add();
    BinOp op;
    switch (current().kind) {
      case TokenKind::Eq: op = BinOp::Eq; break;
      case TokenKind::Ne: op = BinOp::Ne; break;
      case TokenKind::Lt: op = BinOp::Lt; break;
      case TokenKind::Le: op = BinOp::Le; break;
      case TokenKind::Gt: op = BinOp::Gt; break;
      case TokenKind::Ge: op = BinOp::Ge; break;
      default:
        return lhs;
    }
    const SourceLoc loc = current().loc;
    ++pos_;
    return capped(Expr::binary(op, std::move(lhs), parse_add(), loc));
  }

  ExprPtr parse_add() {
    ExprPtr lhs = parse_mul();
    for (;;) {
      BinOp op;
      if (at(TokenKind::Plus)) {
        op = BinOp::Add;
      } else if (at(TokenKind::Minus)) {
        op = BinOp::Sub;
      } else {
        return lhs;
      }
      const SourceLoc loc = current().loc;
      ++pos_;
      lhs = capped(Expr::binary(op, std::move(lhs), parse_mul(), loc));
    }
  }

  ExprPtr parse_mul() {
    ExprPtr lhs = parse_unary();
    for (;;) {
      BinOp op;
      if (at(TokenKind::Star)) {
        op = BinOp::Mul;
      } else if (at(TokenKind::Slash)) {
        op = BinOp::Div;
      } else if (at(TokenKind::KwMod) || at(TokenKind::Percent)) {
        op = BinOp::Mod;
      } else {
        return lhs;
      }
      const SourceLoc loc = current().loc;
      ++pos_;
      lhs = capped(Expr::binary(op, std::move(lhs), parse_unary(), loc));
    }
  }

  ExprPtr parse_unary() {
    if (at(TokenKind::Minus)) {
      const Nested nested(*this);
      const SourceLoc loc = current().loc;
      ++pos_;
      return capped(Expr::unary(UnOp::Neg, parse_unary(), loc));
    }
    return parse_primary();
  }

  ExprPtr parse_primary() {
    const SourceLoc loc = current().loc;
    if (at(TokenKind::Integer)) {
      return Expr::int_lit(expect(TokenKind::Integer).value, loc);
    }
    if (at(TokenKind::Identifier)) {
      std::string name = expect(TokenKind::Identifier).text;
      if (at(TokenKind::LParen)) {
        const Nested nested(*this);
        ++pos_;
        std::vector<ExprPtr> args;
        if (!at(TokenKind::RParen)) {
          args.push_back(parse_expr());
          while (accept(TokenKind::Comma)) {
            args.push_back(parse_expr());
          }
        }
        expect(TokenKind::RParen);
        return capped(Expr::call(std::move(name), std::move(args), loc));
      }
      return Expr::var(std::move(name), loc);
    }
    if (at(TokenKind::LParen)) {
      const Nested nested(*this);
      ++pos_;
      ExprPtr e = parse_expr();
      expect(TokenKind::RParen);
      return e;
    }
    throw LarcsError("expected an expression but found " +
                         larcs::to_string(current().kind),
                     loc);
  }

  // --- post-parse semantic checks -----------------------------------------

  static void check_semantics(const Program& program) {
    std::set<std::string> names(program.params.begin(),
                                program.params.end());
    if (names.size() != program.params.size()) {
      throw LarcsError("duplicate algorithm parameter", program.loc);
    }
    auto declare = [&names, &program](const std::string& name,
                                      const char* what,
                                      SourceLoc loc = {}) {
      if (!names.insert(name).second) {
        throw LarcsError(std::string("duplicate declaration of '") + name +
                             "' (" + what + ")",
                         loc.line > 0 ? loc : program.loc);
      }
    };
    for (const auto& imp : program.imports) {
      declare(imp, "import");
    }
    for (const auto& [name, expr] : program.consts) {
      (void)expr;
      declare(name, "const");
    }
    for (const auto& nt : program.nodetypes) {
      declare(nt.name, "nodetype", nt.loc);
      std::set<std::string> binders;
      for (const auto& dim : nt.dims) {
        if (!binders.insert(dim.binder).second) {
          throw LarcsError("duplicate dimension binder '" + dim.binder +
                               "' in nodetype '" + nt.name + "'",
                           nt.loc);
        }
      }
    }
    std::set<std::string> phase_names;
    for (const auto& cp : program.comm_phases) {
      declare(cp.name, "comphase", cp.loc);
      phase_names.insert(cp.name);
      for (const auto& rule : cp.rules) {
        const auto* src = program.find_nodetype(rule.src_type);
        if (src == nullptr) {
          throw LarcsError("rule references unknown nodetype '" +
                               rule.src_type + "'",
                           rule.loc);
        }
        const auto* dst = program.find_nodetype(rule.dst_type);
        if (dst == nullptr) {
          throw LarcsError("rule references unknown nodetype '" +
                               rule.dst_type + "'",
                           rule.loc);
        }
        if (rule.pattern.size() != src->dims.size()) {
          throw LarcsError("rule pattern arity does not match nodetype '" +
                               rule.src_type + "'",
                           rule.loc);
        }
        if (rule.target.size() != dst->dims.size()) {
          throw LarcsError("rule target arity does not match nodetype '" +
                               rule.dst_type + "'",
                           rule.loc);
        }
        std::set<std::string> binders(rule.pattern.begin(),
                                      rule.pattern.end());
        if (binders.size() != rule.pattern.size()) {
          throw LarcsError("duplicate binder in rule pattern", rule.loc);
        }
        if (rule.forall_binder && binders.count(*rule.forall_binder) > 0) {
          throw LarcsError("forall binder shadows a pattern binder",
                           rule.loc);
        }
      }
    }
    for (const auto& ep : program.exec_phases) {
      declare(ep.name, "exphase", ep.loc);
      phase_names.insert(ep.name);
    }
    if (program.phase_expr) {
      check_phase_refs(*program.phase_expr, phase_names);
    }
    if (program.nodetypes.empty()) {
      throw LarcsError("program declares no nodetype", program.loc);
    }
  }

  static void check_phase_refs(const PhaseExprNode& node,
                               const std::set<std::string>& phase_names) {
    if (node.kind == PhaseExprNode::Kind::Ref &&
        phase_names.count(node.ref_name) == 0) {
      throw LarcsError("phase expression references unknown phase '" +
                           node.ref_name + "'",
                       node.loc);
    }
    for (const auto& child : node.children) {
      check_phase_refs(child, phase_names);
    }
  }

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
  int depth_ = 0;  ///< nesting levels open around pos_ (see Nested)
};

}  // namespace

Program parse_program(std::string_view source) {
  const trace::Span span("parse");
  return Parser(lex(source)).parse();
}

ExprPtr parse_expression(std::string_view source) {
  return Parser(lex(source)).parse_standalone_expression();
}

}  // namespace oregami::larcs
