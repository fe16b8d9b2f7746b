#include <gtest/gtest.h>

#include <string>

#include "oregami/larcs/parser.hpp"
#include "oregami/larcs/programs.hpp"

namespace oregami::larcs {
namespace {

TEST(Parser, MinimalProgram) {
  const auto p = parse_program(
      "algorithm tiny(n);\n"
      "nodetype node[i: 0 .. n-1];\n");
  EXPECT_EQ(p.name, "tiny");
  EXPECT_EQ(p.params, std::vector<std::string>{"n"});
  ASSERT_EQ(p.nodetypes.size(), 1u);
  EXPECT_EQ(p.nodetypes[0].name, "node");
  EXPECT_FALSE(p.nodetypes[0].node_symmetric);
  ASSERT_EQ(p.nodetypes[0].dims.size(), 1u);
  EXPECT_EQ(p.nodetypes[0].dims[0].binder, "i");
}

TEST(Parser, NbodyFixtureHasPaperStructure) {
  const auto p = parse_program(programs::nbody());
  EXPECT_EQ(p.name, "nbody");
  EXPECT_EQ(p.params, (std::vector<std::string>{"n", "s"}));
  EXPECT_EQ(p.imports, std::vector<std::string>{"m"});
  ASSERT_EQ(p.nodetypes.size(), 1u);
  EXPECT_TRUE(p.nodetypes[0].node_symmetric);
  ASSERT_EQ(p.comm_phases.size(), 2u);
  EXPECT_EQ(p.comm_phases[0].name, "ring");
  EXPECT_EQ(p.comm_phases[1].name, "chordal");
  ASSERT_EQ(p.exec_phases.size(), 2u);
  ASSERT_TRUE(p.phase_expr.has_value());
  // ((ring; compute1)^((n+1)/2); chordal; compute2)^s
  EXPECT_EQ(p.phase_expr->kind, PhaseExprNode::Kind::Repeat);
  EXPECT_EQ(p.phase_expr->children[0].kind, PhaseExprNode::Kind::Seq);
  EXPECT_EQ(p.phase_expr->children[0].children.size(), 3u);
}

TEST(Parser, MultiDimNodetypeAndGuards) {
  const auto p = parse_program(programs::jacobi());
  ASSERT_EQ(p.nodetypes[0].dims.size(), 2u);
  ASSERT_EQ(p.comm_phases.size(), 1u);
  EXPECT_EQ(p.comm_phases[0].rules.size(), 4u);
  for (const auto& rule : p.comm_phases[0].rules) {
    EXPECT_NE(rule.guard, nullptr);
    EXPECT_NE(rule.volume, nullptr);
    EXPECT_EQ(rule.pattern.size(), 2u);
    EXPECT_EQ(rule.target.size(), 2u);
  }
  EXPECT_EQ(p.family_hint, std::optional<std::string>("mesh"));
}

TEST(Parser, ForallClause) {
  const auto p = parse_program(programs::binomial_dnc());
  const auto& rule = p.comm_phases[0].rules[0];
  ASSERT_TRUE(rule.forall_binder.has_value());
  EXPECT_EQ(*rule.forall_binder, "j");
  EXPECT_NE(rule.forall_lo, nullptr);
  EXPECT_NE(rule.forall_hi, nullptr);
}

TEST(Parser, WholeCatalogParses) {
  for (const auto& entry : programs::catalog()) {
    EXPECT_NO_THROW((void)parse_program(entry.source))
        << "program " << entry.name;
  }
  EXPECT_NO_THROW((void)parse_program(programs::fft(4)));
  EXPECT_NO_THROW((void)parse_program(programs::broadcast_vote(16)));
}

TEST(Parser, PhaseExprPrecedence) {
  const auto p = parse_program(
      "algorithm t(n);\n"
      "nodetype x[i: 0 .. n-1];\n"
      "comphase a { x(i) -> x((i+1) mod n); }\n"
      "comphase b { x(i) -> x((i+2) mod n); }\n"
      "exphase w cost 1;\n"
      "phases a; b || w; a^2;\n");
  ASSERT_TRUE(p.phase_expr.has_value());
  const auto& seq = *p.phase_expr;
  ASSERT_EQ(seq.kind, PhaseExprNode::Kind::Seq);
  ASSERT_EQ(seq.children.size(), 3u);
  EXPECT_EQ(seq.children[0].kind, PhaseExprNode::Kind::Ref);
  EXPECT_EQ(seq.children[1].kind, PhaseExprNode::Kind::Par);
  EXPECT_EQ(seq.children[2].kind, PhaseExprNode::Kind::Repeat);
  EXPECT_EQ(seq.to_string(), "(a; (b || w); a^2)");
}

TEST(Parser, EpsIsIdle) {
  const auto p = parse_program(
      "algorithm t(n);\n"
      "nodetype x[i: 0 .. n-1];\n"
      "comphase a { x(i) -> x((i+1) mod n); }\n"
      "phases eps; a;\n");
  ASSERT_TRUE(p.phase_expr.has_value());
  EXPECT_EQ(p.phase_expr->children[0].kind, PhaseExprNode::Kind::Idle);
}

TEST(Parser, NestedRepeatBindsTightly) {
  const auto p = parse_program(
      "algorithm t(n);\n"
      "nodetype x[i: 0 .. n-1];\n"
      "comphase a { x(i) -> x((i+1) mod n); }\n"
      "phases (a^2)^n;\n");
  const auto& rep = *p.phase_expr;
  ASSERT_EQ(rep.kind, PhaseExprNode::Kind::Repeat);
  EXPECT_EQ(rep.children[0].kind, PhaseExprNode::Kind::Repeat);
}

TEST(Parser, ExpressionPrecedenceAndRendering) {
  const auto e = parse_expression("1 + 2 * 3 - 4 / 2");
  // ((1 + (2*3)) - (4/2))
  EXPECT_EQ(e->to_string(), "((1 + (2 * 3)) - (4 / 2))");
  const auto cmp = parse_expression("i + 1 < n and not (j == 0)");
  EXPECT_EQ(cmp->kind, Expr::Kind::Binary);
  EXPECT_EQ(cmp->bin_op, BinOp::And);
}

TEST(Parser, CallsParse) {
  const auto e = parse_expression("pow(2, k) + log2(n)");
  EXPECT_EQ(e->kind, Expr::Kind::Binary);
  EXPECT_EQ(e->args[0]->kind, Expr::Kind::Call);
  EXPECT_EQ(e->args[0]->name, "pow");
  EXPECT_EQ(e->args[0]->args.size(), 2u);
}

// --- error cases -----------------------------------------------------------

TEST(ParserErrors, MissingAlgorithmHeader) {
  EXPECT_THROW((void)parse_program("nodetype x[i: 0 .. 3];"), LarcsError);
}

TEST(ParserErrors, DuplicatePhaseName) {
  EXPECT_THROW((void)parse_program(
                   "algorithm t(n);\n"
                   "nodetype x[i: 0 .. n-1];\n"
                   "comphase a { x(i) -> x((i+1) mod n); }\n"
                   "exphase a cost 1;\n"),
               LarcsError);
}

TEST(ParserErrors, UnknownNodetypeInRule) {
  EXPECT_THROW((void)parse_program(
                   "algorithm t(n);\n"
                   "nodetype x[i: 0 .. n-1];\n"
                   "comphase a { y(i) -> x(i); }\n"),
               LarcsError);
}

TEST(ParserErrors, ArityMismatch) {
  EXPECT_THROW((void)parse_program(
                   "algorithm t(n);\n"
                   "nodetype x[i: 0 .. n-1, j: 0 .. n-1];\n"
                   "comphase a { x(i) -> x(i, i); }\n"),
               LarcsError);
  EXPECT_THROW((void)parse_program(
                   "algorithm t(n);\n"
                   "nodetype x[i: 0 .. n-1];\n"
                   "comphase a { x(i) -> x(i, i); }\n"),
               LarcsError);
}

TEST(ParserErrors, UnknownPhaseInExpression) {
  EXPECT_THROW((void)parse_program(
                   "algorithm t(n);\n"
                   "nodetype x[i: 0 .. n-1];\n"
                   "comphase a { x(i) -> x((i+1) mod n); }\n"
                   "phases a; zz;\n"),
               LarcsError);
}

TEST(ParserErrors, DuplicateBinderInPattern) {
  EXPECT_THROW((void)parse_program(
                   "algorithm t(n);\n"
                   "nodetype x[i: 0 .. n-1, j: 0 .. n-1];\n"
                   "comphase a { x(i, i) -> x(i, i); }\n"),
               LarcsError);
}

TEST(ParserErrors, ForallShadowsPattern) {
  EXPECT_THROW((void)parse_program(
                   "algorithm t(n);\n"
                   "nodetype x[i: 0 .. n-1];\n"
                   "comphase a { x(i) -> x(i + 1) forall i: 0 .. 1; }\n"),
               LarcsError);
}

TEST(ParserErrors, NoNodetype) {
  EXPECT_THROW((void)parse_program("algorithm t(n);\n"), LarcsError);
}

TEST(ParserErrors, DuplicatePhasesDecl) {
  EXPECT_THROW((void)parse_program(
                   "algorithm t(n);\n"
                   "nodetype x[i: 0 .. n-1];\n"
                   "comphase a { x(i) -> x((i+1) mod n); }\n"
                   "phases a;\n"
                   "phases a;\n"),
               LarcsError);
}

/// A one-rule program: `rule_tail` ends its comm rule and `phases` is
/// its phase expression.
std::string rule_program(const std::string& rule_tail,
                         const std::string& phases = "a") {
  return "algorithm t(n);\nnodetype x[i: 0 .. n-1];\n"
         "comphase a { x(i) -> x((i+1) mod n) " +
         rule_tail + "; }\nphases " + phases + ";\n";
}

std::string nested(int depth, const std::string& open,
                   const std::string& core, const std::string& close) {
  std::string text;
  for (int i = 0; i < depth; ++i) {
    text += open;
  }
  text += core;
  for (int i = 0; i < depth; ++i) {
    text += close;
  }
  return text;
}

/// `terms` copies of `term` joined by `op`.
std::string chain(int terms, const std::string& term, const std::string& op) {
  std::string text = term;
  for (int i = 1; i < terms; ++i) {
    text += op + term;
  }
  return text;
}

TEST(ParserErrors, NestingPastTheCapIsALocatedError) {
  // Each level is one recursive call, so 30,000 levels would overflow
  // the stack without the cap.
  const std::string open_volume =
      "comphase a { x(i) -> x((i+1) mod n) volume ";
  auto expect_cap = [](const std::string& source, int line, int column) {
    try {
      (void)parse_program(source);
      FAIL() << "expected LarcsError";
    } catch (const LarcsError& e) {
      EXPECT_NE(std::string(e.what()).find("nesting deeper than 256 levels"),
                std::string::npos)
          << e.what();
      EXPECT_EQ(e.loc().line, line);
      if (column > 0) {
        EXPECT_EQ(e.loc().column, column);
      }
    }
  };
  // The error sits at the 257th opening token ("--" would open a
  // comment, so the minus signs are spaced).
  const int start = static_cast<int>(open_volume.size());
  expect_cap(rule_program("volume " + nested(30000, "(", "1", ")")), 3,
             start + 257);
  expect_cap(rule_program("volume " + nested(30000, "- ", "1", "")), 3,
             start + 2 * 256 + 1);
  expect_cap(rule_program("when " + nested(30000, "not ", "i > 0", "")), 3,
             0);
  expect_cap(rule_program("volume " + nested(30000, "max(1, ", "1", ")")),
             3, 0);
  // In the phase expression, on line 4.
  expect_cap(rule_program("", nested(30000, "(", "a", ")")), 4,
             static_cast<int>(std::string("phases ").size()) + 257);
  expect_cap(rule_program("", "a^" + nested(30000, "(", "2", ")")), 4, 0);
  // A chain of n binary or `^` operators is a tree n levels tall, which
  // evaluation, lowering and the destructors recurse over: the error
  // sits at the 257th operator.
  expect_cap(rule_program("volume " + chain(300, "1", "+")), 3,
             start + 2 * 257);
  expect_cap(rule_program("volume " + chain(300, "1", "*")), 3,
             start + 2 * 257);
  expect_cap(rule_program("when " + chain(300, "i > 0", " and ")), 3, 0);
  expect_cap(rule_program("when " + chain(300, "i > 0", " or ")), 3, 0);
  expect_cap(rule_program("", "a" + nested(300, "^1", "", "")), 4,
             static_cast<int>(std::string("phases ").size()) + 2 * 257);
  // A parenthesised chain as the first operand of another chain adds
  // its height.
  expect_cap(rule_program("volume (" + chain(200, "1", "+") + ")*" +
                          chain(100, "1", "*")),
             3, 0);
  // 256 levels still parse.
  EXPECT_NO_THROW((void)parse_program(
      rule_program("volume " + nested(256, "(", "1", ")"))));
  EXPECT_NO_THROW(
      (void)parse_program(rule_program("", nested(256, "(", "a", ")"))));
  EXPECT_NO_THROW((void)parse_expression(nested(256, "- ", "1", "")));
  EXPECT_THROW((void)parse_expression(nested(257, "- ", "1", "")),
               LarcsError);
  EXPECT_NO_THROW((void)parse_program(
      rule_program("volume " + chain(200, "1", "+"))));
  EXPECT_NO_THROW(
      (void)parse_program(rule_program("", "a" + nested(200, "^1", "", ""))));
  EXPECT_NO_THROW((void)parse_expression(chain(257, "1", "-")));
  EXPECT_THROW((void)parse_expression(chain(258, "1", "-")), LarcsError);
}

TEST(ParserErrors, ReportsLocation) {
  try {
    (void)parse_program("algorithm t(n);\nnodetype x[i: 0 .. n-1]\n");
    FAIL() << "expected LarcsError";
  } catch (const LarcsError& e) {
    EXPECT_GE(e.loc().line, 2);
  }
}

}  // namespace
}  // namespace oregami::larcs
