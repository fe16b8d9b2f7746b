#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "oregami/larcs/expr_eval.hpp"
#include "oregami/larcs/parser.hpp"

namespace oregami::larcs {
namespace {

long eval_str(const std::string& src, const Env& env = {}) {
  return eval(parse_expression(src), env);
}

TEST(Eval, Arithmetic) {
  EXPECT_EQ(eval_str("1 + 2 * 3"), 7);
  EXPECT_EQ(eval_str("(1 + 2) * 3"), 9);
  EXPECT_EQ(eval_str("10 - 4 - 3"), 3);  // left associative
  EXPECT_EQ(eval_str("7 / 2"), 3);
  EXPECT_EQ(eval_str("-7 / 2"), -3);  // truncation toward zero
}

TEST(Eval, MathematicalMod) {
  EXPECT_EQ(eval_str("7 mod 3"), 1);
  EXPECT_EQ(eval_str("-1 mod 8"), 7);  // always non-negative
  EXPECT_EQ(eval_str("-9 % 4"), 3);
  EXPECT_EQ(eval_str("8 mod 8"), 0);
}

TEST(Eval, UnaryMinus) {
  EXPECT_EQ(eval_str("-5 + 2"), -3);
  EXPECT_EQ(eval_str("- -5"), 5);  // note: "--" starts a comment
  EXPECT_EQ(eval_str("3 - -2"), 5);
}

TEST(Eval, Comparisons) {
  EXPECT_EQ(eval_str("3 < 4"), 1);
  EXPECT_EQ(eval_str("4 <= 4"), 1);
  EXPECT_EQ(eval_str("5 == 5"), 1);
  EXPECT_EQ(eval_str("5 != 5"), 0);
  EXPECT_EQ(eval_str("3 > 4"), 0);
  EXPECT_EQ(eval_str("4 >= 5"), 0);
}

TEST(Eval, BooleanOpsShortCircuit) {
  EXPECT_EQ(eval_str("1 and 0"), 0);
  EXPECT_EQ(eval_str("1 or 0"), 1);
  EXPECT_EQ(eval_str("not 0"), 1);
  EXPECT_EQ(eval_str("not 3"), 0);
  // Short-circuit: the division by zero on the right is never reached.
  EXPECT_EQ(eval_str("0 and (1 / 0)"), 0);
  EXPECT_EQ(eval_str("1 or (1 / 0)"), 1);
}

TEST(Eval, Variables) {
  Env env;
  env.bind("n", 15);
  env.bind("i", 3);
  EXPECT_EQ(eval_str("(i + (n + 1) / 2) mod n", env), 11);
  EXPECT_EQ(eval_str("n * n", env), 225);
}

TEST(Eval, UnknownVariableThrows) {
  EXPECT_THROW(eval_str("x + 1"), LarcsError);
  Env env;
  EXPECT_THROW((void)env.get("missing"), LarcsError);
}

TEST(Eval, EnvBindUnbind) {
  // There is no unbind: a binder shadows a name through a slot of its
  // own (Scope), and rebinding a name replaces its value in place.
  Env env;
  env.bind("a", 1);
  EXPECT_TRUE(env.has("a"));
  EXPECT_FALSE(env.has("b"));
  env.bind("b", 2);
  env.bind("a", 3);
  EXPECT_EQ(env.get("a"), 3);
  EXPECT_EQ(env.slot_of("a"), 0);
  EXPECT_EQ(env.slot_of("b"), 1);
  EXPECT_EQ(env.slot_of("c"), -1);
  EXPECT_EQ(env.values(), (std::vector<long>{3, 2}));
}

TEST(Eval, ScopeResolvesInnermostFirst) {
  Env env;
  env.bind("n", 15);
  env.bind("i", 100);
  // Slots: n, i, then the binders i, j, i.
  const std::vector<std::string_view> binders = {"i", "j", "i"};
  const Scope scope{env, binders};
  EXPECT_EQ(scope.slot_of("n"), 0);
  EXPECT_EQ(scope.slot_of("i"), 4);
  EXPECT_EQ(scope.slot_of("j"), 3);
  EXPECT_EQ(scope.slot_of("k"), -1);
  EXPECT_EQ(Scope(env, std::span(binders).first(1)).slot_of("i"), 2);

  SlotExprs code;
  const ExprPtr expr = parse_expression("(i + (n + 1) / 2) mod n + j");
  const int handle = code.add(*expr, scope);
  EXPECT_EQ(code.eval(handle, std::vector<long>{15, 100, 7, 0, 14}), 7);
  EXPECT_EQ(code.eval(handle, std::vector<long>{15, 100, 7, 3, 0}), 11);
}

TEST(Eval, UnknownNamesThrowOnlyWhenEvaluated) {
  SlotExprs code;
  const Env env;
  const ExprPtr guarded_expr =
      parse_expression("0 and (zz + frob(1) + min(1))");
  const int guarded = code.add(*guarded_expr, Scope{env, {}});
  EXPECT_EQ(code.eval(guarded, {}), 0);
  const ExprPtr unguarded_expr = parse_expression("1 + zz");
  const int unguarded = code.add(*unguarded_expr, Scope{env, {}});
  try {
    (void)code.eval(unguarded, {});
    FAIL() << "expected an unknown variable";
  } catch (const LarcsError& e) {
    EXPECT_STREQ(e.what(), "LaRCS error at 1:5: unknown variable 'zz'");
  }
}

TEST(Eval, MinAndMaxEvaluateLeftToRight) {
  // Both arguments throw; the left one's error is the one reported.
  for (const char* src : {"min(1 / 0, 1 mod 0)", "max(1 / 0, 1 mod 0)"}) {
    try {
      (void)eval_str(src);
      FAIL() << src;
    } catch (const LarcsError& e) {
      EXPECT_STREQ(e.what(), "LaRCS error at 1:7: division by zero") << src;
    }
  }
}

TEST(Eval, DivisionAndModByZeroThrow) {
  EXPECT_THROW(eval_str("1 / 0"), LarcsError);
  EXPECT_THROW(eval_str("1 mod 0"), LarcsError);
}

TEST(Eval, Builtins) {
  EXPECT_EQ(eval_str("pow(2, 10)"), 1024);
  EXPECT_EQ(eval_str("pow(3, 0)"), 1);
  EXPECT_EQ(eval_str("log2(1)"), 0);
  EXPECT_EQ(eval_str("log2(8)"), 3);
  EXPECT_EQ(eval_str("log2(9)"), 3);  // floor
  EXPECT_EQ(eval_str("min(3, 7)"), 3);
  EXPECT_EQ(eval_str("max(3, 7)"), 7);
  EXPECT_EQ(eval_str("abs(-4)"), 4);
}

TEST(Eval, BinaryLabelingBuiltins) {
  EXPECT_EQ(eval_str("xor(5, 3)"), 6);
  EXPECT_EQ(eval_str("xor(0, 0)"), 0);
  EXPECT_EQ(eval_str("xor(12, 12)"), 0);
  EXPECT_EQ(eval_str("bit(5, 0)"), 1);
  EXPECT_EQ(eval_str("bit(5, 1)"), 0);
  EXPECT_EQ(eval_str("bit(5, 2)"), 1);
  EXPECT_EQ(eval_str("bit(5, 60)"), 0);
  EXPECT_THROW(eval_str("xor(0 - 1, 2)"), LarcsError);
  EXPECT_THROW(eval_str("bit(1, 63)"), LarcsError);
  EXPECT_THROW(eval_str("bit(0 - 1, 0)"), LarcsError);
}

TEST(Eval, BuiltinErrors) {
  EXPECT_THROW(eval_str("pow(2, -1)"), LarcsError);
  EXPECT_THROW(eval_str("log2(0)"), LarcsError);
  EXPECT_THROW(eval_str("min(1)"), LarcsError);
  EXPECT_THROW(eval_str("frobnicate(1)"), LarcsError);
}

TEST(Eval, PowOverflowGuard) {
  EXPECT_THROW(eval_str("pow(10, 30)"), LarcsError);
}

/// An environment holding the extremes of `long`: lo = LONG_MIN,
/// hi = LONG_MAX.
Env extremes() {
  Env env;
  env.bind("lo", std::numeric_limits<long>::min());
  env.bind("hi", std::numeric_limits<long>::max());
  return env;
}

/// The message `src` throws, or "" when it evaluates.
std::string error_of(const std::string& src) {
  try {
    (void)eval_str(src, extremes());
  } catch (const LarcsError& e) {
    return e.what();
  }
  return "";
}

TEST(Eval, OverflowingArithmeticThrowsWhereItHappens) {
  EXPECT_EQ(error_of("1 + hi"), "LaRCS error at 1:3: addition overflows");
  EXPECT_EQ(error_of("lo - 1"), "LaRCS error at 1:4: subtraction overflows");
  EXPECT_EQ(error_of("4611686018427387904 * 4 + 3"),
            "LaRCS error at 1:21: multiplication overflows");
  EXPECT_EQ(error_of("-lo"), "LaRCS error at 1:1: negation overflows");
  EXPECT_EQ(error_of("abs(lo)"), "LaRCS error at 1:1: abs overflows");
  EXPECT_EQ(error_of("lo / (0 - 1)"),
            "LaRCS error at 1:4: division overflows");
  // The largest results that fit still evaluate.
  const Env env = extremes();
  EXPECT_EQ(eval_str("hi - 1 + 1", env), std::numeric_limits<long>::max());
  EXPECT_EQ(eval_str("lo + 1 - 1", env), std::numeric_limits<long>::min());
  EXPECT_EQ(eval_str("(0 - 4611686018427387904) * 2", env),
            std::numeric_limits<long>::min());
  EXPECT_EQ(eval_str("-hi", env), -std::numeric_limits<long>::max());
  EXPECT_EQ(eval_str("abs(lo + 1)", env), std::numeric_limits<long>::max());
  EXPECT_EQ(eval_str("lo / 1", env), std::numeric_limits<long>::min());
  EXPECT_EQ(eval_str("hi / (0 - 1)", env), -std::numeric_limits<long>::max());
}

TEST(Eval, ModAnswersEveryNonzeroDivisor) {
  const Env env = extremes();
  EXPECT_EQ(eval_str("lo mod (0 - 1)", env), 0);
  EXPECT_EQ(eval_str("7 mod (0 - 1)", env), 0);
  EXPECT_EQ(eval_str("-7 mod (0 - 3)", env), 2);
  EXPECT_EQ(eval_str("7 mod (0 - 3)", env), 1);
  EXPECT_EQ(eval_str("-1 mod lo", env), std::numeric_limits<long>::max());
  EXPECT_EQ(eval_str("lo mod lo", env), 0);
  EXPECT_EQ(eval_str("lo mod hi", env), std::numeric_limits<long>::max() - 1);
  EXPECT_EQ(eval_str("hi mod lo", env), std::numeric_limits<long>::max());
}

TEST(Eval, PowOfSmallBasesAnswersAtOnce) {
  EXPECT_EQ(eval_str("pow(1, 4000000000000000000)"), 1);
  EXPECT_EQ(eval_str("pow(0, 4000000000000000000)"), 0);
  EXPECT_EQ(eval_str("pow(0, 0)"), 1);
  EXPECT_EQ(eval_str("pow(0 - 1, 4000000000000000000)"), 1);
  EXPECT_EQ(eval_str("pow(0 - 1, 4000000000000000001)"), -1);
  EXPECT_EQ(eval_str("pow(2, 62)"), 4611686018427387904L);
  EXPECT_EQ(eval_str("pow(0 - 2, 61)"), -2305843009213693952L);
  EXPECT_EQ(error_of("pow(2, 63)"), "LaRCS error at 1:1: pow overflows");
  EXPECT_EQ(error_of("pow(2, hi)"), "LaRCS error at 1:1: pow overflows");
  EXPECT_EQ(error_of("pow(lo, 1)"), "LaRCS error at 1:1: pow overflows");
  EXPECT_EQ(eval_str("pow(lo, 0)", extremes()), 1);
}

TEST(Eval, PaperChordalFormula) {
  // Fig 2: chordal neighbour of task i is (i + (n+1)/2) mod n; for
  // n = 15 task 0 sends to task 8 (Fig 6).
  Env env;
  env.bind("n", 15);
  env.bind("i", 0);
  EXPECT_EQ(eval_str("(i + (n + 1) / 2) mod n", env), 8);
  env.bind("i", 14);
  EXPECT_EQ(eval_str("(i + (n + 1) / 2) mod n", env), 7);
}

}  // namespace
}  // namespace oregami::larcs
