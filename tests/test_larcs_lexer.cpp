#include <gtest/gtest.h>

#include "oregami/larcs/lexer.hpp"

namespace oregami::larcs {
namespace {

std::vector<TokenKind> kinds(const std::string& src) {
  std::vector<TokenKind> out;
  for (const auto& t : lex(src)) {
    out.push_back(t.kind);
  }
  return out;
}

TEST(Lexer, EmptySourceYieldsEof) {
  const auto tokens = lex("");
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0].kind, TokenKind::EndOfFile);
}

TEST(Lexer, KeywordsAndIdentifiers) {
  const auto tokens = lex("algorithm nbody nodesymmetric volume foo_1");
  ASSERT_EQ(tokens.size(), 6u);
  EXPECT_EQ(tokens[0].kind, TokenKind::KwAlgorithm);
  EXPECT_EQ(tokens[1].kind, TokenKind::Identifier);
  EXPECT_EQ(tokens[1].text, "nbody");
  EXPECT_EQ(tokens[2].kind, TokenKind::KwNodesymmetric);
  EXPECT_EQ(tokens[3].kind, TokenKind::KwVolume);
  EXPECT_EQ(tokens[4].text, "foo_1");
}

TEST(Lexer, IntegerLiterals) {
  const auto tokens = lex("0 42 123456789");
  EXPECT_EQ(tokens[0].value, 0);
  EXPECT_EQ(tokens[1].value, 42);
  EXPECT_EQ(tokens[2].value, 123456789);
}

TEST(Lexer, IntegerOverflowThrows) {
  EXPECT_THROW(lex("99999999999999999999999999"), LarcsError);
}

TEST(Lexer, MultiCharOperators) {
  EXPECT_EQ(kinds(".. -> == != <= >= ||"),
            (std::vector<TokenKind>{TokenKind::DotDot, TokenKind::Arrow,
                                    TokenKind::Eq, TokenKind::Ne,
                                    TokenKind::Le, TokenKind::Ge,
                                    TokenKind::ParBar,
                                    TokenKind::EndOfFile}));
}

TEST(Lexer, SingleCharOperators) {
  EXPECT_EQ(kinds("( ) [ ] { } ; , : = < > + - * / % ^"),
            (std::vector<TokenKind>{
                TokenKind::LParen, TokenKind::RParen, TokenKind::LBracket,
                TokenKind::RBracket, TokenKind::LBrace, TokenKind::RBrace,
                TokenKind::Semicolon, TokenKind::Comma, TokenKind::Colon,
                TokenKind::Assign, TokenKind::Lt, TokenKind::Gt,
                TokenKind::Plus, TokenKind::Minus, TokenKind::Star,
                TokenKind::Slash, TokenKind::Percent, TokenKind::Caret,
                TokenKind::EndOfFile}));
}

TEST(Lexer, DashDashCommentRunsToEndOfLine) {
  const auto tokens = lex("a -- this is a comment -> ; ..\nb");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0].text, "a");
  EXPECT_EQ(tokens[1].text, "b");
}

TEST(Lexer, SlashSlashCommentToo) {
  const auto tokens = lex("x // comment\ny");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[1].text, "y");
}

TEST(Lexer, MinusMinusIsCommentNotTwoMinus) {
  // "a--b" swallows to EOL after 'a'.
  const auto tokens = lex("a--b");
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[0].text, "a");
}

TEST(Lexer, MinusGreaterVsMinus) {
  const auto tokens = lex("a - b -> c");
  EXPECT_EQ(tokens[1].kind, TokenKind::Minus);
  EXPECT_EQ(tokens[3].kind, TokenKind::Arrow);
}

TEST(Lexer, TracksLineAndColumn) {
  const auto tokens = lex("a\n  bb\n    c");
  EXPECT_EQ(tokens[0].loc.line, 1);
  EXPECT_EQ(tokens[0].loc.column, 1);
  EXPECT_EQ(tokens[1].loc.line, 2);
  EXPECT_EQ(tokens[1].loc.column, 3);
  EXPECT_EQ(tokens[2].loc.line, 3);
  EXPECT_EQ(tokens[2].loc.column, 5);
}

TEST(Lexer, RejectsUnknownCharacter) {
  try {
    (void)lex("a @ b");
    FAIL() << "expected LarcsError";
  } catch (const LarcsError& e) {
    EXPECT_EQ(e.loc().line, 1);
    EXPECT_EQ(e.loc().column, 3);
  }
}

TEST(Lexer, WordOperatorsAreKeywords) {
  EXPECT_EQ(kinds("mod and or not eps"),
            (std::vector<TokenKind>{TokenKind::KwMod, TokenKind::KwAnd,
                                    TokenKind::KwOr, TokenKind::KwNot,
                                    TokenKind::KwEps,
                                    TokenKind::EndOfFile}));
}

TEST(TokenKindNames, HumanReadable) {
  EXPECT_EQ(to_string(TokenKind::Arrow), "'->'");
  EXPECT_EQ(to_string(TokenKind::KwComphase), "'comphase'");
  EXPECT_EQ(to_string(TokenKind::EndOfFile), "end of file");
}

}  // namespace
}  // namespace oregami::larcs
