// Token stream for the LaRCS language (paper §3).
//
// LaRCS (Language for Regular Communication Structures) describes the
// static communication topology and dynamic phase behaviour of a
// parallel computation. The paper presents LaRCS only through examples;
// this reproduction fixes a concrete grammar covering every feature the
// paper names: parameterised algorithm header, imported variables,
// multi-dimensional node label domains, `nodesymmetric` tags, nameable
// family hints, comm-phase edge rules with forall/when/volume clauses,
// exec phases with cost expressions, and phase expressions built from
// `;` (sequence), `^` (repetition), `||` (parallelism) and `eps`.
#pragma once

#include <string>
#include <vector>

#include "oregami/support/error.hpp"

namespace oregami::larcs {

enum class TokenKind {
  // literals / identifiers
  Integer,
  Identifier,
  // keywords
  KwAlgorithm,
  KwImport,
  KwConst,
  KwNodetype,
  KwNodesymmetric,
  KwFamily,
  KwComphase,
  KwExphase,
  KwPhases,
  KwForall,
  KwWhen,
  KwVolume,
  KwCost,
  KwEps,
  KwMod,
  KwAnd,
  KwOr,
  KwNot,
  // punctuation / operators
  LParen,
  RParen,
  LBracket,
  RBracket,
  LBrace,
  RBrace,
  Semicolon,
  Comma,
  Colon,
  DotDot,
  Arrow,     // ->
  Assign,    // =
  Eq,        // ==
  Ne,        // !=
  Le,        // <=
  Ge,        // >=
  Lt,        // <
  Gt,        // >
  Plus,
  Minus,
  Star,
  Slash,
  Percent,
  Caret,     // ^
  ParBar,    // ||
  EndOfFile,
};

[[nodiscard]] std::string to_string(TokenKind kind);

struct Token {
  TokenKind kind = TokenKind::EndOfFile;
  std::string text;  ///< raw lexeme (identifier name / digits)
  long value = 0;    ///< for Integer
  SourceLoc loc;
};

}  // namespace oregami::larcs
