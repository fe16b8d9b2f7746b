#include "oregami/larcs/token.hpp"

namespace oregami::larcs {

std::string to_string(TokenKind kind) {
  switch (kind) {
    case TokenKind::Integer: return "integer";
    case TokenKind::Identifier: return "identifier";
    case TokenKind::KwAlgorithm: return "'algorithm'";
    case TokenKind::KwImport: return "'import'";
    case TokenKind::KwConst: return "'const'";
    case TokenKind::KwNodetype: return "'nodetype'";
    case TokenKind::KwNodesymmetric: return "'nodesymmetric'";
    case TokenKind::KwFamily: return "'family'";
    case TokenKind::KwComphase: return "'comphase'";
    case TokenKind::KwExphase: return "'exphase'";
    case TokenKind::KwPhases: return "'phases'";
    case TokenKind::KwForall: return "'forall'";
    case TokenKind::KwWhen: return "'when'";
    case TokenKind::KwVolume: return "'volume'";
    case TokenKind::KwCost: return "'cost'";
    case TokenKind::KwEps: return "'eps'";
    case TokenKind::KwMod: return "'mod'";
    case TokenKind::KwAnd: return "'and'";
    case TokenKind::KwOr: return "'or'";
    case TokenKind::KwNot: return "'not'";
    case TokenKind::LParen: return "'('";
    case TokenKind::RParen: return "')'";
    case TokenKind::LBracket: return "'['";
    case TokenKind::RBracket: return "']'";
    case TokenKind::LBrace: return "'{'";
    case TokenKind::RBrace: return "'}'";
    case TokenKind::Semicolon: return "';'";
    case TokenKind::Comma: return "','";
    case TokenKind::Colon: return "':'";
    case TokenKind::DotDot: return "'..'";
    case TokenKind::Arrow: return "'->'";
    case TokenKind::Assign: return "'='";
    case TokenKind::Eq: return "'=='";
    case TokenKind::Ne: return "'!='";
    case TokenKind::Le: return "'<='";
    case TokenKind::Ge: return "'>='";
    case TokenKind::Lt: return "'<'";
    case TokenKind::Gt: return "'>'";
    case TokenKind::Plus: return "'+'";
    case TokenKind::Minus: return "'-'";
    case TokenKind::Star: return "'*'";
    case TokenKind::Slash: return "'/'";
    case TokenKind::Percent: return "'%'";
    case TokenKind::Caret: return "'^'";
    case TokenKind::ParBar: return "'||'";
    case TokenKind::EndOfFile: return "end of file";
  }
  return "?";
}

}  // namespace oregami::larcs
