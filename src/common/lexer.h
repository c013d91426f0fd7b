#ifndef RAQLET_COMMON_LEXER_H_
#define RAQLET_COMMON_LEXER_H_

// The tokenizer and token cursor shared by every parser: PG-Schema,
// Cypher/GQL, SQL/PGQ and Datalog differ only in their punctuation.

#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace raqlet {

struct Token {
  enum Kind { kIdent, kNumber, kFloat, kString, kPunct, kEof };
  Kind kind = kEof;
  std::string text;
  int line = 1;
  int col = 1;
};

struct LexerConfig {
  /// Multi-character punctuation, matched longest-first in the given
  /// order (e.g. "->", "<=", "..").
  std::vector<std::string> multi_char_puncts;
  /// Accepted single-character punctuation.
  std::string single_puncts;
};

/// Tokenizes `source`: identifiers `[A-Za-z_][A-Za-z0-9_]*`, integers,
/// floats (a '.' continues a number only before a digit, and only once),
/// double-quoted strings with `\n`/`\t` escapes, the configured
/// punctuation, and `//` line and `/* */` block comments. `--` is not a
/// comment: it is an undirected edge in Cypher and SQL/PGQ. The final
/// token is always kEof. Errors carry 1-based line/column positions.
Result<std::vector<Token>> Tokenize(const std::string& source,
                                    const LexerConfig& config);

/// A read position in Tokenize's output (which ends in kEof), with the
/// recursive-descent primitives every parser shares. Errors read
/// "<what> at line L, col C (got '<token>')" for the current token.
class TokenCursor {
 public:
  explicit TokenCursor(std::vector<Token> tokens)
      : tokens_(std::move(tokens)) {}

  /// Looks `ahead` tokens past the current one; past the end is kEof.
  const Token& Peek(int ahead = 0) const {
    size_t i = pos_ + static_cast<size_t>(ahead);
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  bool AtEof() const { return Peek().kind == Token::kEof; }
  /// Returns the current token and moves past it.
  const Token& Advance() {
    const Token& t = Peek();
    if (pos_ < tokens_.size()) ++pos_;
    return t;
  }

  bool PeekPunct(const std::string& text, int ahead = 0) const {
    return Peek(ahead).kind == Token::kPunct && Peek(ahead).text == text;
  }
  bool MatchPunct(const std::string& text);
  Status ExpectPunct(const std::string& text);

  /// Keywords are identifiers compared case-insensitively with the
  /// upper-case `upper`.
  bool PeekKeyword(const std::string& upper, int ahead = 0) const;
  bool MatchKeyword(const std::string& upper);
  Status ExpectKeyword(const std::string& upper);

  Result<std::string> ExpectIdent();
  /// Consumes an integer token whose value is at most `max`.
  Result<int64_t> ExpectNumber(
      int64_t max = std::numeric_limits<int64_t>::max());
  /// Consumes a float token whose value is finite.
  Result<double> ExpectFloat();

  Status Errorf(const std::string& what) const;

 private:
  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace raqlet

#endif  // RAQLET_COMMON_LEXER_H_
