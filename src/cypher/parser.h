#ifndef RAQLET_CYPHER_PARSER_H_
#define RAQLET_CYPHER_PARSER_H_

// Recursive-descent parser for the Cypher subset described in
// cypher/ast.h. Keywords are case-insensitive; identifiers are
// case-sensitive.

#include <string>

#include "common/lexer.h"
#include "common/status.h"
#include "cypher/ast.h"

namespace raqlet::cypher {

/// Parses a single-query Cypher statement. The query must end in RETURN.
Result<Query> ParseQuery(const std::string& source);

/// The expression grammar of Cypher, GQL and SQL/PGQ, loosest binding
/// first: OR, AND, NOT, one comparison (= <> < <= > >=), + -, * / %,
/// unary minus, and primaries: integer, float and string literals,
/// TRUE/FALSE/NULL, $parameters, `var`, `var.prop`, `(expr)` and calls
/// `f(*)` / `f([DISTINCT] expr, ...)`. Reads one expression at `cursor`.
Result<Expr> ParseExpr(TokenCursor* cursor);

}  // namespace raqlet::cypher

#endif  // RAQLET_CYPHER_PARSER_H_
