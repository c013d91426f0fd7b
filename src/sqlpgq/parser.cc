#include "sqlpgq/parser.h"

#include <climits>

#include "common/lexer.h"
#include "cypher/parser.h"

namespace raqlet::sqlpgq {

namespace {

using cypher::EdgeDirection;
using cypher::EdgePattern;
using cypher::Expr;
using cypher::MatchClause;
using cypher::NodePattern;
using cypher::ParseExpr;
using cypher::PathPattern;
using cypher::ReturnClause;
using cypher::ReturnItem;

// SQL/PGQ statement, pattern and quantifier syntax over the shared
// cursor; every scalar expression goes through Cypher's grammar.
class Parser : public TokenCursor {
 public:
  using TokenCursor::TokenCursor;

  Result<PgqQuery> Parse() {
    PgqQuery out;
    RAQLET_RETURN_IF_ERROR(ExpectKeyword("SELECT"));
    bool distinct = MatchKeyword("DISTINCT");

    // Outer projection: '*' or a list of column names.
    std::vector<std::string> outer_columns;
    bool star = MatchPunct("*");
    if (!star) {
      while (true) {
        RAQLET_ASSIGN_OR_RETURN(std::string name, ExpectIdent());
        outer_columns.push_back(std::move(name));
        if (!MatchPunct(",")) break;
      }
    }

    RAQLET_RETURN_IF_ERROR(ExpectKeyword("FROM"));
    RAQLET_RETURN_IF_ERROR(ExpectKeyword("GRAPH_TABLE"));
    RAQLET_RETURN_IF_ERROR(ExpectPunct("("));
    RAQLET_ASSIGN_OR_RETURN(out.graph_name, ExpectIdent());
    RAQLET_RETURN_IF_ERROR(ExpectPunct(","));

    RAQLET_RETURN_IF_ERROR(ExpectKeyword("MATCH"));
    bool shortest = false;
    if (MatchKeyword("ANY")) {
      RAQLET_RETURN_IF_ERROR(ExpectKeyword("SHORTEST"));
      shortest = true;
    }
    MatchClause match;
    while (true) {
      RAQLET_ASSIGN_OR_RETURN(PathPattern path, ParsePathPattern());
      path.shortest = shortest;
      match.patterns.push_back(std::move(path));
      if (!MatchPunct(",")) break;
    }
    // Per-element WHEREs gathered during pattern parsing + the global one.
    if (MatchKeyword("WHERE")) {
      RAQLET_ASSIGN_OR_RETURN(Expr where, ParseExpr(this));
      element_filters_.push_back(std::move(where));
    }
    if (!element_filters_.empty()) {
      Expr combined = element_filters_[0];
      for (size_t i = 1; i < element_filters_.size(); ++i) {
        combined = Expr::Binary(cypher::BinOp::kAnd, std::move(combined),
                                element_filters_[i]);
      }
      match.where = std::move(combined);
    }

    RAQLET_RETURN_IF_ERROR(ExpectKeyword("COLUMNS"));
    RAQLET_RETURN_IF_ERROR(ExpectPunct("("));
    ReturnClause ret;
    ret.distinct = distinct;
    std::vector<ReturnItem> columns;
    while (true) {
      ReturnItem item;
      RAQLET_ASSIGN_OR_RETURN(item.expr, ParseExpr(this));
      RAQLET_RETURN_IF_ERROR(ExpectKeyword("AS"));
      RAQLET_ASSIGN_OR_RETURN(item.alias, ExpectIdent());
      columns.push_back(std::move(item));
      if (!MatchPunct(",")) break;
    }
    RAQLET_RETURN_IF_ERROR(ExpectPunct(")"));
    RAQLET_RETURN_IF_ERROR(ExpectPunct(")"));
    if (MatchKeyword("AS")) {
      RAQLET_RETURN_IF_ERROR(ExpectIdent().status());
    }

    // Outer projection selects from the COLUMNS aliases.
    if (star) {
      ret.items = std::move(columns);
    } else {
      for (const std::string& name : outer_columns) {
        const ReturnItem* found = nullptr;
        for (const ReturnItem& item : columns) {
          if (item.alias == name) found = &item;
        }
        if (found == nullptr) {
          return Status::InvalidArgument(
              "outer SELECT references '" + name +
              "', which is not among the GRAPH_TABLE COLUMNS");
        }
        ret.items.push_back(*found);
      }
    }

    out.query.clauses.push_back(std::move(match));
    out.query.clauses.push_back(std::move(ret));
    return out;
  }

 private:
  // ---- PGQ patterns ----

  Result<NodePattern> ParseNodePattern() {
    RAQLET_RETURN_IF_ERROR(ExpectPunct("("));
    NodePattern node;
    if (Peek().kind == Token::kIdent && !PeekKeyword("IS")) {
      node.var = Advance().text;
    }
    if (MatchKeyword("IS") || MatchPunct(":")) {
      RAQLET_ASSIGN_OR_RETURN(node.label, ExpectIdent());
    }
    if (MatchKeyword("WHERE")) {
      RAQLET_ASSIGN_OR_RETURN(Expr filter, ParseExpr(this));
      element_filters_.push_back(std::move(filter));
    }
    RAQLET_RETURN_IF_ERROR(ExpectPunct(")"));
    return node;
  }

  Result<EdgePattern> ParseEdgePattern() {
    EdgePattern edge;
    bool from_left = MatchPunct("<-");
    if (!from_left) RAQLET_RETURN_IF_ERROR(ExpectPunct("-"));
    if (MatchPunct("[")) {
      if (Peek().kind == Token::kIdent && !PeekKeyword("IS")) {
        edge.var = Advance().text;
      }
      if (MatchKeyword("IS") || MatchPunct(":")) {
        RAQLET_ASSIGN_OR_RETURN(edge.type, ExpectIdent());
      }
      if (MatchKeyword("WHERE")) {
        RAQLET_ASSIGN_OR_RETURN(Expr filter, ParseExpr(this));
        element_filters_.push_back(std::move(filter));
      }
      RAQLET_RETURN_IF_ERROR(ExpectPunct("]"));
    }
    bool to_right = MatchPunct("->");
    if (!to_right) RAQLET_RETURN_IF_ERROR(ExpectPunct("-"));
    if (from_left && to_right) return Errorf("edge cannot point both ways");
    if (from_left) {
      edge.direction = EdgeDirection::kIncoming;
    } else if (to_right) {
      edge.direction = EdgeDirection::kOutgoing;
    } else {
      edge.direction = EdgeDirection::kUndirected;
    }
    // Quantifier: {m,n} / {m,} after the arrow.
    if (MatchPunct("{")) {
      edge.variable_length = true;
      RAQLET_ASSIGN_OR_RETURN(edge.min_hops, ExpectNumber(INT_MAX));
      edge.max_hops = edge.min_hops;  // {n} = exactly n
      if (MatchPunct(",")) {
        edge.max_hops = EdgePattern::kUnboundedHops;
        if (Peek().kind == Token::kNumber) {
          RAQLET_ASSIGN_OR_RETURN(edge.max_hops, ExpectNumber(INT_MAX));
        }
      }
      RAQLET_RETURN_IF_ERROR(ExpectPunct("}"));
    }
    return edge;
  }

  Result<PathPattern> ParsePathPattern() {
    PathPattern path;
    RAQLET_ASSIGN_OR_RETURN(path.start, ParseNodePattern());
    while (PeekPunct("-") || PeekPunct("<-")) {
      RAQLET_ASSIGN_OR_RETURN(EdgePattern edge, ParseEdgePattern());
      RAQLET_ASSIGN_OR_RETURN(NodePattern node, ParseNodePattern());
      path.steps.emplace_back(std::move(edge), std::move(node));
    }
    return path;
  }

  std::vector<Expr> element_filters_;
};

}  // namespace

Result<PgqQuery> ParseQuery(const std::string& source) {
  LexerConfig config;
  config.multi_char_puncts = {"<-", "->", "<=", ">=", "<>"};
  config.single_puncts = "()[]{},.:*=<>+-/%$";
  RAQLET_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(source, config));
  Parser parser(std::move(tokens));
  return parser.Parse();
}

}  // namespace raqlet::sqlpgq
