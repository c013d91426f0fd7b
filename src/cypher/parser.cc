#include "cypher/parser.h"

#include <climits>
#include <optional>

namespace raqlet::cypher {

namespace {

// ---- expressions (precedence climbing, tightest binding first) ----

Result<Expr> ParsePrimary(TokenCursor* c) {
  const Token& t = c->Peek();
  switch (t.kind) {
    case Token::kNumber: {
      RAQLET_ASSIGN_OR_RETURN(int64_t value, c->ExpectNumber());
      return Expr::Number(value);
    }
    case Token::kFloat: {
      RAQLET_ASSIGN_OR_RETURN(double value, c->ExpectFloat());
      return Expr::Literal(dlir::Constant::Float(value));
    }
    case Token::kString:
      return Expr::Str(c->Advance().text);
    case Token::kPunct:
      if (c->MatchPunct("$")) {
        RAQLET_ASSIGN_OR_RETURN(std::string name, c->ExpectIdent());
        return Expr::Parameter(std::move(name));
      }
      if (c->MatchPunct("(")) {
        RAQLET_ASSIGN_OR_RETURN(Expr inner, ParseExpr(c));
        RAQLET_RETURN_IF_ERROR(c->ExpectPunct(")"));
        return inner;
      }
      break;
    case Token::kIdent: {
      if (c->MatchKeyword("TRUE")) {
        return Expr::Literal(dlir::Constant::Bool(true));
      }
      if (c->MatchKeyword("FALSE")) {
        return Expr::Literal(dlir::Constant::Bool(false));
      }
      if (c->MatchKeyword("NULL")) return Expr::Literal(dlir::Constant::Null());
      std::string name = c->Advance().text;
      if (c->MatchPunct("(")) {  // function call
        Expr call = Expr::Call(name, {});
        if (c->MatchPunct("*")) {
          call.star_arg = true;
        } else if (!c->PeekPunct(")")) {
          call.distinct_arg = c->MatchKeyword("DISTINCT");
          while (true) {
            RAQLET_ASSIGN_OR_RETURN(Expr arg, ParseExpr(c));
            call.children.push_back(std::move(arg));
            if (!c->MatchPunct(",")) break;
          }
        }
        RAQLET_RETURN_IF_ERROR(c->ExpectPunct(")"));
        return call;
      }
      if (c->MatchPunct(".")) {
        RAQLET_ASSIGN_OR_RETURN(std::string prop, c->ExpectIdent());
        return Expr::Property(std::move(name), std::move(prop));
      }
      return Expr::Variable(std::move(name));
    }
    case Token::kEof:
      break;
  }
  return c->Errorf("expected expression");
}

Result<Expr> ParseUnary(TokenCursor* c) {
  if (c->MatchPunct("-")) {
    RAQLET_ASSIGN_OR_RETURN(Expr inner, ParseUnary(c));
    return Expr::Unary(UnOp::kNeg, std::move(inner));
  }
  return ParsePrimary(c);
}

Result<Expr> ParseMultiplicative(TokenCursor* c) {
  RAQLET_ASSIGN_OR_RETURN(Expr lhs, ParseUnary(c));
  while (c->PeekPunct("*") || c->PeekPunct("/") || c->PeekPunct("%")) {
    const std::string& text = c->Advance().text;
    BinOp op = text == "*"   ? BinOp::kMul
               : text == "/" ? BinOp::kDiv
                             : BinOp::kMod;
    RAQLET_ASSIGN_OR_RETURN(Expr rhs, ParseUnary(c));
    lhs = Expr::Binary(op, std::move(lhs), std::move(rhs));
  }
  return lhs;
}

Result<Expr> ParseAdditive(TokenCursor* c) {
  RAQLET_ASSIGN_OR_RETURN(Expr lhs, ParseMultiplicative(c));
  while (c->PeekPunct("+") || c->PeekPunct("-")) {
    BinOp op = c->Advance().text == "+" ? BinOp::kAdd : BinOp::kSub;
    RAQLET_ASSIGN_OR_RETURN(Expr rhs, ParseMultiplicative(c));
    lhs = Expr::Binary(op, std::move(lhs), std::move(rhs));
  }
  return lhs;
}

Result<Expr> ParseComparison(TokenCursor* c) {
  RAQLET_ASSIGN_OR_RETURN(Expr lhs, ParseAdditive(c));
  std::optional<BinOp> op;
  if (c->MatchPunct("=")) {
    op = BinOp::kEq;
  } else if (c->MatchPunct("<>")) {
    op = BinOp::kNe;
  } else if (c->MatchPunct("<=")) {
    op = BinOp::kLe;
  } else if (c->MatchPunct(">=")) {
    op = BinOp::kGe;
  } else if (c->MatchPunct("<")) {
    op = BinOp::kLt;
  } else if (c->MatchPunct(">")) {
    op = BinOp::kGt;
  }
  if (!op.has_value()) return lhs;
  RAQLET_ASSIGN_OR_RETURN(Expr rhs, ParseAdditive(c));
  return Expr::Binary(*op, std::move(lhs), std::move(rhs));
}

Result<Expr> ParseNot(TokenCursor* c) {
  if (c->MatchKeyword("NOT")) {
    RAQLET_ASSIGN_OR_RETURN(Expr inner, ParseNot(c));
    return Expr::Unary(UnOp::kNot, std::move(inner));
  }
  return ParseComparison(c);
}

Result<Expr> ParseAnd(TokenCursor* c) {
  RAQLET_ASSIGN_OR_RETURN(Expr lhs, ParseNot(c));
  while (c->MatchKeyword("AND")) {
    RAQLET_ASSIGN_OR_RETURN(Expr rhs, ParseNot(c));
    lhs = Expr::Binary(BinOp::kAnd, std::move(lhs), std::move(rhs));
  }
  return lhs;
}

Result<Expr> ParseOr(TokenCursor* c) {
  RAQLET_ASSIGN_OR_RETURN(Expr lhs, ParseAnd(c));
  while (c->MatchKeyword("OR")) {
    RAQLET_ASSIGN_OR_RETURN(Expr rhs, ParseAnd(c));
    lhs = Expr::Binary(BinOp::kOr, std::move(lhs), std::move(rhs));
  }
  return lhs;
}

class Parser : public TokenCursor {
 public:
  using TokenCursor::TokenCursor;

  Result<Query> Parse() {
    Query query;
    bool saw_return = false;
    while (!AtEof()) {
      if (PeekKeyword("MATCH")) {
        RAQLET_ASSIGN_OR_RETURN(MatchClause match, ParseMatch());
        query.clauses.push_back(std::move(match));
      } else if (PeekKeyword("WITH")) {
        RAQLET_ASSIGN_OR_RETURN(WithClause with, ParseWith());
        query.clauses.push_back(std::move(with));
      } else if (PeekKeyword("RETURN")) {
        RAQLET_ASSIGN_OR_RETURN(ReturnClause ret, ParseReturn());
        query.clauses.push_back(std::move(ret));
        saw_return = true;
      } else if (PeekKeyword("FILTER")) {
        // GQL's standalone FILTER statement (ISO 39075): conjoin with the
        // preceding MATCH/WITH clause's predicate.
        Advance();
        RAQLET_ASSIGN_OR_RETURN(Expr predicate, ParseExpr(this));
        RAQLET_RETURN_IF_ERROR(AttachFilter(&query, std::move(predicate)));
      } else {
        return Errorf("expected MATCH, WITH, FILTER or RETURN");
      }
    }
    if (!saw_return) {
      return Status::ParseError("query must end with a RETURN clause");
    }
    if (!std::holds_alternative<ReturnClause>(query.clauses.back())) {
      return Status::ParseError("RETURN must be the final clause");
    }
    return query;
  }

 private:
  static Status AttachFilter(Query* query, Expr predicate) {
    if (query->clauses.empty()) {
      return Status::ParseError("FILTER requires a preceding MATCH or WITH");
    }
    auto conjoin = [&](std::optional<Expr>* where) {
      if (where->has_value()) {
        *where = Expr::Binary(BinOp::kAnd, std::move(**where),
                              std::move(predicate));
      } else {
        *where = std::move(predicate);
      }
    };
    Clause& last = query->clauses.back();
    if (auto* match = std::get_if<MatchClause>(&last)) {
      conjoin(&match->where);
      return Status::OK();
    }
    if (auto* with = std::get_if<WithClause>(&last)) {
      conjoin(&with->where);
      return Status::OK();
    }
    return Status::ParseError("FILTER cannot follow RETURN");
  }

  // ---- clauses ----

  Result<MatchClause> ParseMatch() {
    RAQLET_RETURN_IF_ERROR(ExpectKeyword("MATCH"));
    MatchClause match;
    while (true) {
      RAQLET_ASSIGN_OR_RETURN(PathPattern pattern, ParsePathPattern());
      match.patterns.push_back(std::move(pattern));
      if (!MatchPunct(",")) break;
    }
    if (MatchKeyword("WHERE")) {
      RAQLET_ASSIGN_OR_RETURN(Expr where, ParseExpr(this));
      match.where = std::move(where);
    }
    return match;
  }

  Result<WithClause> ParseWith() {
    RAQLET_RETURN_IF_ERROR(ExpectKeyword("WITH"));
    WithClause with;
    with.distinct = MatchKeyword("DISTINCT");
    RAQLET_ASSIGN_OR_RETURN(with.items, ParseItems());
    if (MatchKeyword("WHERE")) {
      RAQLET_ASSIGN_OR_RETURN(Expr where, ParseExpr(this));
      with.where = std::move(where);
    }
    return with;
  }

  Result<ReturnClause> ParseReturn() {
    RAQLET_RETURN_IF_ERROR(ExpectKeyword("RETURN"));
    ReturnClause ret;
    ret.distinct = MatchKeyword("DISTINCT");
    RAQLET_ASSIGN_OR_RETURN(ret.items, ParseItems());
    if (MatchKeyword("ORDER")) {
      RAQLET_RETURN_IF_ERROR(ExpectKeyword("BY"));
      while (true) {
        OrderItem item;
        RAQLET_ASSIGN_OR_RETURN(item.expr, ParseExpr(this));
        if (MatchKeyword("DESC") || MatchKeyword("DESCENDING")) {
          item.ascending = false;
        } else if (MatchKeyword("ASC") || MatchKeyword("ASCENDING")) {
          item.ascending = true;
        }
        ret.order_by.push_back(std::move(item));
        if (!MatchPunct(",")) break;
      }
    }
    if (MatchKeyword("SKIP")) {
      RAQLET_ASSIGN_OR_RETURN(ret.skip, ExpectNumber());
    }
    if (MatchKeyword("LIMIT")) {
      RAQLET_ASSIGN_OR_RETURN(ret.limit, ExpectNumber());
    }
    return ret;
  }

  Result<std::vector<ReturnItem>> ParseItems() {
    std::vector<ReturnItem> items;
    while (true) {
      ReturnItem item;
      RAQLET_ASSIGN_OR_RETURN(item.expr, ParseExpr(this));
      if (MatchKeyword("AS")) {
        RAQLET_ASSIGN_OR_RETURN(item.alias, ExpectIdent());
      }
      items.push_back(std::move(item));
      if (!MatchPunct(",")) break;
    }
    return items;
  }

  // ---- patterns ----

  Result<PathPattern> ParsePathPattern() {
    PathPattern path;
    // Optional `p = ` prefix.
    if (Peek().kind == Token::kIdent && PeekPunct("=", 1) &&
        !PeekKeyword("SHORTESTPATH")) {
      path.path_var = Advance().text;
      Advance();  // '='
    }
    bool wrapped = false;
    if (PeekKeyword("SHORTESTPATH")) {
      Advance();
      RAQLET_RETURN_IF_ERROR(ExpectPunct("("));
      path.shortest = true;
      wrapped = true;
    }
    RAQLET_ASSIGN_OR_RETURN(path.start, ParseNodePattern());
    while (PeekPunct("-") || PeekPunct("<-")) {
      RAQLET_ASSIGN_OR_RETURN(EdgePattern edge, ParseEdgePattern());
      RAQLET_ASSIGN_OR_RETURN(NodePattern node, ParseNodePattern());
      path.steps.emplace_back(std::move(edge), std::move(node));
    }
    if (wrapped) RAQLET_RETURN_IF_ERROR(ExpectPunct(")"));
    return path;
  }

  Result<NodePattern> ParseNodePattern() {
    RAQLET_RETURN_IF_ERROR(ExpectPunct("("));
    NodePattern node;
    if (Peek().kind == Token::kIdent) {
      node.var = Advance().text;
    }
    if (MatchPunct(":")) {
      RAQLET_ASSIGN_OR_RETURN(node.label, ExpectIdent());
    }
    if (PeekPunct("{")) {
      RAQLET_ASSIGN_OR_RETURN(node.properties, ParsePropertyMap());
    }
    RAQLET_RETURN_IF_ERROR(ExpectPunct(")"));
    return node;
  }

  Result<std::vector<std::pair<std::string, Expr>>> ParsePropertyMap() {
    RAQLET_RETURN_IF_ERROR(ExpectPunct("{"));
    std::vector<std::pair<std::string, Expr>> props;
    if (!PeekPunct("}")) {
      while (true) {
        RAQLET_ASSIGN_OR_RETURN(std::string name, ExpectIdent());
        RAQLET_RETURN_IF_ERROR(ExpectPunct(":"));
        RAQLET_ASSIGN_OR_RETURN(Expr value, ParseExpr(this));
        props.emplace_back(std::move(name), std::move(value));
        if (!MatchPunct(",")) break;
      }
    }
    RAQLET_RETURN_IF_ERROR(ExpectPunct("}"));
    return props;
  }

  Result<EdgePattern> ParseEdgePattern() {
    EdgePattern edge;
    bool from_left_arrow = false;
    if (MatchPunct("<-")) {
      from_left_arrow = true;
    } else {
      RAQLET_RETURN_IF_ERROR(ExpectPunct("-"));
    }
    if (MatchPunct("[")) {
      if (Peek().kind == Token::kIdent) {
        edge.var = Advance().text;
      }
      if (MatchPunct(":")) {
        RAQLET_ASSIGN_OR_RETURN(edge.type, ExpectIdent());
      }
      if (MatchPunct("*")) {
        edge.variable_length = true;
        edge.min_hops = 1;
        edge.max_hops = EdgePattern::kUnboundedHops;
        if (Peek().kind == Token::kNumber) {
          RAQLET_ASSIGN_OR_RETURN(edge.min_hops, ExpectNumber(INT_MAX));
          edge.max_hops = edge.min_hops;  // `*n` = exactly n
        }
        if (MatchPunct("..")) {
          edge.max_hops = EdgePattern::kUnboundedHops;
          if (Peek().kind == Token::kNumber) {
            RAQLET_ASSIGN_OR_RETURN(edge.max_hops, ExpectNumber(INT_MAX));
          }
        }
      }
      if (PeekPunct("{")) {
        RAQLET_ASSIGN_OR_RETURN(edge.properties, ParsePropertyMap());
      }
      RAQLET_RETURN_IF_ERROR(ExpectPunct("]"));
    }
    bool to_right_arrow = false;
    if (MatchPunct("->")) {
      to_right_arrow = true;
    } else {
      RAQLET_RETURN_IF_ERROR(ExpectPunct("-"));
    }
    if (from_left_arrow && to_right_arrow) {
      return Errorf("edge cannot point both ways");
    }
    if (from_left_arrow) {
      edge.direction = EdgeDirection::kIncoming;
    } else if (to_right_arrow) {
      edge.direction = EdgeDirection::kOutgoing;
    } else {
      edge.direction = EdgeDirection::kUndirected;
    }
    return edge;
  }
};

}  // namespace

Result<Expr> ParseExpr(TokenCursor* cursor) { return ParseOr(cursor); }

Result<Query> ParseQuery(const std::string& source) {
  LexerConfig config;
  config.multi_char_puncts = {"<-", "->", "<=", ">=", "<>", ".."};
  config.single_puncts = "()[]{},.:*=<>+-/%$";
  RAQLET_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(source, config));
  Parser parser(std::move(tokens));
  return parser.Parse();
}

}  // namespace raqlet::cypher
