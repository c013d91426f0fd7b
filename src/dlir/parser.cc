#include "dlir/parser.h"

#include <optional>
#include <vector>

#include "common/lexer.h"

namespace raqlet::dlir {

namespace {

std::optional<AggFunc> AggFuncFromName(const std::string& name) {
  if (name == "count") return AggFunc::kCount;
  if (name == "sum") return AggFunc::kSum;
  if (name == "min") return AggFunc::kMin;
  if (name == "max") return AggFunc::kMax;
  if (name == "avg" || name == "mean") return AggFunc::kAvg;
  return std::nullopt;
}

class Parser : public TokenCursor {
 public:
  using TokenCursor::TokenCursor;

  Result<Program> Parse() {
    Program program;
    while (!AtEof()) {
      if (PeekPunct(".")) {
        RAQLET_RETURN_IF_ERROR(ParseDirective(&program));
      } else {
        RAQLET_ASSIGN_OR_RETURN(Rule rule, ParseRule());
        program.rules.push_back(std::move(rule));
      }
    }
    return program;
  }

 private:
  Status ParseDirective(Program* program) {
    RAQLET_RETURN_IF_ERROR(ExpectPunct("."));
    RAQLET_ASSIGN_OR_RETURN(std::string word, ExpectIdent());
    if (word == "decl") {
      RelationDecl decl;
      RAQLET_ASSIGN_OR_RETURN(decl.name, ExpectIdent());
      RAQLET_RETURN_IF_ERROR(ExpectPunct("("));
      while (true) {
        Column col;
        RAQLET_ASSIGN_OR_RETURN(col.name, ExpectIdent());
        RAQLET_RETURN_IF_ERROR(ExpectPunct(":"));
        RAQLET_ASSIGN_OR_RETURN(std::string type_name, ExpectIdent());
        if (type_name == "number" || type_name == "unsigned") {
          col.type = ValueType::kNumber;
        } else if (type_name == "symbol") {
          col.type = ValueType::kSymbol;
        } else if (type_name == "float") {
          col.type = ValueType::kFloat;
        } else if (type_name == "bool") {
          col.type = ValueType::kBool;
        } else {
          return Errorf("unknown column type '" + type_name + "'");
        }
        decl.columns.push_back(std::move(col));
        if (!MatchPunct(",")) break;
      }
      RAQLET_RETURN_IF_ERROR(ExpectPunct(")"));
      if (MatchPunct("@")) {
        RAQLET_ASSIGN_OR_RETURN(std::string lattice, ExpectIdent());
        if (lattice == "min") {
          decl.lattice = LatticeKind::kMin;
        } else if (lattice == "max") {
          decl.lattice = LatticeKind::kMax;
        } else {
          return Errorf("unknown lattice '" + lattice + "'");
        }
      }
      program->decls.push_back(std::move(decl));
      return Status::OK();
    }
    if (word == "input" || word == "output") {
      RAQLET_ASSIGN_OR_RETURN(std::string name, ExpectIdent());
      RelationDecl* decl = program->FindDecl(name);
      if (decl == nullptr) {
        return Errorf("." + word + " of undeclared relation '" + name + "'");
      }
      if (word == "input") {
        decl->is_input = true;
      } else {
        decl->is_output = true;
      }
      return Status::OK();
    }
    return Errorf("unknown directive '." + word + "'");
  }

  Result<Rule> ParseRule() {
    Rule rule;
    RAQLET_RETURN_IF_ERROR(ParseHeadAtom(&rule));
    if (MatchPunct(".")) return rule;  // fact
    RAQLET_RETURN_IF_ERROR(ExpectPunct(":-"));
    while (true) {
      RAQLET_RETURN_IF_ERROR(ParseLiteral(&rule));
      if (!MatchPunct(",")) break;
    }
    RAQLET_RETURN_IF_ERROR(ExpectPunct("."));
    return rule;
  }

  // Head atoms may contain aggregate expressions: Head(x, count()).
  Status ParseHeadAtom(Rule* rule) {
    RAQLET_ASSIGN_OR_RETURN(rule->head.predicate, ExpectIdent());
    RAQLET_RETURN_IF_ERROR(ExpectPunct("("));
    while (true) {
      // Aggregate? `func ( term? )` where func is an agg name.
      if (Peek().kind == Token::kIdent && PeekPunct("(", 1)) {
        std::optional<AggFunc> func = AggFuncFromName(Peek().text);
        if (func.has_value()) {
          if (rule->agg.has_value()) {
            return Errorf("multiple aggregates in one head");
          }
          Advance();  // func name
          RAQLET_RETURN_IF_ERROR(ExpectPunct("("));
          Aggregate agg;
          agg.func = *func;
          if (!PeekPunct(")")) {
            RAQLET_ASSIGN_OR_RETURN(agg.arg, ParseTerm());
          } else if (*func != AggFunc::kCount) {
            return Errorf("aggregate " +
                          std::string(AggFuncToString(*func)) +
                          " requires an argument");
          }
          RAQLET_RETURN_IF_ERROR(ExpectPunct(")"));
          rule->agg = agg;
          rule->agg_result_pos = static_cast<int>(rule->head.args.size());
          // The result slot is a fresh variable named after the function.
          rule->head.args.push_back(
              Term::Var("$" + std::string(AggFuncToString(*func))));
          if (!MatchPunct(",")) break;
          continue;
        }
      }
      RAQLET_ASSIGN_OR_RETURN(Term term, ParseTerm());
      rule->head.args.push_back(std::move(term));
      if (!MatchPunct(",")) break;
    }
    return ExpectPunct(")");
  }

  Status ParseLiteral(Rule* rule) {
    if (MatchPunct("!")) {
      RAQLET_ASSIGN_OR_RETURN(Atom atom, ParseAtom());
      atom.negated = true;
      rule->body.push_back(std::move(atom));
      return Status::OK();
    }
    // An atom starts with IDENT '(' — but so does an arithmetic call; only
    // atoms are supported at literal position, so IDENT '(' is
    // unambiguous. Everything else is a constraint.
    if (Peek().kind == Token::kIdent && PeekPunct("(", 1)) {
      RAQLET_ASSIGN_OR_RETURN(Atom atom, ParseAtom());
      rule->body.push_back(std::move(atom));
      return Status::OK();
    }
    Constraint c;
    RAQLET_ASSIGN_OR_RETURN(c.lhs, ParseTerm());
    if (MatchPunct("=")) {
      c.op = CmpOp::kEq;
    } else if (MatchPunct("!=")) {
      c.op = CmpOp::kNe;
    } else if (MatchPunct("<=")) {
      c.op = CmpOp::kLe;
    } else if (MatchPunct(">=")) {
      c.op = CmpOp::kGe;
    } else if (MatchPunct("<")) {
      c.op = CmpOp::kLt;
    } else if (MatchPunct(">")) {
      c.op = CmpOp::kGt;
    } else {
      return Errorf("expected comparison operator");
    }
    RAQLET_ASSIGN_OR_RETURN(c.rhs, ParseTerm());
    rule->constraints.push_back(std::move(c));
    return Status::OK();
  }

  Result<Atom> ParseAtom() {
    Atom atom;
    RAQLET_ASSIGN_OR_RETURN(atom.predicate, ExpectIdent());
    RAQLET_RETURN_IF_ERROR(ExpectPunct("("));
    if (!PeekPunct(")")) {
      while (true) {
        RAQLET_ASSIGN_OR_RETURN(Term term, ParseTerm());
        atom.args.push_back(std::move(term));
        if (!MatchPunct(",")) break;
      }
    }
    RAQLET_RETURN_IF_ERROR(ExpectPunct(")"));
    return atom;
  }

  Result<Term> ParseTerm() { return ParseAdditive(); }

  Result<Term> ParseAdditive() {
    RAQLET_ASSIGN_OR_RETURN(Term lhs, ParseMultiplicative());
    while (PeekPunct("+") || PeekPunct("-")) {
      ArithOp op = Peek().text == "+" ? ArithOp::kAdd : ArithOp::kSub;
      Advance();
      RAQLET_ASSIGN_OR_RETURN(Term rhs, ParseMultiplicative());
      lhs = Term::Binary(op, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<Term> ParseMultiplicative() {
    RAQLET_ASSIGN_OR_RETURN(Term lhs, ParsePrimary());
    while (PeekPunct("*") || PeekPunct("/") || PeekPunct("%")) {
      ArithOp op = Peek().text == "*"   ? ArithOp::kMul
                   : Peek().text == "/" ? ArithOp::kDiv
                                        : ArithOp::kMod;
      Advance();
      RAQLET_ASSIGN_OR_RETURN(Term rhs, ParsePrimary());
      lhs = Term::Binary(op, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<Term> ParsePrimary() {
    const Token& t = Peek();
    switch (t.kind) {
      case Token::kNumber: {
        RAQLET_ASSIGN_OR_RETURN(int64_t value, ExpectNumber());
        return Term::Num(value);
      }
      case Token::kFloat: {
        RAQLET_ASSIGN_OR_RETURN(double value, ExpectFloat());
        return Term::Const(Constant::Float(value));
      }
      case Token::kString: {
        Advance();
        return Term::Str(t.text);
      }
      case Token::kIdent: {
        std::string name = Advance().text;
        if (name == "true") return Term::Const(Constant::Bool(true));
        if (name == "false") return Term::Const(Constant::Bool(false));
        if (name == "nil") return Term::Const(Constant::Null());
        return Term::Var(std::move(name));
      }
      case Token::kPunct:
        if (t.text == "_") {
          Advance();
          return Term::Wildcard();
        }
        if (t.text == "(") {
          Advance();
          RAQLET_ASSIGN_OR_RETURN(Term inner, ParseTerm());
          RAQLET_RETURN_IF_ERROR(ExpectPunct(")"));
          return inner;
        }
        if (t.text == "-") {
          Advance();
          RAQLET_ASSIGN_OR_RETURN(Term inner, ParsePrimary());
          return Term::Binary(ArithOp::kSub, Term::Num(0), std::move(inner));
        }
        break;
      case Token::kEof:
        break;
    }
    return Errorf("expected term");
  }
};

}  // namespace

Result<Program> ParseProgram(const std::string& source) {
  LexerConfig config;
  config.multi_char_puncts = {":-", "!=", "<=", ">="};
  config.single_puncts = "().,:!=<>+-*/%@{}";
  RAQLET_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(source, config));
  // A lone `_` is the wildcard term, never a name.
  for (Token& token : tokens) {
    if (token.kind == Token::kIdent && token.text == "_") {
      token.kind = Token::kPunct;
    }
  }
  Parser parser(std::move(tokens));
  return parser.Parse();
}

}  // namespace raqlet::dlir
