#include "dlir/program.h"

#include <sstream>
#include <utility>

#include "common/str_util.h"

namespace raqlet::dlir {

Constant Constant::Number(int64_t v) {
  Constant c;
  c.type = ValueType::kNumber;
  c.num = v;
  return c;
}

Constant Constant::Float(double v) {
  Constant c;
  c.type = ValueType::kFloat;
  c.fval = v;
  return c;
}

Constant Constant::String(std::string v) {
  Constant c;
  c.type = ValueType::kSymbol;
  c.str = std::move(v);
  return c;
}

Constant Constant::Bool(bool v) {
  Constant c;
  c.type = ValueType::kBool;
  c.bval = v;
  return c;
}

Constant Constant::Null() {
  Constant c;
  c.type = ValueType::kNull;
  return c;
}

bool Constant::operator==(const Constant& other) const {
  if (type != other.type) return false;
  switch (type) {
    case ValueType::kNumber:
      return num == other.num;
    case ValueType::kFloat:
      return fval == other.fval;
    case ValueType::kSymbol:
      return str == other.str;
    case ValueType::kBool:
      return bval == other.bval;
    case ValueType::kNull:
      return true;
  }
  return false;
}

std::string Constant::ToString() const {
  switch (type) {
    case ValueType::kNumber:
      return std::to_string(num);
    case ValueType::kFloat:
      return FormatFloat(fval);
    case ValueType::kSymbol:
      return "\"" + str + "\"";
    case ValueType::kBool:
      return bval ? "true" : "false";
    case ValueType::kNull:
      return "nil";
  }
  return "?";
}

const char* ArithOpToString(ArithOp op) {
  switch (op) {
    case ArithOp::kAdd:
      return "+";
    case ArithOp::kSub:
      return "-";
    case ArithOp::kMul:
      return "*";
    case ArithOp::kDiv:
      return "/";
    case ArithOp::kMod:
      return "%";
  }
  return "?";
}

Term Term::Var(std::string name) {
  Term t;
  t.kind = TermKind::kVariable;
  t.var = std::move(name);
  return t;
}

Term Term::Const(Constant c) {
  Term t;
  t.kind = TermKind::kConstant;
  t.constant = std::move(c);
  return t;
}

Term Term::Num(int64_t v) { return Const(Constant::Number(v)); }

Term Term::Str(std::string v) { return Const(Constant::String(std::move(v))); }

Term Term::Wildcard() { return Term(); }

Term Term::Binary(ArithOp op, Term lhs, Term rhs) {
  Term t;
  t.kind = TermKind::kBinary;
  t.op = op;
  t.children.push_back(std::move(lhs));
  t.children.push_back(std::move(rhs));
  return t;
}

void Term::CollectVars(std::set<std::string>* vars) const {
  if (kind == TermKind::kVariable) {
    vars->insert(var);
  } else if (kind == TermKind::kBinary) {
    for (const Term& child : children) child.CollectVars(vars);
  }
}

bool Term::operator==(const Term& other) const {
  if (kind != other.kind) return false;
  switch (kind) {
    case TermKind::kVariable:
      return var == other.var;
    case TermKind::kConstant:
      return constant == other.constant;
    case TermKind::kWildcard:
      return true;
    case TermKind::kBinary:
      return op == other.op && children == other.children;
  }
  return false;
}

std::string Term::ToString() const {
  switch (kind) {
    case TermKind::kVariable:
      return var;
    case TermKind::kConstant:
      return constant.ToString();
    case TermKind::kWildcard:
      return "_";
    case TermKind::kBinary:
      return "(" + children[0].ToString() + " " + ArithOpToString(op) + " " +
             children[1].ToString() + ")";
  }
  return "?";
}

void Atom::CollectVars(std::set<std::string>* vars) const {
  for (const Term& arg : args) arg.CollectVars(vars);
}

std::string Atom::ToString() const {
  std::vector<std::string> parts;
  parts.reserve(args.size());
  for (const Term& arg : args) parts.push_back(arg.ToString());
  std::string out = predicate + "(" + Join(parts, ", ") + ")";
  return negated ? "!" + out : out;
}

bool Atom::operator==(const Atom& other) const {
  return predicate == other.predicate && negated == other.negated &&
         args == other.args;
}

const char* CmpOpToString(CmpOp op) {
  switch (op) {
    case CmpOp::kEq:
      return "=";
    case CmpOp::kNe:
      return "!=";
    case CmpOp::kLt:
      return "<";
    case CmpOp::kLe:
      return "<=";
    case CmpOp::kGt:
      return ">";
    case CmpOp::kGe:
      return ">=";
  }
  return "?";
}

CmpOp SwapCmpOp(CmpOp op) {
  switch (op) {
    case CmpOp::kLt:
      return CmpOp::kGt;
    case CmpOp::kLe:
      return CmpOp::kGe;
    case CmpOp::kGt:
      return CmpOp::kLt;
    case CmpOp::kGe:
      return CmpOp::kLe;
    default:
      return op;
  }
}

void Constraint::CollectVars(std::set<std::string>* vars) const {
  lhs.CollectVars(vars);
  rhs.CollectVars(vars);
}

std::string Constraint::ToString() const {
  return lhs.ToString() + " " + CmpOpToString(op) + " " + rhs.ToString();
}

bool Constraint::operator==(const Constraint& other) const {
  return op == other.op && lhs == other.lhs && rhs == other.rhs;
}

const char* AggFuncToString(AggFunc func) {
  switch (func) {
    case AggFunc::kCount:
      return "count";
    case AggFunc::kSum:
      return "sum";
    case AggFunc::kMin:
      return "min";
    case AggFunc::kMax:
      return "max";
    case AggFunc::kAvg:
      return "avg";
  }
  return "?";
}

std::string Aggregate::ToString() const {
  if (func == AggFunc::kCount) return "count()";
  return std::string(AggFuncToString(func)) + "(" + arg.ToString() + ")";
}

std::set<std::string> Rule::PositiveBodyVars() const {
  std::set<std::string> vars;
  for (const Atom& atom : body) {
    if (!atom.negated) atom.CollectVars(&vars);
  }
  return vars;
}

namespace {

bool AllVarsIn(const Term& term, const std::set<std::string>& vars) {
  switch (term.kind) {
    case TermKind::kVariable:
      return vars.count(term.var) > 0;
    case TermKind::kBinary:
      return AllVarsIn(term.children[0], vars) &&
             AllVarsIn(term.children[1], vars);
    default:
      return true;
  }
}

}  // namespace

void Rule::BindThroughEqualities(std::set<std::string>* bound) const {
  bool changed = true;
  while (changed) {
    changed = false;
    for (const Constraint& c : constraints) {
      if (c.op != CmpOp::kEq) continue;
      for (const auto& [target, source] :
           {std::pair{&c.lhs, &c.rhs}, std::pair{&c.rhs, &c.lhs}}) {
        if (target->is_var() && bound->count(target->var) == 0 &&
            AllVarsIn(*source, *bound)) {
          bound->insert(target->var);
          changed = true;
        }
      }
    }
  }
}

std::set<std::string> Rule::AllVars() const {
  std::set<std::string> vars;
  head.CollectVars(&vars);
  for (const Atom& atom : body) atom.CollectVars(&vars);
  for (const Constraint& c : constraints) c.CollectVars(&vars);
  return vars;
}

bool Rule::BodyUses(const std::string& predicate) const {
  for (const Atom& atom : body) {
    if (atom.predicate == predicate) return true;
  }
  return false;
}

std::string Rule::ToString() const {
  // Render the head, substituting the aggregate expression at the
  // aggregation position if present.
  std::vector<std::string> head_args;
  for (size_t i = 0; i < head.args.size(); ++i) {
    if (agg.has_value() && static_cast<int>(i) == agg_result_pos) {
      head_args.push_back(agg->ToString());
    } else {
      head_args.push_back(head.args[i].ToString());
    }
  }
  std::string out = head.predicate + "(" + Join(head_args, ", ") + ")";
  if (body.empty() && constraints.empty()) return out + ".";
  out += " :- ";
  std::vector<std::string> parts;
  for (const Atom& atom : body) parts.push_back(atom.ToString());
  for (const Constraint& c : constraints) parts.push_back(c.ToString());
  out += Join(parts, ", ");
  out += ".";
  return out;
}

std::string RelationDecl::ToString() const {
  std::vector<std::string> cols;
  for (size_t i = 0; i < columns.size(); ++i) {
    std::string col = columns[i].name + ": " + ValueTypeToString(columns[i].type);
    if (lattice != LatticeKind::kNone && i + 1 == columns.size()) {
      col += lattice == LatticeKind::kMin ? " @min" : " @max";
    }
    cols.push_back(col);
  }
  return ".decl " + name + "(" + Join(cols, ", ") + ")";
}

const RelationDecl* Program::FindDecl(const std::string& name) const {
  for (const RelationDecl& d : decls) {
    if (d.name == name) return &d;
  }
  return nullptr;
}

RelationDecl* Program::FindDecl(const std::string& name) {
  for (RelationDecl& d : decls) {
    if (d.name == name) return &d;
  }
  return nullptr;
}

std::vector<std::string> Program::OutputRelations() const {
  std::vector<std::string> out;
  for (const RelationDecl& d : decls) {
    if (d.is_output) out.push_back(d.name);
  }
  return out;
}

std::vector<std::string> Program::InputRelations() const {
  std::vector<std::string> out;
  for (const RelationDecl& d : decls) {
    if (d.is_input) out.push_back(d.name);
  }
  return out;
}

std::set<std::string> Program::IdbPredicates() const {
  std::set<std::string> out;
  for (const Rule& rule : rules) out.insert(rule.head.predicate);
  return out;
}

std::string Program::ToString() const {
  std::ostringstream os;
  for (const RelationDecl& d : decls) {
    os << d.ToString() << "\n";
    if (d.is_input) os << ".input " << d.name << "\n";
  }
  os << "\n";
  for (const Rule& rule : rules) os << rule.ToString() << "\n";
  for (const RelationDecl& d : decls) {
    if (d.is_output) os << ".output " << d.name << "\n";
  }
  return os.str();
}

std::string VarGen::Fresh(const std::string& prefix) {
  while (true) {
    std::string candidate =
        counter_ == 0 ? prefix : prefix + "_" + std::to_string(counter_);
    ++counter_;
    if (reserved_.insert(candidate).second) return candidate;
  }
}

}  // namespace raqlet::dlir
