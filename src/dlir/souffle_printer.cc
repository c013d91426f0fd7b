#include "dlir/souffle_printer.h"

#include <sstream>

#include "common/str_util.h"

namespace raqlet::dlir {

namespace {

const char* SouffleType(ValueType type) {
  switch (type) {
    case ValueType::kNumber:
      return "number";
    case ValueType::kFloat:
      return "float";
    case ValueType::kSymbol:
      return "symbol";
    case ValueType::kBool:
      return "number";  // Soufflé has no bool; 0/1 encoding
    case ValueType::kNull:
      return "number";
  }
  return "number";
}

std::string RenderRule(const Rule& rule) {
  if (!rule.agg.has_value()) return rule.ToString();

  // Soufflé form:  Head(g, res) :- Outer, res = func arg : { body }.
  // Our DLIR aggregates group by the non-aggregate head arguments, whose
  // bindings come from the same body; Soufflé expresses this by repeating
  // the body inside the aggregate context. We render the common pattern
  // where the body both binds the group-by variables and feeds the
  // aggregate.
  std::vector<std::string> head_args;
  std::string result_var = "agg_result";
  for (size_t i = 0; i < rule.head.args.size(); ++i) {
    if (static_cast<int>(i) == rule.agg_result_pos) {
      head_args.push_back(result_var);
    } else {
      head_args.push_back(rule.head.args[i].ToString());
    }
  }
  std::vector<std::string> body_parts;
  for (const Atom& atom : rule.body) body_parts.push_back(atom.ToString());
  for (const Constraint& c : rule.constraints) {
    body_parts.push_back(c.ToString());
  }
  std::string body_text = Join(body_parts, ", ");

  std::string func = AggFuncToString(rule.agg->func);
  if (func == std::string("avg")) func = "mean";
  std::string agg_expr = result_var + " = " + func + " ";
  if (rule.agg->func != AggFunc::kCount) {
    agg_expr += rule.agg->arg.ToString() + " ";
  }
  agg_expr += ": { " + body_text + " }";

  std::ostringstream os;
  os << rule.head.predicate << "(" << Join(head_args, ", ") << ") :- "
     << body_text << ", " << agg_expr << ".";
  return os.str();
}

}  // namespace

std::string ToSouffle(const Program& program) {
  std::ostringstream os;
  for (const RelationDecl& decl : program.decls) {
    std::vector<std::string> cols;
    for (const Column& c : decl.columns) {
      cols.push_back(c.name + ": " + SouffleType(c.type));
    }
    if (decl.lattice != LatticeKind::kNone) {
      os << "// lattice relation: last column merged with "
         << (decl.lattice == LatticeKind::kMin ? "min" : "max")
         << " (Soufflé equivalent: subsumptive clause below)\n";
    }
    os << ".decl " << decl.name << "(" << Join(cols, ", ") << ")\n";
    if (decl.lattice != LatticeKind::kNone) {
      // Soufflé 2.x subsumption clause keeping only the min/max last column
      // per group of leading columns.
      std::vector<std::string> vars1;
      std::vector<std::string> vars2;
      for (size_t i = 0; i < decl.columns.size(); ++i) {
        if (i + 1 == decl.columns.size()) {
          vars1.push_back("v1");
          vars2.push_back("v2");
        } else {
          std::string shared = "k" + std::to_string(i);
          vars1.push_back(shared);
          vars2.push_back(shared);
        }
      }
      const char* cmp = decl.lattice == LatticeKind::kMin ? "<=" : ">=";
      os << decl.name << "(" << Join(vars1, ", ") << ") <= " << decl.name
         << "(" << Join(vars2, ", ") << ") :- v1 " << cmp << " v2.\n";
    }
    if (decl.is_input) {
      os << ".input " << decl.name << "\n";
    }
  }
  os << "\n";
  for (const Rule& rule : program.rules) {
    os << RenderRule(rule) << "\n";
  }
  for (const RelationDecl& decl : program.decls) {
    if (decl.is_output) {
      os << ".output " << decl.name << "\n";
    }
  }
  return os.str();
}

}  // namespace raqlet::dlir
