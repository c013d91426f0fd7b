#include "opt/rewrite_util.h"

namespace raqlet::opt {

using dlir::Atom;
using dlir::Rule;
using dlir::Term;
using dlir::TermKind;

Term SubstituteTerm(const Term& term, const Subst& subst) {
  switch (term.kind) {
    case TermKind::kVariable: {
      auto it = subst.find(term.var);
      return it == subst.end() ? term : it->second;
    }
    case TermKind::kBinary: {
      Term out = term;
      out.children[0] = SubstituteTerm(term.children[0], subst);
      out.children[1] = SubstituteTerm(term.children[1], subst);
      return out;
    }
    default:
      return term;
  }
}

Atom SubstituteAtom(const Atom& atom, const Subst& subst) {
  Atom out = atom;
  for (Term& arg : out.args) arg = SubstituteTerm(arg, subst);
  return out;
}

Rule SubstituteRule(const Rule& rule, const Subst& subst) {
  Rule out = rule;
  out.head = SubstituteAtom(rule.head, subst);
  for (Atom& atom : out.body) atom = SubstituteAtom(atom, subst);
  for (dlir::Constraint& c : out.constraints) {
    c.lhs = SubstituteTerm(c.lhs, subst);
    c.rhs = SubstituteTerm(c.rhs, subst);
  }
  if (out.agg.has_value()) {
    out.agg->arg = SubstituteTerm(out.agg->arg, subst);
  }
  return out;
}

Rule RenameRuleVars(const Rule& rule, dlir::VarGen* gen) {
  Subst subst;
  for (const std::string& var : rule.AllVars()) {
    subst[var] = Term::Var(gen->Fresh(var));
  }
  return SubstituteRule(rule, subst);
}

}  // namespace raqlet::opt
