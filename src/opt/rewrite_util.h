#ifndef RAQLET_OPT_REWRITE_UTIL_H_
#define RAQLET_OPT_REWRITE_UTIL_H_

// Term/rule substitution helpers shared by the optimizer passes.

#include <map>
#include <string>

#include "dlir/program.h"

namespace raqlet::opt {

/// Variable-to-term substitution map.
using Subst = std::map<std::string, dlir::Term>;

/// Applies `subst` to every variable occurrence in a term/atom/rule.
dlir::Term SubstituteTerm(const dlir::Term& term, const Subst& subst);
dlir::Atom SubstituteAtom(const dlir::Atom& atom, const Subst& subst);
dlir::Rule SubstituteRule(const dlir::Rule& rule, const Subst& subst);

/// Renames every variable of `rule` to a fresh name drawn from `gen`
/// (used before inlining a rule body into another rule).
dlir::Rule RenameRuleVars(const dlir::Rule& rule, dlir::VarGen* gen);

}  // namespace raqlet::opt

#endif  // RAQLET_OPT_REWRITE_UTIL_H_
