#ifndef RAQLET_OPT_MAGIC_SETS_H_
#define RAQLET_OPT_MAGIC_SETS_H_

// Magic-set transformation [7] (§5, "pushing operators past recursion").
//
// Given a query that calls a recursive predicate with some arguments bound
// to constants (e.g. `out(y) :- tc(1, y).`), the transformation generates
// adorned predicates (`tc_bf`) and magic predicates (`m_tc_bf`) so that
// bottom-up evaluation only derives facts relevant to the bound constants
// — turning whole-graph transitive closure into single-source reachability.
//
// Sideways information passing: left-to-right over body atoms, with
// equality constraints contributing bindings (dlir::Rule's binding rule,
// BindThroughEqualities). The transformation bails out (returning the
// program unchanged) when the query region uses negation, aggregation, or
// lattice relations, or when the rewritten program fails the structural
// check (analysis::VerifyStructure).

#include <string>

#include "common/status.h"
#include "dlir/program.h"

namespace raqlet::opt {

/// Auto-detects a query atom: the first positive body atom of an output
/// rule whose predicate is a recursive IDB and that has at least one
/// constant argument (run PushdownConstants first so `v = 42` constraints
/// have become inline constants). Returns the program unchanged if no such
/// atom exists or the region is ineligible.
Result<dlir::Program> ApplyMagicSets(const dlir::Program& program);

/// Applies the transformation for an explicit query predicate and
/// adornment ('b'/'f' per argument, e.g. "bf"). The seed magic fact is
/// taken from the (unique) call site in an output rule.
Result<dlir::Program> ApplyMagicSetsTo(const dlir::Program& program,
                                       const std::string& query_predicate,
                                       const std::string& adornment);

}  // namespace raqlet::opt

#endif  // RAQLET_OPT_MAGIC_SETS_H_
