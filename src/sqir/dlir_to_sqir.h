#ifndef RAQLET_SQIR_DLIR_TO_SQIR_H_
#define RAQLET_SQIR_DLIR_TO_SQIR_H_

// DLIR -> SQIR translation (§3, Fig. 3c -> Fig. 3e).
//
// Each non-recursive DLIR predicate becomes a CTE; each recursive one a
// WITH RECURSIVE CTE. Conjunctions become inner joins; SELECT DISTINCT
// keeps set semantics; multi-rule predicates become UNIONs; negated atoms
// become NOT EXISTS subqueries. The backend-support analysis rejects
// programs recursive SQL cannot express (mutual or non-linear recursion,
// lattice relations) — run the linearization pass first where applicable.

#include "common/status.h"
#include "dlir/program.h"
#include "sqir/sqir.h"

namespace raqlet::sqir {

/// CTEs are named V1, V2, ... in dependency order (paper style).
Result<SqirProgram> TranslateToSqir(const dlir::Program& program);

}  // namespace raqlet::sqir

#endif  // RAQLET_SQIR_DLIR_TO_SQIR_H_
