#ifndef RAQLET_DLIR_FOLD_H_
#define RAQLET_DLIR_FOLD_H_

// Compile-time evaluation of ground DLIR terms and comparisons with the
// engines' run-time semantics (engine/value_ops.h), so that constant
// pushdown (opt) and the RQ107 lint (analysis) decide a ground constraint
// the way every engine evaluates it. Where an engine would raise an error,
// or where its answer is not worth mirroring, the folder gives no answer.

#include <optional>

#include "dlir/program.h"

namespace raqlet::dlir {

/// Folds every ground arithmetic subterm of `term` (e.g. (2 + 3) -> 5) as
/// engine::EvalArith computes it: integer arithmetic over two numbers,
/// float arithmetic when either side is a float. Leaves unfolded an
/// operand that is not a number or float, division or modulo by zero,
/// float modulo, and integer overflow.
Term FoldConstants(const Term& term);

/// `lhs op rhs` as engine::CheckCmp decides it: `=` and `!=` compare kind
/// and value (so `1 = 1.0` is false); ordering compares numbers and floats
/// numerically and symbols lexicographically. nullopt for every other
/// ordering (bools, nil, mixed classes).
std::optional<bool> FoldComparison(CmpOp op, const Constant& lhs,
                                   const Constant& rhs);

}  // namespace raqlet::dlir

#endif  // RAQLET_DLIR_FOLD_H_
