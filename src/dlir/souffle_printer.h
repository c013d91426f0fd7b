#ifndef RAQLET_DLIR_SOUFFLE_PRINTER_H_
#define RAQLET_DLIR_SOUFFLE_PRINTER_H_

// Unparser emitting DLIR as a Soufflé Datalog program (the paper's Fig. 3d
// backend). Aggregates are rendered in Soufflé's `res = func : { body }`
// form; Raqlet's lattice annotation is rendered as a comment plus a
// subsumption-free min/max post-rule, since stock Soufflé expresses the
// same thing with `.decl` + subsumptive clauses.

#include <string>

#include "dlir/program.h"

namespace raqlet::dlir {

/// Renders `program` in Soufflé's concrete syntax, with `.input`/`.output`
/// directives for its input and output relations.
std::string ToSouffle(const Program& program);

}  // namespace raqlet::dlir

#endif  // RAQLET_DLIR_SOUFFLE_PRINTER_H_
