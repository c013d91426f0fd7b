#ifndef RAQLET_ANALYSIS_TYPECHECK_H_
#define RAQLET_ANALYSIS_TYPECHECK_H_

// DLIR static checking: the one place that decides whether a DLIR program
// is well formed. Every check accumulates all of its findings (never
// stopping at the first) with a stable code per finding class.
//
//   * CheckStructure (RQ001-RQ006): declarations, arities, safety and
//     aggregate/lattice shapes. Every engine and translation entry point
//     (Datalog RunProgram, TranslateToSqir, TranslateToDlir, magic sets,
//     EXPLAIN) runs it, folded to a Status by VerifyStructure.
//   * CheckTypes (RQ010-RQ015): a type checker that infers each variable's
//     type class from the columns, literals, constraints and arithmetic it
//     flows through. It costs several times the structural check, so only
//     CheckProgram runs it.
//   * CheckProgram: both, plus the stratification violations that
//     AnalyzeStratification finds (RQ020), each with its negation cycle.
//     It is the verifier every optimizer pass boundary and `--check` are
//     held to. Programs that pass it execute on the engines without
//     tripping their runtime Status paths (or producing NaN-boxed garbage
//     from a symbol fed into arithmetic).
//
// Error codes reported here (catalogue: docs/diagnostics.md):
//   RQ001 duplicate relation declaration
//   RQ002 undeclared predicate
//   RQ003 arity mismatch
//   RQ004 unsafe rule (unbound variable, incl. aggregate inputs)
//   RQ005 invalid aggregate result position
//   RQ006 lattice declaration with non-numeric @min/@max column
//   RQ010 variable used at conflicting column types (kind-mismatch join)
//   RQ011 constant/column type mismatch
//   RQ012 comparison between incompatible types
//   RQ013 arithmetic over a non-numeric operand or column
//   RQ014 non-numeric aggregate input
//   RQ015 non-numeric aggregate result column
//   RQ020 stratification violation (with the negation/aggregation cycle)

#include <string>

#include "analysis/diagnostics.h"
#include "common/status.h"
#include "dlir/program.h"

namespace raqlet::analysis {

/// Type classes the checker reasons in. Numbers and floats share one class
/// (the engines promote between them in arithmetic and comparisons);
/// symbols and booleans are each their own class; kNull columns and
/// never-constrained variables stay unknown and unify with anything.
enum class TypeClass { kUnknown, kNumeric, kSymbol, kBool };

const char* TypeClassName(TypeClass c);
TypeClass TypeClassOf(ValueType type);

/// The structural check (RQ001-RQ006) over `program`, into `diags`.
void CheckStructure(const dlir::Program& program, DiagnosticEngine* diags);

/// The type check (RQ010-RQ015) over `program`, into `diags`. Atoms that do
/// not resolve to a declaration of their arity are left to CheckStructure.
void CheckTypes(const dlir::Program& program, DiagnosticEngine* diags);

/// CheckStructure, CheckTypes and the stratification check (RQ020).
void CheckProgram(const dlir::Program& program, DiagnosticEngine* diags);

/// CheckStructure folded to a Status: OK when error-free, otherwise an
/// InvalidArgument carrying the rendered findings (prefixed with `context`
/// when non-empty). The entry check of every engine and translation.
Status VerifyStructure(const dlir::Program& program,
                       const std::string& context = "");

/// CheckProgram folded to a Status: OK when error-free, otherwise an
/// InvalidArgument carrying the full rendered diagnostic list (prefixed
/// with `context` when non-empty). This is the pass-boundary verifier.
Status VerifyProgram(const dlir::Program& program,
                     const std::string& context = "");

/// Whether implicit verification (after every optimizer pass, and before
/// engine execution through the Compiler facade) is on by default: true in
/// debug/sanitizer builds (NDEBUG unset), false in release, overridable
/// either way with the environment variable RAQLET_VERIFY_PASSES=1|0.
/// Explicit verification (raqlet_cli --check, opt::OptOptions) ignores
/// this default.
bool VerifyByDefault();

}  // namespace raqlet::analysis

#endif  // RAQLET_ANALYSIS_TYPECHECK_H_
