#ifndef RAQLET_ANALYSIS_DIAGNOSTICS_H_
#define RAQLET_ANALYSIS_DIAGNOSTICS_H_

// Multi-diagnostic accumulation for the DLIR static analyzer (typecheck.h,
// lints.h). A DiagnosticEngine collects every finding of a checking pass,
// never stopping at the first — the way a production compiler reports all
// errors in a translation unit — with a stable code per finding class so
// tests, scripts, and CI can match on `RQ0xx` instead of message text.
// Even the engines' entry check (analysis::VerifyStructure) folds the
// full list into its Status.
//
// Code ranges (the full catalogue lives in docs/diagnostics.md):
//   RQ001-RQ009  structural errors (declarations, arity, safety)
//   RQ010-RQ019  type errors (kind-mismatch joins, bad arithmetic, ...)
//   RQ020-RQ029  semantic errors (stratification violations)
//   RQ101-RQ199  lints (warnings: dead rules, cartesian joins, ...)

#include <string>
#include <vector>

#include "common/status.h"
#include "dlir/program.h"

namespace raqlet::analysis {

enum class Severity { kNote, kWarning, kError };

const char* SeverityToString(Severity severity);

/// One finding. Provenance is textual on purpose: diagnostics outlive the
/// Program they were produced from (optimizer passes rewrite freely), so a
/// diagnostic snapshots the offending rule instead of pointing into it.
struct Diagnostic {
  Severity severity = Severity::kError;
  std::string code;     // stable "RQ0xx" identifier
  std::string message;  // one-line description of the finding
  std::string predicate;  // offending relation, when the finding has one
  int rule_index = -1;    // index into Program::rules, -1 if not rule-scoped
  std::string rule;       // text of the offending rule at diagnosis time
  std::vector<std::string> notes;  // secondary lines (e.g. a negation cycle)

  Diagnostic& AtPredicate(std::string name) {
    predicate = std::move(name);
    return *this;
  }
  Diagnostic& AtRule(int index, const dlir::Rule& r) {
    rule_index = index;
    rule = r.ToString();
    return *this;
  }
  Diagnostic& Note(std::string note) {
    notes.push_back(std::move(note));
    return *this;
  }

  /// Multi-line rendering: "error[RQ003]: ..." plus provenance and notes.
  std::string ToString() const;
};

/// Accumulates diagnostics in report order. Checking passes keep going
/// after an error so one run surfaces every problem; callers fold the
/// result into a Status only at API boundaries (ToStatus).
class DiagnosticEngine {
 public:
  /// Appends a diagnostic and returns it for fluent provenance chaining:
  ///   diags->Error("RQ003", "arity mismatch ...").AtRule(i, rule);
  Diagnostic& Report(Severity severity, std::string code, std::string message);
  Diagnostic& Error(std::string code, std::string message) {
    return Report(Severity::kError, std::move(code), std::move(message));
  }
  Diagnostic& Warning(std::string code, std::string message) {
    return Report(Severity::kWarning, std::move(code), std::move(message));
  }

  const std::vector<Diagnostic>& diagnostics() const { return diagnostics_; }
  size_t error_count() const { return error_count_; }
  size_t warning_count() const { return warning_count_; }
  bool has_errors() const { return error_count_ > 0; }
  bool empty() const { return diagnostics_.empty(); }

  /// True if any accumulated diagnostic carries `code` (test matcher).
  bool HasCode(const std::string& code) const;

  /// All diagnostics rendered in report order, followed by a
  /// "N error(s), M warning(s)" summary line when anything was reported.
  std::string Render() const;

  /// OK when no errors were reported (warnings do not fail); otherwise an
  /// InvalidArgument whose message is the full rendering, prefixed with
  /// `context` when non-empty.
  Status ToStatus(const std::string& context = "") const;

 private:
  std::vector<Diagnostic> diagnostics_;
  size_t error_count_ = 0;
  size_t warning_count_ = 0;
};

}  // namespace raqlet::analysis

#endif  // RAQLET_ANALYSIS_DIAGNOSTICS_H_
