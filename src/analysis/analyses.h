#ifndef RAQLET_ANALYSIS_ANALYSES_H_
#define RAQLET_ANALYSIS_ANALYSES_H_

// The §4 static analyses, all implemented once at the DLIR level:
// linearity, mutual recursion, stratification, monotonicity, and
// termination. `CheckBackendSupport` turns the report into backend-aware
// accept/reject decisions (goal (1) of §4), e.g. recursive SQL rejects
// mutual and non-linear recursion.

#include <map>
#include <string>
#include <vector>

#include "analysis/dependency_graph.h"
#include "common/status.h"
#include "dlir/program.h"

namespace raqlet::analysis {

/// Linearity (§4): a rule is linear if at most one body atom belongs to
/// the head's recursive component.
struct LinearityResult {
  bool all_linear = true;
  /// Text of each non-linear rule, for diagnostics.
  std::vector<std::string> nonlinear_rules;
};

/// Mutual recursion (§4): SCCs containing two or more predicates.
struct MutualRecursionResult {
  bool has_mutual_recursion = false;
  std::vector<std::vector<std::string>> mutual_groups;
};

/// One body atom negated, or aggregated over, inside its own recursive
/// component.
struct StratificationViolation {
  int rule_index = -1;    // index into Program::rules
  std::string predicate;  // the atom's predicate
  bool negation = true;   // false: the rule aggregates over the atom
};

/// Stratification (§4): negation/aggregation must not occur inside its own
/// recursive component. This is the one stratification rule: the Datalog
/// engine, EXPLAIN, CheckBackendSupport and the RQ020 check all read it.
/// `strata` maps each predicate to its stratum (0 for EDBs and predicates
/// with no negation/aggregation below them); it is filled only when the
/// program is stratified.
struct StratificationResult {
  bool stratified = true;
  /// Every violating (rule, body atom) pair once, in program order. A
  /// negated atom counts as a negation even when its rule aggregates.
  std::vector<StratificationViolation> violations;
  std::string violation;  // the first one, human-readable; empty if none
  std::map<std::string, int> strata;
};

/// Monotonicity (§4): the program is monotone under set inclusion iff it
/// uses no negation and no (non-lattice) aggregation. Lattice recursion is
/// reported separately: it is monotone in the lattice order.
struct MonotonicityResult {
  bool monotone = true;
  bool uses_lattice = false;
  std::vector<std::string> reasons;  // which constructs break monotonicity
};

/// Termination (§4): heuristic warnings for value invention inside
/// recursion (interpreted functions over unbounded domains [21]).
struct TerminationResult {
  bool may_diverge = false;
  std::vector<std::string> warnings;
};

struct AnalysisReport {
  LinearityResult linearity;
  MutualRecursionResult mutual;
  StratificationResult stratification;
  MonotonicityResult monotonicity;
  TerminationResult termination;

  std::string ToString() const;
};

LinearityResult AnalyzeLinearity(const dlir::Program& program,
                                 const DependencyGraph& graph);
MutualRecursionResult AnalyzeMutualRecursion(const DependencyGraph& graph);
StratificationResult AnalyzeStratification(const dlir::Program& program,
                                           const DependencyGraph& graph);
MonotonicityResult AnalyzeMonotonicity(const dlir::Program& program);
TerminationResult AnalyzeTermination(const dlir::Program& program,
                                     const DependencyGraph& graph);

/// Runs every analysis, over `graph` when the caller has already built the
/// program's dependency graph.
AnalysisReport Analyze(const dlir::Program& program);
AnalysisReport Analyze(const dlir::Program& program,
                       const DependencyGraph& graph);

/// Target query-execution paradigms (docs/architecture.md maps them to
/// engines).
enum class Backend {
  kDatalog,  // deductive: full stratified Datalog incl. lattice recursion
  kSql,      // recursive SQL: linear, non-mutual, non-lattice recursion only
  kGraph,    // property-graph traversal: executes PGIR, not DLIR (always ok
             // for programs produced by the Cypher frontend)
};

/// Rejects programs a backend cannot execute, with an explanatory message
/// (§4 goal (1): "identifying unsupported queries by a backend").
Status CheckBackendSupport(const dlir::Program& program,
                           const AnalysisReport& report, Backend backend);

}  // namespace raqlet::analysis

#endif  // RAQLET_ANALYSIS_ANALYSES_H_
