#include "analysis/analyses.h"

#include <algorithm>
#include <sstream>
#include <utility>

namespace raqlet::analysis {

LinearityResult AnalyzeLinearity(const dlir::Program& program,
                                 const DependencyGraph& graph) {
  LinearityResult result;
  for (const dlir::Rule& rule : program.rules) {
    int head_scc = graph.SccOf(rule.head.predicate);
    if (!graph.IsRecursiveScc(head_scc)) continue;
    int recursive_atoms = 0;
    for (const dlir::Atom& atom : rule.body) {
      if (!atom.negated && graph.SccOf(atom.predicate) == head_scc) {
        ++recursive_atoms;
      }
    }
    if (recursive_atoms > 1) {
      result.all_linear = false;
      result.nonlinear_rules.push_back(rule.ToString());
    }
  }
  return result;
}

MutualRecursionResult AnalyzeMutualRecursion(const DependencyGraph& graph) {
  MutualRecursionResult result;
  for (const auto& scc : graph.SccsInTopologicalOrder()) {
    if (scc.size() > 1) {
      result.has_mutual_recursion = true;
      result.mutual_groups.push_back(scc);
    }
  }
  return result;
}

StratificationResult AnalyzeStratification(const dlir::Program& program,
                                           const DependencyGraph& graph) {
  StratificationResult result;
  for (size_t r = 0; r < program.rules.size(); ++r) {
    const dlir::Rule& rule = program.rules[r];
    int head_scc = graph.SccOf(rule.head.predicate);
    bool head_recursive = graph.IsRecursiveScc(head_scc);
    for (const dlir::Atom& atom : rule.body) {
      if (graph.SccOf(atom.predicate) != head_scc) continue;
      if (!atom.negated && !(rule.agg.has_value() && head_recursive)) continue;
      result.violations.push_back(
          {static_cast<int>(r), atom.predicate, atom.negated});
    }
  }
  if (!result.violations.empty()) {
    const StratificationViolation& first = result.violations.front();
    result.stratified = false;
    result.violation =
        (first.negation ? "negation of '" : "aggregation over '") +
        first.predicate + "' inside its own recursive component" +
        (first.negation ? "" : " (use a lattice relation for monotone "
                               "min/max recursion)") +
        ": " + program.rules[static_cast<size_t>(first.rule_index)].ToString();
    return result;
  }

  // Strata: per SCC in topological order, 1 + max stratum below a
  // negation/aggregation boundary, else max stratum of dependencies. An
  // edge always leaves an SCC earlier in that order, whose stratum is
  // final by then.
  const auto& sccs = graph.SccsInTopologicalOrder();
  std::vector<std::vector<std::pair<int, int>>> incoming(sccs.size());
  for (const DependencyEdge& e : graph.edges()) {
    int from = graph.SccOf(e.from);
    int to = graph.SccOf(e.to);
    if (from == to) continue;
    incoming[static_cast<size_t>(to)].emplace_back(
        from, (e.negated || e.aggregated) ? 1 : 0);
  }
  std::vector<int> scc_stratum(sccs.size(), 0);
  for (size_t i = 0; i < sccs.size(); ++i) {
    for (const auto& [from, step] : incoming[i]) {
      scc_stratum[i] = std::max(
          scc_stratum[i], scc_stratum[static_cast<size_t>(from)] + step);
    }
    for (const std::string& pred : sccs[i]) {
      result.strata.emplace(pred, scc_stratum[i]);
    }
  }
  return result;
}

MonotonicityResult AnalyzeMonotonicity(const dlir::Program& program) {
  MonotonicityResult result;
  for (const dlir::Rule& rule : program.rules) {
    for (const dlir::Atom& atom : rule.body) {
      if (atom.negated) {
        result.monotone = false;
        result.reasons.push_back("negation of '" + atom.predicate +
                                 "' in: " + rule.ToString());
      }
    }
    if (rule.agg.has_value()) {
      result.monotone = false;
      result.reasons.push_back(
          std::string("aggregation (") +
          dlir::AggFuncToString(rule.agg->func) + ") in: " + rule.ToString());
    }
  }
  for (const dlir::RelationDecl& decl : program.decls) {
    if (decl.lattice != dlir::LatticeKind::kNone) result.uses_lattice = true;
  }
  return result;
}

TerminationResult AnalyzeTermination(const dlir::Program& program,
                                     const DependencyGraph& graph) {
  TerminationResult result;
  for (const dlir::Rule& rule : program.rules) {
    int head_scc = graph.SccOf(rule.head.predicate);
    if (!graph.IsRecursiveScc(head_scc)) continue;

    // Value invention: an arithmetic term in the head of a recursive rule
    // ranges over an unbounded domain [21]. A lattice declaration or an
    // upper/lower bound constraint on the invented value tames it.
    bool invents = false;
    for (const dlir::Term& arg : rule.head.args) {
      if (arg.kind == dlir::TermKind::kBinary) invents = true;
    }
    // ... or a head variable defined by an arithmetic binding constraint.
    for (const dlir::Constraint& c : rule.constraints) {
      if (c.op != dlir::CmpOp::kEq) continue;
      auto is_head_var = [&](const dlir::Term& t) {
        if (!t.is_var()) return false;
        for (const dlir::Term& arg : rule.head.args) {
          if (arg.is_var() && arg.var == t.var) return true;
        }
        return false;
      };
      if ((is_head_var(c.lhs) && c.rhs.kind == dlir::TermKind::kBinary) ||
          (is_head_var(c.rhs) && c.lhs.kind == dlir::TermKind::kBinary)) {
        invents = true;
      }
    }
    if (!invents) continue;

    const dlir::RelationDecl* decl = program.FindDecl(rule.head.predicate);
    bool lattice = decl != nullptr && decl->lattice != dlir::LatticeKind::kNone;
    bool bounded = false;
    for (const dlir::Constraint& c : rule.constraints) {
      if (c.op == dlir::CmpOp::kLt || c.op == dlir::CmpOp::kLe ||
          c.op == dlir::CmpOp::kGt || c.op == dlir::CmpOp::kGe) {
        bounded = true;  // heuristic: any range constraint counts as a bound
      }
    }
    if (!lattice && !bounded) {
      result.may_diverge = true;
      result.warnings.push_back(
          "value invention in recursive rule may not terminate over cyclic "
          "data (add a bound or declare the relation as a lattice): " +
          rule.ToString());
    }
  }
  return result;
}

AnalysisReport Analyze(const dlir::Program& program) {
  return Analyze(program, DependencyGraph::Build(program));
}

AnalysisReport Analyze(const dlir::Program& program,
                       const DependencyGraph& graph) {
  AnalysisReport report;
  report.linearity = AnalyzeLinearity(program, graph);
  report.mutual = AnalyzeMutualRecursion(graph);
  report.stratification = AnalyzeStratification(program, graph);
  report.monotonicity = AnalyzeMonotonicity(program);
  report.termination = AnalyzeTermination(program, graph);
  return report;
}

std::string AnalysisReport::ToString() const {
  std::ostringstream os;
  os << "linearity: " << (linearity.all_linear ? "linear" : "non-linear")
     << "\n";
  for (const std::string& r : linearity.nonlinear_rules) {
    os << "  non-linear rule: " << r << "\n";
  }
  os << "mutual recursion: " << (mutual.has_mutual_recursion ? "yes" : "no")
     << "\n";
  for (const auto& group : mutual.mutual_groups) {
    os << "  group:";
    for (const std::string& p : group) os << " " << p;
    os << "\n";
  }
  os << "stratified: " << (stratification.stratified ? "yes" : "no") << "\n";
  if (!stratification.violation.empty()) {
    os << "  violation: " << stratification.violation << "\n";
  }
  os << "monotone: " << (monotonicity.monotone ? "yes" : "no")
     << (monotonicity.uses_lattice ? " (uses lattice recursion)" : "") << "\n";
  for (const std::string& r : monotonicity.reasons) {
    os << "  breaks monotonicity: " << r << "\n";
  }
  os << "termination: "
     << (termination.may_diverge ? "may diverge" : "no warnings") << "\n";
  for (const std::string& w : termination.warnings) {
    os << "  warning: " << w << "\n";
  }
  return os.str();
}

Status CheckBackendSupport(const dlir::Program& program,
                           const AnalysisReport& report, Backend backend) {
  switch (backend) {
    case Backend::kDatalog:
      if (!report.stratification.stratified) {
        return Status::Unsupported("Datalog backend requires stratification: " +
                                   report.stratification.violation);
      }
      return Status::OK();
    case Backend::kSql: {
      if (!report.stratification.stratified) {
        return Status::Unsupported("SQL backend requires stratification: " +
                                   report.stratification.violation);
      }
      if (report.mutual.has_mutual_recursion) {
        std::string group;
        for (const std::string& p : report.mutual.mutual_groups[0]) {
          group += (group.empty() ? "" : ", ") + p;
        }
        return Status::Unsupported(
            "recursive SQL (WITH RECURSIVE) cannot express mutual recursion "
            "[23]; offending group: " + group);
      }
      if (!report.linearity.all_linear) {
        return Status::Unsupported(
            "recursive SQL supports only linear recursion [23]; apply the "
            "linearization rewrite first. Offending rule: " +
            report.linearity.nonlinear_rules[0]);
      }
      for (const dlir::RelationDecl& decl : program.decls) {
        if (decl.lattice != dlir::LatticeKind::kNone) {
          return Status::Unsupported(
              "standard recursive SQL has no monotone-aggregate recursion; "
              "lattice relation '" + decl.name + "' is not expressible");
        }
      }
      return Status::OK();
    }
    case Backend::kGraph:
      // The graph engine executes PGIR, which the DLIR-level analyses do
      // not constrain; arbitrary DLIR is not executable there.
      return Status::OK();
  }
  return Status::Internal("unknown backend");
}

}  // namespace raqlet::analysis
