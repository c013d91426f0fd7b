#include "dlir/explain.h"

#include <set>
#include <sstream>

#include "analysis/analyses.h"
#include "analysis/dependency_graph.h"
#include "analysis/typecheck.h"
#include "common/str_util.h"

namespace raqlet::dlir {

namespace {

std::string TermText(const Term& term) { return term.ToString(); }

// Renders one rule as a loop nest. `delta_atom` (index into positive
// atoms) replaces that atom's relation with DELTA <name>; -1 = none.
// Join order: greedy most-bound-first, mirroring the engine's planner.
void RenderRule(const Rule& rule, int delta_atom, int indent,
                std::ostringstream* os) {
  std::string pad(static_cast<size_t>(indent), ' ');

  std::vector<const Atom*> positive;
  std::vector<const Atom*> negated;
  for (const Atom& atom : rule.body) {
    (atom.negated ? negated : positive).push_back(&atom);
  }

  std::set<std::string> bound;
  std::vector<bool> done(positive.size(), false);
  std::vector<bool> constraint_done(rule.constraints.size(), false);
  int depth = 0;

  auto emit_ready_constraints = [&]() {
    bool changed = true;
    while (changed) {
      changed = false;
      for (size_t i = 0; i < rule.constraints.size(); ++i) {
        if (constraint_done[i]) continue;
        const Constraint& c = rule.constraints[i];
        std::set<std::string> vars;
        c.CollectVars(&vars);
        bool lhs_def = c.op == CmpOp::kEq && c.lhs.is_var() &&
                       bound.count(c.lhs.var) == 0;
        bool rhs_def = c.op == CmpOp::kEq && c.rhs.is_var() &&
                       bound.count(c.rhs.var) == 0;
        size_t unbound = 0;
        for (const std::string& v : vars) {
          if (bound.count(v) == 0) ++unbound;
        }
        if (unbound == 0) {
          *os << pad << std::string(static_cast<size_t>(depth) * 2, ' ')
              << "IF " << c.ToString() << "\n";
          constraint_done[i] = true;
          changed = true;
        } else if (unbound == 1 && (lhs_def || rhs_def)) {
          const Term& def = lhs_def ? c.lhs : c.rhs;
          const Term& src = lhs_def ? c.rhs : c.lhs;
          std::set<std::string> src_vars;
          src.CollectVars(&src_vars);
          bool src_bound = true;
          for (const std::string& v : src_vars) {
            if (bound.count(v) == 0) src_bound = false;
          }
          if (!src_bound) continue;
          *os << pad << std::string(static_cast<size_t>(depth) * 2, ' ')
              << "LET " << def.var << " = " << src.ToString() << "\n";
          bound.insert(def.var);
          constraint_done[i] = true;
          changed = true;
        }
      }
    }
  };

  emit_ready_constraints();
  for (size_t n = 0; n < positive.size(); ++n) {
    // Pick the next atom: delta atom first, then most bound arguments.
    int best = -1;
    int best_score = -1;
    for (size_t i = 0; i < positive.size(); ++i) {
      if (done[i]) continue;
      if (delta_atom >= 0 && static_cast<size_t>(delta_atom) < positive.size() &&
          !done[static_cast<size_t>(delta_atom)]) {
        best = delta_atom;
        break;
      }
      int score = 0;
      for (const Term& arg : positive[i]->args) {
        if (arg.is_const()) {
          ++score;
        } else if (arg.is_var() && bound.count(arg.var) > 0) {
          ++score;
        }
      }
      if (score > best_score) {
        best = static_cast<int>(i);
        best_score = score;
      }
    }
    const Atom& atom = *positive[static_cast<size_t>(best)];
    done[static_cast<size_t>(best)] = true;

    // Probe columns: already-bound positions.
    std::vector<std::string> probes;
    std::vector<std::string> binds;
    for (size_t i = 0; i < atom.args.size(); ++i) {
      const Term& arg = atom.args[i];
      if (arg.is_wildcard()) continue;
      bool is_bound = arg.is_const() ||
                      (arg.is_var() && bound.count(arg.var) > 0) ||
                      arg.kind == TermKind::kBinary;
      if (is_bound) {
        probes.push_back("col" + std::to_string(i) + " = " + TermText(arg));
      }
    }
    std::vector<std::string> shape;
    for (const Term& arg : atom.args) shape.push_back(TermText(arg));

    *os << pad << std::string(static_cast<size_t>(depth) * 2, ' ') << "FOR ("
        << Join(shape, ", ") << ") IN "
        << (delta_atom == best ? "DELTA " : "") << atom.predicate;
    if (!probes.empty()) *os << " INDEX ON (" << Join(probes, ", ") << ")";
    *os << "\n";
    ++depth;
    atom.CollectVars(&bound);
    emit_ready_constraints();
    (void)binds;
  }

  for (const Atom* atom : negated) {
    *os << pad << std::string(static_cast<size_t>(depth) * 2, ' ')
        << "IF NOT EXISTS " << atom->ToString().substr(1) << "\n";
  }

  std::string pad2 = pad + std::string(static_cast<size_t>(depth) * 2, ' ');
  if (rule.agg.has_value()) {
    std::vector<std::string> groups;
    for (size_t i = 0; i < rule.head.args.size(); ++i) {
      if (static_cast<int>(i) == rule.agg_result_pos) continue;
      groups.push_back(rule.head.args[i].ToString());
    }
    *os << pad2 << "AGGREGATE " << rule.agg->ToString() << " GROUP BY ("
        << Join(groups, ", ") << ") INTO " << rule.head.predicate << "\n";
  } else {
    std::vector<std::string> head_args;
    for (const Term& arg : rule.head.args) head_args.push_back(TermText(arg));
    *os << pad2 << "INSERT (" << Join(head_args, ", ") << ") INTO "
        << rule.head.predicate << "\n";
  }
}

// Shared body of ExplainProgram / ExplainAnalyzeProgram; `metrics`, when
// non-null, annotates each stratum with the SccMetrics slot of the same
// topological SCC index.
Result<std::string> Explain(const Program& program,
                            const obs::QueryMetrics* metrics) {
  RAQLET_RETURN_IF_ERROR(analysis::VerifyStructure(program));
  analysis::DependencyGraph graph = analysis::DependencyGraph::Build(program);
  analysis::StratificationResult strat =
      analysis::AnalyzeStratification(program, graph);
  if (!strat.stratified) {
    return Status::Unsupported("cannot explain an unstratifiable program: " +
                               strat.violation);
  }

  std::ostringstream os;
  const auto& sccs = graph.SccsInTopologicalOrder();
  std::set<std::string> idbs = program.IdbPredicates();
  int stratum_no = 0;
  for (size_t s = 0; s < sccs.size(); ++s) {
    // Only emit strata that actually compute something.
    bool has_rules = false;
    for (const std::string& pred : sccs[s]) {
      if (idbs.count(pred) > 0) has_rules = true;
    }
    if (!has_rules) continue;
    bool recursive = graph.IsRecursiveScc(static_cast<int>(s));

    // Runtime annotation: the SccMetrics slot of the same topological SCC
    // index (strata skipped above have slots too — indexes stay aligned).
    const obs::SccMetrics* m =
        metrics != nullptr && s < metrics->datalog.sccs.size()
            ? &metrics->datalog.sccs[s]
            : nullptr;

    os << "STRATUM " << stratum_no++ << " ("
       << (recursive ? "recursive: " : "non-recursive: ")
       << Join(sccs[s], ", ") << ")";
    if (m != nullptr) {
      os << "  [actual rounds=" << m->rounds
         << " rule_evals=" << m->rule_evaluations
         << " considered=" << m->tuples_considered
         << " inserted=" << m->tuples_inserted << "]";
    }
    os << "\n";
    if (m != nullptr && !m->round_delta_sizes.empty()) {
      os << "  ACTUAL DELTAS";
      for (size_t r = 0; r < m->round_delta_sizes.size(); ++r) {
        os << (r == 0 ? " init=" : " r" + std::to_string(r) + "=")
           << m->round_delta_sizes[r];
      }
      os << "\n";
    }

    std::set<std::string> scc_set(sccs[s].begin(), sccs[s].end());
    if (!recursive) {
      for (const Rule& rule : program.rules) {
        if (scc_set.count(rule.head.predicate) == 0) continue;
        RenderRule(rule, -1, 2, &os);
      }
      continue;
    }
    os << "  INIT\n";
    for (const Rule& rule : program.rules) {
      if (scc_set.count(rule.head.predicate) == 0) continue;
      bool has_recursive_atom = false;
      for (const Atom& atom : rule.body) {
        if (!atom.negated && scc_set.count(atom.predicate) > 0) {
          has_recursive_atom = true;
        }
      }
      if (!has_recursive_atom) RenderRule(rule, -1, 4, &os);
    }
    os << "  LOOP UNTIL FIXPOINT\n";
    for (const Rule& rule : program.rules) {
      if (scc_set.count(rule.head.predicate) == 0) continue;
      std::vector<int> recursive_atoms;
      int positive_index = 0;
      for (const Atom& atom : rule.body) {
        if (atom.negated) continue;
        if (scc_set.count(atom.predicate) > 0) {
          recursive_atoms.push_back(positive_index);
        }
        ++positive_index;
      }
      if (recursive_atoms.empty()) continue;
      for (int delta : recursive_atoms) RenderRule(rule, delta, 4, &os);
    }
  }
  return os.str();
}

}  // namespace

Result<std::string> ExplainProgram(const Program& program) {
  return Explain(program, nullptr);
}

Result<std::string> ExplainAnalyzeProgram(const Program& program,
                                          const obs::QueryMetrics& metrics) {
  RAQLET_ASSIGN_OR_RETURN(std::string plan, Explain(program, &metrics));
  std::ostringstream os;
  os << plan;
  std::string report = metrics.ToString();
  if (!report.empty()) os << "\n" << report;
  return os.str();
}

}  // namespace raqlet::dlir
