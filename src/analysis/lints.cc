#include "analysis/lints.h"

#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "analysis/analyses.h"
#include "analysis/dependency_graph.h"
#include "dlir/fold.h"

namespace raqlet::analysis {
namespace {

using dlir::Atom;
using dlir::Constraint;
using dlir::Program;
using dlir::RelationDecl;
using dlir::Rule;
using dlir::Term;

// ---------------------------------------------------------------------------
// Join connectivity (RQ104)
// ---------------------------------------------------------------------------

/// Union-find over body-atom indices, connected through shared variables.
struct UnionFind {
  std::vector<int> parent;
  explicit UnionFind(size_t n) : parent(n) {
    for (size_t i = 0; i < n; ++i) parent[i] = static_cast<int>(i);
  }
  int Find(int x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  }
  void Union(int a, int b) { parent[Find(a)] = Find(b); }
};

void LintCartesianJoin(int rule_index, const Rule& rule,
                       DiagnosticEngine* diags) {
  // Variables connected by a constraint count as one connector: the
  // planner applies `x = y` as soon as both sides bind, so atoms joined
  // only through a constraint are not a cartesian product.
  std::map<std::string, std::string> var_parent;
  std::function<std::string(const std::string&)> canon =
      [&](const std::string& v) -> std::string {
    auto it = var_parent.find(v);
    if (it == var_parent.end() || it->second == v) return v;
    std::string root = canon(it->second);
    it->second = root;
    return root;
  };
  for (const Constraint& c : rule.constraints) {
    std::set<std::string> cvars;
    c.CollectVars(&cvars);
    if (cvars.size() < 2) continue;
    std::string rep = canon(*cvars.begin());
    for (const std::string& v : cvars) {
      var_parent[canon(v)] = rep;
    }
  }

  std::vector<const Atom*> joined;  // positive atoms that bind variables
  for (const Atom& atom : rule.body) {
    if (atom.negated) continue;
    std::set<std::string> avars;
    atom.CollectVars(&avars);
    if (!avars.empty()) joined.push_back(&atom);
  }
  if (joined.size() < 2) return;

  UnionFind uf(joined.size());
  std::map<std::string, int> first_atom_of_var;
  for (size_t i = 0; i < joined.size(); ++i) {
    std::set<std::string> avars;
    joined[i]->CollectVars(&avars);
    for (const std::string& v : avars) {
      std::string key = canon(v);
      auto [it, inserted] =
          first_atom_of_var.emplace(key, static_cast<int>(i));
      if (!inserted) uf.Union(static_cast<int>(i), it->second);
    }
  }
  std::set<int> components;
  for (size_t i = 0; i < joined.size(); ++i) {
    components.insert(uf.Find(static_cast<int>(i)));
  }
  if (components.size() < 2) return;

  // Name one atom per component so the message shows what fails to join.
  std::string parts;
  std::set<int> named;
  for (size_t i = 0; i < joined.size(); ++i) {
    if (!named.insert(uf.Find(static_cast<int>(i))).second) continue;
    if (!parts.empty()) parts += " x ";
    parts += joined[i]->ToString();
  }
  diags
      ->Warning("RQ104",
                "cartesian product: body atoms share no variables (" + parts +
                    "); the join enumerates every combination")
      .AtRule(rule_index, rule);
}

}  // namespace

void LintProgram(const Program& program, DiagnosticEngine* diags) {
  // --- Predicate usage / reachability ------------------------------------
  std::set<std::string> used;  // occurs in any rule (head or body)
  std::set<std::string> used_in_body;
  std::map<std::string, std::vector<const Rule*>> rules_of;
  for (const Rule& rule : program.rules) {
    used.insert(rule.head.predicate);
    rules_of[rule.head.predicate].push_back(&rule);
    for (const Atom& atom : rule.body) {
      used.insert(atom.predicate);
      used_in_body.insert(atom.predicate);
    }
  }

  // RQ101: declared, not an output, and appearing in no rule at all.
  for (const RelationDecl& decl : program.decls) {
    if (decl.is_output || used.count(decl.name) > 0) continue;
    std::string role = decl.is_input ? "input relation" : "relation";
    diags
        ->Warning("RQ101", std::string(role) + " '" + decl.name +
                               "' is declared but never used")
        .AtPredicate(decl.name);
  }

  // RQ102: rules whose derivations no output can observe. Only meaningful
  // when the program names outputs (library fragments may not).
  std::vector<std::string> outputs = program.OutputRelations();
  if (!outputs.empty()) {
    std::set<std::string> live(outputs.begin(), outputs.end());
    bool changed = true;
    while (changed) {
      changed = false;
      for (const Rule& rule : program.rules) {
        if (live.count(rule.head.predicate) == 0) continue;
        for (const Atom& atom : rule.body) {
          if (live.insert(atom.predicate).second) changed = true;
        }
      }
    }
    for (size_t i = 0; i < program.rules.size(); ++i) {
      const Rule& rule = program.rules[i];
      if (live.count(rule.head.predicate) > 0) continue;
      diags
          ->Warning("RQ102", "rule derives '" + rule.head.predicate +
                                 "', which no output depends on")
          .AtRule(static_cast<int>(i), rule)
          .AtPredicate(rule.head.predicate);
    }
  }

  // RQ103: relations that can never hold a tuple — no facts can reach
  // them. Fixpoint: inputs are possibly-nonempty; a rule head becomes
  // possibly-nonempty once every positive body atom is. Only warn for
  // relations something depends on (unused ones already got RQ101).
  {
    std::set<std::string> nonempty;
    for (const RelationDecl& decl : program.decls) {
      if (decl.is_input) nonempty.insert(decl.name);
    }
    bool changed = true;
    while (changed) {
      changed = false;
      for (const Rule& rule : program.rules) {
        if (nonempty.count(rule.head.predicate) > 0) continue;
        bool all_nonempty = true;
        for (const Atom& atom : rule.body) {
          if (!atom.negated && nonempty.count(atom.predicate) == 0) {
            all_nonempty = false;
            break;
          }
        }
        if (all_nonempty) {
          nonempty.insert(rule.head.predicate);
          changed = true;
        }
      }
    }
    for (const RelationDecl& decl : program.decls) {
      if (decl.is_input || nonempty.count(decl.name) > 0) continue;
      if (!decl.is_output && used.count(decl.name) == 0) continue;  // RQ101
      std::string why =
          rules_of.count(decl.name) > 0
              ? "every rule deriving it depends on an always-empty relation"
              : "it has no rules and is not an input";
      diags
          ->Warning("RQ103", "relation '" + decl.name + "' is always empty: " +
                                 why)
          .AtPredicate(decl.name);
    }
  }

  // --- Rule-level lints ---------------------------------------------------
  std::map<std::string, int> rule_texts;  // rendered rule -> first index
  for (size_t i = 0; i < program.rules.size(); ++i) {
    const Rule& rule = program.rules[i];

    // RQ106: exact duplicates (identical after rendering).
    std::string text = rule.ToString();
    auto [it, inserted] = rule_texts.emplace(text, static_cast<int>(i));
    if (!inserted) {
      diags
          ->Warning("RQ106", "duplicate of rule " + std::to_string(it->second) +
                                 "; the second occurrence derives nothing new")
          .AtRule(static_cast<int>(i), rule)
          .AtPredicate(rule.head.predicate);
    }

    // RQ104: disconnected join graph.
    LintCartesianJoin(static_cast<int>(i), rule, diags);

    // RQ107: ground constraints fold at compile time.
    for (const Constraint& c : rule.constraints) {
      std::set<std::string> cvars;
      c.CollectVars(&cvars);
      if (!cvars.empty()) continue;
      const Term lhs = dlir::FoldConstants(c.lhs);
      const Term rhs = dlir::FoldConstants(c.rhs);
      if (!lhs.is_const() || !rhs.is_const()) continue;
      std::optional<bool> verdict =
          dlir::FoldComparison(c.op, lhs.constant, rhs.constant);
      if (!verdict.has_value()) continue;
      Diagnostic& d = diags->Warning(
          "RQ107", "constraint " + c.ToString() + " is always " +
                       (*verdict ? "true (redundant)" : "false"));
      d.AtRule(static_cast<int>(i), rule);
      if (!*verdict) d.Note("this rule can never fire");
    }
  }

  // RQ105: unbounded arithmetic recursion (no lattice, no bound) — the
  // termination analysis already knows how to find these.
  DependencyGraph graph = DependencyGraph::Build(program);
  TerminationResult termination = AnalyzeTermination(program, graph);
  for (const std::string& warning : termination.warnings) {
    diags->Warning("RQ105", warning);
  }
}

}  // namespace raqlet::analysis
