#include "opt/passes.h"

#include <algorithm>
#include <map>
#include <optional>
#include <set>

#include "analysis/dependency_graph.h"
#include "dlir/fold.h"
#include "opt/rewrite_util.h"

namespace raqlet::opt {

using dlir::Atom;
using dlir::CmpOp;
using dlir::Constraint;
using dlir::Program;
using dlir::RelationDecl;
using dlir::Rule;
using dlir::Term;
using dlir::TermKind;

namespace {

// Removes exact duplicate positive atoms from one rule body in place.
void DedupeAtoms(Rule* rule) {
  std::vector<Atom> kept;
  for (const Atom& atom : rule->body) {
    bool duplicate = false;
    if (!atom.negated) {
      for (const Atom& prev : kept) {
        if (prev == atom) {
          duplicate = true;
          break;
        }
      }
    }
    if (!duplicate) kept.push_back(atom);
  }
  rule->body = std::move(kept);
}

// Predicates eligible as inlining sources: exactly one defining rule,
// non-recursive, aggregate-free, not an input relation.
std::set<std::string> InlinableSources(const Program& program) {
  analysis::DependencyGraph graph = analysis::DependencyGraph::Build(program);
  std::map<std::string, int> rule_count;
  std::set<std::string> has_agg;
  for (const Rule& rule : program.rules) {
    ++rule_count[rule.head.predicate];
    if (rule.agg.has_value()) has_agg.insert(rule.head.predicate);
  }
  std::set<std::string> out;
  for (const auto& [pred, count] : rule_count) {
    if (count != 1) continue;
    if (has_agg.count(pred) > 0) continue;
    if (graph.IsRecursivePredicate(pred)) continue;
    const RelationDecl* decl = program.FindDecl(pred);
    if (decl != nullptr && decl->is_input) continue;
    out.insert(pred);
  }
  return out;
}

// Inlines `source` (the single rule defining some predicate P) at body
// position `atom_index` of `rule`. Returns false if the unification is
// statically infeasible (the rule can be dropped).
bool InlineAt(Rule* rule, size_t atom_index, const Rule& source,
              dlir::VarGen* gen) {
  Atom target = rule->body[atom_index];
  Rule renamed = RenameRuleVars(source, gen);

  Subst subst;
  std::vector<Constraint> extra;
  for (size_t i = 0; i < renamed.head.args.size(); ++i) {
    const Term& head_arg = renamed.head.args[i];
    const Term& call_arg = target.args[i];
    if (head_arg.is_var()) {
      auto it = subst.find(head_arg.var);
      if (it == subst.end()) {
        if (call_arg.is_wildcard()) {
          // Keep the fresh variable; it simply stays unconstrained here.
          continue;
        }
        subst[head_arg.var] = call_arg;
      } else if (!(it->second == call_arg)) {
        // Repeated head variable: both call args must agree.
        if (call_arg.is_wildcard()) continue;
        extra.push_back(Constraint{CmpOp::kEq, it->second, call_arg});
      }
      continue;
    }
    // Constant or expression in the source head.
    if (call_arg.is_wildcard()) continue;
    if (head_arg.is_const() && call_arg.is_const()) {
      if (!(head_arg == call_arg)) return false;  // infeasible
      continue;
    }
    extra.push_back(Constraint{CmpOp::kEq, call_arg, head_arg});
  }

  // Splice the substituted source body in place of the call atom.
  std::vector<Atom> new_body;
  for (size_t i = 0; i < rule->body.size(); ++i) {
    if (i == atom_index) {
      for (const Atom& atom : renamed.body) {
        new_body.push_back(SubstituteAtom(atom, subst));
      }
    } else {
      new_body.push_back(rule->body[i]);
    }
  }
  rule->body = std::move(new_body);
  for (const Constraint& c : renamed.constraints) {
    Constraint sc;
    sc.op = c.op;
    sc.lhs = SubstituteTerm(c.lhs, subst);
    sc.rhs = SubstituteTerm(c.rhs, subst);
    rule->constraints.push_back(std::move(sc));
  }
  for (const Constraint& c : extra) {
    Constraint sc;
    sc.op = c.op;
    sc.lhs = SubstituteTerm(c.lhs, subst);
    sc.rhs = SubstituteTerm(c.rhs, subst);
    rule->constraints.push_back(std::move(sc));
  }
  DedupeAtoms(rule);
  return true;
}

}  // namespace

Result<Program> InlineRules(const Program& program) {
  Program out = program;
  bool changed = true;
  int guard = 0;
  while (changed) {
    if (++guard > 100) {
      return Status::Internal("inlining did not reach a fixpoint");
    }
    changed = false;
    std::set<std::string> sources = InlinableSources(out);
    std::map<std::string, const Rule*> source_rule;
    for (const Rule& rule : out.rules) {
      if (sources.count(rule.head.predicate) > 0) {
        source_rule[rule.head.predicate] = &rule;
      }
    }
    std::vector<Rule> next_rules;
    for (Rule rule : out.rules) {
      bool feasible = true;
      if (!rule.agg.has_value()) {  // never inline into aggregate rules
        bool local_change = true;
        while (local_change && feasible) {
          local_change = false;
          for (size_t i = 0; i < rule.body.size(); ++i) {
            const Atom& atom = rule.body[i];
            if (atom.negated) continue;
            auto it = source_rule.find(atom.predicate);
            if (it == source_rule.end()) continue;
            dlir::VarGen gen(rule.AllVars());
            if (!InlineAt(&rule, i, *it->second, &gen)) {
              feasible = false;
            }
            changed = true;
            local_change = true;
            break;
          }
        }
      }
      if (feasible) next_rules.push_back(std::move(rule));
    }
    out.rules = std::move(next_rules);
    if (changed) {
      // source_rule pointers referenced the previous rule vector; restart
      // the scan on the rewritten program.
      continue;
    }
  }
  return out;
}

Result<Program> EliminateDeadRules(const Program& program) {
  std::vector<std::string> outputs = program.OutputRelations();
  if (outputs.empty()) return program;

  // Backwards reachability from outputs over rule bodies.
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

  Program out;
  out.decls.reserve(program.decls.size());
  for (const RelationDecl& decl : program.decls) {
    if (live.count(decl.name) > 0) out.decls.push_back(decl);
  }
  for (const Rule& rule : program.rules) {
    if (live.count(rule.head.predicate) > 0) out.rules.push_back(rule);
  }
  return out;
}

Result<Program> PushdownConstants(const Program& program) {
  Program out = program;
  std::vector<Rule> kept;
  for (Rule rule : out.rules) {
    bool feasible = true;
    bool changed = true;
    while (changed && feasible) {
      changed = false;
      // Fold constants everywhere first.
      for (Atom& atom : rule.body) {
        for (Term& arg : atom.args) arg = dlir::FoldConstants(arg);
      }
      for (Term& arg : rule.head.args) arg = dlir::FoldConstants(arg);
      for (Constraint& c : rule.constraints) {
        c.lhs = dlir::FoldConstants(c.lhs);
        c.rhs = dlir::FoldConstants(c.rhs);
      }

      // Find one rewritable constraint, apply it, and restart the sweep
      // (substitution invalidates the constraint list being scanned).
      for (size_t ci = 0; ci < rule.constraints.size(); ++ci) {
        const Constraint& c = rule.constraints[ci];
        // Decide constant comparisons.
        if (c.lhs.is_const() && c.rhs.is_const()) {
          std::optional<bool> verdict =
              dlir::FoldComparison(c.op, c.lhs.constant, c.rhs.constant);
          if (!verdict.has_value()) continue;  // undecided: leave as is
          if (!*verdict) feasible = false;
          rule.constraints.erase(rule.constraints.begin() +
                                 static_cast<long>(ci));
          changed = true;
          break;
        }
        // Substitute v = const (both orientations).
        const Term* var_side = nullptr;
        const Term* const_side = nullptr;
        if (c.op == CmpOp::kEq) {
          if (c.lhs.is_var() && c.rhs.is_const()) {
            var_side = &c.lhs;
            const_side = &c.rhs;
          } else if (c.rhs.is_var() && c.lhs.is_const()) {
            var_side = &c.rhs;
            const_side = &c.lhs;
          }
        }
        // Never substitute away the aggregate result variable: a
        // constraint on it is a HAVING-style filter, not a binding.
        if (var_side != nullptr && rule.agg.has_value() &&
            rule.agg_result_pos >= 0) {
          const Term& agg_slot =
              rule.head.args[static_cast<size_t>(rule.agg_result_pos)];
          if (agg_slot.is_var() && agg_slot.var == var_side->var) {
            var_side = nullptr;
          }
        }
        if (var_side != nullptr) {
          Subst subst{{var_side->var, *const_side}};
          rule.constraints.erase(rule.constraints.begin() +
                                 static_cast<long>(ci));
          rule = SubstituteRule(rule, subst);
          changed = true;
          break;
        }
      }
    }
    if (feasible) kept.push_back(std::move(rule));
  }
  out.rules = std::move(kept);
  return out;
}

Result<Program> RemoveDuplicateAtoms(const Program& program) {
  Program out = program;
  for (Rule& rule : out.rules) DedupeAtoms(&rule);
  return out;
}

Result<Program> EliminateKeySelfJoins(const Program& program) {
  Program out = program;
  std::vector<Rule> kept;
  for (Rule rule : out.rules) {
    bool feasible = true;
    bool changed = true;
    while (changed && feasible) {
      changed = false;
      for (size_t i = 0; i < rule.body.size() && !changed; ++i) {
        for (size_t j = i + 1; j < rule.body.size() && !changed; ++j) {
          const Atom& a = rule.body[i];
          const Atom& b = rule.body[j];
          if (a.negated || b.negated || a.predicate != b.predicate) continue;
          const RelationDecl* decl = out.FindDecl(a.predicate);
          if (decl == nullptr || decl->primary_key.empty()) continue;

          // Keys must match syntactically on every key column.
          bool keys_match = true;
          for (int k : decl->primary_key) {
            const Term& ta = a.args[static_cast<size_t>(k)];
            const Term& tb = b.args[static_cast<size_t>(k)];
            if (ta.is_wildcard() || tb.is_wildcard() || !(ta == tb)) {
              keys_match = false;
              break;
            }
          }
          if (!keys_match) continue;

          // Merge: unify non-key columns of b into a, then drop b.
          Atom merged = a;
          Subst subst;
          bool mergeable = true;
          for (size_t k = 0; k < a.args.size() && mergeable; ++k) {
            const Term& ta = a.args[k];
            const Term& tb = b.args[k];
            if (ta == tb) continue;
            if (tb.is_wildcard()) continue;
            if (ta.is_wildcard()) {
              merged.args[k] = tb;
              continue;
            }
            if (ta.is_var() && (tb.is_var() || tb.is_const())) {
              subst[ta.var] = tb;
              merged.args[k] = tb;
              continue;
            }
            if (tb.is_var() && ta.is_const()) {
              subst[tb.var] = ta;
              continue;
            }
            if (ta.is_const() && tb.is_const()) {
              feasible = false;  // same key, conflicting values
              continue;
            }
            mergeable = false;  // expressions: leave the join alone
          }
          if (!mergeable || !feasible) continue;

          rule.body[i] = merged;
          rule.body.erase(rule.body.begin() + static_cast<long>(j));
          if (!subst.empty()) rule = SubstituteRule(rule, subst);
          changed = true;
        }
      }
    }
    if (feasible) kept.push_back(std::move(rule));
  }
  out.rules = std::move(kept);
  return out;
}

Result<Program> LinearizeRecursion(const Program& program) {
  analysis::DependencyGraph graph = analysis::DependencyGraph::Build(program);
  Program out = program;

  // Group rules by head predicate.
  std::map<std::string, std::vector<const Rule*>> by_head;
  for (const Rule& rule : out.rules) {
    by_head[rule.head.predicate].push_back(&rule);
  }

  std::vector<Rule> rewritten;
  std::set<const Rule*> replaced;
  for (const auto& [pred, rules] : by_head) {
    if (!graph.IsRecursivePredicate(pred)) continue;
    // Only single-predicate SCCs (no mutual recursion).
    int scc = graph.SccOf(pred);
    if (graph.SccsInTopologicalOrder()[static_cast<size_t>(scc)].size() > 1) {
      continue;
    }
    // Find the composition rule T(a,c) :- T(a,b), T(b,c). and check every
    // other rule is a non-recursive exit rule.
    const Rule* composition = nullptr;
    std::vector<const Rule*> exits;
    bool eligible = true;
    for (const Rule* rule : rules) {
      int recursive_atoms = 0;
      for (const Atom& atom : rule->body) {
        if (!atom.negated && atom.predicate == pred) ++recursive_atoms;
      }
      if (recursive_atoms == 0) {
        if (rule->agg.has_value()) eligible = false;
        exits.push_back(rule);
        continue;
      }
      if (composition != nullptr) {
        eligible = false;
        break;
      }
      composition = rule;
      // Shape check: exactly two positive atoms T(a,b), T(b,c); head
      // T(a,c); distinct variables; no constraints or aggregate.
      if (rule->body.size() != 2 || !rule->constraints.empty() ||
          rule->agg.has_value() || rule->head.args.size() != 2) {
        eligible = false;
        break;
      }
      const Atom& first = rule->body[0];
      const Atom& second = rule->body[1];
      if (first.negated || second.negated || first.predicate != pred ||
          second.predicate != pred || first.args.size() != 2 ||
          second.args.size() != 2) {
        eligible = false;
        break;
      }
      auto var_name = [](const Term& t) {
        return t.is_var() ? t.var : std::string();
      };
      std::string a = var_name(first.args[0]);
      std::string b = var_name(first.args[1]);
      std::string b2 = var_name(second.args[0]);
      std::string c = var_name(second.args[1]);
      std::string ha = var_name(rule->head.args[0]);
      std::string hc = var_name(rule->head.args[1]);
      if (a.empty() || b.empty() || c.empty() || b != b2 || ha != a ||
          hc != c || a == b || b == c || a == c) {
        eligible = false;
        break;
      }
    }
    if (!eligible || composition == nullptr || exits.empty()) continue;
    // Exit rule heads must be two distinct variables for clean unification.
    for (const Rule* exit : exits) {
      if (exit->head.args.size() != 2 || !exit->head.args[0].is_var() ||
          !exit->head.args[1].is_var() ||
          exit->head.args[0].var == exit->head.args[1].var) {
        eligible = false;
      }
    }
    if (!eligible) continue;

    // T(a,c) :- T(a,b), T(b,c).  ==>  for each exit rule
    // T(x,y) :- B(x,y):  T(a,c) :- T(a,b), B(b,c).
    const std::string a = composition->body[0].args[0].var;
    const std::string b = composition->body[0].args[1].var;
    const std::string c = composition->body[1].args[1].var;
    for (const Rule* exit : exits) {
      dlir::VarGen gen(composition->AllVars());
      Rule renamed_exit = RenameRuleVars(*exit, &gen);
      Subst unify{{renamed_exit.head.args[0].var, Term::Var(b)},
                  {renamed_exit.head.args[1].var, Term::Var(c)}};
      Rule linear;
      linear.head = composition->head;
      linear.body.push_back(composition->body[0]);  // T(a, b)
      for (const Atom& atom : renamed_exit.body) {
        linear.body.push_back(SubstituteAtom(atom, unify));
      }
      for (const Constraint& cst : renamed_exit.constraints) {
        Constraint sc;
        sc.op = cst.op;
        sc.lhs = SubstituteTerm(cst.lhs, unify);
        sc.rhs = SubstituteTerm(cst.rhs, unify);
        linear.constraints.push_back(std::move(sc));
      }
      rewritten.push_back(std::move(linear));
    }
    replaced.insert(composition);
    (void)a;
  }

  if (replaced.empty()) return out;
  std::vector<Rule> next;
  for (const Rule& rule : out.rules) {
    if (replaced.count(&rule) == 0) next.push_back(rule);
  }
  for (Rule& rule : rewritten) next.push_back(std::move(rule));
  out.rules = std::move(next);
  return out;
}

}  // namespace raqlet::opt
