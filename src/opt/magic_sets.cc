#include "opt/magic_sets.h"

#include <deque>
#include <map>
#include <set>

#include "analysis/dependency_graph.h"
#include "analysis/typecheck.h"
#include "opt/rewrite_util.h"

namespace raqlet::opt {

using dlir::Atom;
using dlir::Program;
using dlir::RelationDecl;
using dlir::Rule;
using dlir::Term;

namespace {

std::string AdornedName(const std::string& pred, const std::string& ad) {
  return pred + "_" + ad;
}

std::string MagicName(const std::string& pred, const std::string& ad) {
  return "m_" + pred + "_" + ad;
}

// Computes the adornment of `atom` given the currently bound variables:
// a position is bound if it is a constant or an expression over bound vars.
std::string AtomAdornment(const Atom& atom, const std::set<std::string>& bound) {
  std::string ad;
  for (const Term& arg : atom.args) {
    if (arg.is_wildcard()) {
      ad.push_back('f');
      continue;
    }
    std::set<std::string> vars;
    arg.CollectVars(&vars);
    bool all_bound = true;
    for (const std::string& v : vars) {
      if (bound.count(v) == 0) all_bound = false;
    }
    // A bare unbound variable (or expression with unbound vars) is free.
    if (arg.is_var() && bound.count(arg.var) == 0) {
      ad.push_back('f');
    } else if (all_bound) {
      ad.push_back('b');
    } else {
      ad.push_back('f');
    }
  }
  return ad;
}

struct AdornedPred {
  std::string pred;
  std::string adornment;
  bool operator<(const AdornedPred& other) const {
    return std::tie(pred, adornment) < std::tie(other.pred, other.adornment);
  }
};

}  // namespace

Result<Program> ApplyMagicSetsTo(const Program& program,
                                 const std::string& query_predicate,
                                 const std::string& adornment) {
  std::set<std::string> idbs = program.IdbPredicates();

  const RelationDecl* query_decl = program.FindDecl(query_predicate);
  if (query_decl == nullptr || adornment.size() != query_decl->arity()) {
    return Status::InvalidArgument("bad adornment '" + adornment + "' for " +
                                   query_predicate);
  }
  if (adornment.find('b') == std::string::npos) return program;

  // Eligibility: the query predicate's upstream IDB region must be free of
  // negation, aggregation and lattice merges.
  {
    std::set<std::string> region{query_predicate};
    bool grew = true;
    while (grew) {
      grew = false;
      for (const Rule& rule : program.rules) {
        if (region.count(rule.head.predicate) == 0) continue;
        for (const Atom& atom : rule.body) {
          if (idbs.count(atom.predicate) > 0 &&
              region.insert(atom.predicate).second) {
            grew = true;
          }
        }
      }
    }
    for (const Rule& rule : program.rules) {
      if (region.count(rule.head.predicate) == 0) continue;
      if (rule.agg.has_value()) return program;
      for (const Atom& atom : rule.body) {
        if (atom.negated) return program;
      }
    }
    for (const std::string& pred : region) {
      const RelationDecl* decl = program.FindDecl(pred);
      if (decl != nullptr && decl->lattice != dlir::LatticeKind::kNone) {
        return program;
      }
    }
  }

  // Locate the (unique) call site in an output rule and collect the seed.
  const Rule* call_rule = nullptr;
  size_t call_atom_index = 0;
  int call_sites = 0;
  for (const Rule& rule : program.rules) {
    const RelationDecl* head_decl = program.FindDecl(rule.head.predicate);
    if (head_decl == nullptr || !head_decl->is_output) continue;
    for (size_t i = 0; i < rule.body.size(); ++i) {
      if (rule.body[i].predicate != query_predicate) continue;
      ++call_sites;
      call_rule = &rule;
      call_atom_index = i;
    }
  }
  if (call_rule == nullptr || call_sites != 1) return program;
  const Atom& call_atom = call_rule->body[call_atom_index];
  for (size_t i = 0; i < adornment.size(); ++i) {
    if (adornment[i] == 'b' && !call_atom.args[i].is_const()) {
      // Only constant seeds are supported (run PushdownConstants first).
      return program;
    }
  }

  Program out = program;

  // Declare an adorned + magic relation pair for one adorned predicate.
  auto declare = [&](const AdornedPred& ap) {
    const bool need_adorned =
        out.FindDecl(AdornedName(ap.pred, ap.adornment)) == nullptr;
    const bool need_magic =
        out.FindDecl(MagicName(ap.pred, ap.adornment)) == nullptr;
    if (!need_adorned && !need_magic) return;
    const RelationDecl* base_ptr = out.FindDecl(ap.pred);
    if (base_ptr == nullptr) return;
    // Copy the base decl by value: the push_backs below may reallocate
    // out.decls, which would leave base_ptr dangling.
    const RelationDecl base = *base_ptr;
    if (need_adorned) {
      RelationDecl adorned = base;
      adorned.name = AdornedName(ap.pred, ap.adornment);
      adorned.is_input = false;
      adorned.is_output = false;
      out.decls.push_back(std::move(adorned));
    }
    if (need_magic) {
      RelationDecl magic;
      magic.name = MagicName(ap.pred, ap.adornment);
      for (size_t i = 0; i < ap.adornment.size(); ++i) {
        if (ap.adornment[i] == 'b') magic.columns.push_back(base.columns[i]);
      }
      out.decls.push_back(std::move(magic));
    }
  };

  std::deque<AdornedPred> worklist;
  std::set<AdornedPred> seen;
  AdornedPred root{query_predicate, adornment};
  worklist.push_back(root);
  seen.insert(root);
  declare(root);

  std::vector<Rule> generated;
  while (!worklist.empty()) {
    AdornedPred current = worklist.front();
    worklist.pop_front();

    for (const Rule& rule : program.rules) {
      if (rule.head.predicate != current.pred) continue;

      Rule adorned;
      adorned.head = rule.head;
      adorned.head.predicate = AdornedName(current.pred, current.adornment);
      adorned.constraints = rule.constraints;

      // Magic guard first: filters the head's bound arguments.
      Atom magic_guard;
      magic_guard.predicate = MagicName(current.pred, current.adornment);
      std::set<std::string> bound;
      for (size_t i = 0; i < current.adornment.size(); ++i) {
        if (current.adornment[i] != 'b') continue;
        magic_guard.args.push_back(rule.head.args[i]);
        rule.head.args[i].CollectVars(&bound);
      }
      adorned.body.push_back(magic_guard);
      rule.BindThroughEqualities(&bound);

      // Left-to-right sideways information passing.
      for (const Atom& atom : rule.body) {
        if (idbs.count(atom.predicate) > 0) {
          std::string atom_ad = AtomAdornment(atom, bound);
          if (atom_ad.find('b') != std::string::npos) {
            AdornedPred ap{atom.predicate, atom_ad};
            declare(ap);
            if (seen.insert(ap).second) worklist.push_back(ap);

            // Magic rule: the bound arguments of this call are reachable
            // from the prefix evaluated so far.
            Rule magic_rule;
            magic_rule.head.predicate = MagicName(ap.pred, ap.adornment);
            for (size_t i = 0; i < atom_ad.size(); ++i) {
              if (atom_ad[i] == 'b') magic_rule.head.args.push_back(atom.args[i]);
            }
            magic_rule.body = adorned.body;  // guard + transformed prefix
            // Constraints usable so far (needed when bindings flow through
            // equalities such as `n = 42` kept by the frontend).
            for (const dlir::Constraint& c : rule.constraints) {
              std::set<std::string> cvars;
              c.CollectVars(&cvars);
              bool ok = true;
              for (const std::string& v : cvars) {
                if (bound.count(v) == 0) ok = false;
              }
              if (ok) magic_rule.constraints.push_back(c);
            }
            // Skip trivial self-supporting magic rules
            // (m_p(x) :- m_p(x), nothing else).
            bool trivial = magic_rule.body.size() == 1 &&
                           magic_rule.constraints.empty() &&
                           magic_rule.body[0].predicate ==
                               magic_rule.head.predicate &&
                           magic_rule.body[0].args == magic_rule.head.args;
            if (!trivial) generated.push_back(std::move(magic_rule));

            Atom transformed = atom;
            transformed.predicate = AdornedName(ap.pred, ap.adornment);
            adorned.body.push_back(transformed);
          } else {
            adorned.body.push_back(atom);  // all-free call: keep original
          }
        } else {
          adorned.body.push_back(atom);
        }
        atom.CollectVars(&bound);
        rule.BindThroughEqualities(&bound);
      }
      generated.push_back(std::move(adorned));
    }
  }

  // Seed fact and rewritten call site.
  Rule seed;
  seed.head.predicate = MagicName(query_predicate, adornment);
  for (size_t i = 0; i < adornment.size(); ++i) {
    if (adornment[i] == 'b') seed.head.args.push_back(call_atom.args[i]);
  }
  generated.push_back(std::move(seed));

  // Replace the call atom in the (copied) output rule.
  for (Rule& rule : out.rules) {
    const RelationDecl* head_decl = out.FindDecl(rule.head.predicate);
    if (head_decl == nullptr || !head_decl->is_output) continue;
    for (Atom& atom : rule.body) {
      if (atom.predicate == query_predicate) {
        atom.predicate = AdornedName(query_predicate, adornment);
      }
    }
  }

  for (Rule& rule : generated) out.rules.push_back(std::move(rule));

  // Safety net: if the rewrite produced a structurally invalid program,
  // keep the original (conservative bail-out).
  if (!analysis::VerifyStructure(out).ok()) return program;
  return out;
}

Result<Program> ApplyMagicSets(const Program& program) {
  analysis::DependencyGraph graph = analysis::DependencyGraph::Build(program);
  std::set<std::string> idbs = program.IdbPredicates();

  for (const Rule& rule : program.rules) {
    const RelationDecl* head_decl = program.FindDecl(rule.head.predicate);
    if (head_decl == nullptr || !head_decl->is_output) continue;
    for (const Atom& atom : rule.body) {
      if (atom.negated) continue;
      if (idbs.count(atom.predicate) == 0) continue;
      if (!graph.IsRecursivePredicate(atom.predicate)) continue;
      std::string ad;
      bool any_bound = false;
      for (const Term& arg : atom.args) {
        if (arg.is_const()) {
          ad.push_back('b');
          any_bound = true;
        } else {
          ad.push_back('f');
        }
      }
      if (!any_bound) continue;
      return ApplyMagicSetsTo(program, atom.predicate, ad);
    }
  }
  return program;
}

}  // namespace raqlet::opt
