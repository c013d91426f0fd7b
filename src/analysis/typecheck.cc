#include "analysis/typecheck.h"

#include <cstdlib>
#include <map>
#include <queue>
#include <set>
#include <unordered_map>
#include <vector>

#include "analysis/analyses.h"
#include "analysis/dependency_graph.h"

namespace raqlet::analysis {

const char* TypeClassName(TypeClass c) {
  switch (c) {
    case TypeClass::kUnknown:
      return "unknown";
    case TypeClass::kNumeric:
      return "numeric";
    case TypeClass::kSymbol:
      return "symbol";
    case TypeClass::kBool:
      return "bool";
  }
  return "?";
}

TypeClass TypeClassOf(ValueType type) {
  switch (type) {
    case ValueType::kNumber:
    case ValueType::kFloat:
      return TypeClass::kNumeric;
    case ValueType::kSymbol:
      return TypeClass::kSymbol;
    case ValueType::kBool:
      return TypeClass::kBool;
    case ValueType::kNull:
      return TypeClass::kUnknown;
  }
  return TypeClass::kUnknown;
}

namespace {

using dlir::Atom;
using dlir::Constraint;
using dlir::Program;
using dlir::RelationDecl;
using dlir::Rule;
using dlir::Term;
using dlir::TermKind;

using DeclIndex = std::unordered_map<std::string, const RelationDecl*>;

/// The first declaration of each relation name.
DeclIndex IndexDecls(const Program& program) {
  DeclIndex by_name;
  by_name.reserve(program.decls.size());
  for (const RelationDecl& decl : program.decls) {
    by_name.emplace(decl.name, &decl);
  }
  return by_name;
}

/// The declaration `atom` resolves to, or nullptr when its predicate is
/// undeclared or its arity differs (the structural check reports those).
const RelationDecl* Resolve(const DeclIndex& decls, const Atom& atom) {
  auto it = decls.find(atom.predicate);
  if (it == decls.end() || it->second->arity() != atom.args.size()) {
    return nullptr;
  }
  return it->second;
}

bool AggPosInRange(const Rule& rule) {
  return rule.agg_result_pos >= 0 &&
         rule.agg_result_pos < static_cast<int>(rule.head.args.size());
}

/// Adds the variables of `term` that are not in `bound` to `unbound`.
void CollectUnbound(const Term& term, const std::set<std::string>& bound,
                    std::set<std::string>* unbound) {
  if (term.kind == TermKind::kVariable) {
    if (bound.count(term.var) == 0) unbound->insert(term.var);
  } else if (term.kind == TermKind::kBinary) {
    for (const Term& child : term.children) {
      CollectUnbound(child, bound, unbound);
    }
  }
}

/// Structural checks of one rule: every atom resolves (RQ002, RQ003), the
/// aggregate result position is in range (RQ005), and every variable the
/// rule reads is bound (RQ004).
void CheckRuleStructure(const DeclIndex& decls, int rule_index,
                        const Rule& rule, DiagnosticEngine* diags) {
  auto check_atom = [&](const Atom& atom) {
    auto it = decls.find(atom.predicate);
    if (it == decls.end()) {
      diags->Error("RQ002", "undeclared predicate '" + atom.predicate + "'")
          .AtRule(rule_index, rule)
          .AtPredicate(atom.predicate);
    } else if (it->second->arity() != atom.args.size()) {
      diags
          ->Error("RQ003", "arity mismatch for '" + atom.predicate +
                               "': declared " +
                               std::to_string(it->second->arity()) +
                               ", used with " +
                               std::to_string(atom.args.size()))
          .AtRule(rule_index, rule)
          .AtPredicate(atom.predicate);
    }
  };
  for (const Atom& atom : rule.body) {
    if (!atom.negated) check_atom(atom);
  }
  for (const Atom& atom : rule.body) {
    if (atom.negated) check_atom(atom);
  }
  check_atom(rule.head);
  if (rule.agg.has_value() && !AggPosInRange(rule)) {
    diags
        ->Error("RQ005", "aggregate result position " +
                             std::to_string(rule.agg_result_pos) +
                             " out of range for head of arity " +
                             std::to_string(rule.head.args.size()))
        .AtRule(rule_index, rule);
  }

  // Range restriction: the head, negated atoms, constraints and the
  // aggregate input read only variables that positive atoms bind, or that
  // the binding rule defines from them; the aggregate result variable is
  // bound by the aggregation itself.
  std::set<std::string> bound = rule.PositiveBodyVars();
  rule.BindThroughEqualities(&bound);
  if (rule.agg.has_value() && AggPosInRange(rule)) {
    const Term& result =
        rule.head.args[static_cast<size_t>(rule.agg_result_pos)];
    if (result.is_var()) bound.insert(result.var);
  }
  std::set<std::string> unbound;
  for (const Term& arg : rule.head.args) CollectUnbound(arg, bound, &unbound);
  for (const Atom& atom : rule.body) {
    if (!atom.negated) continue;
    for (const Term& arg : atom.args) CollectUnbound(arg, bound, &unbound);
  }
  for (const Constraint& c : rule.constraints) {
    CollectUnbound(c.lhs, bound, &unbound);
    CollectUnbound(c.rhs, bound, &unbound);
  }
  if (rule.agg.has_value()) CollectUnbound(rule.agg->arg, bound, &unbound);
  for (const std::string& v : unbound) {
    diags
        ->Error("RQ004", "unsafe rule: variable '" + v +
                             "' is not bound by any positive body atom")
        .AtRule(rule_index, rule);
  }
}

/// Inferred class of one rule variable plus where the class came from, so
/// a conflict can name both binding sites.
struct VarInfo {
  TypeClass cls = TypeClass::kUnknown;
  std::string origin;
};

/// Type-checks one rule: variable class inference and unification over
/// the atoms that resolve, constraint/arithmetic classes, aggregates.
class RuleTypeChecker {
 public:
  RuleTypeChecker(const DeclIndex& decls, int rule_index, const Rule& rule,
                  DiagnosticEngine* diags)
      : decls_(decls), rule_index_(rule_index), rule_(rule), diags_(diags) {}

  void Check() {
    // Body atoms first (they define variable classes), positives before
    // negations, the head last — mirrors how bindings flow at runtime.
    for (const Atom& atom : rule_.body) {
      if (!atom.negated) CheckAtom(atom);
    }
    for (const Atom& atom : rule_.body) {
      if (atom.negated) CheckAtom(atom);
    }
    BindConstraintClasses();
    for (const Constraint& c : rule_.constraints) CheckConstraint(c);
    CheckAtom(rule_.head);
    CheckAggregate();
  }

 private:
  Diagnostic& Error(std::string code, std::string message) {
    return diags_->Error(std::move(code), std::move(message))
        .AtRule(rule_index_, rule_);
  }

  std::string ColumnOrigin(const RelationDecl& decl, size_t i) const {
    return "column '" + decl.columns[i].name + "' of '" + decl.name + "' (" +
           ValueTypeToString(decl.columns[i].type) + ")";
  }

  void CheckAtom(const Atom& atom) {
    const RelationDecl* decl = Resolve(decls_, atom);
    if (decl == nullptr) return;
    for (size_t i = 0; i < atom.args.size(); ++i) {
      const Term& term = atom.args[i];
      TypeClass want = TypeClassOf(decl->columns[i].type);
      switch (term.kind) {
        case TermKind::kWildcard:
          break;
        case TermKind::kConstant: {
          TypeClass got = TypeClassOf(term.constant.type);
          if (got != TypeClass::kUnknown && want != TypeClass::kUnknown &&
              got != want) {
            Error("RQ011", "constant " + term.constant.ToString() + " (" +
                               TypeClassName(got) + ") used at " +
                               ColumnOrigin(*decl, i))
                .AtPredicate(atom.predicate);
          }
          break;
        }
        case TermKind::kVariable:
          UnifyVar(term.var, want, ColumnOrigin(*decl, i));
          break;
        case TermKind::kBinary:
          TermClass(term);  // reports RQ013 for non-numeric operands
          if (want == TypeClass::kSymbol || want == TypeClass::kBool) {
            Error("RQ013", "arithmetic expression " + term.ToString() +
                               " used at non-numeric " + ColumnOrigin(*decl, i))
                .AtPredicate(atom.predicate);
          }
          break;
      }
    }
  }

  void UnifyVar(const std::string& var, TypeClass cls, std::string origin) {
    VarInfo& info = vars_[var];
    if (cls == TypeClass::kUnknown) return;
    if (info.cls == TypeClass::kUnknown) {
      info.cls = cls;
      info.origin = std::move(origin);
      return;
    }
    if (info.cls != cls) {
      std::string key = var + "#" + TypeClassName(cls);
      if (!reported_conflicts_.insert(key).second) return;
      Error("RQ010", "variable '" + var + "' is used as both " +
                         TypeClassName(info.cls) + " (" + info.origin +
                         ") and " + TypeClassName(cls) + " (" + origin + ")");
    }
  }

  /// Class of a term in constraint position; reports RQ013 for symbol or
  /// bool operands inside arithmetic.
  TypeClass TermClass(const Term& term) {
    switch (term.kind) {
      case TermKind::kWildcard:
        return TypeClass::kUnknown;
      case TermKind::kConstant:
        return TypeClassOf(term.constant.type);
      case TermKind::kVariable: {
        auto it = vars_.find(term.var);
        return it == vars_.end() ? TypeClass::kUnknown : it->second.cls;
      }
      case TermKind::kBinary: {
        for (const Term& child : term.children) {
          TypeClass c = TermClass(child);
          if (c == TypeClass::kSymbol || c == TypeClass::kBool) {
            std::string key = child.ToString() + "#arith";
            if (reported_conflicts_.insert(key).second) {
              Error("RQ013", "arithmetic over non-numeric operand " +
                                 child.ToString() + " (" + TypeClassName(c) +
                                 ") in " + term.ToString());
            }
          }
        }
        return TypeClass::kNumeric;
      }
    }
    return TypeClass::kUnknown;
  }

  /// Propagates classes through `v = <expr>` constraints so variables
  /// defined only by binding equalities still participate in checks.
  void BindConstraintClasses() {
    bool changed = true;
    while (changed) {
      changed = false;
      for (const Constraint& c : rule_.constraints) {
        if (c.op != dlir::CmpOp::kEq) continue;
        auto try_assign = [&](const Term& target, const Term& source) {
          if (!target.is_var()) return;
          auto it = vars_.find(target.var);
          if (it != vars_.end() && it->second.cls != TypeClass::kUnknown) {
            return;
          }
          // Peek the source class without emitting RQ013 yet (CheckConstraint
          // will): constants and already-classed vars only.
          TypeClass src = TypeClass::kUnknown;
          if (source.is_const()) {
            src = TypeClassOf(source.constant.type);
          } else if (source.is_var()) {
            auto sit = vars_.find(source.var);
            if (sit != vars_.end()) src = sit->second.cls;
          } else if (source.kind == TermKind::kBinary) {
            src = TypeClass::kNumeric;
          }
          if (src == TypeClass::kUnknown) return;
          VarInfo& info = vars_[target.var];
          if (info.cls == TypeClass::kUnknown) {
            info.cls = src;
            info.origin = "constraint " + c.ToString();
            changed = true;
          }
        };
        try_assign(c.lhs, c.rhs);
        try_assign(c.rhs, c.lhs);
      }
    }
  }

  void CheckConstraint(const Constraint& c) {
    TypeClass lhs = TermClass(c.lhs);
    TypeClass rhs = TermClass(c.rhs);
    if (lhs != TypeClass::kUnknown && rhs != TypeClass::kUnknown &&
        lhs != rhs) {
      Error("RQ012", "comparison " + c.ToString() + " between " +
                         TypeClassName(lhs) + " and " + TypeClassName(rhs) +
                         " can never hold");
    }
  }

  void CheckAggregate() {
    if (!rule_.agg.has_value() || !AggPosInRange(rule_)) return;
    if (rule_.agg->func != dlir::AggFunc::kCount) {
      TypeClass arg = TermClass(rule_.agg->arg);
      if (arg == TypeClass::kSymbol || arg == TypeClass::kBool) {
        Error("RQ014",
              std::string(dlir::AggFuncToString(rule_.agg->func)) + "(" +
                  rule_.agg->arg.ToString() + ") aggregates a " +
                  TypeClassName(arg) +
                  " value; aggregation is defined over numbers");
      }
    }
    if (const RelationDecl* decl = Resolve(decls_, rule_.head)) {
      size_t pos = static_cast<size_t>(rule_.agg_result_pos);
      TypeClass result = TypeClassOf(decl->columns[pos].type);
      if (result == TypeClass::kSymbol || result == TypeClass::kBool) {
        Error("RQ015",
              std::string(dlir::AggFuncToString(rule_.agg->func)) +
                  " result flows into non-numeric " + ColumnOrigin(*decl, pos))
            .AtPredicate(rule_.head.predicate);
      }
    }
  }

  const DeclIndex& decls_;
  int rule_index_;
  const Rule& rule_;
  DiagnosticEngine* diags_;
  std::map<std::string, VarInfo> vars_;
  std::set<std::string> reported_conflicts_;
};

/// Renders the dependency chain head ->* tail (derivation direction) inside
/// one SCC, for stratification-violation notes. Both predicates share an
/// SCC, so a path always exists (possibly the trivial one).
std::vector<std::string> SccPath(const DependencyGraph& graph,
                                 const std::string& from,
                                 const std::string& to, int scc) {
  std::map<std::string, std::string> parent;
  std::queue<std::string> frontier;
  frontier.push(from);
  parent[from] = "";
  while (!frontier.empty()) {
    std::string current = frontier.front();
    frontier.pop();
    if (current == to && current != from) break;
    for (const DependencyEdge& e : graph.edges()) {
      // Derivation direction: `e.from` feeds `e.to`.
      if (e.from != current) continue;
      if (graph.SccOf(e.to) != scc) continue;
      if (parent.count(e.to) > 0) continue;
      parent[e.to] = current;
      frontier.push(e.to);
    }
  }
  std::vector<std::string> path;
  if (from == to) return {from};
  auto it = parent.find(to);
  if (it == parent.end()) return {from, to};  // defensive; should not happen
  for (std::string node = to; !node.empty(); node = parent[node]) {
    path.insert(path.begin(), node);
    if (node == from) break;
  }
  return path;
}

/// RQ020 for every violation AnalyzeStratification finds, with the cycle
/// it closes as a note.
void CheckStratification(const Program& program, DiagnosticEngine* diags) {
  DependencyGraph graph = DependencyGraph::Build(program);
  StratificationResult strat = AnalyzeStratification(program, graph);
  for (const StratificationViolation& v : strat.violations) {
    const Rule& rule = program.rules[static_cast<size_t>(v.rule_index)];
    Diagnostic& d =
        diags
            ->Error("RQ020",
                    std::string(v.negation ? "negation of '"
                                           : "aggregation over '") +
                        v.predicate +
                        "' inside its own recursive component (the program "
                        "is not stratifiable)")
            .AtRule(v.rule_index, rule)
            .AtPredicate(v.predicate);
    // The full cycle: head derives ... derives the offending predicate,
    // which feeds back into head through the negation/aggregation.
    std::vector<std::string> path =
        SccPath(graph, rule.head.predicate, v.predicate,
                graph.SccOf(rule.head.predicate));
    std::string cycle;
    for (const std::string& node : path) {
      if (!cycle.empty()) cycle += " -> ";
      cycle += node;
    }
    cycle += v.negation ? " --(negated)--> " : " --(aggregated)--> ";
    cycle += rule.head.predicate;
    d.Note((v.negation ? "negation cycle: " : "aggregation cycle: ") + cycle);
  }
}

}  // namespace

void CheckStructure(const Program& program, DiagnosticEngine* diags) {
  const DeclIndex by_name = IndexDecls(program);
  for (const RelationDecl& decl : program.decls) {
    if (by_name.at(decl.name) != &decl) {
      diags->Error("RQ001", "duplicate declaration of relation '" + decl.name +
                                "'")
          .AtPredicate(decl.name);
    }
  }
  for (const RelationDecl& decl : program.decls) {
    if (decl.lattice == dlir::LatticeKind::kNone) continue;
    const char* kind = decl.lattice == dlir::LatticeKind::kMin ? "@min" : "@max";
    if (decl.columns.empty()) {
      diags->Error("RQ006", std::string("lattice relation '") + decl.name +
                                "' has no columns to merge " + kind + " over")
          .AtPredicate(decl.name);
      continue;
    }
    TypeClass last = TypeClassOf(decl.columns.back().type);
    if (last != TypeClass::kNumeric && last != TypeClass::kUnknown) {
      diags->Error("RQ006",
                   std::string("lattice relation '") + decl.name + "' merges " +
                       kind + " over its last column '" +
                       decl.columns.back().name + "', which is " +
                       TypeClassName(last) + " (must be numeric)")
          .AtPredicate(decl.name);
    }
  }
  for (size_t i = 0; i < program.rules.size(); ++i) {
    CheckRuleStructure(by_name, static_cast<int>(i), program.rules[i], diags);
  }
}

void CheckTypes(const Program& program, DiagnosticEngine* diags) {
  const DeclIndex by_name = IndexDecls(program);
  for (size_t i = 0; i < program.rules.size(); ++i) {
    RuleTypeChecker(by_name, static_cast<int>(i), program.rules[i], diags)
        .Check();
  }
}

void CheckProgram(const Program& program, DiagnosticEngine* diags) {
  CheckStructure(program, diags);
  CheckTypes(program, diags);
  CheckStratification(program, diags);
}

Status VerifyStructure(const Program& program, const std::string& context) {
  DiagnosticEngine diags;
  CheckStructure(program, &diags);
  return diags.ToStatus(context);
}

Status VerifyProgram(const Program& program, const std::string& context) {
  DiagnosticEngine diags;
  CheckProgram(program, &diags);
  return diags.ToStatus(context);
}

bool VerifyByDefault() {
  static const bool value = [] {
    if (const char* env = std::getenv("RAQLET_VERIFY_PASSES");
        env != nullptr && env[0] != '\0') {
      return env[0] != '0';
    }
#ifdef NDEBUG
    return false;
#else
    return true;
#endif
  }();
  return value;
}

}  // namespace raqlet::analysis
