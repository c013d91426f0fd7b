#include "sqir/dlir_to_sqir.h"

#include <map>
#include <set>

#include "analysis/analyses.h"
#include "analysis/dependency_graph.h"
#include "analysis/typecheck.h"

namespace raqlet::sqir {

namespace {

using dlir::Atom;
using dlir::CmpOp;
using dlir::Program;
using dlir::RelationDecl;
using dlir::Rule;
using dlir::Term;
using dlir::TermKind;

class RuleTranslator {
 public:
  RuleTranslator(const Program& program, const Rule& rule,
                 const std::map<std::string, std::string>& cte_names)
      : program_(program), rule_(rule), cte_names_(cte_names) {}

  Result<Select> Run() {
    Select select;
    select.distinct = true;

    // FROM: one table per positive atom; bind variables to columns.
    int alias_counter = 0;
    for (const Atom& atom : rule_.body) {
      if (atom.negated) continue;
      const RelationDecl* decl = program_.FindDecl(atom.predicate);
      if (decl == nullptr) {
        return Status::NotFound("undeclared predicate: " + atom.predicate);
      }
      TableRef ref;
      ref.table = TableName(atom.predicate);
      ref.alias = "R" + std::to_string(++alias_counter);
      select.from.push_back(ref);

      for (size_t i = 0; i < atom.args.size(); ++i) {
        const Term& arg = atom.args[i];
        Expr col = Expr::Column(ref.alias, decl->columns[i].name);
        switch (arg.kind) {
          case TermKind::kWildcard:
            break;
          case TermKind::kConstant:
            select.where.push_back(
                Predicate{CmpOp::kEq, col, Expr::Const(arg.constant)});
            break;
          case TermKind::kVariable: {
            auto it = var_expr_.find(arg.var);
            if (it == var_expr_.end()) {
              var_expr_.emplace(arg.var, col);
            } else {
              select.where.push_back(Predicate{CmpOp::kEq, col, it->second});
            }
            break;
          }
          case TermKind::kBinary:
            deferred_.push_back({col, &arg});
            break;
        }
      }
    }

    // Expression-valued atom arguments (e.g. the d+1 of a recursive step
    // appears in heads in practice, but handle body occurrences too).
    for (const auto& [col, term] : deferred_) {
      RAQLET_ASSIGN_OR_RETURN(Expr e, TermToExpr(*term));
      select.where.push_back(Predicate{CmpOp::kEq, col, e});
    }

    // Constraints: binding equalities define variables; the rest filter.
    bool changed = true;
    std::vector<bool> used(rule_.constraints.size(), false);
    while (changed) {
      changed = false;
      for (size_t i = 0; i < rule_.constraints.size(); ++i) {
        if (used[i]) continue;
        const dlir::Constraint& c = rule_.constraints[i];
        if (c.op == CmpOp::kEq) {
          if (c.lhs.is_var() && var_expr_.count(c.lhs.var) == 0 &&
              Resolvable(c.rhs)) {
            RAQLET_ASSIGN_OR_RETURN(Expr e, TermToExpr(c.rhs));
            var_expr_.emplace(c.lhs.var, std::move(e));
            used[i] = true;
            changed = true;
            continue;
          }
          if (c.rhs.is_var() && var_expr_.count(c.rhs.var) == 0 &&
              Resolvable(c.lhs)) {
            RAQLET_ASSIGN_OR_RETURN(Expr e, TermToExpr(c.lhs));
            var_expr_.emplace(c.rhs.var, std::move(e));
            used[i] = true;
            changed = true;
            continue;
          }
        }
        if (Resolvable(c.lhs) && Resolvable(c.rhs)) {
          RAQLET_ASSIGN_OR_RETURN(Expr lhs, TermToExpr(c.lhs));
          RAQLET_ASSIGN_OR_RETURN(Expr rhs, TermToExpr(c.rhs));
          select.where.push_back(Predicate{c.op, std::move(lhs), std::move(rhs)});
          used[i] = true;
          changed = true;
        }
      }
    }
    for (size_t i = 0; i < rule_.constraints.size(); ++i) {
      if (!used[i]) {
        return Status::Unsupported("constraint with unbound variable in SQL "
                                   "translation: " +
                                   rule_.constraints[i].ToString());
      }
    }

    // Negated atoms -> NOT EXISTS.
    for (const Atom& atom : rule_.body) {
      if (!atom.negated) continue;
      const RelationDecl* decl = program_.FindDecl(atom.predicate);
      if (decl == nullptr) {
        return Status::NotFound("undeclared predicate: " + atom.predicate);
      }
      NotExists ne;
      ne.table = TableName(atom.predicate);
      for (size_t i = 0; i < atom.args.size(); ++i) {
        const Term& arg = atom.args[i];
        if (arg.is_wildcard()) continue;
        RAQLET_ASSIGN_OR_RETURN(Expr e, TermToExpr(arg));
        ne.equalities.emplace_back(decl->columns[i].name, std::move(e));
      }
      select.not_exists.push_back(std::move(ne));
    }

    // SELECT items from the head; aggregation becomes GROUP BY.
    const RelationDecl* head_decl = program_.FindDecl(rule_.head.predicate);
    if (head_decl == nullptr) {
      return Status::NotFound("undeclared head: " + rule_.head.predicate);
    }
    for (size_t i = 0; i < rule_.head.args.size(); ++i) {
      SelectItem item;
      item.alias = head_decl->columns[i].name;
      if (rule_.agg.has_value() &&
          static_cast<int>(i) == rule_.agg_result_pos) {
        std::vector<Expr> args;
        if (rule_.agg->func != dlir::AggFunc::kCount ||
            rule_.agg->arg.kind != TermKind::kWildcard) {
          if (rule_.agg->arg.kind != TermKind::kWildcard) {
            RAQLET_ASSIGN_OR_RETURN(Expr e, TermToExpr(rule_.agg->arg));
            args.push_back(std::move(e));
          }
        }
        item.expr = Expr::Agg(rule_.agg->func, std::move(args));
      } else {
        RAQLET_ASSIGN_OR_RETURN(item.expr, TermToExpr(rule_.head.args[i]));
      }
      select.items.push_back(std::move(item));
    }
    if (rule_.agg.has_value()) {
      select.distinct = false;  // GROUP BY already collapses groups
      for (size_t i = 0; i < select.items.size(); ++i) {
        if (static_cast<int>(i) == rule_.agg_result_pos) continue;
        select.group_by.push_back(select.items[i].expr);
      }
    }
    return select;
  }

 private:
  std::string TableName(const std::string& predicate) const {
    auto it = cte_names_.find(predicate);
    return it == cte_names_.end() ? predicate : it->second;
  }

  bool Resolvable(const Term& term) const {
    switch (term.kind) {
      case TermKind::kConstant:
        return true;
      case TermKind::kVariable:
        return var_expr_.count(term.var) > 0;
      case TermKind::kWildcard:
        return false;
      case TermKind::kBinary:
        return Resolvable(term.children[0]) && Resolvable(term.children[1]);
    }
    return false;
  }

  Result<Expr> TermToExpr(const Term& term) const {
    switch (term.kind) {
      case TermKind::kConstant:
        return Expr::Const(term.constant);
      case TermKind::kVariable: {
        auto it = var_expr_.find(term.var);
        if (it == var_expr_.end()) {
          return Status::Unsupported("unbound variable '" + term.var +
                                     "' in SQL translation of rule: " +
                                     rule_.ToString());
        }
        return it->second;
      }
      case TermKind::kWildcard:
        return Status::Internal("wildcard in value position");
      case TermKind::kBinary: {
        RAQLET_ASSIGN_OR_RETURN(Expr lhs, TermToExpr(term.children[0]));
        RAQLET_ASSIGN_OR_RETURN(Expr rhs, TermToExpr(term.children[1]));
        return Expr::Arith(term.op, std::move(lhs), std::move(rhs));
      }
    }
    return Status::Internal("unhandled term kind");
  }

  const Program& program_;
  const Rule& rule_;
  const std::map<std::string, std::string>& cte_names_;
  std::map<std::string, Expr> var_expr_;
  std::vector<std::pair<Expr, const Term*>> deferred_;
};

}  // namespace

Result<SqirProgram> TranslateToSqir(const Program& program) {
  RAQLET_RETURN_IF_ERROR(analysis::VerifyStructure(program));
  analysis::DependencyGraph graph = analysis::DependencyGraph::Build(program);
  RAQLET_RETURN_IF_ERROR(analysis::CheckBackendSupport(
      program, analysis::Analyze(program, graph), analysis::Backend::kSql));

  std::vector<std::string> outputs = program.OutputRelations();
  if (outputs.size() != 1) {
    return Status::Unsupported(
        "SQL translation requires exactly one output relation, got " +
        std::to_string(outputs.size()));
  }

  std::set<std::string> idbs = program.IdbPredicates();

  // CTE order: SCC topological order restricted to IDBs.
  std::vector<std::string> cte_order;
  for (const auto& scc : graph.SccsInTopologicalOrder()) {
    for (const std::string& pred : scc) {
      if (idbs.count(pred) > 0) cte_order.push_back(pred);
    }
  }

  std::map<std::string, std::string> cte_names;
  for (size_t i = 0; i < cte_order.size(); ++i) {
    cte_names[cte_order[i]] = "V" + std::to_string(i + 1);
  }

  SqirProgram out;
  for (const std::string& pred : cte_order) {
    const RelationDecl* decl = program.FindDecl(pred);
    if (decl == nullptr) {
      return Status::NotFound("undeclared IDB: " + pred);
    }
    Cte cte;
    cte.name = cte_names[pred];
    cte.source_predicate = pred;
    for (const Column& col : decl->columns) {
      cte.columns.push_back(col.name);
      cte.column_types.push_back(col.type);
    }
    cte.recursive = graph.IsRecursivePredicate(pred);

    // Base branches first (recursive CTE grammar requires it).
    for (bool recursive_branch : {false, true}) {
      for (const Rule& rule : program.rules) {
        if (rule.head.predicate != pred) continue;
        bool self_ref = rule.BodyUses(pred);
        if (self_ref != recursive_branch) continue;
        RuleTranslator translator(program, rule, cte_names);
        RAQLET_ASSIGN_OR_RETURN(Select select, translator.Run());
        cte.branches.push_back(std::move(select));
      }
    }
    if (cte.branches.empty()) {
      return Status::Unsupported("IDB '" + pred + "' has no defining rules");
    }
    out.ctes.push_back(std::move(cte));
  }

  // Final SELECT DISTINCT * FROM <output CTE>.
  const std::string& output = outputs[0];
  const RelationDecl* out_decl = program.FindDecl(output);
  Select final_select;
  final_select.distinct = true;
  TableRef ref;
  ref.table = cte_names.count(output) ? cte_names[output] : output;
  ref.alias = "R1";
  final_select.from.push_back(ref);
  for (const Column& col : out_decl->columns) {
    final_select.items.push_back(
        SelectItem{Expr::Column("R1", col.name), col.name});
    out.output_columns.push_back(col.name);
  }
  out.final_select = std::move(final_select);
  return out;
}

}  // namespace raqlet::sqir
