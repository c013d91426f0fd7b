#include "sqir/sql_printer.h"

#include <sstream>

#include "common/str_util.h"

namespace raqlet::sqir {

namespace {

std::string SqlConstant(const dlir::Constant& c) {
  switch (c.type) {
    case ValueType::kNumber: {
      return std::to_string(c.num);
    }
    case ValueType::kFloat:
      return FormatFloat(c.fval);
    case ValueType::kSymbol: {
      // Single quotes, doubled for escaping.
      std::string out = "'";
      for (char ch : c.str) {
        if (ch == '\'') out += "''";
        else out.push_back(ch);
      }
      out += "'";
      return out;
    }
    case ValueType::kBool:
      return c.bval ? "TRUE" : "FALSE";
    case ValueType::kNull:
      return "NULL";
  }
  return "NULL";
}

std::string SqlExpr(const Expr& e) {
  switch (e.kind) {
    case Expr::kColumn:
      return e.table + "." + e.column;
    case Expr::kConst:
      return SqlConstant(e.constant);
    case Expr::kArith:
      return "(" + SqlExpr(e.children[0]) + " " +
             dlir::ArithOpToString(e.op) + " " + SqlExpr(e.children[1]) + ")";
    case Expr::kAgg: {
      std::string func;
      switch (e.agg) {
        case dlir::AggFunc::kCount:
          func = "COUNT";
          break;
        case dlir::AggFunc::kSum:
          func = "SUM";
          break;
        case dlir::AggFunc::kMin:
          func = "MIN";
          break;
        case dlir::AggFunc::kMax:
          func = "MAX";
          break;
        case dlir::AggFunc::kAvg:
          func = "AVG";
          break;
      }
      std::string inner = e.children.empty() ? "*" : SqlExpr(e.children[0]);
      return func + "(" + inner + ")";
    }
  }
  return "NULL";
}

std::string SqlCmp(dlir::CmpOp op) {
  return op == dlir::CmpOp::kNe ? "<>" : dlir::CmpOpToString(op);
}

std::string RenderSelect(const Select& sel, int indent_spaces) {
  std::ostringstream os;
  std::string pad(static_cast<size_t>(indent_spaces), ' ');
  os << pad << "SELECT" << (sel.distinct ? " DISTINCT" : "") << " ";
  std::vector<std::string> items;
  for (const SelectItem& item : sel.items) {
    items.push_back(SqlExpr(item.expr) + " AS " + item.alias);
  }
  os << Join(items, ", ") << "\n";
  os << pad << "FROM ";
  std::vector<std::string> from;
  for (const TableRef& t : sel.from) {
    from.push_back(t.table + " AS " + t.alias);
  }
  os << Join(from, ", ") << "\n";
  std::vector<std::string> preds;
  for (const Predicate& p : sel.where) {
    preds.push_back("(" + SqlExpr(p.lhs) + " " + SqlCmp(p.op) + " " +
                    SqlExpr(p.rhs) + ")");
  }
  for (const NotExists& ne : sel.not_exists) {
    std::string sub = "NOT EXISTS (SELECT 1 FROM " + ne.table + " AS NE";
    if (!ne.equalities.empty()) {
      std::vector<std::string> eqs;
      for (const auto& [col, expr] : ne.equalities) {
        eqs.push_back("NE." + col + " = " + SqlExpr(expr));
      }
      sub += " WHERE " + Join(eqs, " AND ");
    }
    sub += ")";
    preds.push_back(std::move(sub));
  }
  if (!preds.empty()) {
    os << pad << "WHERE " << Join(preds, " AND ") << "\n";
  }
  if (!sel.group_by.empty()) {
    std::vector<std::string> groups;
    for (const Expr& g : sel.group_by) groups.push_back(SqlExpr(g));
    os << pad << "GROUP BY " << Join(groups, ", ") << "\n";
  }
  return os.str();
}

}  // namespace

std::string ToSql(const SqirProgram& program) {
  std::ostringstream os;
  bool any_recursive = false;
  for (const Cte& cte : program.ctes) any_recursive |= cte.recursive;

  if (!program.ctes.empty()) {
    os << "WITH " << (any_recursive ? "RECURSIVE " : "");
    for (size_t i = 0; i < program.ctes.size(); ++i) {
      const Cte& cte = program.ctes[i];
      if (i > 0) os << ", ";
      os << cte.name << "(" << Join(cte.columns, ", ") << ") AS (\n";
      for (size_t b = 0; b < cte.branches.size(); ++b) {
        if (b > 0) os << "  UNION\n";
        os << RenderSelect(cte.branches[b], 2);
      }
      os << ")";
    }
    os << "\n";
  }
  os << RenderSelect(program.final_select, 0);
  return os.str();
}

}  // namespace raqlet::sqir
