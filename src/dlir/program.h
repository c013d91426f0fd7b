#ifndef RAQLET_DLIR_PROGRAM_H_
#define RAQLET_DLIR_PROGRAM_H_

// DLIR — Raqlet's Datalog-inspired core intermediate representation (§3).
//
// A DLIR program is a list of relation declarations plus a list of rules
// `Head(args) :- atom, ..., constraint, ... .` with optional stratified
// negation and head-position aggregation. All static analyses (§4) and
// optimizations (§5) operate on this IR; the Cypher/PGIR frontend lowers
// into it and the Datalog/SQL backends lower out of it.
//
// Extensions beyond textbook Datalog, mirroring the paper:
//   * arithmetic terms and comparison constraints,
//   * aggregation in rule heads (count/sum/min/max/avg) with group-by
//     given by the remaining head arguments,
//   * lattice ("monotone aggregate") relations, where the last column is
//     merged with min/max instead of set union — this is the Datalog^o
//     -style mechanism [43] used for shortest paths.

#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "storage/relation.h"

namespace raqlet::dlir {

/// An IR-level literal constant. Unlike runtime Values, string constants
/// are stored verbatim (interning happens at execution time).
struct Constant {
  ValueType type = ValueType::kNumber;
  int64_t num = 0;
  double fval = 0.0;
  bool bval = false;
  std::string str;

  static Constant Number(int64_t v);
  static Constant Float(double v);
  static Constant String(std::string v);
  static Constant Bool(bool v);
  static Constant Null();

  bool operator==(const Constant& other) const;
  bool operator!=(const Constant& other) const { return !(*this == other); }
  /// Renders the constant in Datalog syntax (strings quoted).
  std::string ToString() const;
};

enum class TermKind { kVariable, kConstant, kWildcard, kBinary };

enum class ArithOp { kAdd, kSub, kMul, kDiv, kMod };
const char* ArithOpToString(ArithOp op);

/// A term: variable, constant, wildcard `_`, or arithmetic expression.
struct Term {
  TermKind kind = TermKind::kWildcard;
  std::string var;        // kVariable
  Constant constant;      // kConstant
  ArithOp op = ArithOp::kAdd;  // kBinary
  std::vector<Term> children;  // kBinary: exactly two

  static Term Var(std::string name);
  static Term Const(Constant c);
  static Term Num(int64_t v);
  static Term Str(std::string v);
  static Term Wildcard();
  static Term Binary(ArithOp op, Term lhs, Term rhs);

  bool is_var() const { return kind == TermKind::kVariable; }
  bool is_const() const { return kind == TermKind::kConstant; }
  bool is_wildcard() const { return kind == TermKind::kWildcard; }

  /// Adds every variable occurring in this term to `vars`.
  void CollectVars(std::set<std::string>* vars) const;

  bool operator==(const Term& other) const;
  bool operator!=(const Term& other) const { return !(*this == other); }
  std::string ToString() const;
};

/// A (possibly negated) relational atom `R(t1, ..., tn)` in a rule body,
/// or (never negated) a rule head.
struct Atom {
  std::string predicate;
  std::vector<Term> args;
  bool negated = false;

  void CollectVars(std::set<std::string>* vars) const;
  std::string ToString() const;
  bool operator==(const Atom& other) const;
};

enum class CmpOp { kEq, kNe, kLt, kLe, kGt, kGe };
const char* CmpOpToString(CmpOp op);
/// Flips the operator as if swapping its operands (< becomes >).
CmpOp SwapCmpOp(CmpOp op);

/// A comparison constraint between two terms, e.g. `n = 42` or `d < x+1`.
struct Constraint {
  CmpOp op = CmpOp::kEq;
  Term lhs;
  Term rhs;

  void CollectVars(std::set<std::string>* vars) const;
  std::string ToString() const;
  bool operator==(const Constraint& other) const;
};

enum class AggFunc { kCount, kSum, kMin, kMax, kAvg };
const char* AggFuncToString(AggFunc func);

/// Head aggregation: the head argument at `Rule::agg_result_pos` receives
/// `func` over `arg` evaluated per body match, grouped by the remaining
/// head arguments.
struct Aggregate {
  AggFunc func = AggFunc::kCount;
  Term arg;  // ignored for count
  std::string ToString() const;
};

/// One DLIR rule. Body atom order is preserved (it is the join order hint
/// used by the engine's planner) and constraints apply as soon as their
/// variables are bound.
struct Rule {
  Atom head;
  std::vector<Atom> body;
  std::vector<Constraint> constraints;
  std::optional<Aggregate> agg;
  int agg_result_pos = -1;  // head arg index receiving the aggregate

  /// Variables appearing in positive body atoms (the range-restricted set).
  std::set<std::string> PositiveBodyVars() const;
  /// The binding rule: extends `bound`, to a fixpoint, with each variable
  /// `v` of an equality `v = expr` whose `expr` mentions only bound
  /// variables (the frontend emits `p = cityId` bindings, Fig. 3c). Safety
  /// checking and magic-set sideways information passing both use it.
  void BindThroughEqualities(std::set<std::string>* bound) const;
  /// All variables anywhere in the rule.
  std::set<std::string> AllVars() const;
  /// True if `predicate` occurs in the (positive or negated) body.
  bool BodyUses(const std::string& predicate) const;

  std::string ToString() const;
};

/// Lattice annotation on a relation's last column (kNone = plain set).
enum class LatticeKind { kNone, kMin, kMax };

/// Declared relation: schema plus IO role. `is_input` relations are EDBs
/// expected to pre-exist in the Database; `is_output` relations are the
/// query results.
struct RelationDecl {
  std::string name;
  std::vector<Column> columns;
  bool is_input = false;
  bool is_output = false;
  LatticeKind lattice = LatticeKind::kNone;
  std::vector<int> primary_key;

  size_t arity() const { return columns.size(); }
  std::string ToString() const;
};

/// A complete DLIR program. Value-semantic: optimizer passes copy and
/// rewrite freely.
struct Program {
  std::vector<RelationDecl> decls;
  std::vector<Rule> rules;

  /// Looks up a declaration by name; returns nullptr if absent.
  /// WARNING: the returned pointer aims into `decls` and is invalidated by
  /// any mutation of that vector (push_back may reallocate). Copy the decl
  /// or re-lookup after mutating; do not hold it across a push_back.
  const RelationDecl* FindDecl(const std::string& name) const;
  RelationDecl* FindDecl(const std::string& name);

  /// Names of relations flagged is_output, in declaration order.
  std::vector<std::string> OutputRelations() const;
  /// Names of relations flagged is_input, in declaration order.
  std::vector<std::string> InputRelations() const;
  /// Predicates that appear in some rule head (the IDBs).
  std::set<std::string> IdbPredicates() const;

  /// Whole program in Datalog-like text (see also SoufflePrinter for the
  /// exact Soufflé dialect).
  std::string ToString() const;
};

/// Generates fresh variable names (`prefix`, `prefix_1`, ...) avoiding a
/// set of reserved names. Used by optimizer rewrites and the frontends.
class VarGen {
 public:
  VarGen() = default;
  explicit VarGen(std::set<std::string> reserved)
      : reserved_(std::move(reserved)) {}

  void Reserve(const std::string& name) { reserved_.insert(name); }
  std::string Fresh(const std::string& prefix);

 private:
  std::set<std::string> reserved_;
  int counter_ = 0;
};

}  // namespace raqlet::dlir

#endif  // RAQLET_DLIR_PROGRAM_H_
