#include "pgir/pgir_to_dlir.h"

#include <map>
#include <optional>
#include <set>

#include "analysis/typecheck.h"
#include "common/str_util.h"

namespace raqlet::pgir {

namespace {

using cypher::BinOp;
using cypher::EdgeDirection;
using cypher::Expr;
using cypher::ExprKind;
using dlir::Atom;
using dlir::CmpOp;
using dlir::Constraint;
using dlir::Program;
using dlir::RelationDecl;
using dlir::Rule;
using dlir::Term;

// What a PGIR identifier denotes during translation.
struct Binding {
  enum Kind { kNode, kEdge, kValue, kPathLength };
  Kind kind = kValue;
  std::string label;  // node label (kNode) or edge label (kEdge)
  ValueType type = ValueType::kNumber;
};

class Translator {
 public:
  Translator(const PgirQuery& query, const schema::DlSchema& dl)
      : query_(query), dl_(dl) {}

  Result<Program> Run() {
    program_.decls = dl_.edbs;
    bool saw_return = false;
    for (const Op& op : query_.ops) {
      if (saw_return) {
        return Status::InvalidArgument("RETURN must be the final construct");
      }
      if (const auto* match = std::get_if<MatchOp>(&op)) {
        RAQLET_RETURN_IF_ERROR(TranslateMatch(*match));
      } else if (const auto* where = std::get_if<WhereOp>(&op)) {
        RAQLET_RETURN_IF_ERROR(TranslateWhere(*where));
      } else if (const auto* with = std::get_if<WithOp>(&op)) {
        RAQLET_RETURN_IF_ERROR(
            TranslateProjection(with->items, "With" +
                                std::to_string(++with_counter_), false));
      } else if (const auto* ret = std::get_if<ReturnOp>(&op)) {
        RAQLET_RETURN_IF_ERROR(
            TranslateProjection(ret->items, "Return", true));
        saw_return = true;
      }
    }
    if (!saw_return) {
      return Status::InvalidArgument("PGIR query lacks a RETURN construct");
    }
    RAQLET_RETURN_IF_ERROR(analysis::VerifyStructure(program_));
    return std::move(program_);
  }

 private:
  // ---- frontier helpers ----

  // The frontier is the ordered list of identifiers visible after the
  // previous clause; each is a DLIR variable in the previous rule's head.
  Atom FrontierAtom() const {
    Atom atom;
    atom.predicate = prev_rule_;
    for (const std::string& id : frontier_) atom.args.push_back(Term::Var(id));
    return atom;
  }

  Status DeclareRule(const std::string& name, bool is_output) {
    RelationDecl decl;
    decl.name = name;
    for (const std::string& id : frontier_) {
      auto it = env_.find(id);
      if (it == env_.end()) {
        return Status::Internal("frontier identifier '" + id +
                                "' has no binding while declaring '" + name +
                                "'");
      }
      decl.columns.push_back(Column{id, it->second.type});
    }
    decl.is_output = is_output;
    program_.decls.push_back(std::move(decl));
    return Status::OK();
  }

  std::string FreshAux(const std::string& prefix) {
    return prefix + std::to_string(++aux_counter_);
  }

  // ---- pattern pieces ----

  // Adds the node-label EDB atom for `node` (Fig. 3c includes Person(n, _,
  // ...) atoms for every labeled pattern node) and registers the binding.
  Status AddNodePattern(const NodePat& node, Rule* rule,
                        std::vector<std::string>* new_ids) {
    auto it = env_.find(node.id);
    if (it != env_.end()) {
      if (!node.label.empty() && it->second.label != node.label) {
        return Status::InvalidArgument("identifier '" + node.id +
                                       "' used with conflicting labels");
      }
    } else {
      if (node.label.empty()) {
        return Status::Unsupported(
            "unlabeled node pattern introduces '" + node.id +
            "': Raqlet requires a label to resolve the EDB");
      }
      env_[node.id] = Binding{Binding::kNode, node.label, ValueType::kNumber};
      new_ids->push_back(node.id);
    }
    if (!node.label.empty()) {
      const schema::NodeRelationInfo* info = dl_.FindNode(node.label);
      if (info == nullptr) {
        return Status::NotFound("no node type with label '" + node.label +
                                "' in the schema");
      }
      Atom atom;
      atom.predicate = info->relation;
      atom.args.push_back(Term::Var(node.id));
      for (size_t i = 1; i < info->arity(); ++i) {
        atom.args.push_back(Term::Wildcard());
      }
      rule->body.push_back(std::move(atom));
    }
    return Status::OK();
  }

  // Returns the (possibly auxiliary) relation implementing a single hop of
  // `edge`, as a (predicate, has_id_column) pair oriented src -> dst.
  // Directed edges use the EDB directly (swapping endpoints when the
  // pattern travels against the schema direction); undirected edges get an
  // auxiliary 2-rule IDB.
  struct HopRelation {
    std::string predicate;
    bool swapped = false;    // atom args are (dst, src)
    bool undirected = false; // auxiliary relation, args (a, b) symmetric
    const schema::EdgeRelationInfo* info = nullptr;
  };

  Result<HopRelation> ResolveHop(const EdgePat& edge) {
    if (edge.label.empty()) {
      return Status::Unsupported(
          "edge pattern '" + edge.id +
          "' has no relationship type: Raqlet requires one to resolve the "
          "EDB");
    }
    const schema::EdgeRelationInfo* info = dl_.FindEdge(edge.label);
    if (info == nullptr) {
      return Status::NotFound("no edge type with label '" + edge.label +
                              "' in the schema");
    }
    HopRelation hop;
    hop.info = info;
    if (edge.direction == EdgeDirection::kUndirected) {
      // Aux predicate Undir_<EDB>(a, b) with both orientations. Cached per
      // edge relation.
      auto it = undirected_cache_.find(info->relation);
      if (it != undirected_cache_.end()) {
        hop.predicate = it->second;
        hop.undirected = true;
        return hop;
      }
      std::string name = "Undir_" + info->relation;
      RelationDecl decl;
      decl.name = name;
      decl.columns = {Column{"a", ValueType::kNumber},
                      Column{"b", ValueType::kNumber}};
      program_.decls.push_back(decl);
      for (bool swap : {false, true}) {
        Rule rule;
        rule.head.predicate = name;
        rule.head.args = {Term::Var("a"), Term::Var("b")};
        Atom atom;
        atom.predicate = info->relation;
        atom.args.push_back(Term::Var(swap ? "b" : "a"));
        atom.args.push_back(Term::Var(swap ? "a" : "b"));
        for (size_t i = 0; i < info->prop_names.size(); ++i) {
          atom.args.push_back(Term::Wildcard());
        }
        rule.body.push_back(std::move(atom));
        program_.rules.push_back(std::move(rule));
      }
      undirected_cache_[info->relation] = name;
      hop.predicate = name;
      hop.undirected = true;
      return hop;
    }
    hop.predicate = info->relation;
    hop.swapped = edge.direction == EdgeDirection::kIncoming;
    return hop;
  }

  // Emits the atom(s) for a simple (single-hop) edge into `rule` and binds
  // the edge identifier to the edge's `id` property column when available.
  Status AddSimpleEdge(const EdgePat& edge, const HopRelation& hop,
                       Rule* rule, std::vector<std::string>* new_ids) {
    Atom atom;
    atom.predicate = hop.predicate;
    const std::string& a = hop.swapped ? edge.dst.id : edge.src.id;
    const std::string& b = hop.swapped ? edge.src.id : edge.dst.id;
    atom.args.push_back(Term::Var(a));
    atom.args.push_back(Term::Var(b));
    bool bound_edge_id = false;
    if (!hop.undirected) {
      for (const std::string& prop : hop.info->prop_names) {
        if (prop == "id") {
          atom.args.push_back(Term::Var(edge.id));
          bound_edge_id = true;
        } else {
          atom.args.push_back(Term::Wildcard());
        }
      }
    }
    rule->body.push_back(std::move(atom));
    if (bound_edge_id && env_.find(edge.id) == env_.end()) {
      env_[edge.id] = Binding{Binding::kEdge, edge.label, ValueType::kNumber};
      new_ids->push_back(edge.id);
    }
    return Status::OK();
  }

  // Generates the recursive auxiliary predicates for a variable-length or
  // shortest-path edge and emits the call atom into `rule`.
  Status AddRecursiveEdge(const EdgePat& edge, const HopRelation& hop,
                          Rule* rule, std::vector<std::string>* new_ids) {
    // Hop relation without property columns: reuse undirected aux or wrap
    // the EDB in a 2-column view so recursion is uniform.
    std::string hop_pred;
    if (hop.undirected) {
      hop_pred = hop.predicate;
    } else {
      auto key = hop.predicate + (hop.swapped ? "#rev" : "#fwd");
      auto it = hop_cache_.find(key);
      if (it != hop_cache_.end()) {
        hop_pred = it->second;
      } else {
        hop_pred = FreshAux("Hop");
        RelationDecl decl;
        decl.name = hop_pred;
        decl.columns = {Column{"a", ValueType::kNumber},
                        Column{"b", ValueType::kNumber}};
        program_.decls.push_back(decl);
        Rule hop_rule;
        hop_rule.head.predicate = hop_pred;
        hop_rule.head.args = {Term::Var("a"), Term::Var("b")};
        Atom atom;
        atom.predicate = hop.predicate;
        atom.args.push_back(Term::Var(hop.swapped ? "b" : "a"));
        atom.args.push_back(Term::Var(hop.swapped ? "a" : "b"));
        for (size_t i = 0; i < hop.info->prop_names.size(); ++i) {
          atom.args.push_back(Term::Wildcard());
        }
        hop_rule.body.push_back(std::move(atom));
        program_.rules.push_back(std::move(hop_rule));
        hop_cache_[key] = hop_pred;
      }
    }

    if (edge.shortest) {
      // @min lattice distance: terminates on cyclic graphs.
      std::string sp = FreshAux("Shortest");
      RelationDecl decl;
      decl.name = sp;
      decl.columns = {Column{"a", ValueType::kNumber},
                      Column{"b", ValueType::kNumber},
                      Column{"d", ValueType::kNumber}};
      decl.lattice = dlir::LatticeKind::kMin;
      program_.decls.push_back(decl);
      {
        Rule base;
        base.head.predicate = sp;
        base.head.args = {Term::Var("a"), Term::Var("b"), Term::Num(1)};
        base.body.push_back(Atom{hop_pred, {Term::Var("a"), Term::Var("b")}});
        program_.rules.push_back(std::move(base));
        Rule step;
        step.head.predicate = sp;
        step.head.args = {Term::Var("a"), Term::Var("b"),
                          Term::Binary(dlir::ArithOp::kAdd, Term::Var("d"),
                                       Term::Num(1))};
        step.body.push_back(
            Atom{sp, {Term::Var("a"), Term::Var("z"), Term::Var("d")}});
        step.body.push_back(Atom{hop_pred, {Term::Var("z"), Term::Var("b")}});
        program_.rules.push_back(std::move(step));
      }
      // Call atom: bind the path length when a path variable exists.
      std::string len_id;
      if (!edge.path_id.empty()) {
        len_id = edge.path_id + "_len";
        env_[len_id] = Binding{Binding::kPathLength, "", ValueType::kNumber};
        new_ids->push_back(len_id);
        path_length_var_[edge.path_id] = len_id;
      }
      Atom call;
      call.predicate = sp;
      call.args.push_back(Term::Var(edge.src.id));
      call.args.push_back(Term::Var(edge.dst.id));
      call.args.push_back(len_id.empty() ? Term::Wildcard()
                                         : Term::Var(len_id));
      rule->body.push_back(std::move(call));
      return Status::OK();
    }

    // Plain variable-length [m..n].
    const int min_hops = edge.min_hops;
    const int max_hops = edge.max_hops;
    const bool unbounded = max_hops == cypher::EdgePattern::kUnboundedHops;

    // Unbounded reachability predicate (1..inf), shared per hop relation.
    auto reach_of = [&](const std::string& hops) -> std::string {
      auto it = reach_cache_.find(hops);
      if (it != reach_cache_.end()) return it->second;
      std::string reach = FreshAux("Reach");
      RelationDecl decl;
      decl.name = reach;
      decl.columns = {Column{"a", ValueType::kNumber},
                      Column{"b", ValueType::kNumber}};
      program_.decls.push_back(decl);
      Rule base;
      base.head.predicate = reach;
      base.head.args = {Term::Var("a"), Term::Var("b")};
      base.body.push_back(Atom{hops, {Term::Var("a"), Term::Var("b")}});
      program_.rules.push_back(std::move(base));
      Rule step;
      step.head.predicate = reach;
      step.head.args = {Term::Var("a"), Term::Var("b")};
      step.body.push_back(Atom{reach, {Term::Var("a"), Term::Var("z")}});
      step.body.push_back(Atom{hops, {Term::Var("z"), Term::Var("b")}});
      program_.rules.push_back(std::move(step));
      reach_cache_[hops] = reach;
      return reach;
    };

    if (unbounded && min_hops <= 1) {
      std::string reach = reach_of(hop_pred);
      if (min_hops == 0) {
        // Zero-length: src = dst also qualifies.
        std::string vl = FreshAux("VarLen");
        RelationDecl decl;
        decl.name = vl;
        decl.columns = {Column{"a", ValueType::kNumber},
                        Column{"b", ValueType::kNumber}};
        program_.decls.push_back(decl);
        Rule nonzero;
        nonzero.head.predicate = vl;
        nonzero.head.args = {Term::Var("a"), Term::Var("b")};
        nonzero.body.push_back(Atom{reach, {Term::Var("a"), Term::Var("b")}});
        program_.rules.push_back(std::move(nonzero));
        RAQLET_RETURN_IF_ERROR(AddZeroLengthRule(edge, vl));
        rule->body.push_back(
            Atom{vl, {Term::Var(edge.src.id), Term::Var(edge.dst.id)}});
      } else {
        rule->body.push_back(
            Atom{reach, {Term::Var(edge.src.id), Term::Var(edge.dst.id)}});
      }
      return Status::OK();
    }

    // Depth-annotated bounded paths up to `depth_cap`.
    const int depth_cap = unbounded ? min_hops : max_hops;
    std::string paths = FreshAux("Path");
    RelationDecl decl;
    decl.name = paths;
    decl.columns = {Column{"a", ValueType::kNumber},
                    Column{"b", ValueType::kNumber},
                    Column{"d", ValueType::kNumber}};
    program_.decls.push_back(decl);
    Rule base;
    base.head.predicate = paths;
    base.head.args = {Term::Var("a"), Term::Var("b"), Term::Num(1)};
    base.body.push_back(Atom{hop_pred, {Term::Var("a"), Term::Var("b")}});
    program_.rules.push_back(std::move(base));
    Rule step;
    step.head.predicate = paths;
    step.head.args = {Term::Var("a"), Term::Var("b"),
                      Term::Binary(dlir::ArithOp::kAdd, Term::Var("d"),
                                   Term::Num(1))};
    step.body.push_back(
        Atom{paths, {Term::Var("a"), Term::Var("z"), Term::Var("d")}});
    step.body.push_back(Atom{hop_pred, {Term::Var("z"), Term::Var("b")}});
    step.constraints.push_back(
        Constraint{CmpOp::kLt, Term::Var("d"), Term::Num(depth_cap)});
    program_.rules.push_back(std::move(step));

    std::string vl = FreshAux("VarLen");
    RelationDecl vl_decl;
    vl_decl.name = vl;
    vl_decl.columns = {Column{"a", ValueType::kNumber},
                       Column{"b", ValueType::kNumber}};
    program_.decls.push_back(vl_decl);
    if (unbounded) {
      // [m..inf), m >= 2: an exactly-m prefix followed by reachability.
      std::string reach = reach_of(hop_pred);
      Rule exact;
      exact.head.predicate = vl;
      exact.head.args = {Term::Var("a"), Term::Var("b")};
      exact.body.push_back(
          Atom{paths, {Term::Var("a"), Term::Var("b"), Term::Num(min_hops)}});
      program_.rules.push_back(std::move(exact));
      Rule extended;
      extended.head.predicate = vl;
      extended.head.args = {Term::Var("a"), Term::Var("b")};
      extended.body.push_back(
          Atom{paths, {Term::Var("a"), Term::Var("z"), Term::Num(min_hops)}});
      extended.body.push_back(Atom{reach, {Term::Var("z"), Term::Var("b")}});
      program_.rules.push_back(std::move(extended));
    } else {
      Rule in_range;
      in_range.head.predicate = vl;
      in_range.head.args = {Term::Var("a"), Term::Var("b")};
      in_range.body.push_back(
          Atom{paths, {Term::Var("a"), Term::Var("b"), Term::Var("d")}});
      if (min_hops > 1) {
        in_range.constraints.push_back(
            Constraint{CmpOp::kGe, Term::Var("d"), Term::Num(min_hops)});
      }
      program_.rules.push_back(std::move(in_range));
      if (min_hops == 0) RAQLET_RETURN_IF_ERROR(AddZeroLengthRule(edge, vl));
    }
    rule->body.push_back(
        Atom{vl, {Term::Var(edge.src.id), Term::Var(edge.dst.id)}});
    return Status::OK();
  }

  // VarLen(x, x) :- <SrcLabel>(x, _, ...). for *0.. patterns.
  Status AddZeroLengthRule(const EdgePat& edge, const std::string& vl) {
    std::string label =
        !edge.src.label.empty() ? edge.src.label : edge.dst.label;
    if (label.empty()) {
      return Status::Unsupported(
          "zero-length variable path needs a labeled endpoint");
    }
    const schema::NodeRelationInfo* info = dl_.FindNode(label);
    if (info == nullptr) {
      return Status::NotFound("no node type with label '" + label + "'");
    }
    Rule zero;
    zero.head.predicate = vl;
    zero.head.args = {Term::Var("x"), Term::Var("x")};
    Atom atom;
    atom.predicate = info->relation;
    atom.args.push_back(Term::Var("x"));
    for (size_t i = 1; i < info->arity(); ++i) {
      atom.args.push_back(Term::Wildcard());
    }
    zero.body.push_back(std::move(atom));
    program_.rules.push_back(std::move(zero));
    return Status::OK();
  }

  Status TranslateMatch(const MatchOp& match) {
    Rule rule;
    std::vector<std::string> new_ids;
    if (!prev_rule_.empty()) rule.body.push_back(FrontierAtom());

    for (const EdgePat& edge : match.edges) {
      RAQLET_ASSIGN_OR_RETURN(HopRelation hop, ResolveHop(edge));
      RAQLET_RETURN_IF_ERROR(AddNodePattern(edge.src, &rule, &new_ids));
      RAQLET_RETURN_IF_ERROR(AddNodePattern(edge.dst, &rule, &new_ids));
      if (edge.variable_length || edge.shortest) {
        RAQLET_RETURN_IF_ERROR(AddRecursiveEdge(edge, hop, &rule, &new_ids));
      } else {
        RAQLET_RETURN_IF_ERROR(AddSimpleEdge(edge, hop, &rule, &new_ids));
      }
    }
    for (const NodePat& node : match.nodes) {
      RAQLET_RETURN_IF_ERROR(AddNodePattern(node, &rule, &new_ids));
    }

    for (const std::string& id : new_ids) frontier_.push_back(id);
    std::string name = "Match" + std::to_string(++match_counter_);
    rule.head.predicate = name;
    for (const std::string& id : frontier_) {
      rule.head.args.push_back(Term::Var(id));
    }
    RAQLET_RETURN_IF_ERROR(DeclareRule(name, false));
    program_.rules.push_back(std::move(rule));
    prev_rule_ = name;
    return Status::OK();
  }

  // ---- expressions ----

  // Converts a PGIR expression to a DLIR term, emitting property-access
  // atoms into `rule` as needed. `prop_vars` caches (id, property) -> var.
  Result<Term> ExprToTerm(const Expr& expr, Rule* rule,
                          std::map<std::string, std::string>* prop_vars) {
    switch (expr.kind) {
      case ExprKind::kLiteral:
        return Term::Const(expr.literal);
      case ExprKind::kVariable: {
        auto it = env_.find(expr.var);
        if (it == env_.end()) {
          return Status::NotFound("unknown identifier '" + expr.var + "'");
        }
        return Term::Var(expr.var);
      }
      case ExprKind::kProperty:
        return PropertyTerm(expr.var, expr.property, rule, prop_vars);
      case ExprKind::kParameter:
        return Status::Internal("parameters must be resolved during lowering");
      case ExprKind::kBinary: {
        dlir::ArithOp op;
        switch (expr.bin_op) {
          case BinOp::kAdd:
            op = dlir::ArithOp::kAdd;
            break;
          case BinOp::kSub:
            op = dlir::ArithOp::kSub;
            break;
          case BinOp::kMul:
            op = dlir::ArithOp::kMul;
            break;
          case BinOp::kDiv:
            op = dlir::ArithOp::kDiv;
            break;
          case BinOp::kMod:
            op = dlir::ArithOp::kMod;
            break;
          default:
            return Status::Unsupported(
                "boolean expression in value position: " + expr.ToString());
        }
        RAQLET_ASSIGN_OR_RETURN(Term lhs,
                                ExprToTerm(expr.children[0], rule, prop_vars));
        RAQLET_ASSIGN_OR_RETURN(Term rhs,
                                ExprToTerm(expr.children[1], rule, prop_vars));
        return Term::Binary(op, std::move(lhs), std::move(rhs));
      }
      case ExprKind::kUnary:
        if (expr.un_op == cypher::UnOp::kNeg) {
          RAQLET_ASSIGN_OR_RETURN(
              Term inner, ExprToTerm(expr.children[0], rule, prop_vars));
          return Term::Binary(dlir::ArithOp::kSub, Term::Num(0),
                              std::move(inner));
        }
        return Status::Unsupported("NOT in value position");
      case ExprKind::kCall: {
        if (expr.function == "id" && expr.children.size() == 1 &&
            expr.children[0].kind == ExprKind::kVariable) {
          return Term::Var(expr.children[0].var);  // node var IS the id
        }
        if (expr.function == "length" && expr.children.size() == 1 &&
            expr.children[0].kind == ExprKind::kVariable) {
          auto it = path_length_var_.find(expr.children[0].var);
          if (it != path_length_var_.end()) return Term::Var(it->second);
          return Status::Unsupported("length() of a non-shortest-path "
                                     "variable");
        }
        return Status::Unsupported("function '" + expr.function +
                                   "' in value position");
      }
    }
    return Status::Internal("unhandled expression kind");
  }

  // Property access id.prop: joins the owning EDB with a variable at the
  // property column (cached per rule).
  Result<Term> PropertyTerm(const std::string& id, const std::string& prop,
                            Rule* rule,
                            std::map<std::string, std::string>* prop_vars) {
    auto env_it = env_.find(id);
    if (env_it == env_.end()) {
      return Status::NotFound("unknown identifier '" + id + "'");
    }
    const Binding& binding = env_it->second;
    std::string cache_key = id + "." + prop;
    auto cached = prop_vars->find(cache_key);
    if (cached != prop_vars->end()) return Term::Var(cached->second);

    if (binding.kind == Binding::kNode) {
      const schema::NodeRelationInfo* info = dl_.FindNode(binding.label);
      if (info == nullptr) {
        return Status::NotFound("no node type '" + binding.label + "'");
      }
      if (prop == "id") return Term::Var(id);  // node var is its id
      int col = info->PropertyColumn(prop);
      if (col < 0) {
        return Status::NotFound("node label '" + binding.label +
                                "' has no property '" + prop + "'");
      }
      std::string var = id + "_" + prop;
      Atom atom;
      atom.predicate = info->relation;
      atom.args.push_back(Term::Var(id));
      for (size_t i = 1; i < info->arity(); ++i) {
        atom.args.push_back(static_cast<int>(i) == col ? Term::Var(var)
                                                       : Term::Wildcard());
      }
      rule->body.push_back(std::move(atom));
      (*prop_vars)[cache_key] = var;
      return Term::Var(var);
    }
    if (binding.kind == Binding::kEdge) {
      const schema::EdgeRelationInfo* info = dl_.FindEdge(binding.label);
      if (info == nullptr) {
        return Status::NotFound("no edge type '" + binding.label + "'");
      }
      if (prop == "id") return Term::Var(id);  // bound to the id column
      int col = info->PropertyColumn(prop);
      if (col < 0) {
        return Status::NotFound("edge label '" + binding.label +
                                "' has no property '" + prop + "'");
      }
      int id_col = info->PropertyColumn("id");
      if (id_col < 0) {
        return Status::Unsupported(
            "property access on edge '" + id +
            "' requires the edge type to have an 'id' property");
      }
      std::string var = id + "_" + prop;
      Atom atom;
      atom.predicate = info->relation;
      for (size_t i = 0; i < info->arity(); ++i) {
        if (static_cast<int>(i) == col) {
          atom.args.push_back(Term::Var(var));
        } else if (static_cast<int>(i) == id_col) {
          atom.args.push_back(Term::Var(id));
        } else {
          atom.args.push_back(Term::Wildcard());
        }
      }
      rule->body.push_back(std::move(atom));
      (*prop_vars)[cache_key] = var;
      return Term::Var(var);
    }
    return Status::Unsupported("property access on non-graph identifier '" +
                               id + "'");
  }

  /// The type a projected expression produces (for the head declaration).
  ValueType ExprType(const Expr& expr) const {
    switch (expr.kind) {
      case ExprKind::kLiteral:
        return expr.literal.type;
      case ExprKind::kVariable: {
        auto it = env_.find(expr.var);
        return it == env_.end() ? ValueType::kNumber : it->second.type;
      }
      case ExprKind::kProperty: {
        auto it = env_.find(expr.var);
        if (it == env_.end()) return ValueType::kNumber;
        if (it->second.kind == Binding::kNode) {
          const schema::NodeRelationInfo* info = dl_.FindNode(it->second.label);
          if (info != nullptr) {
            int col = info->PropertyColumn(expr.property);
            if (col >= 0) return info->prop_types[static_cast<size_t>(col)];
          }
        } else if (it->second.kind == Binding::kEdge) {
          const schema::EdgeRelationInfo* info = dl_.FindEdge(it->second.label);
          if (info != nullptr) {
            int col = info->PropertyColumn(expr.property);
            if (col >= 2) return info->prop_types[static_cast<size_t>(col - 2)];
          }
        }
        return ValueType::kNumber;
      }
      case ExprKind::kCall:
        if (expr.function == "avg") return ValueType::kFloat;
        return ValueType::kNumber;
      case ExprKind::kBinary:
      case ExprKind::kUnary:
      case ExprKind::kParameter:
        return ValueType::kNumber;
    }
    return ValueType::kNumber;
  }

  // ---- WHERE ----

  // Converts a boolean expression into disjunctive normal form over
  // atomic comparisons (NOT is pushed down through De Morgan; NOT of a
  // non-comparison is unsupported).
  Status ToDnf(const Expr& expr, bool negated,
               std::vector<std::vector<Expr>>* dnf) {
    if (expr.kind == ExprKind::kUnary && expr.un_op == cypher::UnOp::kNot) {
      return ToDnf(expr.children[0], !negated, dnf);
    }
    if (expr.kind == ExprKind::kBinary &&
        (expr.bin_op == BinOp::kAnd || expr.bin_op == BinOp::kOr)) {
      bool is_and = (expr.bin_op == BinOp::kAnd) != negated;  // De Morgan
      std::vector<std::vector<Expr>> lhs;
      std::vector<std::vector<Expr>> rhs;
      RAQLET_RETURN_IF_ERROR(ToDnf(expr.children[0], negated, &lhs));
      RAQLET_RETURN_IF_ERROR(ToDnf(expr.children[1], negated, &rhs));
      if (is_and) {
        for (const auto& l : lhs) {
          for (const auto& r : rhs) {
            std::vector<Expr> combined = l;
            combined.insert(combined.end(), r.begin(), r.end());
            dnf->push_back(std::move(combined));
          }
        }
      } else {
        for (auto& l : lhs) dnf->push_back(std::move(l));
        for (auto& r : rhs) dnf->push_back(std::move(r));
      }
      return Status::OK();
    }
    // Atomic comparison (possibly negated).
    Expr atom = expr;
    if (negated) {
      if (expr.kind != ExprKind::kBinary) {
        return Status::Unsupported("NOT of a non-comparison expression");
      }
      switch (expr.bin_op) {
        case BinOp::kEq:
          atom.bin_op = BinOp::kNe;
          break;
        case BinOp::kNe:
          atom.bin_op = BinOp::kEq;
          break;
        case BinOp::kLt:
          atom.bin_op = BinOp::kGe;
          break;
        case BinOp::kLe:
          atom.bin_op = BinOp::kGt;
          break;
        case BinOp::kGt:
          atom.bin_op = BinOp::kLe;
          break;
        case BinOp::kGe:
          atom.bin_op = BinOp::kLt;
          break;
        default:
          return Status::Unsupported("NOT of a non-comparison expression");
      }
    }
    dnf->push_back({std::move(atom)});
    return Status::OK();
  }

  Status TranslateWhere(const WhereOp& where) {
    std::vector<std::vector<Expr>> dnf;
    RAQLET_RETURN_IF_ERROR(ToDnf(where.predicate, false, &dnf));
    std::string name = "Where" + std::to_string(++where_counter_);
    // One rule per disjunct, same head (union semantics).
    for (const std::vector<Expr>& conjuncts : dnf) {
      Rule rule;
      rule.head.predicate = name;
      for (const std::string& id : frontier_) {
        rule.head.args.push_back(Term::Var(id));
      }
      if (prev_rule_.empty()) {
        return Status::InvalidArgument("WHERE before any MATCH");
      }
      rule.body.push_back(FrontierAtom());
      std::map<std::string, std::string> prop_vars;
      for (const Expr& cmp : conjuncts) {
        if (cmp.kind != ExprKind::kBinary) {
          return Status::Unsupported("unsupported WHERE atom: " +
                                     cmp.ToString());
        }
        CmpOp op;
        switch (cmp.bin_op) {
          case BinOp::kEq:
            op = CmpOp::kEq;
            break;
          case BinOp::kNe:
            op = CmpOp::kNe;
            break;
          case BinOp::kLt:
            op = CmpOp::kLt;
            break;
          case BinOp::kLe:
            op = CmpOp::kLe;
            break;
          case BinOp::kGt:
            op = CmpOp::kGt;
            break;
          case BinOp::kGe:
            op = CmpOp::kGe;
            break;
          default:
            return Status::Unsupported("unsupported WHERE operator: " +
                                       cmp.ToString());
        }
        RAQLET_ASSIGN_OR_RETURN(Term lhs,
                                ExprToTerm(cmp.children[0], &rule, &prop_vars));
        RAQLET_ASSIGN_OR_RETURN(Term rhs,
                                ExprToTerm(cmp.children[1], &rule, &prop_vars));
        rule.constraints.push_back(
            Constraint{op, std::move(lhs), std::move(rhs)});
      }
      program_.rules.push_back(std::move(rule));
    }
    RAQLET_RETURN_IF_ERROR(DeclareRule(name, false));
    prev_rule_ = name;
    return Status::OK();
  }

  // ---- WITH / RETURN ----

  Status TranslateProjection(const std::vector<Item>& items,
                             const std::string& name, bool is_output) {
    Rule rule;
    rule.head.predicate = name;
    if (!prev_rule_.empty()) rule.body.push_back(FrontierAtom());
    std::map<std::string, std::string> prop_vars;

    std::vector<std::string> new_frontier;
    std::map<std::string, Binding> new_env;
    RelationDecl decl;
    decl.name = name;
    decl.is_output = is_output;

    int agg_items = 0;
    for (const Item& item : items) {
      if (item.expr.IsAggregateCall()) ++agg_items;
    }
    if (agg_items > 1) {
      return Status::Unsupported(
          "at most one aggregate per WITH/RETURN is supported");
    }

    for (const Item& item : items) {
      const Expr& expr = item.expr;
      Binding binding;
      binding.kind = Binding::kValue;
      binding.type = ExprType(expr);

      if (expr.IsAggregateCall()) {
        dlir::Aggregate agg;
        if (expr.function == "count") {
          agg.func = dlir::AggFunc::kCount;
        } else if (expr.function == "sum") {
          agg.func = dlir::AggFunc::kSum;
        } else if (expr.function == "min") {
          agg.func = dlir::AggFunc::kMin;
        } else if (expr.function == "max") {
          agg.func = dlir::AggFunc::kMax;
        } else {
          agg.func = dlir::AggFunc::kAvg;
        }
        if (!expr.star_arg) {
          if (expr.children.size() != 1) {
            return Status::Unsupported("aggregate needs exactly one argument");
          }
          RAQLET_ASSIGN_OR_RETURN(agg.arg,
                                  ExprToTerm(expr.children[0], &rule,
                                             &prop_vars));
        } else if (agg.func != dlir::AggFunc::kCount) {
          return Status::Unsupported("only count(*) takes a star argument");
        }
        rule.agg = agg;
        rule.agg_result_pos = static_cast<int>(rule.head.args.size());
        rule.head.args.push_back(Term::Var(item.alias));
      } else if (expr.kind == ExprKind::kVariable && expr.var == item.alias) {
        // Pass-through keeps the identifier (and its graph binding).
        auto it = env_.find(expr.var);
        if (it == env_.end()) {
          return Status::NotFound("unknown identifier '" + expr.var + "'");
        }
        binding = it->second;
        rule.head.args.push_back(Term::Var(expr.var));
      } else {
        // Paper style (Fig. 3c): bind the alias through an equality
        // constraint, e.g. `p = cityId` for `p.id AS cityId`.
        RAQLET_ASSIGN_OR_RETURN(Term value, ExprToTerm(expr, &rule, &prop_vars));
        if (value.is_var() && value.var == item.alias) {
          rule.head.args.push_back(std::move(value));
        } else {
          rule.constraints.push_back(
              Constraint{CmpOp::kEq, std::move(value), Term::Var(item.alias)});
          rule.head.args.push_back(Term::Var(item.alias));
        }
        if (expr.kind == ExprKind::kVariable) {
          auto env_it = env_.find(expr.var);
          if (env_it == env_.end()) {
            return Status::InvalidArgument("unknown identifier '" + expr.var +
                                           "' in projection");
          }
          binding = env_it->second;  // aliased graph identifier
        }
      }
      decl.columns.push_back(Column{item.alias, binding.type});
      new_frontier.push_back(item.alias);
      new_env[item.alias] = binding;
    }

    program_.decls.push_back(std::move(decl));
    program_.rules.push_back(std::move(rule));
    frontier_ = std::move(new_frontier);
    env_ = std::move(new_env);
    prev_rule_ = name;
    return Status::OK();
  }

  const PgirQuery& query_;
  const schema::DlSchema& dl_;

  Program program_;
  std::vector<std::string> frontier_;
  std::map<std::string, Binding> env_;
  std::map<std::string, std::string> path_length_var_;
  std::map<std::string, std::string> undirected_cache_;
  std::map<std::string, std::string> hop_cache_;
  std::map<std::string, std::string> reach_cache_;
  std::string prev_rule_;
  int match_counter_ = 0;
  int where_counter_ = 0;
  int with_counter_ = 0;
  int aux_counter_ = 0;
};

}  // namespace

Result<dlir::Program> TranslateToDlir(const PgirQuery& query,
                                      const schema::DlSchema& dl) {
  Translator translator(query, dl);
  return translator.Run();
}

}  // namespace raqlet::pgir
