#include "engine/datalog/engine.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "analysis/analyses.h"
#include "analysis/dependency_graph.h"
#include "analysis/typecheck.h"
#include "engine/datalog/evaluator.h"
#include "engine/value_ops.h"
#include "obs/trace.h"
#include "runtime/failpoint.h"
#include "runtime/scc_scheduler.h"
#include "runtime/thread_pool.h"

namespace raqlet::engine {

// Aggregation accumulator: per group, aggregates over the set of distinct
// body-variable bindings (witnesses), which realizes set-semantics
// aggregation (§3: RETURN DISTINCT-style translation). Bindings are
// distinct by bits, as the stored rows they come from are.
struct AggState {
  std::unordered_set<Tuple, TupleHash, TupleBitEq> witnesses;
  int64_t count = 0;
  double sum = 0.0;
  bool any_float = false;
  std::optional<Value> min;
  std::optional<Value> max;
};

namespace {

using dlir::AggFunc;
using dlir::Atom;
using dlir::CmpOp;
using dlir::Constant;
using dlir::LatticeKind;
using dlir::Program;
using dlir::RelationDecl;
using dlir::Rule;
using dlir::Term;
using dlir::TermKind;

// Runtime variable environment, plus per-plan-step scratch buffers. The
// scratch is indexed by step: ExecuteStep never re-enters the same step
// within one task (recursion strictly descends the plan), so reusing one
// buffer per step replaces a heap allocation per candidate row with one
// per task.
struct Env {
  std::vector<Value> values;
  std::vector<bool> bound;
  std::vector<Tuple> probe_scratch;                 // per-step probe keys
  std::vector<std::vector<size_t>> bound_scratch;   // per-step unbound slots
  Env(size_t n, size_t steps)
      : values(n), bound(n, false), probe_scratch(steps), bound_scratch(steps) {}
};

Result<Value> EvalCompiledTerm(const CompiledTerm& term, const Env& env) {
  switch (term.kind) {
    case CompiledTerm::kConst:
      return term.constant;
    case CompiledTerm::kVar:
      if (!env.bound[static_cast<size_t>(term.var)]) {
        return Status::Internal("evaluating unbound variable slot");
      }
      return env.values[static_cast<size_t>(term.var)];
    case CompiledTerm::kWildcard:
      return Status::Internal("evaluating wildcard term");
    case CompiledTerm::kBinary: {
      RAQLET_ASSIGN_OR_RETURN(Value lhs, EvalCompiledTerm(term.children[0], env));
      RAQLET_ASSIGN_OR_RETURN(Value rhs, EvalCompiledTerm(term.children[1], env));
      return EvalArith(term.op, lhs, rhs);
    }
  }
  return Status::Internal("unhandled term kind");
}

// ---------------------------------------------------------------------------
// Per-variant evaluation plan. A plan is a sequence of steps: join an atom
// (probing bound columns through a relation index), apply a filtering
// constraint, or bind a variable from an equality constraint.
// ---------------------------------------------------------------------------

// One non-empty segment of an atom's row source, resolved before execution
// fans out: the borrowed storage columns (join steps) and the prebuilt
// index over the step's probe columns (null iff there are none). Probing
// it is lock- and lookup-free; both stay valid for the fan-out because no
// relation mutates while tasks run.
struct PlanSegment {
  RowSegment rows;
  std::vector<Relation::ColumnView> cols;
  const Relation::KeyIndex* index = nullptr;
};

struct PlanStep {
  enum Kind { kJoinAtom, kNegCheck, kFilter, kBind };
  Kind kind = kJoinAtom;
  int atom_index = -1;        // kJoinAtom / kNegCheck
  int constraint_index = -1;  // kFilter / kBind
  int bind_var = -1;          // kBind: variable slot to bind
  bool bind_from_lhs = false; // kBind: true if lhs is the defined variable
  // Argument positions probed through an index (kJoinAtom / kNegCheck).
  // Statically known: the set of bound slots at each step is determined by
  // the plan prefix, not by runtime values.
  std::vector<int> probe_cols;
  std::vector<PlanSegment> segments;  // the atom's rows, in scan order
};

struct VariantPlan {
  std::vector<PlanStep> steps;
  // Atom whose row range may be partitioned across worker threads: the
  // outermost positive join (the delta atom when it joins first). -1 when
  // the plan has no join at all.
  int range_atom = -1;
};

// True when every computed argument of `atom` can be evaluated under
// `bound`, so a row can be unified against it.
bool Evaluable(const CompiledAtom& atom, const std::vector<bool>& bound) {
  for (const CompiledTerm& arg : atom.args) {
    if (arg.kind == CompiledTerm::kBinary && !arg.IsBoundUnder(bound)) {
      return false;
    }
  }
  return true;
}

// Builds the join order for one variant. Greedy: repeatedly pick the
// evaluable positive atom with the most statically-bound argument
// positions (constants + already-bound variables), preferring fewer source
// rows on ties. Constraints are woven in as soon as their variables allow.
Result<VariantPlan> PlanVariant(const CompiledRule& rule, int delta_atom,
                                bool reorder,
                                const std::vector<size_t>& atom_rows) {
  VariantPlan plan;
  std::vector<bool> bound(rule.num_vars, false);
  std::vector<bool> atom_done(rule.atoms.size(), false);
  std::vector<bool> constraint_done(rule.constraints.size(), false);

  auto mark_atom_vars = [&](const CompiledAtom& atom) {
    for (const CompiledTerm& arg : atom.args) {
      if (arg.kind == CompiledTerm::kVar) {
        bound[static_cast<size_t>(arg.var)] = true;
      }
    }
  };

  // Argument positions of `atom` evaluable under the current bound set —
  // exactly the positions execution will probe through an index.
  auto probe_cols_for = [&](const CompiledAtom& atom) {
    std::vector<int> cols;
    for (size_t i = 0; i < atom.args.size(); ++i) {
      const CompiledTerm& arg = atom.args[i];
      if (arg.kind == CompiledTerm::kWildcard) continue;
      if (arg.IsBoundUnder(bound)) cols.push_back(static_cast<int>(i));
    }
    return cols;
  };

  // Weave in constraints that became decidable: filters when fully bound,
  // bindings when an equality has exactly one unbound bare-variable side.
  auto schedule_constraints = [&]() {
    bool changed = true;
    while (changed) {
      changed = false;
      for (size_t i = 0; i < rule.constraints.size(); ++i) {
        if (constraint_done[i]) continue;
        const CompiledConstraint& c = rule.constraints[i];
        bool lhs_bound = c.lhs.IsBoundUnder(bound);
        bool rhs_bound = c.rhs.IsBoundUnder(bound);
        if (lhs_bound && rhs_bound) {
          PlanStep step;
          step.kind = PlanStep::kFilter;
          step.constraint_index = static_cast<int>(i);
          plan.steps.push_back(step);
          constraint_done[i] = true;
          changed = true;
        } else if (c.op == CmpOp::kEq && rhs_bound &&
                   c.lhs.kind == CompiledTerm::kVar) {
          PlanStep step;
          step.kind = PlanStep::kBind;
          step.constraint_index = static_cast<int>(i);
          step.bind_var = c.lhs.var;
          step.bind_from_lhs = true;
          plan.steps.push_back(step);
          bound[static_cast<size_t>(c.lhs.var)] = true;
          constraint_done[i] = true;
          changed = true;
        } else if (c.op == CmpOp::kEq && lhs_bound &&
                   c.rhs.kind == CompiledTerm::kVar) {
          PlanStep step;
          step.kind = PlanStep::kBind;
          step.constraint_index = static_cast<int>(i);
          step.bind_var = c.rhs.var;
          step.bind_from_lhs = false;
          plan.steps.push_back(step);
          bound[static_cast<size_t>(c.rhs.var)] = true;
          constraint_done[i] = true;
          changed = true;
        }
      }
      // Negated atoms fire as soon as all their variables are bound.
      for (size_t i = 0; i < rule.atoms.size(); ++i) {
        if (atom_done[i] || !rule.atoms[i].negated) continue;
        bool all_bound = true;
        for (const CompiledTerm& arg : rule.atoms[i].args) {
          if (arg.kind == CompiledTerm::kWildcard) continue;
          if (!arg.IsBoundUnder(bound)) {
            all_bound = false;
            break;
          }
        }
        if (all_bound) {
          PlanStep step;
          step.kind = PlanStep::kNegCheck;
          step.atom_index = static_cast<int>(i);
          step.probe_cols = probe_cols_for(rule.atoms[i]);
          plan.steps.push_back(std::move(step));
          atom_done[i] = true;
          changed = true;
        }
      }
    }
  };

  auto join = [&](int atom) {
    PlanStep step;
    step.kind = PlanStep::kJoinAtom;
    step.atom_index = atom;
    step.probe_cols = probe_cols_for(rule.atoms[static_cast<size_t>(atom)]);
    plan.steps.push_back(std::move(step));
    if (plan.range_atom < 0) plan.range_atom = atom;
    atom_done[static_cast<size_t>(atom)] = true;
    mark_atom_vars(rule.atoms[static_cast<size_t>(atom)]);
    schedule_constraints();
  };

  schedule_constraints();

  // The delta atom joins first — semi-naive correctness does not require
  // it, but it makes the delta the outer loop, which is the whole point —
  // unless a computed argument is still unevaluable; then the greedy order
  // places it once the argument's variables are bound, and probes its rows.
  if (delta_atom >= 0 &&
      Evaluable(rule.atoms[static_cast<size_t>(delta_atom)], bound)) {
    join(delta_atom);
  }

  size_t positive_remaining = 0;
  for (size_t i = 0; i < rule.atoms.size(); ++i) {
    if (!atom_done[i] && !rule.atoms[i].negated) ++positive_remaining;
  }

  while (positive_remaining > 0) {
    int best = -1;
    int best_score = -1;
    size_t best_size = 0;
    for (size_t i = 0; i < rule.atoms.size(); ++i) {
      if (atom_done[i] || rule.atoms[i].negated) continue;
      if (!Evaluable(rule.atoms[i], bound)) continue;
      if (!reorder) {  // keep written order: first placeable atom wins
        best = static_cast<int>(i);
        break;
      }
      int score = 0;
      for (const CompiledTerm& arg : rule.atoms[i].args) {
        if (arg.kind != CompiledTerm::kWildcard && arg.IsBoundUnder(bound)) {
          ++score;
        }
      }
      size_t size = atom_rows[i];
      if (score > best_score ||
          (score == best_score && (best < 0 || size < best_size))) {
        best = static_cast<int>(i);
        best_score = score;
        best_size = size;
      }
    }
    if (best < 0) {
      return Status::Internal(
          "join planner found no placeable atom for rule head '" +
          rule.head_predicate + "' — unsatisfied positive atom");
    }
    join(best);
    --positive_remaining;
  }

  // Anything left is a safety violation that the entry check
  // (analysis::VerifyStructure) should have caught.
  for (size_t i = 0; i < rule.constraints.size(); ++i) {
    if (!constraint_done[i]) {
      return Status::Internal("constraint never became evaluable in rule: " +
                              rule.source->ToString());
    }
  }
  for (size_t i = 0; i < rule.atoms.size(); ++i) {
    if (!atom_done[i]) {
      return Status::Internal("negated atom never fully bound in rule: " +
                              rule.source->ToString());
    }
  }
  return plan;
}

// ---------------------------------------------------------------------------
// Variant execution.
// ---------------------------------------------------------------------------

// One schedulable unit of a fan-out: a planned variant restricted to
// positions [range_begin, range_end) of its range atom's rows, counted
// across the atom's segments in scan order.
struct VariantTask {
  const CompiledRule* rule = nullptr;
  const VariantPlan* plan = nullptr;
  size_t variant = 0;
  size_t range_begin = 0;
  size_t range_end = std::numeric_limits<size_t>::max();
};

Status EmitHead(const CompiledRule& rule, Env* env, const SymbolTable& symbols,
                EmitBuffer* out) {
  if (rule.has_agg) {
    // Group key: head args except the aggregate slot.
    Tuple group;
    group.reserve(rule.head_args.size());
    for (size_t i = 0; i < rule.head_args.size(); ++i) {
      if (static_cast<int>(i) == rule.agg_pos) continue;
      RAQLET_ASSIGN_OR_RETURN(Value v, EvalCompiledTerm(rule.head_args[i], *env));
      group.push_back(v);
    }
    // Witness: full variable binding (distinct body matches).
    Tuple witness;
    witness.reserve(env->values.size());
    for (size_t i = 0; i < env->values.size(); ++i) {
      witness.push_back(env->bound[i] ? env->values[i] : Value::Null());
    }
    AggState& state = (*out->agg)[group];
    if (!state.witnesses.insert(std::move(witness)).second) {
      return Status::OK();  // duplicate body match under set semantics
    }
    Value arg_value = Value::Number(0);
    if (rule.agg_func != AggFunc::kCount) {
      RAQLET_ASSIGN_OR_RETURN(arg_value, EvalCompiledTerm(rule.agg_arg, *env));
    }
    state.count += 1;
    if (rule.agg_func == AggFunc::kSum || rule.agg_func == AggFunc::kAvg) {
      state.any_float |= arg_value.kind() == ValueType::kFloat;
      state.sum += arg_value.NumericValue();
    }
    if (rule.agg_func == AggFunc::kMin) {
      if (!state.min.has_value() ||
          CompareValues(arg_value, *state.min, symbols) < 0) {
        state.min = arg_value;
      }
    }
    if (rule.agg_func == AggFunc::kMax) {
      if (!state.max.has_value() ||
          CompareValues(arg_value, *state.max, symbols) > 0) {
        state.max = arg_value;
      }
    }
    return Status::OK();
  }

  // Stage column-wise: no per-derived-tuple row allocation. A failed term
  // evaluation can leave the columns ragged, but errors abandon the whole
  // fan-out (buffers are Reset before reuse), so ragged staging never
  // reaches the merge.
  out->PrepareStaging(rule.head_args.size());
  for (size_t i = 0; i < rule.head_args.size(); ++i) {
    RAQLET_ASSIGN_OR_RETURN(Value v, EvalCompiledTerm(rule.head_args[i], *env));
    out->staged[i].push_back(v);
  }
  ++out->staged_rows;
  return Status::OK();
}

void FinalizeAggregates(const CompiledRule& rule,
                        const std::map<Tuple, AggState>& agg, EmitBuffer* out) {
  for (const auto& [group, state] : agg) {
    Value result;
    switch (rule.agg_func) {
      case AggFunc::kCount:
        result = Value::Number(state.count);
        break;
      case AggFunc::kSum:
        result = state.any_float ? Value::Float(state.sum)
                                 : Value::Number(static_cast<int64_t>(state.sum));
        break;
      case AggFunc::kMin:
        result = *state.min;
        break;
      case AggFunc::kMax:
        result = *state.max;
        break;
      case AggFunc::kAvg:
        result = Value::Float(state.count == 0
                                  ? 0.0
                                  : state.sum / static_cast<double>(state.count));
        break;
    }
    out->PrepareStaging(rule.head_args.size());
    size_t gi = 0;
    for (size_t i = 0; i < rule.head_args.size(); ++i) {
      if (static_cast<int>(i) == rule.agg_pos) {
        out->staged[i].push_back(result);
      } else {
        out->staged[i].push_back(group[gi++]);
      }
    }
    ++out->staged_rows;
  }
}

Status ExecuteStep(const VariantTask& task, size_t step_index, Env* env,
                   const SymbolTable& symbols, EmitBuffer* out) {
  const CompiledRule& rule = *task.rule;
  const VariantPlan& plan = *task.plan;
  if (step_index == plan.steps.size()) return EmitHead(rule, env, symbols, out);

  const PlanStep& step = plan.steps[step_index];
  switch (step.kind) {
    case PlanStep::kFilter: {
      const CompiledConstraint& c =
          rule.constraints[static_cast<size_t>(step.constraint_index)];
      RAQLET_ASSIGN_OR_RETURN(Value lhs, EvalCompiledTerm(c.lhs, *env));
      RAQLET_ASSIGN_OR_RETURN(Value rhs, EvalCompiledTerm(c.rhs, *env));
      if (!CheckCmp(c.op, lhs, rhs, symbols)) return Status::OK();
      return ExecuteStep(task, step_index + 1, env, symbols, out);
    }
    case PlanStep::kBind: {
      const CompiledConstraint& c =
          rule.constraints[static_cast<size_t>(step.constraint_index)];
      const CompiledTerm& source = step.bind_from_lhs ? c.rhs : c.lhs;
      RAQLET_ASSIGN_OR_RETURN(Value v, EvalCompiledTerm(source, *env));
      size_t slot = static_cast<size_t>(step.bind_var);
      env->values[slot] = v;
      env->bound[slot] = true;
      Status s = ExecuteStep(task, step_index + 1, env, symbols, out);
      env->bound[slot] = false;
      return s;
    }
    case PlanStep::kNegCheck: {
      const CompiledAtom& atom = rule.atoms[static_cast<size_t>(step.atom_index)];
      Tuple& probe_key = env->probe_scratch[step_index];
      probe_key.clear();
      for (int col : step.probe_cols) {
        RAQLET_ASSIGN_OR_RETURN(
            Value v, EvalCompiledTerm(atom.args[static_cast<size_t>(col)], *env));
        probe_key.push_back(v);
      }
      bool exists = false;
      for (const PlanSegment& seg : step.segments) {
        if (step.probe_cols.empty()) {  // segments are never empty
          exists = true;
          break;
        }
        auto it = seg.index->find(probe_key);
        if (it == seg.index->end()) continue;
        for (uint32_t row : it->second) {
          if (row >= seg.rows.begin && row < seg.rows.end) {
            exists = true;
            break;
          }
        }
        if (exists) break;
      }
      if (exists) return Status::OK();  // negation fails: prune this env
      return ExecuteStep(task, step_index + 1, env, symbols, out);
    }
    case PlanStep::kJoinAtom: {
      const CompiledAtom& atom = rule.atoms[static_cast<size_t>(step.atom_index)];

      // Evaluate the statically-determined probe columns.
      Tuple& probe_key = env->probe_scratch[step_index];
      probe_key.clear();
      for (int col : step.probe_cols) {
        RAQLET_ASSIGN_OR_RETURN(
            Value v, EvalCompiledTerm(atom.args[static_cast<size_t>(col)], *env));
        probe_key.push_back(v);
      }

      std::vector<size_t>& newly_bound = env->bound_scratch[step_index];
      auto try_row = [&](const std::vector<Relation::ColumnView>& cols,
                         size_t row_idx) -> Status {
        ++out->stats.tuples_considered;
        // Unify unbound argument variables against the stored row, read
        // per-column through the borrowed views; repeated variables within
        // the atom compare on second occurrence.
        newly_bound.clear();
        bool matches = true;
        for (size_t i = 0; i < atom.args.size() && matches; ++i) {
          const CompiledTerm& arg = atom.args[i];
          switch (arg.kind) {
            case CompiledTerm::kWildcard:
              break;
            case CompiledTerm::kConst:
              matches = arg.constant == cols[i].at(row_idx);
              break;
            case CompiledTerm::kVar: {
              size_t slot = static_cast<size_t>(arg.var);
              Value v = cols[i].at(row_idx);
              if (env->bound[slot]) {
                matches = env->values[slot] == v;
              } else {
                env->values[slot] = v;
                env->bound[slot] = true;
                newly_bound.push_back(slot);
              }
              break;
            }
            case CompiledTerm::kBinary: {
              RAQLET_ASSIGN_OR_RETURN(Value v, EvalCompiledTerm(arg, *env));
              matches = v == cols[i].at(row_idx);
              break;
            }
          }
        }
        Status s = Status::OK();
        if (matches) s = ExecuteStep(task, step_index + 1, env, symbols, out);
        for (size_t slot : newly_bound) env->bound[slot] = false;
        return s;
      };

      const bool ranged = plan.range_atom == step.atom_index;
      size_t offset = 0;  // position of `seg` in the concatenated rows
      for (const PlanSegment& seg : step.segments) {
        size_t begin = seg.rows.begin;
        size_t end = seg.rows.end;
        if (ranged) {
          // Outer-range partitioning: this task only owns a chunk of the
          // rows. Only the outermost join carries a range, so the clamp
          // happens once per segment per variant evaluation.
          const size_t len = end - begin;
          const size_t lo = task.range_begin > offset
                                ? std::min(task.range_begin - offset, len)
                                : 0;
          const size_t hi =
              task.range_end > offset ? std::min(task.range_end - offset, len)
                                      : 0;
          offset += len;
          end = begin + hi;
          begin += lo;
          if (begin >= end) continue;
        }
        if (!step.probe_cols.empty()) {
          auto it = seg.index->find(probe_key);
          if (it == seg.index->end()) continue;
          // Row-index lists are ascending (see Relation::KeyIndex), so the
          // emit order within a chunk matches the serial scan order.
          for (uint32_t row_idx : it->second) {
            if (row_idx < begin || row_idx >= end) continue;
            RAQLET_RETURN_IF_ERROR(try_row(seg.cols, row_idx));
          }
          continue;
        }
        for (size_t row_idx = begin; row_idx < end; ++row_idx) {
          RAQLET_RETURN_IF_ERROR(try_row(seg.cols, row_idx));
        }
      }
      return Status::OK();
    }
  }
  return Status::Internal("unhandled plan step");
}

size_t SourceRows(const AtomSource& source) {
  size_t rows = 0;
  for (const RowSegment& seg : source) {
    if (seg.end > seg.begin) rows += seg.end - seg.begin;
  }
  return rows;
}

// Minimum chunk of outer-atom rows worth shipping to another thread; below
// this the fan-out overhead (buffers, task dispatch) beats the join work.
constexpr size_t kMinRowsPerChunk = 64;

}  // namespace

RuleEvaluator::RuleEvaluator(SymbolTable* symbols, const EvalOptions& options,
                             runtime::ExecutionContext* context,
                             const runtime::QueryGuard* guard)
    : symbols_(symbols),
      options_(options),
      guard_(guard),
      pool_(context->pool()),
      buffer_pool_(context->PoolFor<EmitBuffer>()) {}

Result<CompiledTerm> RuleEvaluator::CompileTerm(
    const Term& term, std::map<std::string, int>* slots) const {
  CompiledTerm out;
  switch (term.kind) {
    case TermKind::kConstant: {
      out.kind = CompiledTerm::kConst;
      out.constant = ConstantToValue(term.constant, symbols_);
      return out;
    }
    case TermKind::kVariable: {
      out.kind = CompiledTerm::kVar;
      auto [it, fresh] =
          slots->emplace(term.var, static_cast<int>(slots->size()));
      out.var = it->second;
      return out;
    }
    case TermKind::kWildcard:
      out.kind = CompiledTerm::kWildcard;
      return out;
    case TermKind::kBinary: {
      out.kind = CompiledTerm::kBinary;
      out.op = term.op;
      RAQLET_ASSIGN_OR_RETURN(CompiledTerm lhs,
                              CompileTerm(term.children[0], slots));
      RAQLET_ASSIGN_OR_RETURN(CompiledTerm rhs,
                              CompileTerm(term.children[1], slots));
      out.children.push_back(std::move(lhs));
      out.children.push_back(std::move(rhs));
      return out;
    }
  }
  return Status::Internal("unhandled term kind");
}

Result<CompiledRule> RuleEvaluator::Compile(
    const Rule& rule, const Resolver& resolve,
    const std::set<std::string>& scc_preds) const {
  CompiledRule out;
  out.source = &rule;
  out.head_predicate = rule.head.predicate;
  out.head_relation = resolve(rule.head.predicate);
  if (out.head_relation == nullptr) {
    return Status::NotFound("undeclared head predicate: " +
                            rule.head.predicate);
  }

  std::map<std::string, int> slots;
  // Positive atoms first (join candidates), then negated atoms.
  for (bool negated_pass : {false, true}) {
    for (size_t b = 0; b < rule.body.size(); ++b) {
      const Atom& atom = rule.body[b];
      if (atom.negated != negated_pass) continue;
      CompiledAtom ca;
      ca.predicate = atom.predicate;
      ca.relation = resolve(atom.predicate);
      if (ca.relation == nullptr) {
        return Status::NotFound("undeclared predicate: " + atom.predicate);
      }
      ca.negated = atom.negated;
      ca.recursive = !atom.negated && scc_preds.count(atom.predicate) > 0;
      ca.body_index = static_cast<int>(b);
      for (const Term& arg : atom.args) {
        RAQLET_ASSIGN_OR_RETURN(CompiledTerm t, CompileTerm(arg, &slots));
        ca.args.push_back(std::move(t));
      }
      if (ca.recursive) {
        out.recursive_atoms.push_back(static_cast<int>(out.atoms.size()));
      }
      out.atoms.push_back(std::move(ca));
    }
  }
  for (const dlir::Constraint& c : rule.constraints) {
    CompiledConstraint cc;
    cc.op = c.op;
    RAQLET_ASSIGN_OR_RETURN(cc.lhs, CompileTerm(c.lhs, &slots));
    RAQLET_ASSIGN_OR_RETURN(cc.rhs, CompileTerm(c.rhs, &slots));
    out.constraints.push_back(std::move(cc));
  }
  for (const Term& arg : rule.head.args) {
    RAQLET_ASSIGN_OR_RETURN(CompiledTerm t, CompileTerm(arg, &slots));
    out.head_args.push_back(std::move(t));
  }
  if (rule.agg.has_value()) {
    out.has_agg = true;
    out.agg_func = rule.agg->func;
    out.agg_pos = rule.agg_result_pos;
    if (rule.agg->func != AggFunc::kCount) {
      RAQLET_ASSIGN_OR_RETURN(out.agg_arg, CompileTerm(rule.agg->arg, &slots));
    }
  }
  out.num_vars = slots.size();
  return out;
}

Status RuleEvaluator::Evaluate(const std::vector<Variant>& variants,
                               std::vector<EmitBuffer>* out,
                               EvalStats* stats) const {
  // Plan every variant, borrow every source's columns and prebuild every
  // index the plans will probe — single-threaded, so Relation caches
  // mutate before any fan-out.
  std::vector<VariantPlan> plans;
  std::vector<size_t> range_rows;  // rows of each plan's range atom
  plans.reserve(variants.size());
  for (const Variant& variant : variants) {
    ++stats->rule_evaluations;
    const CompiledRule& rule = *variant.rule;
    std::vector<AtomSource> whole;
    if (variant.sources.empty()) {
      for (const CompiledAtom& atom : rule.atoms) {
        whole.push_back(WholeRelation(atom.relation));
      }
    }
    const std::vector<AtomSource>& sources =
        variant.sources.empty() ? whole : variant.sources;
    std::vector<size_t> atom_rows;
    atom_rows.reserve(sources.size());
    for (const AtomSource& source : sources) {
      atom_rows.push_back(SourceRows(source));
    }
    RAQLET_ASSIGN_OR_RETURN(
        VariantPlan plan,
        PlanVariant(rule, variant.delta_atom, options_.reorder_atoms,
                    atom_rows));
    for (PlanStep& step : plan.steps) {
      if (step.atom_index < 0) continue;
      for (const RowSegment& rows :
           sources[static_cast<size_t>(step.atom_index)]) {
        if (rows.begin >= rows.end) continue;
        PlanSegment seg;
        seg.rows = rows;
        if (step.kind == PlanStep::kJoinAtom) {
          // Borrow the storage columns now, while still single-threaded:
          // workers then scan them without materializing rows.
          seg.cols.reserve(rows.relation->arity());
          for (size_t c = 0; c < rows.relation->arity(); ++c) {
            seg.cols.push_back(rows.relation->Column(c));
          }
        }
        if (!step.probe_cols.empty()) {
          seg.index = rows.relation->EnsureIndex(step.probe_cols);
        }
        step.segments.push_back(std::move(seg));
      }
    }
    range_rows.push_back(
        plan.range_atom < 0
            ? 0
            : atom_rows[static_cast<size_t>(plan.range_atom)]);
    plans.push_back(std::move(plan));
  }

  // Split each variant's outer join range into chunks. Aggregate rules
  // stay single-task (the group accumulator spans the whole range).
  std::vector<VariantTask> tasks;
  for (size_t v = 0; v < variants.size(); ++v) {
    const CompiledRule* rule = variants[v].rule;
    VariantTask whole;
    whole.rule = rule;
    whole.plan = &plans[v];
    whole.variant = v;
    if (pool_ == nullptr || rule->has_agg || plans[v].range_atom < 0) {
      tasks.push_back(whole);
      continue;
    }
    const size_t range = range_rows[v];
    size_t max_chunks = static_cast<size_t>(pool_->num_threads()) * 4;
    size_t chunks = range / kMinRowsPerChunk;
    if (chunks > max_chunks) chunks = max_chunks;
    if (chunks <= 1) {
      tasks.push_back(whole);
      continue;
    }
    size_t chunk_size = (range + chunks - 1) / chunks;
    for (size_t c = 0; c < chunks; ++c) {
      VariantTask task = whole;
      task.range_begin = c * chunk_size;
      task.range_end = std::min(range, task.range_begin + chunk_size);
      if (task.range_begin >= task.range_end) break;
      tasks.push_back(task);
    }
  }

  // Evaluate. Each task owns a pooled EmitBuffer; workers share nothing.
  std::vector<EmitBuffer> buffers;
  buffers.reserve(tasks.size());
  for (const VariantTask& task : tasks) {
    EmitBuffer buffer = buffer_pool_->Acquire();
    const Variant& variant = variants[task.variant];
    buffer.target = variant.target != nullptr ? variant.target
                                              : task.rule->head_relation;
    buffer.variant = task.variant;
    buffers.push_back(std::move(buffer));
  }
  std::vector<Status> statuses(tasks.size(), Status::OK());
  auto run_task = [&](size_t i) {
    // Per-chunk guard poll: a trip observed here (or by the guard-aware
    // ParallelFor skipping unstarted chunks) surfaces as this chunk's
    // status; the sticky cause keeps the reported error deterministic.
    if (guard_ != nullptr) {
      Status g = guard_->Check();
      if (!g.ok()) {
        statuses[i] = std::move(g);
        return;
      }
    }
    obs::TraceScope span("datalog.variant", static_cast<int64_t>(i));
    const VariantTask& task = tasks[i];
    EmitBuffer& buffer = buffers[i];
    std::map<Tuple, AggState> agg;
    if (task.rule->has_agg) buffer.agg = &agg;
    Env env(task.rule->num_vars, task.plan->steps.size());
    Status s = ExecuteStep(task, 0, &env, *symbols_, &buffer);
    if (s.ok() && task.rule->has_agg) {
      FinalizeAggregates(*task.rule, agg, &buffer);
    }
    statuses[i] = std::move(s);
  };
  if (pool_ != nullptr && tasks.size() > 1) {
    pool_->ParallelFor(tasks.size(), run_task, guard_);
  } else {
    for (size_t i = 0; i < tasks.size(); ++i) {
      if (guard_ != nullptr && guard_->tripped()) break;
      run_task(i);
    }
  }

  // Chunks skipped by a tripped guard left their status OK and produced
  // nothing; report the trip instead of treating the round as complete.
  if (guard_ != nullptr && guard_->tripped()) {
    Release(&buffers);
    return guard_->TripStatus();
  }

  // Task order equals the order a serial evaluation visits the same rows,
  // so handing the buffers over in task order keeps every relation's
  // staged run — and therefore its insertion order — identical for any
  // thread count. Stats merge stops at the first error, matching what a
  // serial evaluation would have accumulated before failing.
  for (size_t i = 0; i < tasks.size(); ++i) {
    if (!statuses[i].ok()) {
      Release(&buffers);
      return statuses[i];
    }
    stats->tuples_considered += buffers[i].stats.tuples_considered;
  }
  for (EmitBuffer& buffer : buffers) out->push_back(std::move(buffer));
  return Status::OK();
}

void RuleEvaluator::Release(std::vector<EmitBuffer>* buffers) const {
  for (EmitBuffer& buffer : *buffers) {
    buffer.Reset();
    buffer_pool_->Release(std::move(buffer));
  }
  buffers->clear();
}

Result<size_t> RuleEvaluator::Merge(std::vector<EmitBuffer>* buffers,
                                    SccWork* lattice) const {
  obs::TraceScope span("datalog.merge");
  // Group staged runs by target relation, preserving first-appearance
  // (task) order both across groups and within each group.
  std::vector<std::pair<Relation*, std::vector<size_t>>> groups;
  std::unordered_map<Relation*, size_t> group_of;
  for (size_t i = 0; i < buffers->size(); ++i) {
    if ((*buffers)[i].staged_rows == 0) continue;
    auto [it, fresh] = group_of.emplace((*buffers)[i].target, groups.size());
    if (fresh) groups.emplace_back((*buffers)[i].target, std::vector<size_t>{});
    groups[it->second].second.push_back(i);
  }

  std::vector<size_t> inserted(groups.size(), 0);
  std::vector<Status> statuses(groups.size(), Status::OK());
  auto apply_group = [&](size_t g) -> void {
    Relation* rel = groups[g].first;
    const std::vector<size_t>& runs = groups[g].second;
#if defined(RAQLET_FAILPOINTS)
    {
      // Injection point for the kill-point sweep: fail one relation's
      // merge while sibling shards may be mid-insert on other relations.
      Status fp = runtime::FailpointHit("datalog.apply_staged");
      if (!fp.ok()) {
        statuses[g] = std::move(fp);
        return;
      }
    }
#endif
    LatticeState* state = nullptr;
    if (lattice != nullptr) {
      auto it = lattice->lattice.find(rel);
      if (it != lattice->lattice.end()) state = &it->second;
    }
    if (state == nullptr) {
      // Concatenate later runs onto the first, column by column, in task
      // order (a no-op in the common one-task case), then hand the run to
      // the columnar dedup primitive — no row tuples are built. The first
      // buffer keeps its column capacity for the next round.
      std::vector<std::vector<Value>>& base = (*buffers)[runs[0]].staged;
      size_t total = 0;
      for (size_t i : runs) total += (*buffers)[i].staged_rows;
      for (std::vector<Value>& col : base) col.reserve(total);
      for (size_t k = 1; k < runs.size(); ++k) {
        std::vector<std::vector<Value>>& more = (*buffers)[runs[k]].staged;
        for (size_t c = 0; c < base.size(); ++c) {
          base[c].insert(base[c].end(), more[c].begin(), more[c].end());
        }
      }
      Result<size_t> r = rel->InsertColumns(&base);
      if (r.ok()) {
        inserted[g] = *r;
      } else {
        statuses[g] = r.status();
      }
      return;
    }
    // Batched lattice pass: a staged row survives only if it improves the
    // best value for its key prefix, with the best map advancing through
    // the run so intra-batch supersedes work exactly like the old
    // tuple-at-a-time merge. Survivors are staged column-wise.
    const size_t arity = (*buffers)[runs[0]].staged.size();
    std::vector<std::vector<Value>> batch(arity);
    auto& best = state->best;
    for (size_t i : runs) {
      const std::vector<std::vector<Value>>& cols = (*buffers)[i].staged;
      for (size_t row = 0; row < (*buffers)[i].staged_rows; ++row) {
        Tuple prefix;
        prefix.reserve(arity - 1);
        for (size_t c = 0; c + 1 < arity; ++c) prefix.push_back(cols[c][row]);
        Value candidate = cols[arity - 1][row];
        auto it = best.find(prefix);
        bool improves =
            it == best.end() ||
            (state->kind == LatticeKind::kMin
                 ? CompareValues(candidate, it->second, *symbols_) < 0
                 : CompareValues(candidate, it->second, *symbols_) > 0);
        if (!improves) continue;
        if (it == best.end()) {
          best.emplace(std::move(prefix), candidate);
        } else {
          it->second = candidate;
        }
        for (size_t c = 0; c < arity; ++c) batch[c].push_back(cols[c][row]);
      }
    }
    Result<size_t> r = rel->InsertColumns(&batch);
    if (r.ok()) {
      inserted[g] = *r;
    } else {
      statuses[g] = r.status();
    }
  };

  // Sharded deterministic merge: one task per relation. Each relation has
  // exactly one writer (this task), and no concurrently-running SCC reads
  // a relation this SCC writes (the scheduler only starts an SCC after
  // all its dependencies finished), so the single-writer contract holds.
  if (pool_ != nullptr && groups.size() > 1) {
    pool_->ParallelFor(groups.size(), apply_group);
  } else {
    for (size_t g = 0; g < groups.size(); ++g) apply_group(g);
  }

  size_t total_inserted = 0;
  for (size_t n : inserted) total_inserted += n;
  Release(buffers);
  for (Status& s : statuses) {
    if (!s.ok()) return s;
  }
  return total_inserted;
}

Status RuleEvaluator::RunScc(SccWork* work,
                             const std::vector<size_t>* watermarks,
                             EvalStats* stats, obs::SccMetrics* slot) const {
  obs::TraceScope scc_span("datalog.scc", work->index);
  if (work->rules.empty()) return Status::OK();
  std::vector<EmitBuffer> staged;
  const auto scc_start = std::chrono::steady_clock::now();

  // The single-writer phase of each round: per-relation batched (and,
  // with a pool, sharded) merge of the staged runs. `last_inserted`
  // exposes each merge's admitted-tuple count — the next round's delta
  // size — to the metrics recording below.
  size_t last_inserted = 0;
  // Byte-budget watermark over the relations this SCC writes (only this
  // task mutates them, so reading their MemoryBytes races with nobody).
  size_t bytes_seen = 0;
  auto apply_staged = [&]() -> Status {
    RAQLET_ASSIGN_OR_RETURN(size_t inserted, Merge(&staged, work));
    stats->tuples_inserted += inserted;
    last_inserted = inserted;
    return Status::OK();
  };

  // One guard checkpoint per round (and per merge): deadline/cancel via
  // Check(), row budget via the round's deterministic insert count, byte
  // budget via the growth of this SCC's relations since the last round.
  auto guard_checkpoint = [&]() -> Status {
    if (guard_ == nullptr) return Status::OK();
    RAQLET_RETURN_IF_ERROR(guard_->AddRows(last_inserted));
    if (guard_->max_bytes() > 0) {
      size_t bytes_now = 0;
      for (const Relation* rel : work->relations) {
        bytes_now += rel->MemoryBytes();
      }
      size_t delta = bytes_now > bytes_seen ? bytes_now - bytes_seen : 0;
      bytes_seen = bytes_now;
      RAQLET_RETURN_IF_ERROR(guard_->AddBytes(delta));
    }
    return guard_->Check();
  };

  auto finish = [&](Status s) {
    if (slot != nullptr) {
      slot->rounds = stats->fixpoint_rounds;
      slot->rule_evaluations = stats->rule_evaluations;
      slot->tuples_considered = stats->tuples_considered;
      slot->tuples_inserted = stats->tuples_inserted;
      slot->micros = std::chrono::duration_cast<std::chrono::microseconds>(
                         std::chrono::steady_clock::now() - scc_start)
                         .count();
    }
    return s;
  };

  if (!work->recursive) {
    std::vector<Variant> variants;
    for (const CompiledRule& rule : work->rules) variants.emplace_back(&rule);
    Status s = Evaluate(variants, &staged, stats);
    if (s.ok()) s = apply_staged();
    if (s.ok()) s = guard_checkpoint();
    return finish(s);
  }

  // Recursive SCC. Aggregates are rejected by stratification earlier.
  // Each relation's rows past its watermark are the next round's delta.
  std::unordered_map<const Relation*, size_t> delta_begin;
  for (size_t i = 0; i < work->relations.size(); ++i) {
    delta_begin[work->relations[i]] = watermarks != nullptr
                                          ? (*watermarks)[i]
                                          : work->relations[i]->size();
  }

  // Phase 1: exit rules (no recursive body atom), unless continuing from
  // watermarks.
  if (watermarks == nullptr) {
    std::vector<Variant> variants;
    for (const CompiledRule& rule : work->rules) {
      if (rule.recursive_atoms.empty()) variants.emplace_back(&rule);
    }
    Status s = Evaluate(variants, &staged, stats);
    if (s.ok()) s = apply_staged();
    if (s.ok()) s = guard_checkpoint();
    if (!s.ok()) return finish(s);
    // The exit-rule batch is round 0's delta.
    if (slot != nullptr) slot->round_delta_sizes.push_back(last_inserted);
  }

  // Phase 2: fixpoint. Each round evaluates one variant per recursive
  // body atom with that atom restricted to the previous round's delta.
  size_t round = 0;
  while (true) {
    bool any_delta = false;
    for (const Relation* rel : work->relations) {
      if (rel->size() > delta_begin[rel]) {
        any_delta = true;
        break;
      }
    }
    if (!any_delta) break;
    ++round;
    ++stats->fixpoint_rounds;
    obs::TraceScope round_span("datalog.round",
                               static_cast<int64_t>(round));

    // Nothing mutates between here and the merge, so every size read now
    // is this round's snapshot.
    std::vector<Variant> variants;
    for (const CompiledRule& rule : work->rules) {
      if (rule.recursive_atoms.empty()) continue;
      if (!options_.seminaive) {
        variants.emplace_back(&rule);
        continue;
      }
      for (int delta_atom : rule.recursive_atoms) {
        Variant variant(&rule, delta_atom);
        for (size_t a = 0; a < rule.atoms.size(); ++a) {
          const Relation* rel = rule.atoms[a].relation;
          variant.sources.push_back(
              {{rel,
                static_cast<int>(a) == delta_atom ? delta_begin[rel] : 0,
                rel->size()}});
        }
        variants.push_back(std::move(variant));
      }
    }
    Status s = Evaluate(variants, &staged, stats);
    if (!s.ok()) return finish(s);
    for (const Relation* rel : work->relations) delta_begin[rel] = rel->size();
    s = apply_staged();
    if (s.ok()) s = guard_checkpoint();
    if (!s.ok()) return finish(s);
    if (slot != nullptr) slot->round_delta_sizes.push_back(last_inserted);
  }

  // Compact lattice relations: drop rows superseded by better values.
  for (Relation* rel : work->relations) {
    auto it = work->lattice.find(rel);
    if (it == work->lattice.end()) continue;
    std::vector<Tuple> compacted;
    compacted.reserve(it->second.best.size());
    for (const auto& [prefix, value] : it->second.best) {
      Tuple row = prefix;
      row.push_back(value);
      compacted.push_back(std::move(row));
    }
    rel->Clear();
    Status replaced = rel->InsertBatch(compacted).status();
    if (!replaced.ok()) return finish(replaced);
  }
  return finish(Status::OK());
}

namespace {

// Resolves every declared relation: inputs must exist with the declared
// arity; IDB relations are created, or cleared and re-shaped.
Status PrepareRelations(const Program& program, Database* db,
                        std::unordered_map<std::string, Relation*>* out) {
  for (const RelationDecl& decl : program.decls) {
    if (decl.is_input) {
      RAQLET_ASSIGN_OR_RETURN(Relation * rel, db->GetRelation(decl.name));
      if (rel->arity() != decl.arity()) {
        return Status::InvalidArgument(
            "input relation '" + decl.name + "' has arity " +
            std::to_string(rel->arity()) + ", declared " +
            std::to_string(decl.arity()));
      }
      (*out)[decl.name] = rel;
      continue;
    }
    RelationSchema schema;
    schema.name = decl.name;
    schema.columns = decl.columns;
    schema.primary_key = decl.primary_key;
    if (db->HasRelation(decl.name)) {
      RAQLET_ASSIGN_OR_RETURN(Relation * rel, db->GetRelation(decl.name));
      rel->Clear();
      if (rel->arity() != decl.arity()) {
        // A previous program left this IDB name behind with a different
        // shape; adopt this program's declaration so column borrowing
        // (which trusts arity()) sees the width the rules will insert.
        rel->ResetSchema(std::move(schema));
      }
      (*out)[decl.name] = rel;
    } else {
      RAQLET_ASSIGN_OR_RETURN(Relation * rel,
                              db->CreateRelation(std::move(schema)));
      (*out)[decl.name] = rel;
    }
  }
  // Rules must not define input relations.
  for (const Rule& rule : program.rules) {
    const RelationDecl* decl = program.FindDecl(rule.head.predicate);
    if (decl != nullptr && decl->is_input) {
      return Status::InvalidArgument("rule defines input relation '" +
                                     rule.head.predicate + "'");
    }
  }
  return Status::OK();
}

}  // namespace

Status RunProgram(const Program& program, Database* db,
                  const EvalOptions& options,
                  runtime::ExecutionContext* context,
                  const runtime::QueryGuard* guard, EvalStats* stats,
                  obs::DatalogMetrics* metrics) {
  obs::TraceScope run_span("datalog.run");
  RAQLET_RETURN_IF_ERROR(analysis::VerifyStructure(program));
  std::unordered_map<std::string, Relation*> relations;
  RAQLET_RETURN_IF_ERROR(PrepareRelations(program, db, &relations));

  analysis::DependencyGraph graph = analysis::DependencyGraph::Build(program);
  analysis::StratificationResult strat =
      analysis::AnalyzeStratification(program, graph);
  if (!strat.stratified) {
    return Status::Unsupported("program is not stratifiable: " +
                               strat.violation);
  }

  // Compile every SCC's rules upfront, single-threaded: rule compilation
  // interns constants into the shared symbol table and resolves relation
  // pointers, neither of which may race with concurrent SCC evaluation.
  RuleEvaluator eval(&db->symbols(), options, context, guard);
  auto resolve = [&relations](const std::string& name) -> Relation* {
    auto it = relations.find(name);
    return it == relations.end() ? nullptr : it->second;
  };
  const auto& sccs = graph.SccsInTopologicalOrder();
  std::vector<SccWork> work(sccs.size());
  if (metrics != nullptr) {
    metrics->sccs.assign(sccs.size(), obs::SccMetrics{});
  }
  for (size_t i = 0; i < sccs.size(); ++i) {
    work[i].index = static_cast<int>(i);
    work[i].preds = sccs[i];
    work[i].recursive = graph.IsRecursiveScc(static_cast<int>(i));
    if (metrics != nullptr) {
      metrics->sccs[i].preds = sccs[i];
      metrics->sccs[i].recursive = work[i].recursive;
    }
    for (const std::string& pred : sccs[i]) {
      Relation* rel = relations.at(pred);
      work[i].relations.push_back(rel);
      const RelationDecl* decl = program.FindDecl(pred);
      if (decl != nullptr && decl->lattice != LatticeKind::kNone) {
        work[i].lattice[rel].kind = decl->lattice;
      }
    }
    std::set<std::string> scc_set(sccs[i].begin(), sccs[i].end());
    for (const Rule& rule : program.rules) {
      if (scc_set.count(rule.head.predicate) == 0) continue;
      RAQLET_ASSIGN_OR_RETURN(CompiledRule cr,
                              eval.Compile(rule, resolve, scc_set));
      work[i].rules.push_back(std::move(cr));
    }
  }

  // Each SCC task owns its metrics slot exclusively (slots are pre-sized
  // above, indexed by topological SCC position), so only the totals need
  // the lock.
  std::mutex stats_mutex;
  auto run_scc = [&](size_t i) {
    EvalStats scc_stats;
    Status s = eval.RunScc(&work[i], nullptr, &scc_stats,
                           metrics == nullptr ? nullptr : &metrics->sccs[i]);
    if (stats != nullptr) {
      std::lock_guard<std::mutex> lock(stats_mutex);
      stats->fixpoint_rounds += scc_stats.fixpoint_rounds;
      stats->tuples_inserted += scc_stats.tuples_inserted;
      stats->rule_evaluations += scc_stats.rule_evaluations;
      stats->tuples_considered += scc_stats.tuples_considered;
    }
    return s;
  };

  if (context->pool() == nullptr) {
    for (size_t i = 0; i < work.size(); ++i) {
      if (guard != nullptr) RAQLET_RETURN_IF_ERROR(guard->Check());
      RAQLET_RETURN_IF_ERROR(run_scc(i));
    }
    return Status::OK();
  }

  // Independent SCCs run concurrently; an SCC starts only after every SCC
  // it depends on finished, so all relations it reads (beyond its own) are
  // frozen for its whole lifetime.
  runtime::SccDag dag = runtime::BuildSccDag(graph);
  return runtime::RunSccDag(
      dag, context->pool(),
      [&](int i) { return run_scc(static_cast<size_t>(i)); }, guard);
}

std::string EvalStats::ToString() const {
  std::ostringstream os;
  os << "rounds=" << fixpoint_rounds << " inserted=" << tuples_inserted
     << " rule_evals=" << rule_evaluations
     << " tuples_considered=" << tuples_considered;
  return os.str();
}

Status DatalogEngine::Run(const dlir::Program& program, Database* db,
                          EvalStats* stats, obs::DatalogMetrics* metrics,
                          const runtime::QueryGuard* guard) const {
  return RunProgram(program, db, options_, context_.get(), guard, stats,
                    metrics);
}

}  // namespace raqlet::engine
