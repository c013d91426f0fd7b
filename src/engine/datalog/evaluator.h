#ifndef RAQLET_ENGINE_DATALOG_EVALUATOR_H_
#define RAQLET_ENGINE_DATALOG_EVALUATOR_H_

// The Datalog evaluator behind DatalogEngine::Run and IncrementalView
// (internal to engine/datalog, not a public API): the rule compiler, the
// variant planner and executor, the staged merge, and the SCC fixpoint
// loop.
//
// A *variant* is one compiled rule evaluated with each body atom reading
// an explicit row source of at most two (relation, begin, end) segments,
// fixed when the variant is planned. The batch engine reads [0, size) for
// ordinary atoms and [watermark, size) for a semi-naive delta atom; the
// incremental view reads a relation's pre-delta state as a live-row prefix
// plus a view-owned relation of the rows it erased, and its Δ rows from
// relations it owns. Heads are staged column-wise per task and merged in
// task order, so every caller gets the same rows at any thread count.

#include <functional>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "dlir/program.h"
#include "engine/datalog/engine.h"
#include "obs/metrics.h"
#include "runtime/execution_context.h"
#include "runtime/query_guard.h"
#include "storage/database.h"

namespace raqlet::engine {

// ---------------------------------------------------------------------------
// Compiled rules: variables become dense integer slots and IR constants
// become interned runtime Values, so the inner join loops touch no strings.
// ---------------------------------------------------------------------------

struct CompiledTerm {
  enum Kind { kConst, kVar, kWildcard, kBinary };
  Kind kind = kWildcard;
  Value constant;
  int var = -1;
  dlir::ArithOp op = dlir::ArithOp::kAdd;
  std::vector<CompiledTerm> children;

  bool IsBoundUnder(const std::vector<bool>& bound) const {
    switch (kind) {
      case kConst:
        return true;
      case kVar:
        return bound[static_cast<size_t>(var)];
      case kWildcard:
        return false;
      case kBinary:
        return children[0].IsBoundUnder(bound) &&
               children[1].IsBoundUnder(bound);
    }
    return false;
  }
};

struct CompiledAtom {
  std::string predicate;
  const Relation* relation = nullptr;  // the default row source
  bool negated = false;
  bool recursive = false;  // predicate in the same SCC as the rule head
  int body_index = -1;     // position in the source rule's body
  std::vector<CompiledTerm> args;
};

struct CompiledConstraint {
  dlir::CmpOp op = dlir::CmpOp::kEq;
  CompiledTerm lhs;
  CompiledTerm rhs;
};

struct CompiledRule {
  const dlir::Rule* source = nullptr;
  std::string head_predicate;
  Relation* head_relation = nullptr;
  std::vector<CompiledTerm> head_args;
  size_t num_vars = 0;
  std::vector<CompiledAtom> atoms;  // positive first, then negated
  std::vector<CompiledConstraint> constraints;
  // Indices into `atoms` of positive atoms whose predicate is recursive.
  std::vector<int> recursive_atoms;

  bool has_agg = false;
  dlir::AggFunc agg_func = dlir::AggFunc::kCount;
  CompiledTerm agg_arg;
  int agg_pos = -1;
};

// ---------------------------------------------------------------------------
// Variants and their row sources.
// ---------------------------------------------------------------------------

/// Rows [begin, end) of one relation.
struct RowSegment {
  const Relation* relation = nullptr;
  size_t begin = 0;
  size_t end = 0;
};

/// What one body atom reads: at most two segments, scanned in order.
using AtomSource = std::vector<RowSegment>;

inline AtomSource WholeRelation(const Relation* relation) {
  return {{relation, 0, relation->size()}};
}

/// One rule evaluation. The delta atom (if any) joins first when every
/// argument is evaluable from a bare row; otherwise the greedy order
/// places it and probes its rows.
struct Variant {
  explicit Variant(const CompiledRule* rule, int delta_atom = -1,
                   Relation* target = nullptr)
      : rule(rule), delta_atom(delta_atom), target(target) {}

  const CompiledRule* rule = nullptr;
  int delta_atom = -1;
  /// One source per rule atom; empty means every atom reads its whole
  /// relation.
  std::vector<AtomSource> sources;
  /// Where the heads are staged; the rule's head relation when null.
  Relation* target = nullptr;
};

struct AggState;

/// Everything one evaluation task (a variant, or one chunk of its outer
/// join range) writes: derived heads staged column-wise (one vector per
/// head column, `staged_rows` rows) for `target`, stat counters, and — for
/// aggregate rules — the group accumulator. Buffers are recycled through
/// the execution context's object pool so their capacity survives across
/// fixpoint rounds.
struct EmitBuffer {
  Relation* target = nullptr;
  size_t variant = 0;  // index of the producing variant
  std::vector<std::vector<Value>> staged;  // staged[col][row]
  size_t staged_rows = 0;
  EvalStats stats;
  std::map<Tuple, AggState>* agg = nullptr;

  // Sizes the staging columns for an arity (keeping surviving columns'
  // capacity when the pooled buffer is reused across rules).
  void PrepareStaging(size_t arity) {
    if (staged.size() != arity) staged.resize(arity);
  }

  // Boxes staged row `row`.
  Tuple Row(size_t row) const {
    Tuple t;
    t.reserve(staged.size());
    for (const std::vector<Value>& col : staged) t.push_back(col[row]);
    return t;
  }

  // Back to logically-empty, keeping the columns' capacity for reuse.
  void Reset() {
    target = nullptr;
    variant = 0;
    for (std::vector<Value>& col : staged) col.clear();
    staged_rows = 0;
    stats = EvalStats{};
    agg = nullptr;
  }
};

/// Best value per key prefix of a lattice relation (min/max on the last
/// column).
struct LatticeState {
  dlir::LatticeKind kind = dlir::LatticeKind::kNone;
  std::unordered_map<Tuple, Value, TupleHash> best;
};

/// The rules of one SCC, compiled upfront (single-threaded) so that
/// concurrent SCC evaluation never interns symbols or resolves relations.
struct SccWork {
  int index = 0;  // position in SccsInTopologicalOrder()
  std::vector<std::string> preds;
  std::vector<Relation*> relations;  // the heads, aligned with `preds`
  bool recursive = false;
  std::vector<CompiledRule> rules;
  // Lattice heads; each is only ever touched by the task evaluating this
  // SCC.
  std::unordered_map<const Relation*, LatticeState> lattice;
};

class RuleEvaluator {
 public:
  using Resolver = std::function<Relation*(const std::string&)>;

  /// `context` supplies the pool (null pool = strictly serial) and the
  /// EmitBuffer recycling pool; `guard` may be null.
  RuleEvaluator(SymbolTable* symbols, const EvalOptions& options,
                runtime::ExecutionContext* context,
                const runtime::QueryGuard* guard);

  /// Compiles `rule`, resolving every predicate through `resolve` (null =
  /// undeclared). Atoms over `scc_preds` are marked recursive.
  Result<CompiledRule> Compile(const dlir::Rule& rule, const Resolver& resolve,
                               const std::set<std::string>& scc_preds) const;

  /// Plans the variants, prebuilds every index the plans probe, evaluates
  /// them — fanned out over the pool when there is one — and appends the
  /// per-task buffers to `out` in the order a serial evaluation would have
  /// produced the heads. Counts rule evaluations and tuples considered
  /// into `stats`.
  Status Evaluate(const std::vector<Variant>& variants,
                  std::vector<EmitBuffer>* out, EvalStats* stats) const;

  /// Applies staged runs to their target relations through
  /// Relation::InsertColumns in task order, sharded one pool task per
  /// relation; targets with a state in `lattice->lattice` get a batched
  /// best-value pass first. Recycles the buffers. Returns #tuples
  /// inserted.
  Result<size_t> Merge(std::vector<EmitBuffer>* buffers,
                       SccWork* lattice = nullptr) const;

  /// Recycles buffers without merging them.
  void Release(std::vector<EmitBuffer>* buffers) const;

  /// Evaluates one SCC to fixpoint into `work->relations`. A recursive SCC
  /// runs its exit rules and then semi-naive rounds; with `watermarks`
  /// (aligned with `work->relations`) it skips the exit rules and starts
  /// the rounds with rows [watermark, size) as the delta. Lattice heads are
  /// compacted at the end. Fills `stats` and, when given, `slot`.
  Status RunScc(SccWork* work, const std::vector<size_t>* watermarks,
                EvalStats* stats, obs::SccMetrics* slot) const;

 private:
  Result<CompiledTerm> CompileTerm(const dlir::Term& term,
                                   std::map<std::string, int>* slots) const;

  SymbolTable* symbols_;
  EvalOptions options_;
  const runtime::QueryGuard* guard_;
  runtime::ThreadPool* pool_;
  runtime::ObjectPool<EmitBuffer>* buffer_pool_;
};

/// Evaluates `program` against `db` on `context` (DatalogEngine::Run's
/// contract: input relations must exist, IDB relations are created or
/// cleared and filled).
Status RunProgram(const dlir::Program& program, Database* db,
                  const EvalOptions& options,
                  runtime::ExecutionContext* context,
                  const runtime::QueryGuard* guard, EvalStats* stats,
                  obs::DatalogMetrics* metrics);

}  // namespace raqlet::engine

#endif  // RAQLET_ENGINE_DATALOG_EVALUATOR_H_
