#include "engine/sql/executor.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "obs/trace.h"
#include "runtime/failpoint.h"
#include "runtime/thread_pool.h"

namespace raqlet::engine {

namespace {

using sqir::Cte;
using sqir::Expr;
using sqir::NotExists;
using sqir::Predicate;
using sqir::Select;
using sqir::SelectItem;
using sqir::SqirProgram;
using sqir::TableRef;

// Resolves a table name to a relation (CTE store first, then base tables).
using TableResolver =
    std::function<Result<const Relation*>(const std::string&)>;

// True when every table alias `e` reads is in `bound`.
bool ReadsOnly(const Expr& e, const std::set<std::string>& bound) {
  if (e.kind == Expr::kColumn && bound.count(e.table) == 0) return false;
  for (const Expr& child : e.children) {
    if (!ReadsOnly(child, bound)) return false;
  }
  return true;
}

bool ReadsOnly(const Predicate& pred, const std::set<std::string>& bound) {
  return ReadsOnly(pred.lhs, bound) && ReadsOnly(pred.rhs, bound);
}

// Whether `col_side = key_side` can probe table `alias`: a bare column of
// `alias` keyed by an expression over the `bound` tables only.
bool CanProbe(const Expr& col_side, const Expr& key_side,
              const std::string& alias, const std::set<std::string>& bound) {
  return col_side.kind == Expr::kColumn && col_side.table == alias &&
         ReadsOnly(key_side, bound);
}

// A unit of n bindings of the FROM tables: rows[t][i] is the row table t
// is bound to in binding i; only the first n entries of each array count.
// The tuple pipeline carries one binding (n = 1) and rebinds it in place;
// the vectorized pipeline carries a batch.
struct Bindings {
  std::vector<std::vector<uint32_t>> rows;  // [table][binding]
  size_t n = 0;
};

// Keeps the bindings of `b` whose keep flag is set, in order.
void Compact(const std::vector<char>& keep, Bindings* b) {
  size_t kept = 0;
  for (size_t i = 0; i < b->n; ++i) {
    if (keep[i] == 0) continue;
    for (std::vector<uint32_t>& rows : b->rows) {
      if (!rows.empty()) rows[kept] = rows[i];
    }
    ++kept;
  }
  b->n = kept;
}

// An expression compiled at plan time: a column reference is resolved to
// its table's position in the binding and a view of the column borrowed
// for the whole evaluation. The views stay valid because the evaluation
// reads everything before its output merges into a relation.
struct Operand {
  Expr::Kind kind = Expr::kConst;  // never kAgg
  size_t table = 0;                // kColumn
  Relation::ColumnView column;     // kColumn
  Value value;                     // kConst, interned at plan time
  dlir::ArithOp op = dlir::ArithOp::kAdd;  // kArith
  std::vector<Operand> children;           // kArith
};

struct Comparison {
  dlir::CmpOp op = dlir::CmpOp::kEq;
  Operand lhs;
  Operand rhs;
};

// One join step of the plan: scan or probe `table_index`, then apply
// `filters`.
struct StepPlan {
  size_t table_index = 0;
  const Relation* rel = nullptr;
  std::vector<Operand> probe_keys;  // keys of the probed columns
  const Relation::KeyIndex* index = nullptr;  // over the probed columns
  std::vector<Comparison> filters;
  std::vector<size_t> prior;  // tables bound by earlier steps
};

// Prebuilt NOT EXISTS anti-join: the resolved relation, the keys of its
// equality columns and the index over those columns.
struct NePlan {
  const Relation* rel = nullptr;
  std::vector<Operand> keys;
  const Relation::KeyIndex* index = nullptr;  // null without equalities
};

struct AggState {
  int64_t count = 0;
  double sum = 0.0;
  bool any_float = false;
  std::optional<Value> min;
  std::optional<Value> max;
};

// One traversal's state: the serial pipeline's or one parallel chunk's.
// Its counters fold into SqlStats and the CTE sink afterwards.
struct Worker {
  size_t rows_scanned = 0;
  std::vector<obs::SqlStepMetrics> steps;  // per plan step; metrics only
  size_t since_poll = 0;                   // emitted rows since a guard poll
  std::vector<std::vector<Value>> cols;    // evaluated operands (scratch)
  std::vector<char> keep;                  // compaction flags (scratch)
  Tuple key;                               // probe key (scratch)
  std::vector<std::vector<Value>> out;     // staged output columns
  // Group key (the non-aggregate items, in item order) -> one state per
  // aggregate item, in key order for determinism.
  std::map<Tuple, std::vector<AggState>> groups;
};

// Minimum step-0 scan rows per parallel chunk; below this the pipeline
// runs as a single batch even when a pool is available.
constexpr size_t kChunkRows = 64;

// Evaluates one SELECT block against resolved tables.
class SelectEvaluator {
 public:
  // `lead_scan`, when given, is forced to be the first plan step and its
  // scan is restricted to rows `[delta_begin, delta_end)`: the recursive
  // CTE loop scans the previous round's suffix of the total relation in
  // place, in both modes, instead of materializing a working table (and
  // probing the stable tables' cached indexes beats rebuilding an index
  // over the delta every round).
  SelectEvaluator(const Select& select, const TableResolver& resolver,
                  Database* db, SqlMode mode, SqlStats* stats,
                  runtime::ThreadPool* pool,
                  const Relation* lead_scan = nullptr,
                  size_t delta_begin = 0, size_t delta_end = kNoDelta,
                  obs::SqlCteMetrics* cte_metrics = nullptr,
                  const runtime::QueryGuard* guard = nullptr)
      : select_(select), resolver_(resolver), db_(db), mode_(mode),
        stats_(stats), pool_(pool), lead_scan_(lead_scan),
        delta_begin_(delta_begin), delta_end_(delta_end),
        cte_metrics_(cte_metrics), guard_(guard) {}

  static constexpr size_t kNoDelta = static_cast<size_t>(-1);

  // Appends result tuples to `out` (deduplicated by the relation).
  Status Evaluate(Relation* out) {
    RAQLET_RETURN_IF_ERROR(Bind());
    RAQLET_RETURN_IF_ERROR(Plan());
    if (trivially_false_) return Status::OK();
    return Traverse(out);
  }

 private:
  // The two modes differ only in traversal order. kVectorized goes
  // breadth-first (a FROM-less select has no steps and takes the
  // depth-first path in both modes); its non-aggregate selects may split
  // the leading scan across the pool.
  Status Traverse(Relation* out) {
    const bool breadth_first = mode_ == SqlMode::kVectorized && !plan_.empty();
    if (breadth_first && !aggregate_) return TraverseChunks(out);
    Worker w = NewWorker();
    if (breadth_first) {
      // Single chunk: chunked accumulation would re-associate float sums
      // and break the bit-identical-to-serial contract.
      RAQLET_RETURN_IF_ERROR(
          BreadthFirst(LeadScanBegin(), LeadScanEnd(), &w));
    } else {
      Bindings b;
      b.rows.assign(tables_.size(), std::vector<uint32_t>(1));
      b.n = 1;
      RAQLET_RETURN_IF_ERROR(DepthFirst(0, &b, &w));
    }
    Fold(w, /*first_chunk=*/true);
    if (aggregate_) StageGroups(&w);
    return Merge(&w.out, out);
  }

  struct BoundTable {
    std::string alias;
    const Relation* relation = nullptr;
  };

  Status Bind() {
    for (const TableRef& ref : select_.from) {
      RAQLET_ASSIGN_OR_RETURN(const Relation* rel, resolver_(ref.table));
      tables_.push_back(BoundTable{ref.alias, rel});
      alias_index_[ref.alias] = tables_.size() - 1;
    }
    bool any_agg = false;
    for (const SelectItem& item : select_.items) {
      any_agg |= item.expr.kind == Expr::kAgg;
    }
    if (!select_.group_by.empty() && !any_agg) {
      return Status::Internal("aggregation context without aggregate item");
    }
    aggregate_ = any_agg;
    return Status::OK();
  }

  // Resolves `e` against the bound tables and interns its constants, so
  // evaluation never looks a column up by name or mutates the symbol
  // table (worker threads evaluate concurrently).
  Result<Operand> Compile(const Expr& e) const {
    Operand op;
    op.kind = e.kind;
    switch (e.kind) {
      case Expr::kColumn: {
        auto it = alias_index_.find(e.table);
        if (it == alias_index_.end()) {
          return Status::Internal("unbound alias " + e.table);
        }
        const Relation* rel = tables_[it->second].relation;
        int col = rel->schema().ColumnIndex(e.column);
        if (col < 0) {
          return Status::NotFound("no column " + e.column + " in " + e.table);
        }
        op.table = it->second;
        op.column = rel->Column(static_cast<size_t>(col));
        return op;
      }
      case Expr::kConst:
        op.value = ConstantToValue(e.constant, &db_->symbols());
        return op;
      case Expr::kArith:
        op.op = e.op;
        for (const Expr& child : e.children) {
          RAQLET_ASSIGN_OR_RETURN(Operand c, Compile(child));
          op.children.push_back(std::move(c));
        }
        return op;
      case Expr::kAgg:
        break;
    }
    return Status::Internal("aggregate outside aggregation context");
  }

  Result<Comparison> Compile(const Predicate& pred) const {
    Comparison c;
    c.op = pred.op;
    RAQLET_ASSIGN_OR_RETURN(c.lhs, Compile(pred.lhs));
    RAQLET_ASSIGN_OR_RETURN(c.rhs, Compile(pred.rhs));
    return c;
  }

  // Builds the per-step probe/filter plan. Join order is chosen greedily:
  // the next table is the one with the most equality predicates usable as
  // index probes given the tables already joined (ties: smaller relation)
  // — this avoids the cross products a literal FROM-order join would
  // build for star-shaped rule bodies.
  Status Plan() {
    std::vector<bool> used(select_.where.size(), false);
    std::vector<bool> placed(tables_.size(), false);
    std::set<std::string> bound;

    // Alias-free (constant-only) predicates can't be attached to a join
    // step — with an empty FROM list there are no steps at all — so they
    // are evaluated exactly once up front.
    for (size_t p = 0; p < select_.where.size(); ++p) {
      const Predicate& pred = select_.where[p];
      if (!ReadsOnly(pred, bound)) continue;
      RAQLET_ASSIGN_OR_RETURN(Comparison f, Compile(pred));
      Bindings unit;  // one binding of no table
      unit.n = 1;
      Worker w;
      RAQLET_RETURN_IF_ERROR(Test(f, unit, &w));
      if (w.keep[0] == 0) trivially_false_ = true;
      used[p] = true;
    }

    auto probe_score = [&](size_t candidate) {
      const std::string& alias = tables_[candidate].alias;
      int score = 0;
      for (size_t p = 0; p < select_.where.size(); ++p) {
        if (used[p]) continue;
        const Predicate& pred = select_.where[p];
        if (pred.op != dlir::CmpOp::kEq) continue;
        if (CanProbe(pred.lhs, pred.rhs, alias, bound) ||
            CanProbe(pred.rhs, pred.lhs, alias, bound)) {
          ++score;
        }
      }
      return score;
    };

    const bool forced_lead = delta_end_ != kNoDelta;
    std::vector<size_t> prior;
    for (size_t n = 0; n < tables_.size(); ++n) {
      size_t i = 0;
      bool chosen = false;
      if (n == 0 && forced_lead) {
        // Semi-naive delta scan: the recursive table leads uncondition-
        // ally so its scan range can be restricted to the last round's
        // suffix.
        for (size_t candidate = 0; candidate < tables_.size(); ++candidate) {
          if (tables_[candidate].relation == lead_scan_) {
            i = candidate;
            chosen = true;
            break;
          }
        }
      }
      if (!chosen) {
        int best_score = -1;
        size_t best_size = 0;
        for (size_t candidate = 0; candidate < tables_.size(); ++candidate) {
          if (placed[candidate]) continue;
          int score = probe_score(candidate);
          size_t size = tables_[candidate].relation->size();
          if (score > best_score ||
              (score == best_score && size < best_size)) {
            i = candidate;
            best_score = score;
            best_size = size;
          }
        }
      }
      placed[i] = true;

      StepPlan step;
      step.table_index = i;
      step.rel = tables_[i].relation;
      step.prior = prior;
      const std::string& alias = tables_[i].alias;
      // Probes: eq predicates with a bare column of this table on one side
      // and the other side computable from earlier tables/constants. The
      // forced delta step takes none (a probe would bypass the scan-range
      // restriction); its eq predicates become step-0 filters instead.
      std::vector<int> probe_cols;
      std::vector<const Expr*> key_exprs;
      for (size_t p = 0;
           !(forced_lead && n == 0) && p < select_.where.size(); ++p) {
        if (used[p]) continue;
        const Predicate& pred = select_.where[p];
        if (pred.op != dlir::CmpOp::kEq) continue;
        auto try_probe = [&](const Expr& col_side, const Expr& key_side) {
          if (!CanProbe(col_side, key_side, alias, bound)) return false;
          int col = step.rel->schema().ColumnIndex(col_side.column);
          if (col < 0) return false;
          probe_cols.push_back(col);
          key_exprs.push_back(&key_side);
          return true;
        };
        if (try_probe(pred.lhs, pred.rhs) || try_probe(pred.rhs, pred.lhs)) {
          used[p] = true;
        }
      }
      for (const Expr* key : key_exprs) {
        RAQLET_ASSIGN_OR_RETURN(Operand op, Compile(*key));
        step.probe_keys.push_back(std::move(op));
      }
      // Prebuilt (thread-safe EnsureIndex, before any worker runs) so the
      // join loops only ever probe.
      if (!probe_cols.empty()) step.index = step.rel->EnsureIndex(probe_cols);
      bound.insert(alias);
      prior.push_back(i);
      // Filters: everything now fully bound.
      for (size_t p = 0; p < select_.where.size(); ++p) {
        if (used[p] || !ReadsOnly(select_.where[p], bound)) continue;
        RAQLET_ASSIGN_OR_RETURN(Comparison f, Compile(select_.where[p]));
        step.filters.push_back(std::move(f));
        used[p] = true;
      }
      plan_.push_back(std::move(step));
    }
    for (size_t p = 0; p < select_.where.size(); ++p) {
      if (!used[p]) {
        return Status::Internal("predicate references unknown alias: " +
                                select_.where[p].ToString());
      }
    }

    // Resolve NOT EXISTS anti-joins once, up front.
    for (const NotExists& ne : select_.not_exists) {
      NePlan plan;
      RAQLET_ASSIGN_OR_RETURN(plan.rel, resolver_(ne.table));
      std::vector<int> cols;
      for (const auto& [column, expr] : ne.equalities) {
        int col = plan.rel->schema().ColumnIndex(column);
        if (col < 0) {
          return Status::NotFound("no column " + column + " in " + ne.table);
        }
        cols.push_back(col);
        RAQLET_ASSIGN_OR_RETURN(Operand key, Compile(expr));
        plan.keys.push_back(std::move(key));
      }
      if (!cols.empty()) plan.index = plan.rel->EnsureIndex(cols);
      ne_plans_.push_back(std::move(plan));
    }

    // Select items: the projected (or grouping) expressions and, under
    // aggregation, each aggregate's argument (none for count(*)).
    for (const SelectItem& item : select_.items) {
      if (item.expr.kind != Expr::kAgg) {
        RAQLET_ASSIGN_OR_RETURN(Operand op, Compile(item.expr));
        keys_.push_back(std::move(op));
      } else if (item.expr.children.empty()) {
        agg_args_.emplace_back(std::nullopt);
      } else {
        RAQLET_ASSIGN_OR_RETURN(Operand op, Compile(item.expr.children[0]));
        agg_args_.emplace_back(std::move(op));
      }
    }
    return Status::OK();
  }

  // ---------------------------------------------------------------------
  // The pipeline's operators, each over a unit of n bindings
  // ---------------------------------------------------------------------

  // Appends the value of `e` in each binding of `b` to `out`.
  static Status Eval(const Operand& e, const Bindings& b,
                     std::vector<Value>* out) {
    switch (e.kind) {
      case Expr::kColumn: {
        const uint32_t* rows = b.rows[e.table].data();
        for (size_t i = 0; i < b.n; ++i) out->push_back(e.column.at(rows[i]));
        return Status::OK();
      }
      case Expr::kArith: {
        std::vector<Value> lhs;
        std::vector<Value> rhs;
        RAQLET_RETURN_IF_ERROR(Eval(e.children[0], b, &lhs));
        RAQLET_RETURN_IF_ERROR(Eval(e.children[1], b, &rhs));
        for (size_t i = 0; i < b.n; ++i) {
          RAQLET_ASSIGN_OR_RETURN(Value v, EvalArith(e.op, lhs[i], rhs[i]));
          out->push_back(v);
        }
        return Status::OK();
      }
      default:
        out->insert(out->end(), b.n, e.value);
        return Status::OK();
    }
  }

  // Scratch column k of `w`, emptied.
  static std::vector<Value>* Scratch(size_t k, Worker* w) {
    if (w->cols.size() <= k) w->cols.resize(k + 1);
    w->cols[k].clear();
    return &w->cols[k];
  }

  // Evaluates `ops` over `b` into the scratch columns [0, ops.size()).
  static Status EvalAll(const std::vector<Operand>& ops, const Bindings& b,
                        Worker* w) {
    for (size_t k = 0; k < ops.size(); ++k) {
      RAQLET_RETURN_IF_ERROR(Eval(ops[k], b, Scratch(k, w)));
    }
    return Status::OK();
  }

  // Binding i's key from the scratch columns w->cols[0, width).
  static const Tuple& KeyAt(size_t i, size_t width, Worker* w) {
    w->key.resize(width);
    for (size_t k = 0; k < width; ++k) w->key[k] = w->cols[k][i];
    return w->key;
  }

  // Sets w->keep[i] to whether `c` holds in binding i of `b`.
  Status Test(const Comparison& c, const Bindings& b, Worker* w) const {
    RAQLET_RETURN_IF_ERROR(Eval(c.lhs, b, Scratch(0, w)));
    RAQLET_RETURN_IF_ERROR(Eval(c.rhs, b, Scratch(1, w)));
    w->keep.resize(b.n);
    for (size_t i = 0; i < b.n; ++i) {
      w->keep[i] = CheckCmp(c.op, w->cols[0][i], w->cols[1][i],
                            db_->symbols());
    }
    return Status::OK();
  }

  // One join step over the unit `b`: calls `visit(i, row)` for every row
  // of step s's table that binding i joins with — the index matches of its
  // probe key, or else each row of the scan range [begin, end).
  template <typename Visit>
  Status Join(size_t s, const Bindings& b, size_t begin, size_t end,
              Worker* w, Visit visit) const {
    const StepPlan& step = plan_[s];
    const size_t n = b.n;  // a depth-first visit rebinds `b`
    if (!w->steps.empty()) {
      obs::SqlStepMetrics& sm = w->steps[s];
      ++sm.batches;
      sm.rows_in += n;
      if (step.index != nullptr) sm.probes += n;
    }
    if (step.index == nullptr) {
      end = std::min(end, step.rel->size());
      for (size_t i = 0; i < n; ++i) {
        for (size_t row = begin; row < end; ++row) {
          RAQLET_RETURN_IF_ERROR(visit(i, static_cast<uint32_t>(row)));
        }
      }
      return Status::OK();
    }
    RAQLET_RETURN_IF_ERROR(EvalAll(step.probe_keys, b, w));
    for (size_t i = 0; i < n; ++i) {
      auto it = step.index->find(KeyAt(i, step.probe_keys.size(), w));
      if (it == step.index->end()) continue;
      for (uint32_t row : it->second) RAQLET_RETURN_IF_ERROR(visit(i, row));
    }
    return Status::OK();
  }

  // The filter step: counts step s's matches, bound in `b`, and keeps the
  // bindings that pass each of the step's filters in turn.
  Status Filter(size_t s, Bindings* b, Worker* w) const {
    obs::SqlStepMetrics* sm = w->steps.empty() ? nullptr : &w->steps[s];
    w->rows_scanned += b->n;
    if (sm != nullptr) sm->rows_matched += b->n;
    for (const Comparison& c : plan_[s].filters) {
      if (b->n == 0) break;
      RAQLET_RETURN_IF_ERROR(Test(c, *b, w));
      Compact(w->keep, b);
    }
    if (sm != nullptr) sm->rows_out += b->n;
    return Status::OK();
  }

  // The end of the pipeline: the NOT EXISTS probe drops every binding
  // whose key a NOT EXISTS table holds, then the survivors are projected
  // into the staged output columns or accumulated into the groups.
  Status Finish(Bindings* b, Worker* w) const {
    for (const NePlan& ne : ne_plans_) {
      if (b->n == 0) return Status::OK();
      if (ne.index == nullptr) {
        if (!ne.rel->empty()) b->n = 0;
        continue;
      }
      RAQLET_RETURN_IF_ERROR(EvalAll(ne.keys, *b, w));
      w->keep.resize(b->n);
      for (size_t i = 0; i < b->n; ++i) {
        w->keep[i] =
            ne.index->find(KeyAt(i, ne.keys.size(), w)) == ne.index->end();
      }
      Compact(w->keep, b);
    }
    if (!aggregate_) {
      for (size_t j = 0; j < keys_.size(); ++j) {
        RAQLET_RETURN_IF_ERROR(Eval(keys_[j], *b, &w->out[j]));
      }
      return Status::OK();
    }
    // Accumulate: group keys in w->cols[0, nk), aggregate arguments after.
    const size_t nk = keys_.size();
    RAQLET_RETURN_IF_ERROR(EvalAll(keys_, *b, w));
    for (size_t a = 0; a < agg_args_.size(); ++a) {
      std::vector<Value>* arg = Scratch(nk + a, w);
      if (agg_args_[a].has_value()) {
        RAQLET_RETURN_IF_ERROR(Eval(*agg_args_[a], *b, arg));
      }
    }
    for (size_t i = 0; i < b->n; ++i) {
      std::vector<AggState>& states = w->groups[KeyAt(i, nk, w)];
      states.resize(agg_args_.size());
      for (size_t a = 0; a < agg_args_.size(); ++a) {
        AggState& state = states[a];
        state.count += 1;
        if (!agg_args_[a].has_value()) continue;
        const Value& v = w->cols[nk + a][i];
        state.any_float |= v.kind() == ValueType::kFloat;
        state.sum += v.NumericValue();
        if (!state.min.has_value() ||
            CompareValues(v, *state.min, db_->symbols()) < 0) {
          state.min = v;
        }
        if (!state.max.has_value() ||
            CompareValues(v, *state.max, db_->symbols()) > 0) {
          state.max = v;
        }
      }
    }
    return Status::OK();
  }

  // ---------------------------------------------------------------------
  // Traversal orders
  // ---------------------------------------------------------------------

  // Tuple pipeline: depth-first from step s over a unit of one binding,
  // rebinding step s's table in place for each of its matches.
  Status DepthFirst(size_t s, Bindings* b, Worker* w) const {
    if (s == plan_.size()) {
      RAQLET_RETURN_IF_ERROR(Finish(b, w));
      // The guard poll amortizes to one relaxed load per kChunkRows
      // emitted rows, the vectorized pipeline's per-chunk cadence.
      if (guard_ != nullptr && !aggregate_ &&
          (w->since_poll += b->n) >= kChunkRows) {
        w->since_poll = 0;
        return guard_->Check();
      }
      return Status::OK();
    }
    const bool lead = s == 0;
    const size_t table = plan_[s].table_index;
    return Join(s, *b, lead ? LeadScanBegin() : 0,
                lead ? LeadScanEnd() : plan_[s].rel->size(), w,
                [&](size_t, uint32_t row) -> Status {
                  b->rows[table][0] = row;
                  Status status = Filter(s, b, w);
                  if (status.ok() && b->n == 1) {
                    status = DepthFirst(s + 1, b, w);
                  }
                  b->n = 1;  // a filter or NOT EXISTS may have dropped it
                  return status;
                });
  }

  // Vectorized pipeline: breadth-first over rows [begin, end) of the
  // leading scan (ignored by a probing first step). The whole batch of
  // bindings advances one step at a time: each match extends a copy of
  // its binding's row indexes, gathered once per step.
  Status BreadthFirst(size_t begin, size_t end, Worker* w) const {
    Bindings b;
    b.rows.resize(tables_.size());
    b.n = 1;  // one binding of no table yet
    for (size_t s = 0; s < plan_.size(); ++s) {
      const StepPlan& step = plan_[s];
      Bindings next;
      next.rows.resize(tables_.size());
      std::vector<uint32_t>& rows = next.rows[step.table_index];
      std::vector<uint32_t> src;  // the binding each match extends
      RAQLET_RETURN_IF_ERROR(Join(
          s, b, s == 0 ? begin : 0, s == 0 ? end : step.rel->size(), w,
          [&](size_t i, uint32_t row) {
            src.push_back(static_cast<uint32_t>(i));
            rows.push_back(row);
            return Status::OK();
          }));
      next.n = rows.size();
      for (size_t t : step.prior) {
        next.rows[t].resize(next.n);
        for (size_t k = 0; k < next.n; ++k) {
          next.rows[t][k] = b.rows[t][src[k]];
        }
      }
      RAQLET_RETURN_IF_ERROR(Filter(s, &next, w));
      b = std::move(next);
      if (b.n == 0) return Status::OK();
    }
    return Finish(&b, w);
  }

  // Non-aggregate vectorized driver: one chunk when serial, otherwise the
  // leading scan is partitioned across the pool and per-chunk outputs
  // merge in chunk order — identical rows and row order to the serial
  // run.
  Status TraverseChunks(Relation* out) {
    const size_t scan_begin = LeadScanBegin();
    const size_t scan_end = LeadScanEnd();
    const size_t scan_rows = scan_end - scan_begin;
    size_t nchunks = 1;
    if (pool_ != nullptr && plan_.front().index == nullptr) {
      const size_t max_chunks = static_cast<size_t>(pool_->num_threads()) * 4;
      nchunks = std::clamp<size_t>(scan_rows / kChunkRows, 1, max_chunks);
    }
    const size_t per_chunk = (scan_rows + nchunks - 1) / nchunks;
    std::vector<Worker> workers;
    for (size_t c = 0; c < nchunks; ++c) workers.push_back(NewWorker());
    std::vector<Status> chunk_status(nchunks);
    auto run_chunk = [&](size_t c) {
      if (guard_ != nullptr) {
        chunk_status[c] = guard_->Check();
        if (!chunk_status[c].ok()) return;
      }
      const size_t begin = scan_begin + c * per_chunk;
      const size_t end = std::min(scan_end, begin + per_chunk);
      // The first chunk always runs: it carries the leading step's entry.
      if (c > 0 && begin >= end) return;
      chunk_status[c] = BreadthFirst(begin, end, &workers[c]);
    };
    if (nchunks == 1) {
      run_chunk(0);
    } else {
      pool_->ParallelFor(nchunks, run_chunk, guard_);
    }
    for (const Status& status : chunk_status) {
      RAQLET_RETURN_IF_ERROR(status);
    }
    // Chunks skipped by a tripped guard left OK statuses and empty
    // outputs; report the trip rather than merging a partial result.
    if (nchunks > 1 && guard_ != nullptr && guard_->tripped()) {
      return guard_->TripStatus();
    }
    for (size_t c = 0; c < nchunks; ++c) {
      Fold(workers[c], c == 0);
      RAQLET_RETURN_IF_ERROR(Merge(&workers[c].out, out));
    }
    return Status::OK();
  }

  // ---------------------------------------------------------------------
  // Worker state and output
  // ---------------------------------------------------------------------

  Worker NewWorker() const {
    Worker w;
    if (cte_metrics_ != nullptr) w.steps.resize(plan_.size());
    w.out.resize(select_.items.size());
    return w;
  }

  // Folds a finished traversal's counters into SqlStats and the CTE sink.
  // Step counters are keyed by relation name in first-seen order
  // (branches of one CTE plan different join orders, so position alone is
  // not a stable key). Every parallel chunk's leading step reads the same
  // unit seed binding: count it once per evaluation, as the serial
  // pipeline does.
  void Fold(const Worker& w, bool first_chunk) {
    if (stats_ != nullptr) stats_->rows_scanned += w.rows_scanned;
    for (size_t s = 0; s < w.steps.size(); ++s) {
      const std::string& relation = plan_[s].rel->schema().name;
      auto it = std::find_if(cte_metrics_->steps.begin(),
                             cte_metrics_->steps.end(),
                             [&](const obs::SqlStepMetrics& m) {
                               return m.relation == relation;
                             });
      if (it == cte_metrics_->steps.end()) {
        cte_metrics_->steps.emplace_back();
        cte_metrics_->steps.back().relation = relation;
        it = cte_metrics_->steps.end() - 1;
      }
      obs::SqlStepMetrics& dst = *it;
      const obs::SqlStepMetrics& src = w.steps[s];
      dst.batches += src.batches;
      if (s > 0 || first_chunk) dst.rows_in += src.rows_in;
      dst.probes += src.probes;
      dst.rows_matched += src.rows_matched;
      dst.rows_out += src.rows_out;
    }
  }

  // Merges staged output columns into `out` after the traversal's reads
  // finished, through the relation's columnar dedup.
  Status Merge(std::vector<std::vector<Value>>* cols, Relation* out) {
    const size_t staged = cols->empty() ? 0 : cols->front().size();
    RAQLET_ASSIGN_OR_RETURN(size_t inserted, out->InsertColumns(cols));
    if (cte_metrics_ != nullptr) {
      cte_metrics_->dedup_attempts += staged;
      cte_metrics_->dedup_inserted += inserted;
    }
    return Status::OK();
  }

  // Stages one output row per group, in group-key order: the grouping
  // items and the final aggregate values in item order. A group whose
  // min/max never saw an argument is skipped.
  void StageGroups(Worker* w) const {
    Tuple row(select_.items.size());
    for (const auto& [key, states] : w->groups) {
      size_t ki = 0;
      size_t ai = 0;
      bool skip = false;
      for (size_t j = 0; j < select_.items.size() && !skip; ++j) {
        const Expr& e = select_.items[j].expr;
        if (e.kind != Expr::kAgg) {
          row[j] = key[ki++];
          continue;
        }
        std::optional<Value> v = FinalizeAgg(e, states[ai++]);
        skip = !v.has_value();
        if (!skip) row[j] = *v;
      }
      if (skip) continue;
      for (size_t j = 0; j < row.size(); ++j) w->out[j].push_back(row[j]);
    }
  }

  // Final value of one aggregate; nullopt means "skip this group" (min/max
  // of an aggregate that never saw an argument).
  static std::optional<Value> FinalizeAgg(const Expr& agg_expr,
                                          const AggState& state) {
    switch (agg_expr.agg) {
      case dlir::AggFunc::kCount:
        return Value::Number(state.count);
      case dlir::AggFunc::kSum:
        return state.any_float
                   ? Value::Float(state.sum)
                   : Value::Number(static_cast<int64_t>(state.sum));
      case dlir::AggFunc::kMin:
        return state.min;
      case dlir::AggFunc::kMax:
        return state.max;
      case dlir::AggFunc::kAvg:
        return Value::Float(state.count == 0
                                ? 0.0
                                : state.sum /
                                      static_cast<double>(state.count));
    }
    return std::nullopt;
  }

  // Leading-scan range: the delta suffix when semi-naive, else the whole
  // table.
  size_t LeadScanBegin() const {
    return delta_end_ != kNoDelta ? delta_begin_ : 0;
  }
  size_t LeadScanEnd() const {
    return delta_end_ != kNoDelta ? delta_end_ : plan_.front().rel->size();
  }

  const Select& select_;
  const TableResolver& resolver_;
  Database* db_;
  SqlMode mode_;
  SqlStats* stats_;
  runtime::ThreadPool* pool_;
  const Relation* lead_scan_;
  size_t delta_begin_;
  size_t delta_end_;  // kNoDelta: no scan-range restriction
  obs::SqlCteMetrics* cte_metrics_;  // per-CTE sink (may be null)
  const runtime::QueryGuard* guard_;  // cooperative guard (may be null)

  std::vector<BoundTable> tables_;
  std::map<std::string, size_t> alias_index_;
  std::vector<StepPlan> plan_;
  std::vector<NePlan> ne_plans_;
  bool aggregate_ = false;
  bool trivially_false_ = false;
  // The non-aggregate select items (the projection, or the group key
  // under aggregation) and each aggregate item's argument, in item order.
  std::vector<Operand> keys_;
  std::vector<std::optional<Operand>> agg_args_;
};

// Best-effort static type of a select expression, resolving column
// references through the branch's FROM list.
ValueType InferExprType(const Expr& e, const Select& select,
                        const TableResolver& resolver) {
  switch (e.kind) {
    case Expr::kColumn: {
      for (const TableRef& ref : select.from) {
        if (ref.alias != e.table) continue;
        Result<const Relation*> rel = resolver(ref.table);
        if (!rel.ok()) break;
        int col = (*rel)->schema().ColumnIndex(e.column);
        if (col >= 0) return (*rel)->schema().columns[col].type;
        break;
      }
      return ValueType::kNumber;
    }
    case Expr::kConst:
      return e.constant.type;
    case Expr::kArith: {
      ValueType lhs = InferExprType(e.children[0], select, resolver);
      ValueType rhs = InferExprType(e.children[1], select, resolver);
      return (lhs == ValueType::kFloat || rhs == ValueType::kFloat)
                 ? ValueType::kFloat
                 : ValueType::kNumber;
    }
    case Expr::kAgg:
      switch (e.agg) {
        case dlir::AggFunc::kCount:
          return ValueType::kNumber;
        case dlir::AggFunc::kAvg:
          return ValueType::kFloat;
        default:
          return e.children.empty()
                     ? ValueType::kNumber
                     : InferExprType(e.children[0], select, resolver);
      }
  }
  return ValueType::kNumber;
}

// Column types come from the SQIR plan metadata when present (the DLIR
// declaration's types), otherwise they are inferred from the first base
// branch's select items; kNumber is the last-resort default.
RelationSchema CteSchema(const Cte& cte,
                         const std::vector<const Select*>& base,
                         const TableResolver& resolver) {
  RelationSchema schema;
  schema.name = cte.name;
  const bool typed =
      cte.column_types.size() == cte.columns.size() && !cte.columns.empty();
  const Select* infer_from =
      (!typed && !base.empty() &&
       base.front()->items.size() == cte.columns.size())
          ? base.front()
          : nullptr;
  for (size_t i = 0; i < cte.columns.size(); ++i) {
    ValueType type = ValueType::kNumber;
    if (typed) {
      type = cte.column_types[i];
    } else if (infer_from != nullptr) {
      type = InferExprType(infer_from->items[i].expr, *infer_from, resolver);
    }
    schema.columns.push_back(Column{cte.columns[i], type});
  }
  return schema;
}

}  // namespace

SqlEngine::SqlEngine(SqlOptions options) : options_(options) {
  if (options_.num_threads > 1) {
    context_ =
        std::make_unique<runtime::ExecutionContext>(options_.num_threads);
  }
}

Result<ResultTable> SqlEngine::Run(const SqirProgram& program, Database* db,
                                   SqlStats* stats, obs::SqlMetrics* metrics,
                                   const runtime::QueryGuard* guard) const {
  obs::TraceScope run_span("sql.run");
  std::map<std::string, std::unique_ptr<Relation>> cte_store;
  runtime::ThreadPool* pool =
      context_ != nullptr ? context_->pool() : nullptr;

  TableResolver resolver =
      [&](const std::string& name) -> Result<const Relation*> {
    auto it = cte_store.find(name);
    if (it != cte_store.end()) return it->second.get();
    RAQLET_ASSIGN_OR_RETURN(const Relation* rel, db->GetRelation(name));
    return rel;
  };

  for (size_t cte_index = 0; cte_index < program.ctes.size(); ++cte_index) {
    const Cte& cte = program.ctes[cte_index];
    obs::TraceScope cte_span("sql.cte", static_cast<int64_t>(cte_index));
    obs::SqlCteMetrics* cm = nullptr;
    if (metrics != nullptr) {
      metrics->ctes.emplace_back();
      cm = &metrics->ctes.back();
      cm->name = cte.name;
    }
    // Partition branches: a branch is recursive iff it references the CTE
    // itself in its FROM list. A self-reference through NOT EXISTS is
    // non-monotonic recursion, which SQL:1999 forbids — reject it rather
    // than silently resolving against a same-named base table.
    std::vector<const Select*> base;
    std::vector<const Select*> recursive;
    for (const Select& branch : cte.branches) {
      bool self_ref = false;
      for (const TableRef& ref : branch.from) {
        if (ref.table == cte.name) self_ref = true;
      }
      for (const NotExists& ne : branch.not_exists) {
        if (ne.table == cte.name) {
          return Status::Unsupported(
              "CTE '" + cte.name +
              "' references itself inside NOT EXISTS; non-monotonic "
              "recursion is not supported");
        }
      }
      (self_ref ? recursive : base).push_back(&branch);
    }
    if (!recursive.empty() && !cte.recursive) {
      return Status::InvalidArgument("CTE '" + cte.name +
                                     "' is self-referencing but not marked "
                                     "recursive");
    }

    RelationSchema schema = CteSchema(cte, base, resolver);
    auto rel = std::make_unique<Relation>(schema);

    RAQLET_FAILPOINT("sql.cte_merge");

    // Guard checkpoints: poll before each materialization step, and feed
    // the budget the CTE's row/byte growth at round boundaries — the same
    // deterministic counters at every thread count.
    size_t rows_seen = 0;
    size_t bytes_seen = 0;
    auto guard_checkpoint = [&]() -> Status {
      if (guard == nullptr) return Status::OK();
      size_t rows_now = rel->size();
      RAQLET_RETURN_IF_ERROR(guard->AddRows(rows_now - rows_seen));
      rows_seen = rows_now;
      if (guard->max_bytes() > 0) {
        size_t bytes_now = rel->MemoryBytes();
        size_t delta = bytes_now > bytes_seen ? bytes_now - bytes_seen : 0;
        bytes_seen = bytes_now;
        RAQLET_RETURN_IF_ERROR(guard->AddBytes(delta));
      }
      return guard->Check();
    };

    for (const Select* branch : base) {
      if (guard != nullptr) RAQLET_RETURN_IF_ERROR(guard->Check());
      SelectEvaluator eval(*branch, resolver, db, options_.mode, stats,
                           pool, nullptr, 0, SelectEvaluator::kNoDelta, cm,
                           guard);
      RAQLET_RETURN_IF_ERROR(eval.Evaluate(rel.get()));
    }
    RAQLET_RETURN_IF_ERROR(guard_checkpoint());

    if (!recursive.empty()) {
      if (cm != nullptr) cm->recursive = true;
      // Linear recursion only (each recursive branch names the CTE once,
      // as TranslateToSqir requires): the working table is then the suffix
      // of `rel` appended last round, scanned in place by both modes — no
      // per-round copy, no re-deduplication. A second reference would
      // have to read the whole total, which the delta scan cannot give.
      for (const Select* branch : recursive) {
        size_t refs = 0;
        for (const TableRef& ref : branch->from) {
          if (ref.table == cte.name) ++refs;
        }
        if (refs != 1) {
          return Status::Unsupported(
              "recursive CTE '" + cte.name +
              "' is referenced more than once in one branch; non-linear "
              "recursion is not supported");
        }
      }

      TableResolver rec_resolver =
          [&](const std::string& name) -> Result<const Relation*> {
        if (name == cte.name) return rel.get();
        return resolver(name);
      };
      size_t iterations = 0;
      size_t delta_begin = 0;
      size_t delta_end = rel->size();
      while (delta_begin < delta_end) {
        ++iterations;
        if (stats != nullptr) ++stats->recursive_iterations;
        if (cm != nullptr) ++cm->iterations;
        obs::TraceScope round_span("sql.round",
                                   static_cast<int64_t>(iterations));
        // All branches of a round see the same delta; rows a branch
        // appends join in the next round (SQL:1999 working-table
        // semantics). Rows appended during the round land past
        // `delta_end`, outside the scanned range, and each branch finishes
        // its reads before its output merges.
        for (const Select* branch : recursive) {
          SelectEvaluator eval(*branch, rec_resolver, db, options_.mode,
                               stats, pool, rel.get(), delta_begin,
                               delta_end, cm, guard);
          RAQLET_RETURN_IF_ERROR(eval.Evaluate(rel.get()));
        }
        RAQLET_RETURN_IF_ERROR(guard_checkpoint());
        delta_begin = delta_end;
        delta_end = rel->size();
      }
    }

    if (stats != nullptr) stats->rows_materialized += rel->size();
    if (cm != nullptr) cm->rows = rel->size();
    cte_store.emplace(cte.name, std::move(rel));
  }

  // Final select.
  RelationSchema out_schema;
  out_schema.name = "__result__";
  for (const sqir::SelectItem& item : program.final_select.items) {
    out_schema.columns.push_back(
        Column{item.alias,
               InferExprType(item.expr, program.final_select, resolver)});
  }
  ResultTable result;
  for (const Column& col : out_schema.columns) {
    result.columns.push_back(col.name);
    result.column_types.push_back(col.type);
  }

  obs::SqlCteMetrics* final_cm = nullptr;
  if (metrics != nullptr) {
    metrics->ctes.emplace_back();
    final_cm = &metrics->ctes.back();
    final_cm->name = "__result__";
  }

  // Identity fast path: the shape every translated program ends with —
  // SELECT (DISTINCT) every column of one table, in order, with no
  // predicates — returns the source rows directly. They are already
  // distinct (relations are sets) and already in the order the evaluator
  // would produce, so this skips a full re-deduplication of the result.
  const Select& fs = program.final_select;
  if (fs.from.size() == 1 && fs.where.empty() && fs.not_exists.empty() &&
      fs.group_by.empty()) {
    Result<const Relation*> src = resolver(fs.from[0].table);
    if (src.ok() && fs.items.size() == (*src)->schema().columns.size()) {
      bool identity = true;
      for (size_t i = 0; i < fs.items.size(); ++i) {
        const sqir::Expr& e = fs.items[i].expr;
        if (e.kind != sqir::Expr::kColumn || e.table != fs.from[0].alias ||
            (*src)->schema().ColumnIndex(e.column) != static_cast<int>(i)) {
          identity = false;
          break;
        }
      }
      if (identity) {
        if (stats != nullptr) stats->rows_scanned += (*src)->size();
        if (final_cm != nullptr) final_cm->rows = (*src)->size();
        result.rows = (*src)->MaterializeRows();
        return result;
      }
    }
  }

  Relation out_rel(out_schema);
  SelectEvaluator eval(program.final_select, resolver, db, options_.mode,
                       stats, pool, nullptr, 0, SelectEvaluator::kNoDelta,
                       final_cm, guard);
  RAQLET_RETURN_IF_ERROR(eval.Evaluate(&out_rel));
  if (guard != nullptr) {
    RAQLET_RETURN_IF_ERROR(guard->AddRows(out_rel.size()));
    RAQLET_RETURN_IF_ERROR(guard->Check());
  }
  if (final_cm != nullptr) final_cm->rows = out_rel.size();
  result.rows = out_rel.MaterializeRows();
  return result;
}

}  // namespace raqlet::engine
