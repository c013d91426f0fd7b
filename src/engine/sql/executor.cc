#include "engine/sql/executor.h"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <unordered_map>
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

void CollectAliases(const Expr& e, std::set<std::string>* aliases) {
  if (e.kind == Expr::kColumn) aliases->insert(e.table);
  for (const Expr& child : e.children) CollectAliases(child, aliases);
}

// One join step of the (shared) plan: scan or probe `table_index`, then
// apply `filters`.
struct ProbeSpec {
  int column = 0;
  const Expr* key_expr = nullptr;  // evaluated against earlier tables
};

struct StepPlan {
  size_t table_index = 0;
  const Relation* rel = nullptr;
  std::vector<ProbeSpec> probes;
  std::vector<int> probe_cols;  // probe columns, prebuilt for the index
  const Relation::KeyIndex* index = nullptr;  // prebuilt when probes exist
  std::vector<const Predicate*> filters;
  // Vectorized metadata: batch slots filled by earlier steps (gathered
  // through the match selection on extension) and the (relation column,
  // slot) pairs this step's table materializes.
  std::vector<size_t> prior_slots;
  std::vector<std::pair<int, size_t>> new_cols;
  // Zero-copy views of every column of `rel`, borrowed at plan time.
  // Valid for the whole evaluation: the only relation mutated during it is
  // the output, and merges happen after the pipeline's reads complete.
  std::vector<Relation::ColumnView> rel_cols;
};

// Prebuilt NOT EXISTS anti-join: resolved relation, key columns, index.
struct NePlan {
  const NotExists* ne = nullptr;
  const Relation* rel = nullptr;
  std::vector<int> cols;
  const Relation::KeyIndex* index = nullptr;  // null when cols is empty
};

// One column of intermediate join bindings: either values the pipeline
// owns (gathered through a match selection or computed) or a zero-copy
// view borrowed straight from a Relation's column storage (the leading
// full-table scan). The flag is explicit — an empty owned vector is a
// legal filled column of zero rows, not a view marker.
struct BatchColumn {
  std::vector<Value> owned;
  Relation::ColumnView view;
  bool is_view = false;
  size_t size() const { return is_view ? view.size() : owned.size(); }
  Value at(size_t i) const { return is_view ? view.at(i) : owned[i]; }
  void clear() {
    owned.clear();
    view = Relation::ColumnView();
    is_view = false;
  }
};

// Columnar batch of intermediate join bindings: one column per referenced
// table column (assigned a dense "slot"), rows are implicit. Slots of
// tables not yet joined hold unfilled (zero-size, non-view) columns.
struct Batch {
  std::vector<BatchColumn> cols;  // indexed by slot
  size_t rows = 0;
};

// An expression evaluated over a Batch: either a borrowed batch column
// (one value per batch row) or a broadcast scalar. `at` re-boxes by value
// — the underlying column may be an unboxed storage view.
struct BatchCol {
  const BatchColumn* col = nullptr;
  Value scalar;
  Value at(size_t i) const { return col != nullptr ? col->at(i) : scalar; }
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
    // Per-step accumulators exist only when a sink is attached, so the
    // hot loops' null checks keep the metrics-off path counter-free.
    if (cte_metrics_ != nullptr) {
      step_totals_.assign(plan_.size(), obs::SqlStepMetrics{});
      for (size_t s = 0; s < plan_.size(); ++s) {
        step_totals_[s].relation = plan_[s].rel->schema().name;
      }
    }
    Status status = EvaluateDispatch(out);
    if (status.ok()) MergeStepMetrics();
    return status;
  }

 private:
  Status EvaluateDispatch(Relation* out) {
    if (!select_.group_by.empty() || !agg_item_pos_.empty()) {
      return EvaluateWithAggregation(out);
    }
    if (mode_ == SqlMode::kVectorized && !plan_.empty()) {
      return EvaluateVectorized(out);
    }
    // Tuple pipeline (also the trivial no-FROM path of both modes).
    // The guard poll amortizes to one relaxed load per emitted row batch
    // (kChunkRows), matching the vectorized path's per-chunk cadence.
    size_t rows_since_check = 0;
    RowBinding binding(tables_.size(), kUnbound);
    return Descend(0, &binding, [&](const RowBinding& row) -> Status {
      if (guard_ != nullptr && ++rows_since_check >= kChunkRows) {
        rows_since_check = 0;
        RAQLET_RETURN_IF_ERROR(guard_->Check());
      }
      RAQLET_ASSIGN_OR_RETURN(Tuple tuple, Project(row));
      RAQLET_ASSIGN_OR_RETURN(bool fresh, out->Insert(tuple));
      RecordDedup(1, fresh ? 1 : 0);
      return Status::OK();
    });
  }

  // Folds this evaluation's per-step counters into the CTE sink, keyed by
  // relation name in first-seen order (branches of one CTE plan different
  // join orders, so position alone is not a stable key).
  void MergeStepMetrics() {
    if (cte_metrics_ == nullptr) return;
    for (const obs::SqlStepMetrics& step : step_totals_) {
      obs::SqlStepMetrics* dst = nullptr;
      for (obs::SqlStepMetrics& existing : cte_metrics_->steps) {
        if (existing.relation == step.relation) {
          dst = &existing;
          break;
        }
      }
      if (dst == nullptr) {
        cte_metrics_->steps.emplace_back();
        dst = &cte_metrics_->steps.back();
        dst->relation = step.relation;
      }
      dst->batches += step.batches;
      dst->rows_in += step.rows_in;
      dst->probes += step.probes;
      dst->rows_matched += step.rows_matched;
      dst->rows_out += step.rows_out;
    }
  }

  void RecordDedup(size_t attempts, size_t inserted) {
    if (cte_metrics_ == nullptr) return;
    cte_metrics_->dedup_attempts += attempts;
    cte_metrics_->dedup_inserted += inserted;
  }

 private:
  struct BoundTable {
    std::string alias;
    const Relation* relation = nullptr;
  };
  // The tuple pipeline's join state: the row index each table is bound
  // to, kUnbound for tables not yet joined.
  using RowBinding = std::vector<uint32_t>;
  static constexpr uint32_t kUnbound = static_cast<uint32_t>(-1);

  Status Bind() {
    for (const TableRef& ref : select_.from) {
      RAQLET_ASSIGN_OR_RETURN(const Relation* rel, resolver_(ref.table));
      tables_.push_back(BoundTable{ref.alias, rel});
      alias_index_[ref.alias] = tables_.size() - 1;
    }
    for (size_t i = 0; i < select_.items.size(); ++i) {
      if (select_.items[i].expr.kind == Expr::kAgg) {
        agg_item_pos_.push_back(i);
      }
    }
    return Status::OK();
  }

  int ColumnIndex(size_t table_index, const std::string& column) const {
    return tables_[table_index].relation->schema().ColumnIndex(column);
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
    RowBinding no_rows(tables_.size(), kUnbound);
    for (size_t p = 0; p < select_.where.size(); ++p) {
      const Predicate& pred = select_.where[p];
      std::set<std::string> aliases;
      CollectAliases(pred.lhs, &aliases);
      CollectAliases(pred.rhs, &aliases);
      if (!aliases.empty()) continue;
      RAQLET_ASSIGN_OR_RETURN(Value lhs, EvalExpr(pred.lhs, no_rows));
      RAQLET_ASSIGN_OR_RETURN(Value rhs, EvalExpr(pred.rhs, no_rows));
      if (!CheckCmp(pred.op, lhs, rhs, db_->symbols())) {
        trivially_false_ = true;
      }
      used[p] = true;
    }

    auto probe_score = [&](size_t candidate) {
      const std::string& alias = tables_[candidate].alias;
      int score = 0;
      for (size_t p = 0; p < select_.where.size(); ++p) {
        if (used[p]) continue;
        const Predicate& pred = select_.where[p];
        if (pred.op != dlir::CmpOp::kEq) continue;
        auto counts = [&](const Expr& col_side, const Expr& key_side) {
          if (col_side.kind != Expr::kColumn || col_side.table != alias) {
            return false;
          }
          std::set<std::string> key_aliases;
          CollectAliases(key_side, &key_aliases);
          for (const std::string& a : key_aliases) {
            if (bound.count(a) == 0) return false;
          }
          return true;
        };
        if (counts(pred.lhs, pred.rhs) || counts(pred.rhs, pred.lhs)) ++score;
      }
      return score;
    };

    const bool forced_lead = delta_end_ != kNoDelta;
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
      const std::string& alias = tables_[i].alias;
      // Probes: eq predicates with a bare column of this table on one side
      // and the other side computable from earlier tables/constants. The
      // forced delta step takes none (a probe would bypass the scan-range
      // restriction); its eq predicates become step-0 filters instead.
      for (size_t p = 0;
           !(forced_lead && n == 0) && p < select_.where.size(); ++p) {
        if (used[p]) continue;
        const Predicate& pred = select_.where[p];
        if (pred.op != dlir::CmpOp::kEq) continue;
        auto try_probe = [&](const Expr& col_side, const Expr& key_side) {
          if (col_side.kind != Expr::kColumn || col_side.table != alias) {
            return false;
          }
          std::set<std::string> key_aliases;
          CollectAliases(key_side, &key_aliases);
          for (const std::string& a : key_aliases) {
            if (bound.count(a) == 0) return false;
          }
          int col = ColumnIndex(i, col_side.column);
          if (col < 0) return false;
          step.probes.push_back(ProbeSpec{col, &key_side});
          return true;
        };
        if (try_probe(pred.lhs, pred.rhs) || try_probe(pred.rhs, pred.lhs)) {
          used[p] = true;
        }
      }
      bound.insert(alias);
      // Filters: everything now fully bound.
      for (size_t p = 0; p < select_.where.size(); ++p) {
        if (used[p]) continue;
        std::set<std::string> aliases;
        CollectAliases(select_.where[p].lhs, &aliases);
        CollectAliases(select_.where[p].rhs, &aliases);
        bool ready = true;
        for (const std::string& a : aliases) {
          if (bound.count(a) == 0) ready = false;
        }
        if (ready) {
          step.filters.push_back(&select_.where[p]);
          used[p] = true;
        }
      }
      plan_.push_back(std::move(step));
    }
    for (size_t p = 0; p < select_.where.size(); ++p) {
      if (!used[p]) {
        return Status::Internal("predicate references unknown alias: " +
                                select_.where[p].ToString());
      }
    }

    // Prebuild the probe indexes (thread-safe EnsureIndex, called before
    // any worker runs) so the join loops only ever probe.
    for (StepPlan& step : plan_) {
      if (step.probes.empty()) continue;
      for (const ProbeSpec& probe : step.probes) {
        step.probe_cols.push_back(probe.column);
      }
      step.index = step.rel->EnsureIndex(step.probe_cols);
    }

    // Resolve NOT EXISTS anti-joins once, up front.
    for (const NotExists& ne : select_.not_exists) {
      NePlan plan;
      plan.ne = &ne;
      RAQLET_ASSIGN_OR_RETURN(plan.rel, resolver_(ne.table));
      for (const auto& [column, expr] : ne.equalities) {
        (void)expr;
        int col = plan.rel->schema().ColumnIndex(column);
        if (col < 0) {
          return Status::NotFound("no column " + column + " in " + ne.table);
        }
        plan.cols.push_back(col);
      }
      if (!plan.cols.empty()) {
        plan.index = plan.rel->EnsureIndex(plan.cols);
      }
      ne_plans_.push_back(std::move(plan));
    }

    PreinternConstants();

    if (mode_ == SqlMode::kVectorized && !plan_.empty()) {
      // Borrow every table's column storage once, up front (cheap view
      // handles; see the Relation borrowing contract). The pipeline reads
      // finish before results merge into the output relation, so the
      // views stay valid even when a recursive CTE scans itself.
      for (StepPlan& step : plan_) {
        step.rel_cols.reserve(step.rel->arity());
        for (size_t c = 0; c < step.rel->arity(); ++c) {
          step.rel_cols.push_back(step.rel->Column(c));
        }
      }
      return BuildBatchSlots();
    }
    return Status::OK();
  }

  // Interns every constant of the SELECT once, so expression evaluation
  // never mutates the symbol table afterwards (worker threads evaluate
  // expressions concurrently during the parallel batch pipeline).
  void PreinternConstants() {
    auto walk = [&](auto&& self, const Expr& e) -> void {
      if (e.kind == Expr::kConst) {
        const_values_.emplace(&e, ConstantToValue(e.constant, &db_->symbols()));
      }
      for (const Expr& child : e.children) self(self, child);
    };
    for (const SelectItem& item : select_.items) walk(walk, item.expr);
    for (const Predicate& pred : select_.where) {
      walk(walk, pred.lhs);
      walk(walk, pred.rhs);
    }
    for (const NotExists& ne : select_.not_exists) {
      for (const auto& [column, expr] : ne.equalities) {
        (void)column;
        walk(walk, expr);
      }
    }
    for (const Expr& e : select_.group_by) walk(walk, e);
  }

  // Assigns a dense batch slot to every (table, column) pair referenced by
  // the plan's probe keys and filters, the select items, the NOT EXISTS
  // keys and GROUP BY — the columns the batch pipeline materializes.
  Status BuildBatchSlots() {
    slot_of_.assign(tables_.size(), std::map<int, size_t>());
    for (const StepPlan& step : plan_) {
      for (const ProbeSpec& probe : step.probes) {
        RAQLET_RETURN_IF_ERROR(CollectSlots(*probe.key_expr));
      }
      for (const Predicate* pred : step.filters) {
        RAQLET_RETURN_IF_ERROR(CollectSlots(pred->lhs));
        RAQLET_RETURN_IF_ERROR(CollectSlots(pred->rhs));
      }
    }
    for (const SelectItem& item : select_.items) {
      RAQLET_RETURN_IF_ERROR(CollectSlots(item.expr));
    }
    for (const NotExists& ne : select_.not_exists) {
      for (const auto& [column, expr] : ne.equalities) {
        (void)column;
        RAQLET_RETURN_IF_ERROR(CollectSlots(expr));
      }
    }
    for (const Expr& e : select_.group_by) {
      RAQLET_RETURN_IF_ERROR(CollectSlots(e));
    }
    // Per-step materialization lists: which slots exist before the step
    // (to gather through the match selection) and which it fills.
    std::vector<size_t> live;
    for (StepPlan& step : plan_) {
      step.prior_slots = live;
      for (const auto& [col, slot] : slot_of_[step.table_index]) {
        step.new_cols.emplace_back(col, slot);
        live.push_back(slot);
      }
    }
    return Status::OK();
  }

  Status CollectSlots(const Expr& e) {
    if (e.kind == Expr::kColumn) {
      auto it = alias_index_.find(e.table);
      if (it == alias_index_.end()) {
        return Status::Internal("unbound alias " + e.table);
      }
      int col = ColumnIndex(it->second, e.column);
      if (col < 0) {
        return Status::NotFound("no column " + e.column + " in " + e.table);
      }
      std::map<int, size_t>& slots = slot_of_[it->second];
      if (slots.find(col) == slots.end()) {
        slots.emplace(col, slot_count_++);
      }
    }
    for (const Expr& child : e.children) {
      RAQLET_RETURN_IF_ERROR(CollectSlots(child));
    }
    return Status::OK();
  }

  Result<Value> EvalExpr(const Expr& e, const RowBinding& row) const {
    switch (e.kind) {
      case Expr::kColumn: {
        auto it = alias_index_.find(e.table);
        if (it == alias_index_.end() || row[it->second] == kUnbound) {
          return Status::Internal("unbound alias " + e.table);
        }
        int col = ColumnIndex(it->second, e.column);
        if (col < 0) {
          return Status::NotFound("no column " + e.column + " in " + e.table);
        }
        return tables_[it->second].relation->ValueAt(
            row[it->second], static_cast<size_t>(col));
      }
      case Expr::kConst: {
        auto it = const_values_.find(&e);
        if (it != const_values_.end()) return it->second;
        return ConstantToValue(e.constant, &db_->symbols());
      }
      case Expr::kArith: {
        RAQLET_ASSIGN_OR_RETURN(Value lhs, EvalExpr(e.children[0], row));
        RAQLET_ASSIGN_OR_RETURN(Value rhs, EvalExpr(e.children[1], row));
        return EvalArith(e.op, lhs, rhs);
      }
      case Expr::kAgg:
        return Status::Internal("aggregate outside aggregation context");
    }
    return Status::Internal("unhandled expr kind");
  }

  // ---------------------------------------------------------------------
  // Tuple pipeline (depth-first, row at a time)
  // ---------------------------------------------------------------------

  // Extends `row` with every matching row of one step, invoking `sink`.
  // (The binding slot is restored afterwards.)
  template <typename Sink>
  Status ExtendOne(const StepPlan& step, RowBinding* row, Sink sink) {
    // Tuple mode works in unit batches: one binding row per invocation.
    obs::SqlStepMetrics* sm =
        step_totals_.empty() ? nullptr : &step_totals_[&step - plan_.data()];
    if (sm != nullptr) {
      ++sm->batches;
      ++sm->rows_in;
      if (!step.probes.empty()) ++sm->probes;
    }

    auto try_row = [&](uint32_t candidate) -> Status {
      if (stats_ != nullptr) ++stats_->rows_scanned;
      if (sm != nullptr) ++sm->rows_matched;
      (*row)[step.table_index] = candidate;
      for (const Predicate* pred : step.filters) {
        RAQLET_ASSIGN_OR_RETURN(Value lhs, EvalExpr(pred->lhs, *row));
        RAQLET_ASSIGN_OR_RETURN(Value rhs, EvalExpr(pred->rhs, *row));
        if (!CheckCmp(pred->op, lhs, rhs, db_->symbols())) {
          (*row)[step.table_index] = kUnbound;
          return Status::OK();
        }
      }
      if (sm != nullptr) ++sm->rows_out;
      Status s = sink(*row);
      (*row)[step.table_index] = kUnbound;
      return s;
    };

    if (!step.probes.empty()) {
      probe_key_.clear();
      for (const ProbeSpec& probe : step.probes) {
        RAQLET_ASSIGN_OR_RETURN(Value v, EvalExpr(*probe.key_expr, *row));
        probe_key_.push_back(v);
      }
      auto it = step.index->find(probe_key_);
      if (it == step.index->end()) return Status::OK();
      for (uint32_t row_idx : it->second) {
        RAQLET_RETURN_IF_ERROR(try_row(row_idx));
      }
      return Status::OK();
    }
    // The leading step scans its range (the delta suffix when
    // semi-naive); later steps scan the whole table.
    const bool lead = &step == &plan_.front();
    const size_t end = lead ? LeadScanEnd() : step.rel->size();
    for (size_t r = lead ? LeadScanBegin() : 0; r < end; ++r) {
      RAQLET_RETURN_IF_ERROR(try_row(static_cast<uint32_t>(r)));
    }
    return Status::OK();
  }

  template <typename Sink>
  Status Descend(size_t step_index, RowBinding* row, Sink sink) {
    if (step_index == plan_.size()) {
      RAQLET_ASSIGN_OR_RETURN(bool keep, PassesNotExists(*row));
      if (!keep) return Status::OK();
      return sink(*row);
    }
    return ExtendOne(plan_[step_index], row, [&](const RowBinding& r) {
      RowBinding copy = r;
      return Descend(step_index + 1, &copy, sink);
    });
  }

  Result<bool> PassesNotExists(const RowBinding& row) const {
    for (const NePlan& plan : ne_plans_) {
      bool exists;
      if (plan.cols.empty()) {
        exists = !plan.rel->empty();
      } else {
        Tuple key;
        key.reserve(plan.cols.size());
        for (const auto& [column, expr] : plan.ne->equalities) {
          (void)column;
          RAQLET_ASSIGN_OR_RETURN(Value v, EvalExpr(expr, row));
          key.push_back(v);
        }
        exists = plan.index->find(key) != plan.index->end();
      }
      if (exists) return false;
    }
    return true;
  }

  Result<Tuple> Project(const RowBinding& row) const {
    Tuple out;
    out.reserve(select_.items.size());
    for (const SelectItem& item : select_.items) {
      RAQLET_ASSIGN_OR_RETURN(Value v, EvalExpr(item.expr, row));
      out.push_back(v);
    }
    return out;
  }

  // ---------------------------------------------------------------------
  // Vectorized pipeline (column batches, breadth-first)
  // ---------------------------------------------------------------------

  Result<BatchCol> EvalExprBatch(const Expr& e, const Batch& b,
                                 std::deque<BatchColumn>* scratch) const {
    switch (e.kind) {
      case Expr::kColumn: {
        auto it = alias_index_.find(e.table);
        if (it == alias_index_.end()) {
          return Status::Internal("unbound alias " + e.table);
        }
        int col = ColumnIndex(it->second, e.column);
        auto slot_it = slot_of_[it->second].find(col);
        if (col < 0 || slot_it == slot_of_[it->second].end()) {
          return Status::NotFound("no column " + e.column + " in " + e.table);
        }
        BatchCol out;
        out.col = &b.cols[slot_it->second];
        return out;
      }
      case Expr::kConst: {
        auto it = const_values_.find(&e);
        if (it == const_values_.end()) {
          // Every constant is interned by PreinternConstants before the
          // batch pipeline runs; falling back to ConstantToValue here
          // would mutate the SymbolTable from worker threads. Fail loudly
          // if a new Expr source is ever missed.
          return Status::Internal("constant not pre-interned: " +
                                  e.ToString());
        }
        BatchCol out;
        out.scalar = it->second;
        return out;
      }
      case Expr::kArith: {
        RAQLET_ASSIGN_OR_RETURN(BatchCol lhs,
                                EvalExprBatch(e.children[0], b, scratch));
        RAQLET_ASSIGN_OR_RETURN(BatchCol rhs,
                                EvalExprBatch(e.children[1], b, scratch));
        if (lhs.col == nullptr && rhs.col == nullptr) {
          RAQLET_ASSIGN_OR_RETURN(Value v,
                                  EvalArith(e.op, lhs.scalar, rhs.scalar));
          BatchCol out;
          out.scalar = v;
          return out;
        }
        scratch->emplace_back();
        BatchColumn& dst = scratch->back();
        dst.owned.resize(b.rows);
        for (size_t i = 0; i < b.rows; ++i) {
          RAQLET_ASSIGN_OR_RETURN(dst.owned[i],
                                  EvalArith(e.op, lhs.at(i), rhs.at(i)));
        }
        BatchCol out;
        out.col = &dst;
        return out;
      }
      case Expr::kAgg:
        return Status::Internal("aggregate outside aggregation context");
    }
    return Status::Internal("unhandled expr kind");
  }

  // Drops batch rows whose keep flag is 0, compacting every live column
  // (stable). Owned columns compact in place; borrowed storage views
  // materialize their survivors into owned values (first copy those rows
  // ever see).
  void CompactBatch(Batch* b, const std::vector<char>& keep) const {
    size_t kept = 0;
    for (size_t i = 0; i < b->rows; ++i) kept += keep[i] != 0;
    if (kept == b->rows) return;
    for (BatchColumn& col : b->cols) {
      if (col.size() == 0) continue;  // unfilled slot
      if (col.is_view) {
        col.owned.clear();
        col.owned.reserve(kept);
        for (size_t i = 0; i < b->rows; ++i) {
          if (keep[i]) col.owned.push_back(col.view.at(i));
        }
        col.view = Relation::ColumnView();
        col.is_view = false;
        continue;
      }
      size_t w = 0;
      for (size_t i = 0; i < b->rows; ++i) {
        if (keep[i]) col.owned[w++] = col.owned[i];
      }
      col.owned.resize(w);
    }
    b->rows = kept;
  }

  // One batch join step: evaluate the probe keys column-at-a-time, probe
  // the prebuilt hash index once per batch of keys (or scan `[begin,end)`
  // of the table when there are no probes), gather the surviving prior
  // columns through the match selection, materialize this table's
  // columns, and apply the step's filters as selection masks. A leading
  // scan does not gather at all: it borrows the table's column storage as
  // zero-copy views — values are first copied only when a filter compacts
  // or a later step gathers through its match selection.
  Status ExtendBatch(const StepPlan& step, size_t begin, size_t end,
                     Batch* batch, size_t* scanned,
                     obs::SqlStepMetrics* sm) const {
    Batch in = std::move(*batch);
    Batch out;
    out.cols.resize(slot_count_);
    std::deque<BatchColumn> scratch;
    if (sm != nullptr) {
      ++sm->batches;
      sm->rows_in += in.rows;
      if (!step.probes.empty()) sm->probes += in.rows;
    }
    if (!step.probes.empty()) {
      std::vector<uint32_t> src;    // batch row of each match
      std::vector<uint32_t> match;  // table row of each match
      std::vector<BatchCol> keys;
      keys.reserve(step.probes.size());
      for (const ProbeSpec& probe : step.probes) {
        RAQLET_ASSIGN_OR_RETURN(BatchCol key,
                                EvalExprBatch(*probe.key_expr, in, &scratch));
        keys.push_back(key);
      }
      Tuple key(step.probes.size());
      for (size_t i = 0; i < in.rows; ++i) {
        for (size_t k = 0; k < keys.size(); ++k) key[k] = keys[k].at(i);
        auto it = step.index->find(key);
        if (it == step.index->end()) continue;
        *scanned += it->second.size();
        for (uint32_t row_idx : it->second) {
          src.push_back(static_cast<uint32_t>(i));
          match.push_back(row_idx);
        }
      }
      out.rows = src.size();
      for (size_t slot : step.prior_slots) {
        const BatchColumn& sv = in.cols[slot];
        std::vector<Value>& dst = out.cols[slot].owned;
        dst.resize(src.size());
        for (size_t k = 0; k < src.size(); ++k) dst[k] = sv.at(src[k]);
      }
      for (const auto& [col, slot] : step.new_cols) {
        const Relation::ColumnView& cv =
            step.rel_cols[static_cast<size_t>(col)];
        std::vector<Value>& dst = out.cols[slot].owned;
        dst.resize(match.size());
        for (size_t k = 0; k < match.size(); ++k) dst[k] = cv.at(match[k]);
      }
    } else {
      const size_t limit = std::min(end, step.rel->size());
      const size_t count = limit > begin ? limit - begin : 0;
      *scanned += in.rows * count;
      if (in.rows == 1 && step.prior_slots.empty()) {
        // Leading scan over the unit batch: zero-copy column borrow.
        out.rows = count;
        for (const auto& [col, slot] : step.new_cols) {
          out.cols[slot].view =
              step.rel->ColumnSlice(static_cast<size_t>(col), begin, limit);
          out.cols[slot].is_view = true;
        }
      } else {
        // Cross-join step: every batch row pairs with every table row.
        out.rows = in.rows * count;
        for (size_t slot : step.prior_slots) {
          const BatchColumn& sv = in.cols[slot];
          std::vector<Value>& dst = out.cols[slot].owned;
          dst.reserve(out.rows);
          for (size_t i = 0; i < in.rows; ++i) {
            for (size_t r = 0; r < count; ++r) dst.push_back(sv.at(i));
          }
        }
        for (const auto& [col, slot] : step.new_cols) {
          const Relation::ColumnView& cv =
              step.rel_cols[static_cast<size_t>(col)];
          std::vector<Value>& dst = out.cols[slot].owned;
          dst.reserve(out.rows);
          for (size_t i = 0; i < in.rows; ++i) {
            for (size_t r = begin; r < limit; ++r) dst.push_back(cv.at(r));
          }
        }
      }
    }

    if (sm != nullptr) sm->rows_matched += out.rows;

    // Filters compact after each predicate, so later predicates (and their
    // arithmetic) never see rows an earlier predicate already excluded —
    // same short-circuit the tuple pipeline gets per row.
    for (const Predicate* pred : step.filters) {
      if (out.rows == 0) break;
      std::deque<BatchColumn> fscratch;
      RAQLET_ASSIGN_OR_RETURN(BatchCol lhs,
                              EvalExprBatch(pred->lhs, out, &fscratch));
      RAQLET_ASSIGN_OR_RETURN(BatchCol rhs,
                              EvalExprBatch(pred->rhs, out, &fscratch));
      std::vector<char> keep(out.rows);
      for (size_t i = 0; i < out.rows; ++i) {
        keep[i] = CheckCmp(pred->op, lhs.at(i), rhs.at(i), db_->symbols());
      }
      CompactBatch(&out, keep);
    }
    if (sm != nullptr) sm->rows_out += out.rows;
    *batch = std::move(out);
    return Status::OK();
  }

  // Anti-joins the batch against every NOT EXISTS table (batched key
  // evaluation, one index probe per row, selection-mask compaction).
  Status FilterNotExistsBatch(Batch* batch) const {
    for (const NePlan& plan : ne_plans_) {
      if (batch->rows == 0) return Status::OK();
      if (plan.cols.empty()) {
        if (!plan.rel->empty()) {
          for (BatchColumn& col : batch->cols) col.clear();
          batch->rows = 0;
        }
        continue;
      }
      std::deque<BatchColumn> scratch;
      std::vector<BatchCol> keys;
      keys.reserve(plan.cols.size());
      for (const auto& [column, expr] : plan.ne->equalities) {
        (void)column;
        RAQLET_ASSIGN_OR_RETURN(BatchCol key,
                                EvalExprBatch(expr, *batch, &scratch));
        keys.push_back(key);
      }
      Tuple key(plan.cols.size());
      std::vector<char> keep(batch->rows);
      for (size_t i = 0; i < batch->rows; ++i) {
        for (size_t k = 0; k < keys.size(); ++k) key[k] = keys[k].at(i);
        keep[i] = plan.index->find(key) == plan.index->end();
      }
      CompactBatch(batch, keep);
    }
    return Status::OK();
  }

  // Runs the batch pipeline over `[begin, end)` of the leading step's scan
  // (the range is ignored by a probing first step) through every join step
  // and the NOT EXISTS filters.
  Status RunPipeline(size_t begin, size_t end, Batch* batch,
                     size_t* scanned,
                     std::vector<obs::SqlStepMetrics>* steps) const {
    batch->cols.resize(slot_count_);
    batch->rows = 1;  // unit batch: no table bound yet
    for (size_t s = 0; s < plan_.size(); ++s) {
      RAQLET_RETURN_IF_ERROR(ExtendBatch(
          plan_[s], s == 0 ? begin : 0,
          s == 0 ? end : plan_[s].rel->size(), batch, scanned,
          steps != nullptr ? &(*steps)[s] : nullptr));
      if (batch->rows == 0) return Status::OK();
    }
    return FilterNotExistsBatch(batch);
  }

  // Projects the final batch column-wise: one staged output column per
  // select item, appended to `out_cols` — the columnar merge shape
  // Relation::InsertColumns consumes without ever boxing a row tuple.
  Status ProjectBatch(const Batch& batch,
                      std::vector<std::vector<Value>>* out_cols) const {
    std::deque<BatchColumn> scratch;
    std::vector<BatchCol> cols;
    cols.reserve(select_.items.size());
    for (const SelectItem& item : select_.items) {
      RAQLET_ASSIGN_OR_RETURN(BatchCol c,
                              EvalExprBatch(item.expr, batch, &scratch));
      cols.push_back(c);
    }
    out_cols->resize(cols.size());
    for (size_t j = 0; j < cols.size(); ++j) {
      std::vector<Value>& dst = (*out_cols)[j];
      dst.reserve(dst.size() + batch.rows);
      for (size_t i = 0; i < batch.rows; ++i) dst.push_back(cols[j].at(i));
    }
    return Status::OK();
  }

  Status RunChunk(size_t begin, size_t end,
                  std::vector<std::vector<Value>>* out_cols,
                  size_t* scanned,
                  std::vector<obs::SqlStepMetrics>* steps) const {
    Batch batch;
    RAQLET_RETURN_IF_ERROR(RunPipeline(begin, end, &batch, scanned, steps));
    if (batch.rows == 0) return Status::OK();
    return ProjectBatch(batch, out_cols);
  }

  // Vectorized driver: single batch when serial, otherwise the leading
  // scan is partitioned across the pool and per-chunk outputs merge in
  // chunk order — identical rows and row order to the serial run.
  // Leading-scan range: the delta suffix when semi-naive, else the whole
  // table.
  size_t LeadScanBegin() const {
    return delta_end_ != kNoDelta ? delta_begin_ : 0;
  }
  size_t LeadScanEnd() const {
    return delta_end_ != kNoDelta ? delta_end_ : plan_.front().rel->size();
  }

  Status EvaluateVectorized(Relation* out) {
    const StepPlan& first = plan_.front();
    const size_t scan_begin = LeadScanBegin();
    const size_t scan_end = LeadScanEnd();
    const size_t scan_rows = scan_end - scan_begin;
    size_t nchunks = 1;
    if (pool_ != nullptr && first.probes.empty()) {
      const size_t max_chunks = static_cast<size_t>(pool_->num_threads()) * 4;
      nchunks = std::clamp<size_t>(scan_rows / kChunkRows, 1, max_chunks);
    }
    if (nchunks <= 1) {
      if (guard_ != nullptr) RAQLET_RETURN_IF_ERROR(guard_->Check());
      std::vector<std::vector<Value>> cols;
      size_t scanned = 0;
      RAQLET_RETURN_IF_ERROR(RunChunk(
          scan_begin, scan_end, &cols, &scanned,
          step_totals_.empty() ? nullptr : &step_totals_));
      if (stats_ != nullptr) stats_->rows_scanned += scanned;
      const size_t staged = cols.empty() ? 0 : cols.front().size();
      RAQLET_ASSIGN_OR_RETURN(size_t inserted, out->InsertColumns(&cols));
      RecordDedup(staged, inserted);
      return Status::OK();
    }
    const bool want_steps = !step_totals_.empty();
    std::vector<std::vector<std::vector<Value>>> chunk_cols(nchunks);
    std::vector<size_t> chunk_scanned(nchunks, 0);
    std::vector<std::vector<obs::SqlStepMetrics>> chunk_steps(
        nchunks, std::vector<obs::SqlStepMetrics>(
                     want_steps ? plan_.size() : 0));
    std::vector<Status> chunk_status(nchunks);
    const size_t per_chunk = (scan_rows + nchunks - 1) / nchunks;
    pool_->ParallelFor(
        nchunks,
        [&](size_t c) {
          if (guard_ != nullptr) {
            Status g = guard_->Check();
            if (!g.ok()) {
              chunk_status[c] = std::move(g);
              return;
            }
          }
          const size_t begin = scan_begin + c * per_chunk;
          const size_t end = std::min(scan_end, begin + per_chunk);
          if (begin >= end) return;
          chunk_status[c] = RunChunk(begin, end, &chunk_cols[c],
                                     &chunk_scanned[c],
                                     want_steps ? &chunk_steps[c] : nullptr);
        },
        guard_);
    for (const Status& status : chunk_status) {
      RAQLET_RETURN_IF_ERROR(status);
    }
    // Chunks skipped by a tripped guard left OK statuses and empty
    // outputs; report the trip rather than merging a partial result.
    if (guard_ != nullptr && guard_->tripped()) return guard_->TripStatus();
    for (size_t c = 0; c < nchunks; ++c) {
      if (stats_ != nullptr) stats_->rows_scanned += chunk_scanned[c];
      for (size_t s = 0; want_steps && s < plan_.size(); ++s) {
        step_totals_[s].batches += chunk_steps[c][s].batches;
        // Every chunk's leading step reads the same unit seed row: count
        // it once per evaluation, as the serial pipeline does.
        if (s > 0 || c == 0) {
          step_totals_[s].rows_in += chunk_steps[c][s].rows_in;
        }
        step_totals_[s].probes += chunk_steps[c][s].probes;
        step_totals_[s].rows_matched += chunk_steps[c][s].rows_matched;
        step_totals_[s].rows_out += chunk_steps[c][s].rows_out;
      }
      const size_t staged =
          chunk_cols[c].empty() ? 0 : chunk_cols[c].front().size();
      RAQLET_ASSIGN_OR_RETURN(size_t inserted,
                              out->InsertColumns(&chunk_cols[c]));
      RecordDedup(staged, inserted);
    }
    return Status::OK();
  }

  // ---------------------------------------------------------------------
  // Aggregation (both modes; the vectorized path accumulates column-wise)
  // ---------------------------------------------------------------------

  struct AggState {
    int64_t count = 0;
    double sum = 0.0;
    bool any_float = false;
    std::optional<Value> min;
    std::optional<Value> max;
  };

  void UpdateAggState(AggState* state, const std::optional<Value>& v) const {
    state->count += 1;
    if (!v.has_value()) return;
    state->any_float |= v->kind() == ValueType::kFloat;
    state->sum += v->NumericValue();
    if (!state->min.has_value() ||
        CompareValues(*v, *state->min, db_->symbols()) < 0) {
      state->min = *v;
    }
    if (!state->max.has_value() ||
        CompareValues(*v, *state->max, db_->symbols()) > 0) {
      state->max = *v;
    }
  }

  // Final value of one aggregate; nullopt means "skip this group" (min/max
  // of an aggregate that never saw an argument).
  std::optional<Value> FinalizeAgg(const Expr& agg_expr,
                                   const AggState& state) const {
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

  Status EvaluateWithAggregation(Relation* out) {
    if (agg_item_pos_.empty()) {
      return Status::Internal("aggregation context without aggregate item");
    }
    // Group key (the non-aggregate items, in item order) -> one state per
    // aggregate item, in first-seen order for determinism.
    std::map<Tuple, std::vector<AggState>> groups;

    std::vector<bool> is_agg(select_.items.size(), false);
    for (size_t pos : agg_item_pos_) is_agg[pos] = true;

    if (mode_ == SqlMode::kVectorized && !plan_.empty()) {
      // Batched accumulate over the final batch. Single chunk: chunked
      // accumulation would re-associate float sums and break the
      // bit-identical-to-serial contract.
      Batch batch;
      size_t scanned = 0;
      RAQLET_RETURN_IF_ERROR(
          RunPipeline(LeadScanBegin(), LeadScanEnd(), &batch, &scanned,
                      step_totals_.empty() ? nullptr : &step_totals_));
      if (stats_ != nullptr) stats_->rows_scanned += scanned;
      if (batch.rows > 0) {
        std::deque<BatchColumn> scratch;
        std::vector<BatchCol> key_cols;
        std::vector<std::optional<BatchCol>> arg_cols;
        for (size_t i = 0; i < select_.items.size(); ++i) {
          const Expr& e = select_.items[i].expr;
          if (is_agg[i]) {
            if (e.children.empty()) {
              arg_cols.emplace_back(std::nullopt);
            } else {
              RAQLET_ASSIGN_OR_RETURN(
                  BatchCol c, EvalExprBatch(e.children[0], batch, &scratch));
              arg_cols.emplace_back(c);
            }
          } else {
            RAQLET_ASSIGN_OR_RETURN(BatchCol c,
                                    EvalExprBatch(e, batch, &scratch));
            key_cols.push_back(c);
          }
        }
        Tuple key(key_cols.size());
        for (size_t i = 0; i < batch.rows; ++i) {
          for (size_t k = 0; k < key_cols.size(); ++k) {
            key[k] = key_cols[k].at(i);
          }
          std::vector<AggState>& states = groups[key];
          states.resize(agg_item_pos_.size());
          for (size_t a = 0; a < arg_cols.size(); ++a) {
            std::optional<Value> v;
            if (arg_cols[a].has_value()) v = arg_cols[a]->at(i);
            UpdateAggState(&states[a], v);
          }
        }
      }
    } else {
      auto accumulate = [&](const RowBinding& row) -> Status {
        Tuple key;
        key.reserve(select_.items.size() - agg_item_pos_.size());
        for (size_t i = 0; i < select_.items.size(); ++i) {
          if (is_agg[i]) continue;
          RAQLET_ASSIGN_OR_RETURN(Value v,
                                  EvalExpr(select_.items[i].expr, row));
          key.push_back(v);
        }
        std::vector<AggState>& states = groups[key];
        states.resize(agg_item_pos_.size());
        for (size_t a = 0; a < agg_item_pos_.size(); ++a) {
          const Expr& e = select_.items[agg_item_pos_[a]].expr;
          std::optional<Value> v;
          if (!e.children.empty()) {
            RAQLET_ASSIGN_OR_RETURN(Value val, EvalExpr(e.children[0], row));
            v = val;
          }
          UpdateAggState(&states[a], v);
        }
        return Status::OK();
      };
      RowBinding binding(tables_.size(), kUnbound);
      RAQLET_RETURN_IF_ERROR(Descend(0, &binding, accumulate));
    }

    for (const auto& [key, states] : groups) {
      Tuple tuple;
      tuple.reserve(select_.items.size());
      size_t ki = 0;
      size_t ai = 0;
      bool skip = false;
      for (size_t i = 0; i < select_.items.size(); ++i) {
        if (is_agg[i]) {
          std::optional<Value> result =
              FinalizeAgg(select_.items[i].expr, states[ai++]);
          if (!result.has_value()) {
            skip = true;
            break;
          }
          tuple.push_back(*result);
        } else {
          tuple.push_back(key[ki++]);
        }
      }
      if (!skip) {
        RAQLET_ASSIGN_OR_RETURN(bool fresh, out->Insert(tuple));
        RecordDedup(1, fresh ? 1 : 0);
      }
    }
    return Status::OK();
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
  // This evaluation's per-plan-step counters, in plan order. Parallel
  // chunks accumulate privately and merge here in chunk order.
  std::vector<obs::SqlStepMetrics> step_totals_;

  std::vector<BoundTable> tables_;
  std::map<std::string, size_t> alias_index_;
  std::vector<StepPlan> plan_;
  std::vector<NePlan> ne_plans_;
  std::vector<size_t> agg_item_pos_;  // item positions that are aggregates
  bool trivially_false_ = false;
  // Pre-interned constants, keyed by Expr node (stable: the SQIR program
  // outlives the evaluator). Read-only during (possibly parallel)
  // evaluation.
  std::unordered_map<const Expr*, Value> const_values_;
  std::vector<std::map<int, size_t>> slot_of_;  // [table] column -> slot
  size_t slot_count_ = 0;
  Tuple probe_key_;  // tuple-mode probe scratch
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
        // `delta_end`, outside the scanned range: the vectorized pipeline
        // finishes its reads before merging, and the tuple pipeline reads
        // through row indexes, never through views held across an insert.
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
